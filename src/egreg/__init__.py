"""Envelope-guided regularization (EgReg) for multivariate linear regression.

The package provides five estimators built on a shared spectral core --
EgReg, NIECE, PCR, ridge, and SIMPLS -- together with exact conditional
prediction-risk formulas, their proportional-asymptotics limits, and a
reproducible simulation harness.

Submodules are imported lazily so the command-line front end can cap BLAS
thread counts before numpy loads.
"""

__version__ = "0.1.0"

_EXPORTS = {
    # exceptions
    "EgregError": ".exceptions",
    "DimensionError": ".exceptions",
    "DegenerateColumnError": ".exceptions",
    "ContractError": ".exceptions",
    "ParameterError": ".exceptions",
    "DomainError": ".exceptions",
    "SingularityError": ".exceptions",
    "RankZeroError": ".exceptions",
    "ConfigError": ".exceptions",
    "ParseError": ".exceptions",
    "DegeneracyWarning": ".exceptions",
    # matrixcore
    "Dataset": ".matrixcore",
    "Transform": ".matrixcore",
    "SvdFactors": ".matrixcore",
    "CovPair": ".matrixcore",
    "center_standardize": ".matrixcore",
    "thin_svd": ".matrixcore",
    "cross_cov": ".matrixcore",
    "subspace_distance": ".matrixcore",
    # envscore
    "EnvelopeScores": ".envscore",
    "EnvelopeBasis": ".envscore",
    "envelope_scores": ".envscore",
    "population_niece": ".envscore",
    "sample_niece_basis": ".envscore",
    "top_ranked": ".envscore",
    # estimators
    "FittedModel": ".estimators",
    "fit_method": ".estimators",
    "predict": ".estimators",
    # riskanalytics
    "TruthSpec": ".riskanalytics",
    "RiskReport": ".riskanalytics",
    "reducible_risk_egreg": ".riskanalytics",
    "reducible_risk_niece": ".riskanalytics",
    "lambda_guarantee_threshold": ".riskanalytics",
    "empirical_risk": ".riskanalytics",
    "empirical_risk_terms": ".riskanalytics",
    "irreducible_risk": ".riskanalytics",
    # asymptotics
    "LimitConfig": ".asymptotics",
    "RiskCurve": ".asymptotics",
    "stieltjes_m": ".asymptotics",
    "stieltjes_m_prime": ".asymptotics",
    "mp_residual": ".asymptotics",
    "limiting_risk_niece": ".asymptotics",
    "limiting_risk_egreg": ".asymptotics",
    "optimal_lambda": ".asymptotics",
    "risk_curve": ".asymptotics",
    # simharness
    "EnvelopeSimConfig": ".simharness",
    "StudyResult": ".simharness",
    "gen_envelope_model": ".simharness",
    "gen_baseline": ".simharness",
    "kfold_cv": ".simharness",
    "run_study": ".simharness",
}


def __getattr__(name):
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target, __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
