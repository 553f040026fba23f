"""Acceptance suite: the ten contract-level checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test prints the measured quantity next to its bound so
a failure is diagnosable from the log alone.
"""

import numpy as np
import pytest

from egreg import (
    Dataset,
    LimitConfig,
    TruthSpec,
    envelope_scores,
    lambda_guarantee_threshold,
    limiting_risk_egreg,
    limiting_risk_niece,
    mp_residual,
    optimal_lambda,
    population_niece,
    reducible_risk_egreg,
    reducible_risk_niece,
    run_study,
    stieltjes_m,
    stieltjes_m_prime,
    subspace_distance,
    thin_svd,
)
from egreg.dataio import write_table
from egreg.estimators import egreg_coefficients, fit_method, niece_coefficients
from egreg.matrixcore import _recenter
from egreg.simharness import _haar_orthogonal


def _shapes(seed):
    """n<p, n=p, n>p in rotation, sizes jittered per seed."""
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        n, p = int(rng.integers(8, 20)), int(rng.integers(20, 40))
    elif kind == 1:
        n = p = int(rng.integers(10, 30))
    else:
        n, p = int(rng.integers(25, 60)), int(rng.integers(3, 12))
    q = int(rng.integers(1, 4))
    return rng, n, p, q


def _draw_centered(rng, n, p, q, noise=1.0):
    X = _recenter(rng.standard_normal((n, p)))
    beta = rng.standard_normal((p, q))
    Y = _recenter(X @ beta + noise * rng.standard_normal((n, q)))
    return X, Y, beta


def test_c01_zero_lambda_egreg_equals_niece():
    """EgReg with lambda = 0 reproduces NIECE with u = d on the same pool."""
    worst = 0.0
    for seed in range(200):
        rng, n, p, q = _shapes(seed)
        X, Y, _ = _draw_centered(rng, n, p, q)
        data = Dataset(X, Y, centered=True)
        r = thin_svd(X).r
        d = int(rng.integers(1, r + 1))
        fe = X @ fit_method(data, "egreg", {"d": d, "lambda": 0.0}).beta
        fn = X @ fit_method(data, "niece", {"u": d, "d": d}).beta
        worst = max(worst, float(np.linalg.norm(fe - fn)))
    print(f"criterion 1: max fitted-value gap {worst:.3e} (bound 1e-8)")
    assert worst <= 1e-8


def test_c02_spectral_form_equals_reduced_ridge_solve():
    """The spectral EgReg coefficients equal the explicit ridge solve on the
    reduced predictors X Gamma_hat."""
    worst = 0.0
    for seed in range(200):
        rng, n, p, q = _shapes(seed)
        X, Y, _ = _draw_centered(rng, n, p, q)
        data = Dataset(X, Y, centered=True)
        r = thin_svd(X).r
        d = int(rng.integers(1, r + 1))
        for lam in (0.1, 1.0, 10.0):
            model = fit_method(data, "egreg", {"d": d, "lambda": lam})
            G = model.gamma_hat
            Z = X @ G
            eta = np.linalg.solve(Z.T @ Z + lam * np.eye(d), Z.T @ Y)
            worst = max(worst, float(np.linalg.norm(model.beta - G @ eta)))
    print(f"criterion 2: max coefficient gap {worst:.3e} (bound 1e-8)")
    assert worst <= 1e-8


def _mc_case(seed, n, p, q, R=20000):
    """Monte Carlo reducible risk with X and the scores frozen, noise redrawn."""
    rng = np.random.default_rng(seed)
    X = _recenter(rng.standard_normal((n, p)))
    beta = rng.standard_normal((p, q)) / np.sqrt(p)
    A = rng.standard_normal((p, p))
    Sigma_x = A @ A.T / p + 0.5 * np.eye(p)
    Le = np.linalg.cholesky(0.5 * np.eye(q) + 0.1 * np.ones((q, q)))
    truth = TruthSpec(beta, Sigma_x, Le @ Le.T)
    svd = thin_svd(X)
    d = svd.r
    # scores frozen from an independent response draw
    Y0 = X @ beta + rng.standard_normal((n, q)) @ Le.T
    scores = envelope_scores(svd, X.T @ Y0 / n, d)
    lam = float(np.median(scores.phi[scores.phi > 0]))
    u = max(1, d // 2)

    rep_e = reducible_risk_egreg(svd, scores, truth, d, lam)
    rep_n = reducible_risk_niece(svd, scores, truth, u, d)

    Vd = svd.V[:, :d]
    target = Vd @ (Vd.T @ beta)
    sums = np.zeros(2)
    for r_i in range(R):
        E = np.random.default_rng([seed, 1, r_i]).standard_normal((n, q)) @ Le.T
        Y = X @ beta + E
        be = egreg_coefficients(svd, scores, Y, d, lam)
        bn = niece_coefficients(svd, scores, Y, u, d)
        for k, b in enumerate((be, bn)):
            delta = b - target
            sums[k] += float(np.einsum("pq,pe,eq->", delta, Sigma_x, delta))
    mc = sums / R
    return (rep_e.reducible, mc[0]), (rep_n.reducible, mc[1])


def test_c03_exact_risk_formulas_match_monte_carlo():
    """Closed-form EgReg and NIECE reducible risks agree with a 20000-rep
    noise-redrawn oracle to 2% at (40, 8, 2) and (80, 60, 2)."""
    for case_seed, (n, p, q) in [(101, (40, 8, 2)), (202, (80, 60, 2))]:
        (ae, me), (an, mn) = _mc_case(case_seed, n, p, q)
        rel_e = abs(ae - me) / ae
        rel_n = abs(an - mn) / an
        print(f"criterion 3 (n={n}, p={p}): egreg analytic {ae:.5f} vs mc "
              f"{me:.5f} ({rel_e:.2%}); niece {an:.5f} vs {mn:.5f} ({rel_n:.2%})")
        assert rel_e <= 0.02
        assert rel_n <= 0.02


def test_c04_below_threshold_egreg_strictly_beats_niece():
    """At half the guarantee threshold with d = u, the EgReg reducible risk
    is strictly below NIECE's in 1000 fuzzed instances."""
    checked = 0
    for seed in range(1000):
        rng, n, p, q = _shapes(seed + 5000)
        X, Y, beta = _draw_centered(rng, n, p, q)
        svd = thin_svd(X)
        d = int(rng.integers(1, svd.r + 1))
        scores = envelope_scores(svd, X.T @ Y / n, d)
        A = rng.standard_normal((p, p))
        truth = TruthSpec(beta, A @ A.T / p + 0.2 * np.eye(p), np.eye(q))
        thr = lambda_guarantee_threshold(svd, scores, truth, d)
        if not np.isfinite(thr):
            continue
        egreg = reducible_risk_egreg(svd, scores, truth, d, thr / 2.0).reducible
        niece = reducible_risk_niece(svd, scores, truth, d, d).reducible
        assert egreg < niece, f"seed {seed}: {egreg} !< {niece}"
        checked += 1
    print(f"criterion 4: strict improvement in {checked}/1000 instances "
          "(non-degenerate thresholds)")
    assert checked >= 990


def test_c05_limiting_risks_and_dominance():
    """Frozen limiting NIECE values and EgReg-at-its-optimum dominance on a
    400-point aspect-ratio grid."""
    lo = limiting_risk_niece(LimitConfig(gamma=0.5, c_sq=10.0, tr_sigma_eps=10.0))
    hi = limiting_risk_niece(LimitConfig(gamma=2.0, c_sq=10.0, tr_sigma_eps=10.0))
    print(f"criterion 5: niece limits {lo!r} (expect 10), {hi!r} (expect 15)")
    assert abs(lo - 10.0) <= 1e-12
    assert abs(hi - 15.0) <= 1e-12
    grid = np.linspace(0.05, 5.0, 400)
    kept = 0
    for g in grid:
        if abs(g - 1.0) < 1e-3:
            continue
        cfg = LimitConfig(gamma=float(g), c_sq=10.0, tr_sigma_eps=10.0)
        assert limiting_risk_egreg(cfg, optimal_lambda(cfg)) < limiting_risk_niece(cfg)
        kept += 1
    print(f"criterion 5: dominance held at {kept}/400 grid points")


def test_c06_stieltjes_transform_validation():
    """Analytic derivative vs central differences, the self-consistency
    residual, and a 2000-dimensional resolvent trace."""
    worst_fd, worst_res = 0.0, 0.0
    for gamma in (0.5, 1.0, 2.0):
        for z in (-0.1, -1.0, -10.0):
            h = 1e-6 * abs(z)
            fd = (stieltjes_m(z + h, gamma) - stieltjes_m(z - h, gamma)) / (2 * h)
            md = stieltjes_m_prime(z, gamma)
            worst_fd = max(worst_fd, abs(md - fd) / abs(md))
            worst_res = max(worst_res, abs(mp_residual(z, gamma)))
    print(f"criterion 6: max FD rel err {worst_fd:.3e} (bound 1e-6); "
          f"max residual {worst_res:.3e} (bound 1e-10)")
    assert worst_fd <= 1e-6
    assert worst_res <= 1e-10

    u, n = 2000, 4000
    Xb = np.random.default_rng(77).standard_normal((n, u))
    eig = np.linalg.eigvalsh(Xb.T @ Xb / n)
    trace = float(np.mean(1.0 / (eig + 1.0)))
    m_ref = stieltjes_m(-1.0, 0.5)
    rel = abs(trace - m_ref) / m_ref
    print(f"criterion 6: resolvent trace {trace:.6f} vs m(-1) {m_ref:.6f} ({rel:.2%})")
    assert rel <= 0.02


def test_c07_double_descent_spike_and_dominance():
    """NIECE risk spikes by >= 5x at the interpolation point; EgReg never
    exceeds NIECE on the grid."""
    res = run_study("double_descent", {
        "u_star_over_n": [0.5, 1.0, 2.0], "n": 100, "replications": 100,
        "seed": 0,
    })
    niece = res.risks[:, res.methods.index("NIECE")]
    egreg = res.risks[:, res.methods.index("EgReg")]
    print(f"criterion 7: niece risks {np.round(niece, 2).tolist()}, "
          f"egreg risks {np.round(egreg, 2).tolist()}")
    assert niece[1] >= 5.0 * niece[0]
    assert niece[1] >= 5.0 * niece[2]
    assert np.all(egreg <= niece)


def test_c08_leading_immaterial_study_ordering():
    """With ten material PCs starting at index 7, full-pool EgReg beats both
    NIECE and SIMPLS at every p/n in {0.25, 0.5, 1, 2, 4}."""
    res = run_study("P1", {
        "replications": 100, "seed": 0,
        "methods": ["niece", "simpls", "egreg_r"],
    })
    niece = res.risks[:, res.methods.index("NIECE")]
    simpls = res.risks[:, res.methods.index("SIMPLS")]
    egreg_r = res.risks[:, res.methods.index("EgReg(r)")]
    print(f"criterion 8: p/n {list(res.grid)}")
    print(f"criterion 8: egreg(r) {np.round(egreg_r, 3).tolist()} vs "
          f"niece {np.round(niece, 3).tolist()} vs "
          f"simpls {np.round(simpls, 3).tolist()}")
    assert np.all(egreg_r < niece)
    assert np.all(egreg_r < simpls)


def test_c09_population_recovery_of_planted_span():
    """population_niece recovers the planted envelope span to 1e-8 for 50
    random configurations."""
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng([9, seed])
        p = int(rng.integers(8, 25))
        decay = float(rng.uniform(0.1, 0.4))
        u_star = int(rng.integers(1, 6))
        q = int(rng.integers(1, 4))
        picks = np.sort(rng.choice(p, size=u_star, replace=False))
        sig = 10.0 * np.exp(-decay * np.arange(p))
        V = _haar_orthogonal(p, rng)
        Sigma_x = (V * sig) @ V.T
        Sigma_x = (Sigma_x + Sigma_x.T) / 2.0
        alpha = rng.standard_normal((u_star, q)) + 0.5
        beta = V[:, picks] @ alpha
        Sxy = Sigma_x @ beta
        basis = population_niece(Sigma_x, Sxy @ Sxy.T, d=p, u_star=u_star)
        worst = max(worst, subspace_distance(basis.basis, V[:, picks]))
    print(f"criterion 9: worst subspace distance {worst:.3e} (bound 1e-8)")
    assert worst <= 1e-8


def test_c10_studies_are_byte_deterministic(tmp_path):
    """Re-running a study with the same config and seed writes byte-identical
    CSV output."""
    configs = [
        ("u_star", {"replications": 2, "p_over_n": [0.25, 0.5], "seed": 11,
                    "methods": ["niece", "egreg"]}),
        ("double_descent", {"replications": 2, "u_star_over_n": [0.5, 1.0],
                            "seed": 11}),
    ]
    for study, config in configs:
        paths = []
        for tag in ("a", "b"):
            res = run_study(study, config)
            path = tmp_path / f"{study}-{tag}.csv"
            write_table(path, res.rows())
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes(), study
    print("criterion 10: reruns byte-identical for u_star and double_descent")
