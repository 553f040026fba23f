"""Command-line front end: fit, predict, evaluate-rpe, theory, simulate.

Each ``_cmd_*`` handler does its command's work and returns ``(outputs,
digest object, seed or None, summary line)``.  :func:`main` is the one place
that times a run, writes its provenance manifest (its path checked before
any output is replaced), prints its summary and maps errors to exit codes:
0 on success, 1 on runtime or numeric failure, 2 on usage or config errors.

BLAS thread caps (``--threads`` or the ``EGREG_THREADS`` environment
variable) must land in the environment before numpy initializes its backend,
so numpy-backed modules are imported lazily inside the command handlers --
which is also why the package ``__init__`` resolves its exports lazily.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time

from . import __version__
from .exceptions import ConfigError, ContractError, EgregError, ParameterError

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_thread_cap(threads):
    """Export the thread cap before any numpy import (no-op if unset)."""
    if threads is None:
        raw = os.environ.get("EGREG_THREADS")
        if raw is None:
            return
        try:
            threads = int(raw)
        except ValueError:
            raise ConfigError(f"EGREG_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {threads}")
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)


def _response_list(arg):
    if arg is None:
        return None
    return [c.strip() for c in str(arg).split(",") if c.strip()]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="egreg",
        description="Envelope-guided regression toolkit: fitting, theory "
        "curves, and simulation studies.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--threads", type=int, default=None,
                        help="cap BLAS threads (default: EGREG_THREADS env var)")

    fit = sub.add_parser("fit", help="fit a model to a CSV file and save it")
    fit.add_argument("csv_in", help="training table (header row, numeric body)")
    fit.add_argument("model_out", help="output model file (JSON)")
    fit.add_argument("--method", required=True,
                     choices=["pcr", "ridge", "niece", "egreg", "simpls"],
                     type=str.lower)
    fit.add_argument("--response", default=None,
                     help="comma-separated response column names (default: last column)")
    fit.add_argument("--d", type=int, default=None, help="retained components")
    fit.add_argument("--u", type=int, default=None, help="selected components (niece)")
    fit.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="penalty: ridge on the scale of X'X (sigma_j^2), egreg on "
                          "that of phi_j = ||v_j'X'Y/n||^2")
    fit.add_argument("--standardize", action="store_true",
                     help="scale columns to unit variance before fitting")
    common(fit)

    pred = sub.add_parser("predict", help="predict responses with a saved model")
    pred.add_argument("model_in")
    pred.add_argument("csv_in", help="table of predictors (responses, if present, are ignored)")
    pred.add_argument("csv_out")
    common(pred)

    rpe = sub.add_parser(
        "evaluate-rpe",
        help="test-set squared error of each model relative to the SIMPLS baseline",
    )
    rpe.add_argument("test_csv")
    rpe.add_argument("models", nargs="+", help="model files; at least one SIMPLS")
    rpe.add_argument("--out", required=True, help="output CSV")
    rpe.add_argument("--response", default=None)
    common(rpe)

    theory = sub.add_parser(
        "theory", help="limiting risk curves over a gamma = u*/n grid"
    )
    theory.add_argument("out_csv")
    theory.add_argument("--grid-start", type=float, default=0.1)
    theory.add_argument("--grid-stop", type=float, default=5.0)
    theory.add_argument("--grid-count", type=int, default=100)
    theory.add_argument("--grid-log", action="store_true",
                        help="log-spaced grid instead of linear")
    theory.add_argument("--c-sq", type=float, default=10.0, help="signal energy")
    theory.add_argument("--tr-sigma-eps", type=float, default=10.0,
                        help="noise trace")
    common(theory)

    sim = sub.add_parser(
        "simulate", help="run a study from a JSON config",
        description="Run the study P1, u_star, baseline or double_descent.  The config "
        "is a JSON object with a 'study' and a 'seed' key; every other key overrides "
        "one of that study's defaults.  egreg.simharness.run_study checks every key "
        "and value before any grid point runs.",
    )
    sim.add_argument("config", help="JSON config file")
    sim.add_argument("out_dir")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    common(sim)

    return parser


def _cmd_fit(args):
    from .dataio import load_csv, save_model
    from .estimators import fit_method
    from .matrixcore import Dataset, center_standardize

    response = _response_list(args.response)
    X, Y, x_names, y_names = load_csv(args.csv_in, response)
    params = {}
    if args.d is not None:
        params["d"] = args.d
    if args.u is not None:
        params["u"] = args.u
    if args.lam is not None:
        params["lambda"] = args.lam
    mode = "standardize" if args.standardize else "center"
    data = center_standardize(Dataset(X, Y), mode)
    del X, Y    # the fit reads only the transformed copy
    model = fit_method(data, args.method, params)
    save_model(args.model_out, model, x_names, y_names)
    digest = {
        "command": "fit", "csv_in": args.csv_in, "method": args.method,
        "params": params, "response": response, "standardize": args.standardize,
    }
    # A degenerate fit is saved, but not silently: the note prints its flags.
    if {"early_stop", "zero_score_directions"} & model.flags.keys():
        print(f"egreg: note: degenerate fit, {model.params} gave {model.flags}", file=sys.stderr)
    return ([args.model_out], digest, None,
            f"fitted {model.method} ({model.params}) on {data.n} rows -> {args.model_out}")


def _predictors(mf, names, M, path):
    """The model's predictor columns of a table: matched by the model's stored
    names, or taken as they stand when it has none and the width is p.  The
    table itself is returned, not a copy, when the model's columns are all of
    its columns, in order."""
    if mf.x_names:
        missing = [c for c in mf.x_names if c not in names]
        if missing:
            raise ConfigError(f"{path} lacks the model's predictor column(s) "
                              f"{', '.join(missing)}")
        if list(mf.x_names) == list(names):
            return M
        return M[:, [names.index(c) for c in mf.x_names]]
    p = mf.model.beta.shape[0]
    if M.shape[1] != p:
        raise ConfigError(f"{path} has {M.shape[1]} candidate predictor columns; "
                          f"the model has {p} unnamed predictors")
    return M


def _cmd_predict(args):
    from .dataio import load_model, load_table, write_table
    from .estimators import predict

    mf = load_model(args.model_in)
    names, M = load_table(args.csv_in)
    X = _predictors(mf, names, M, args.csv_in)
    del M    # predict makes its own centered copy, so drop the table before it
    Yp = predict(mf.model, X)
    header = mf.y_names or [f"y{j + 1}" for j in range(Yp.shape[1])]
    write_table(args.csv_out, [header] + [list(row) for row in Yp])
    digest = {"command": "predict", "model_in": args.model_in, "csv_in": args.csv_in}
    return [args.csv_out], digest, None, f"predicted {Yp.shape[0]} rows -> {args.csv_out}"


def _cmd_evaluate_rpe(args):
    import numpy as np

    from .dataio import load_csv, load_model, write_table
    from .estimators import predict
    from .matrixcore import _check_finite_rows

    response = _response_list(args.response)
    X, Y, x_names, y_names = load_csv(args.test_csv, response)
    _check_finite_rows(Y, "response")
    entries = [(path, load_model(path)) for path in args.models]
    methods = [mf.model.method for _, mf in entries]
    if "SIMPLS" not in methods:
        raise ContractError(
            "evaluate-rpe needs a SIMPLS model as the denominator; none was given"
        )

    def sse(path, mf):
        # A model's stored response names must be the table's, in order.
        q = mf.model.beta.shape[1]
        if (mf.y_names != y_names) if mf.y_names else (q != len(y_names)):
            ours = ", ".join(mf.y_names) if mf.y_names else f"{q} unnamed"
            raise ConfigError(f"{path} predicts the response(s) {ours}; "
                              f"{args.test_csv} has {', '.join(y_names)}")
        Xm = _predictors(mf, x_names, X, args.test_csv)
        return float(np.sum((Y - predict(mf.model, Xm)) ** 2))

    sses = [sse(path, mf) for path, mf in entries]
    denom = sses[methods.index("SIMPLS")]
    if denom == 0.0:
        raise ContractError("the SIMPLS baseline fits the test set exactly; "
                            "RPE is undefined")
    rows = [["model", "method", "rpe"]]
    rows += [[path, method, v / denom] for path, method, v in zip(args.models, methods, sses)]
    write_table(args.out, rows)
    digest = {"command": "evaluate-rpe", "test_csv": args.test_csv,
              "models": list(args.models), "response": response}
    return [args.out], digest, None, f"wrote RPE table for {len(entries)} model(s) -> {args.out}"


def _cmd_theory(args):
    import numpy as np

    from .asymptotics import LimitConfig, risk_curve
    from .dataio import write_table

    if args.grid_count < 1:
        raise ConfigError(f"--grid-count must be >= 1, got {args.grid_count}")
    for flag, end in (("--grid-start", args.grid_start), ("--grid-stop", args.grid_stop)):
        if not 0.0 < end < np.inf:
            raise ConfigError(f"{flag} must be a finite positive number, got {end}")
    if args.grid_log:
        grid = np.geomspace(args.grid_start, args.grid_stop, args.grid_count)
    else:
        grid = np.linspace(args.grid_start, args.grid_stop, args.grid_count)
    cfg = LimitConfig(gamma=float(grid[0]), c_sq=args.c_sq,
                      tr_sigma_eps=args.tr_sigma_eps)
    curve = risk_curve(cfg, grid)
    rows = [["gamma", "niece_risk", "egreg_risk", "lambda_star"]]
    for i in range(grid.size):
        rows.append([
            float(curve.gamma_grid[i]),
            float(curve.niece_risk[i]),
            float(curve.egreg_risk_at_opt[i]),
            float(curve.lambda_star[i]),
        ])
    write_table(args.out_csv, rows)
    digest = {"command": "theory", "grid_start": args.grid_start,
              "grid_stop": args.grid_stop, "grid_count": args.grid_count,
              "grid_log": args.grid_log, "c_sq": args.c_sq,
              "tr_sigma_eps": args.tr_sigma_eps}
    return ([args.out_csv], digest, None,
            f"wrote limiting-risk curve ({grid.size} points) -> {args.out_csv}")


def _cmd_simulate(args):
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{args.config}: config must be a JSON object")
    # A config file names its study and records its seed; run_study checks the rest.
    for key in ("study", "seed"):
        if key not in doc:
            raise ConfigError(f"{args.config}: config lacks the required key {key!r}")

    from .dataio import write_table
    from .simharness import run_study

    study = doc["study"]
    config = {k: v for k, v in doc.items() if k != "study"}
    if args.seed is not None:
        config["seed"] = args.seed
    result = run_study(study, config)
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, f"{study}.csv")
    write_table(csv_path, result.rows())
    digest = {"study": study, **config}
    return ([csv_path], digest, result.seed,
            f"ran {study} ({result.risks.shape[0]} grid points x "
            f"{len(result.methods)} methods) -> {csv_path}")


_OUTPUT_ARG = {"fit": "model_out", "predict": "csv_out", "evaluate-rpe": "out", "theory": "out_csv"}
_DISPATCH = {
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "evaluate-rpe": _cmd_evaluate_rpe,
    "theory": _cmd_theory,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    record = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        _apply_thread_cap(args.threads)
        path = (os.path.join(args.out_dir, "manifest.json") if args.command == "simulate"
                else getattr(args, _OUTPUT_ARG[args.command]) + ".manifest.json")
        if os.path.isdir(path):    # written last, so checked before any output is replaced
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        outputs, digest, seed, summary = _DISPATCH[args.command](args)
        from .dataio import RunManifest, config_digest, write_manifest

        write_manifest(path, RunManifest(
            command=record, config_digest=config_digest(digest), seed=seed,
            software_version=__version__, wall_clock_sec=time.time() - t0, outputs=outputs,
        ))
        print(summary)
        return 0
    except (ConfigError, ParameterError) as exc:
        # Bad flag values or config contents are usage errors, like argparse's.
        print(f"egreg: error: {exc}", file=sys.stderr)
        return 2
    except (EgregError, OSError) as exc:
        print(f"egreg: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
