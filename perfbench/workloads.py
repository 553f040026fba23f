"""The benchmark's workloads: inputs made from a seed, operations, output checks.

An operation is one study run or one CLI command.  Each operation carries a
check that holds for every correct version of the program -- finiteness,
shapes, identities -- rather than pinned numbers, so a correctness fix that
changes the risks is not counted as a failure.  A check returns ``None`` when
the output passes and a description of the problem otherwise.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Method keys as ``run_study`` accepts them, in the P1 study's order.
METHOD_KEYS = ("pcr", "ridge", "niece", "simpls", "egreg", "egreg_r")


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` runs after it, untimed."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    units: int = 1


def _study_seed(seed: int, index: int) -> int:
    """Distinct study seed per pass, so repeated passes share no results."""
    return seed * 1000 + index


class StudyWorkload:
    """Repeated ``run_study`` calls with every method of the study."""

    expected_spans = (
        "simharness.run_study", "matrixcore.thin_svd", "envscore.envelope_scores",
        "estimators.coefficients", "riskanalytics.empirical_risk_terms",
    )

    def __init__(self, name, mods, workdir, seed, study, methods, replications, grid_size):
        self.name = name
        self.mods = mods
        self.workdir = workdir
        self.seed = seed
        self.study = study
        self.methods = methods
        self.replications = replications
        self.grid_size = grid_size
        self.digests = []          # (study seed, replications, SHA-256 of the study CSV)
        self._warm_digest = None

    def describe(self):
        return {"name": self.name, "study": self.study, "methods": list(self.methods),
                "replications": self.replications, "grid_points": self.grid_size,
                "unit": "grid point x replication",
                "study_csv_sha256": [{"seed": s, "replications": r, "sha256": d}
                                     for s, r, d in self.digests]}

    def _op(self, study_seed, replications, methods, record=True, warm=False):
        config = {"seed": study_seed, "replications": replications,
                  "methods": list(methods)}
        sim = self.mods.simharness

        def call():
            return sim.run_study(self.study, config)

        def check(result):
            return self._check(result, study_seed, replications, len(methods), record, warm)

        return Op("study", call, check, units=self.grid_size * replications)

    def setup(self):
        """Warm-up: a one-replication run on a fixed seed, checked for determinism."""
        return [self._op(_study_seed(self.seed, 999), 1, self.methods, record=False,
                         warm=True)]

    def pass_ops(self, index):
        return [self._op(_study_seed(self.seed, index), self.replications, self.methods)]

    def method_op(self, index, method):
        return self._op(_study_seed(self.seed, index), self.replications, (method,),
                        record=False)

    def _check(self, result, study_seed, replications, n_methods, record, warm):
        shape = (self.grid_size, n_methods)
        for name in ("risks", "ses"):
            a = np.asarray(getattr(result, name))
            if a.shape != shape:
                return f"{name} shape {a.shape}, expected {shape}"
            if not np.all(np.isfinite(a)):
                return f"{name} has non-finite entries"
            if np.any(a < 0):
                return f"{name} has negative entries"
        path = self.workdir / f"{self.study}.csv"
        self.mods.dataio.write_table(path, result.rows())
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if warm:
            if self._warm_digest is None:
                self._warm_digest = digest
            elif digest != self._warm_digest:
                return "study CSV differs between identical warm-up runs"
        if record:
            self.digests.append((study_seed, replications, digest))
        return None


def _cli_table(seed, n_rows, n_pred):
    """Seeded regression table: decaying predictor scales, nonzero means."""
    rng = np.random.default_rng([seed, 17])
    scale = np.exp(-np.arange(n_pred) / 50.0)
    X = rng.standard_normal((n_rows, n_pred)) * scale + rng.normal(0.0, 2.0, n_pred)
    beta = np.zeros(n_pred)
    beta[:12] = rng.standard_normal(12)
    y = X @ beta + rng.standard_normal(n_rows)
    return np.column_stack([X, y])


class CliWorkload:
    """In-process ``egreg.cli.main`` calls cycling over every command."""

    N_ROWS = 5000
    N_PRED = 200
    FITS = (
        ("pcr", "PCR", ["--d", "10"]),
        ("ridge", "Ridge", ["--lambda", "1.0"]),
        ("niece", "NIECE", ["--u", "10"]),
        ("egreg", "EgReg", ["--d", "20", "--lambda", "0.5"]),
        ("simpls", "SIMPLS", ["--d", "5", "--standardize"]),
    )
    expected_spans = (
        "cli.main", "dataio.load_table", "dataio.write_table", "dataio.save_model",
        "dataio.load_model", "matrixcore.center_standardize", "matrixcore.thin_svd",
        "estimators.fit_method", "estimators.predict", "estimators.coefficients",
        "envscore.envelope_scores", "asymptotics.risk_curve",
    )
    name = "cli"
    methods = ()

    def __init__(self, mods, workdir, seed):
        self.mods = mods
        self.workdir = workdir
        self.seed = seed
        self.table = workdir / "train.csv"
        self.M = None

    def describe(self):
        return {"name": self.name, "rows": self.N_ROWS, "predictors": self.N_PRED, "responses": 1,
                "csv_mb": self.table.stat().st_size / 1e6 if self.table.exists() else None,
                "commands_per_cycle": len(self.pass_ops(0)), "unit": "command"}

    def _path(self, name):
        return str(self.workdir / name)

    def _model(self, method):
        return self._path(f"{method}.json")

    def setup(self):
        """Generate and write the input table, then warm up with one fit."""
        self.M = _cli_table(self.seed, self.N_ROWS, self.N_PRED)
        header = ",".join([f"x{j + 1}" for j in range(self.N_PRED)] + ["y"])
        with open(self.table, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            np.savetxt(fh, self.M, fmt="%.17g", delimiter=",")
        return [self._fit_op(*self.FITS[3])]

    def pass_ops(self, index):
        return ([self._fit_op(*fit) for fit in self.FITS]
                + [self._predict_op(), self._rpe_op(), self._theory_op()])

    # -- operations ---------------------------------------------------------

    def _command(self, kind, argv, check):
        cli = self.mods.cli

        def call():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, err.getvalue()

        def checked(result):
            code, err = result
            if code != 0:
                return f"egreg {' '.join(argv)} exited {code}: {err.strip()}"
            return check()

        return Op(kind, call, checked)

    def _fit_op(self, method, label, extra):
        argv = ["fit", str(self.table), self._model(method), "--method", method] + extra

        def check():
            with open(self._model(method), encoding="utf-8") as fh:
                doc = json.load(fh)
            beta = np.asarray(doc["beta"], dtype=float)
            if doc["method"] != label:
                return f"model method {doc['method']!r}, expected {label!r}"
            if beta.shape != (self.N_PRED, 1) or not np.all(np.isfinite(beta)):
                return f"{method} beta has shape {beta.shape} or non-finite entries"
            return None

        return self._command("fit", argv, check)

    def _predict_op(self):
        out = self._path("pred.csv")
        model = self._model("egreg")
        argv = ["predict", model, str(self.table), out]

        def check():
            with open(model, encoding="utf-8") as fh:
                doc = json.load(fh)
            beta = np.asarray(doc["beta"], dtype=float)
            tr = doc["transform"]
            X = self.M[:, : self.N_PRED]
            expect = ((X - np.asarray(tr["x_mean"])) / np.asarray(tr["x_scale"])) @ beta
            expect = expect * np.asarray(tr["y_scale"]) + np.asarray(tr["y_mean"])
            got = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            atol = 1e-9 * float(np.max(np.abs(expect)))
            if got.shape != expect.shape or not np.allclose(got, expect, rtol=1e-9, atol=atol):
                return "predictions differ from X beta recomputed from the model file"
            return None

        return self._command("predict", argv, check)

    def _rpe_op(self):
        out = self._path("rpe.csv")
        models = [self._model(method) for method, _, _ in self.FITS]
        argv = ["evaluate-rpe", str(self.table), *models, "--out", out]

        def check():
            with open(out, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            if len(rows) != len(self.FITS):
                return f"RPE table has {len(rows)} rows, expected {len(self.FITS)}"
            rpe = {row[1]: float(row[2]) for row in rows}
            if rpe.get("SIMPLS") != 1.0:
                return f"SIMPLS RPE is {rpe.get('SIMPLS')}, expected exactly 1"
            if not all(np.isfinite(v) and v > 0 for v in rpe.values()):
                return "RPE values are not finite and positive"
            return None

        return self._command("evaluate-rpe", argv, check)

    def _theory_op(self):
        out = self._path("theory.csv")

        def check():
            curve = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            if curve.shape != (100, 4) or not np.all(np.isfinite(curve)):
                return "theory curve is not 100 finite rows"
            if np.any(curve[:, 2] > curve[:, 1]):
                return "theory curve has EgReg risk above NIECE risk"
            return None

        return self._command("theory", ["theory", out], check)


def make_workload(name, mods, workdir, seed):
    if name == "p1":
        return StudyWorkload(
            name, mods, workdir, seed, "P1", METHOD_KEYS, replications=3, grid_size=5,
        )
    if name == "double_descent":
        return StudyWorkload(
            name, mods, workdir, seed, "double_descent", ("niece", "egreg", "egreg_r"),
            replications=5, grid_size=10,
        )
    if name == "cli":
        return CliWorkload(mods, workdir, seed)
    raise ValueError(f"unknown workload {name!r}")
