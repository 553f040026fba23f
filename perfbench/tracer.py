"""Spans around calls into the public functions of the ``egreg`` modules.

The tracer lives in the benchmark, not in the program: it replaces every
module-level binding of a traced function -- in its home module and in every
other ``egreg`` module that imported it by name -- with a timing wrapper, and
restores the originals on exit.  Spans are kept in memory (name, start, end,
parent) and aggregated per name into calls, inclusive time and self time
(inclusive time minus the time covered by direct child spans).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

#: (module, function, span name).  The five coefficient builders share one
#: span name so they are reported as one layer metric.
TARGETS = (
    ("simharness", "run_study", "simharness.run_study"),
    ("matrixcore", "thin_svd", "matrixcore.thin_svd"),
    ("matrixcore", "center_standardize", "matrixcore.center_standardize"),
    ("envscore", "envelope_scores", "envscore.envelope_scores"),
    ("estimators", "pcr_coefficients", "estimators.coefficients"),
    ("estimators", "ridge_coefficients", "estimators.coefficients"),
    ("estimators", "niece_coefficients", "estimators.coefficients"),
    ("estimators", "egreg_coefficients", "estimators.coefficients"),
    ("estimators", "simpls_coefficients", "estimators.coefficients"),
    ("estimators", "fit_method", "estimators.fit_method"),
    ("estimators", "predict", "estimators.predict"),
    ("riskanalytics", "empirical_risk_terms", "riskanalytics.empirical_risk_terms"),
    ("asymptotics", "risk_curve", "asymptotics.risk_curve"),
    ("dataio", "load_table", "dataio.load_table"),
    ("dataio", "write_table", "dataio.write_table"),
    ("dataio", "save_model", "dataio.save_model"),
    ("dataio", "load_model", "dataio.load_model"),
    ("cli", "main", "cli.main"),
)

class TraceError(RuntimeError):
    """A traced name is missing or could not be patched."""


def svd_gflop(shape) -> float:
    """Computed flop count of a thin SVD with both factors (R-SVD).

    Golub & Van Loan, *Matrix Computations*, table 5.5: 6 m n^2 + 20 n^3 for
    an m-by-n matrix with m >= n.  It is derived from the input shape, not
    measured.
    """
    m, n = max(shape), min(shape)
    return (6.0 * m * n * n + 20.0 * n**3) / 1e9


class Tracer:
    """Install with ``with tracer:``; statistics accumulate across installs."""

    def __init__(self):
        self.spans = []            # (id, name, parent id or None, start, end)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.svd_gflop = 0.0
        self.svd_in_fit = 0        # thin_svd calls made inside fit_method
        self.load_bytes = 0        # bytes of the files load_table read
        self._stack = []           # open spans: [id, name, child seconds]
        self._patches = []         # (module, attribute, original)

    # -- installation -------------------------------------------------------

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "egreg" or name.startswith("egreg."))]
        for mod_name, func_name, span in TARGETS:
            original = getattr(sys.modules.get(f"egreg.{mod_name}"), func_name, None)
            if not callable(original):
                self._restore()
                raise TraceError(f"egreg.{mod_name}.{func_name} is missing; "
                                 "the traced name list is out of date")
            wrapper = self._wrap(span, original)
            patched = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))
                        patched += 1
            if not patched:
                self._restore()
                raise TraceError(f"no binding of {mod_name}.{func_name} could be patched")
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, span, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(span, fn, args, kwargs)

        return wrapper

    def _call(self, span, fn, args, kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(None)
        if span == "matrixcore.thin_svd":
            X = args[0] if args else kwargs["X"]
            self.svd_gflop += svd_gflop(X.shape)
            if any(frame[1] == "estimators.fit_method" for frame in self._stack):
                self.svd_in_fit += 1
        elif span == "dataio.load_table":
            path = args[0] if args else kwargs["path"]
            self.load_bytes += os.path.getsize(path)
        frame = [span_id, span, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            elapsed = end - start
            self.calls[span] += 1
            self.total[span] += elapsed
            self.self_time[span] += elapsed - frame[2]
            if self._stack:
                self._stack[-1][2] += elapsed
            self.spans[span_id] = (span_id, span, parent, start, end)

    def span_records(self):
        """Spans as dicts, in the order they were opened."""
        return [
            {"id": s[0], "name": s[1], "parent": s[2], "start": s[3], "end": s[4]}
            for s in self.spans if s is not None
        ]
