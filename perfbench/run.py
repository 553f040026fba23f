#!/usr/bin/env python3
"""egreg benchmark: study throughput, CLI latency, and a per-module breakdown.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload p1 --seed 0 --seconds 25 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``p1``, ``double_descent``
and ``cli``.  Everything runs in this one process, closed loop, with BLAS
pinned to one thread.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics from
a traced pass compared against an untraced pass of the same work.  Earlier
``#`` lines record the environment and the details behind each figure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

T_PROCESS = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("p1", "double_descent", "cli")
MODULES = ("matrixcore", "envscore", "estimators", "riskanalytics", "asymptotics",
           "simharness", "dataio", "cli")
THREAD_VARS = ("EGREG_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Set-ups per measured run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: No new pass starts after this many seconds, so a run ends within 180 s.
RUN_CAP_S = 140.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_malloc():
    """Pin glibc's mmap threshold at 1 MiB, before numpy allocates anything.

    By default glibc raises the threshold after a large block is freed, so
    later arrays of that size land on the heap, and whether freed heap pages
    return to the system depends on fragmentation: peak RSS of one workload
    then jumps by 10 MB from seed to seed.  A fixed threshold sends every
    array above 1 MiB to its own mapping, so peak RSS tracks live memory.
    """
    import ctypes

    try:
        ctypes.CDLL(None).mallopt(-3, 1 << 20)      # -3 is M_MMAP_THRESHOLD
    except (OSError, AttributeError):                # not glibc: leave the default
        pass


def import_program():
    """Import numpy and every egreg module from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "egreg" / "__init__.py").is_file():
        raise ImportError(f"no egreg package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import importlib

    import numpy

    mods = {name: importlib.import_module(f"egreg.{name}") for name in MODULES}
    egreg = sys.modules["egreg"]
    if Path(egreg.__file__).resolve().parent != (src / "egreg").resolve():
        raise ImportError(f"egreg was imported from {egreg.__file__}, not from {src}")
    return SimpleNamespace(np=numpy, egreg=egreg, **mods)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _blas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(mods):
    np = mods.np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_cap_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads_effective": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "src_lines": src_lines,
        "egreg_version": mods.egreg.__version__,
    }


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------

class Runner:
    """Runs operations, times them, checks outputs, and counts failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, op, tracer=None):
        """Run one operation (traced if a tracer is given); return seconds."""
        self.attempted += 1
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception:  # an operation that raises is counted, not fatal
                self._fail(op, traceback.format_exc())
                return time.perf_counter() - t0
            dt = time.perf_counter() - t0
        try:
            problem = op.check(out)
        except Exception:  # a malformed output file is a failed check
            problem = traceback.format_exc()
        if problem:
            self._fail(op, problem)
        return dt

    def run_all(self, ops, tracer=None):
        return [(op, self.run(op, tracer)) for op in ops]

    def _fail(self, op, message):
        self.failed += 1
        self.problems.append(f"{op.kind}: {message}")
        print(f"perfbench: {op.kind} failed: {message}", file=sys.stderr)

    def out_of_time(self, t_start, seconds):
        now = time.perf_counter()
        return now - t_start >= seconds or now - T_PROCESS >= RUN_CAP_S


class SpeedProbe:
    """A fixed slice of BLAS and interpreter work that tracks machine speed.

    On a shared host the same operation can take 1.7x longer from one second
    to the next.  The probe runs after every operation, and the operation's
    time is scaled by ``NOMINAL_S`` over the median of the ``2 * WINDOW``
    probe times nearest to it: the metrics report seconds at one fixed
    machine speed.  The probe does not touch egreg, so only the program's own
    changes move the scaled times.  Raw times are kept in ``# detail``.
    """

    #: Probe time that defines the reference speed (about its median on a
    #: 2-core x86-64 Xeon VM with OpenBLAS 0.3.31 pinned to one thread).
    NOMINAL_S = 0.05
    #: Probes on each side of an interval that set its speed.
    WINDOW = 2

    def __init__(self, np):
        rng = np.random.default_rng(12345)
        self.np = np
        self.A = rng.standard_normal((90, 200))
        self.B = rng.standard_normal((200, 50))
        self.samples = []
        self._time()            # the first call pays numpy's lazy set-up
        self.measure()

    def measure(self):
        self.samples.append(self._time())

    def _time(self):
        np = self.np
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(12):
            np.linalg.svd(self.A, full_matrices=False)
            C = self.A @ self.B
            for j in range(20):
                acc += float(np.sum(np.cumsum(C[:, j]) ** 2))
        n = 0
        for i in range(150_000):
            n += i * i % 7
        return time.perf_counter() - t0

    def after(self):
        """Probe after an interval that ran since the previous probe; return its token."""
        token = len(self.samples) - 1
        self.measure()
        return token

    def scaled(self, token, seconds):
        """``seconds`` of the interval ``token`` at the nominal machine speed."""
        window = self.samples[max(0, token - self.WINDOW + 1):token + 1 + self.WINDOW]
        return seconds * self.NOMINAL_S / statistics.median(window)


def measure(workload, runner, probe, import_s, seconds):
    """End-to-end run: repeated set-ups, then passes until ``seconds`` elapse."""
    setups = []         # (token, raw seconds)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        runner.run_all(workload.setup())
        setups.append((probe.after(), time.perf_counter() - t0))

    timed = []          # (op, token, raw seconds)
    t_start = time.perf_counter()
    index = 0
    while True:
        for op in workload.pass_ops(index):
            dt = runner.run(op)
            timed.append((op, probe.after(), dt))
        index += 1
        if runner.out_of_time(t_start, seconds):
            break
    elapsed = time.perf_counter() - t_start

    setup_scaled = [probe.scaled(t, dt) for t, dt in setups]
    scaled = [probe.scaled(t, dt) for _, t, dt in timed]
    raw = [dt for _, _, dt in timed]
    units = sum(op.units for op, _, _ in timed)
    by_kind = {}
    for (op, _, dt), s in zip(timed, scaled):
        by_kind.setdefault(op.kind, []).append((dt, s))
    metrics = {
        "setup_s": (probe.scaled(0, import_s) + statistics.median(setup_scaled), "s"),
        "ops_per_s": (units / sum(scaled), "1/s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_share": (1.0 - runner.failed / runner.attempted, "share"),
    }
    detail = {
        "passes": index,
        "operations": len(timed),
        "work_units": units,
        "measured_s": elapsed,
        "setup_samples_s": setup_scaled,
        "op_samples_s": scaled,
        "probe_samples_s": probe.samples,
        "raw": {"import_s": import_s, "setup_samples_s": [dt for _, dt in setups],
                "op_samples_s": raw, "ops_per_s": units / sum(raw),
                "op_p50_s": statistics.median(raw)},
        "latency_by_kind": {
            kind: {"p50_s": statistics.median(s for _, s in v),
                   "raw_p50_s": statistics.median(dt for dt, _ in v), "samples": len(v)}
            for kind, v in by_kind.items()
        },
    }
    return metrics, detail


def trace(workload, runner, probe, seconds):
    """Traced run: paired untraced/traced passes of the same work, then per-method runs.

    Span shares are taken against the raw traced wall time.  Pass and method
    times are scaled by the speed probe, and the pairs alternate which pass
    runs first, so machine-speed drift cancels from ``trace.overhead_share``
    and the method shares.
    """
    from tracer import Tracer, TraceError
    from workloads import METHOD_KEYS

    runner.run_all(workload.setup())
    tracer = Tracer()
    runs = {False: [], True: []}     # traced? -> [[(token, raw seconds)] per pass]
    t_start = time.perf_counter()
    index = 0
    probe.measure()
    while True:
        for use_tracer in ((False, True) if index % 2 == 0 else (True, False)):
            pass_runs = []
            for op in workload.pass_ops(index):
                dt = runner.run(op, tracer if use_tracer else None)
                pass_runs.append((probe.after(), dt))
            runs[use_tracer].append(pass_runs)
        index += 1
        if runner.out_of_time(t_start, seconds):
            break
    methods = []
    for m in workload.methods:
        dt = runner.run(workload.method_op(0, m))
        methods.append((m, probe.after(), dt))

    plain, traced = ([sum(probe.scaled(t, dt) for t, dt in p) for p in runs[k]]
                     for k in (False, True))
    wall = sum(dt for p in runs[True] for _, dt in p)     # raw traced seconds
    method_s = {m: probe.scaled(t, dt) for m, t, dt in methods}

    missing = [s for s in workload.expected_spans if tracer.calls[s] == 0]
    if missing:
        raise TraceError("expected spans recorded no calls: " + ", ".join(missing))

    passes = len(traced)

    def pct(span_seconds):
        return (100.0 * span_seconds / wall, "%")

    def per_pass(value, unit="count"):
        return (value / passes, unit)

    total, calls = tracer.total, tracer.calls
    metrics = {"simharness.run_study.self_pct": pct(tracer.self_time["simharness.run_study"])}
    for m in METHOD_KEYS:
        metrics[f"simharness.method.{m}_pct"] = (
            100.0 * method_s.get(m, 0.0) / statistics.median(plain), "%")
    metrics.update({
        "matrixcore.thin_svd_pct": pct(total["matrixcore.thin_svd"]),
        "matrixcore.thin_svd_calls": per_pass(calls["matrixcore.thin_svd"]),
        "matrixcore.thin_svd_gflop": per_pass(tracer.svd_gflop, "GFLOP"),
        "matrixcore.center_standardize_pct": pct(total["matrixcore.center_standardize"]),
        "cli.main.self_pct": pct(tracer.self_time["cli.main"]),
        "dataio.load_table_pct": pct(total["dataio.load_table"]),
        "dataio.load_table_mb": per_pass(tracer.load_bytes / 1e6, "MB"),
        "dataio.write_table_pct": pct(total["dataio.write_table"]),
        "dataio.save_model_pct": pct(total["dataio.save_model"]),
        "dataio.load_model_pct": pct(total["dataio.load_model"]),
        "estimators.coefficients_pct": pct(total["estimators.coefficients"]),
        "estimators.coefficients_calls": per_pass(calls["estimators.coefficients"]),
        "envscore.envelope_scores_pct": pct(total["envscore.envelope_scores"]),
        "envscore.envelope_scores_calls": per_pass(calls["envscore.envelope_scores"]),
        "riskanalytics.empirical_risk_terms_pct": pct(total["riskanalytics.empirical_risk_terms"]),
        "riskanalytics.empirical_risk_terms_calls":
            per_pass(calls["riskanalytics.empirical_risk_terms"]),
        "estimators.fit_method_pct": pct(total["estimators.fit_method"]),
        "estimators.predict_pct": pct(total["estimators.predict"]),
        "estimators.svd_per_fit": (
            tracer.svd_in_fit / calls["estimators.fit_method"]
            if calls["estimators.fit_method"] else 0.0, "ratio"),
        "asymptotics.risk_curve_pct": pct(total["asymptotics.risk_curve"]),
        "trace.overhead_share": ((sum(traced) - sum(plain)) / sum(plain), "ratio"),
        "trace.pass_s": (wall / passes, "s"),
    })
    detail = {
        "passes": passes,
        "untraced_pass_s": plain,
        "traced_pass_s": traced,
        "method_run_s": method_s,
        "spans": {
            name: {"calls": calls[name], "total_s": total[name],
                   "self_s": tracer.self_time[name]}
            for name in sorted(calls)
        },
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{workload.name}-spans.json"
    spans_path.write_text(json.dumps(tracer.span_records()))
    detail["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, detail


def main(argv=None):
    args = parse_args(argv)
    pin_malloc()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    t0 = time.perf_counter()
    try:
        mods = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    from workloads import make_workload
    from tracer import TraceError

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, mods, workdir, args.seed)
        runner = Runner()
        if args.trace:
            metrics, detail = trace(workload, runner, SpeedProbe(mods.np), args.seconds)
        else:
            metrics, detail = measure(workload, runner, SpeedProbe(mods.np), import_s,
                                      args.seconds)
        detail["workload"] = {"seed": args.seed, **workload.describe()}
    except TraceError as exc:
        print(f"perfbench: trace self-check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    detail["problems"] = runner.problems
    print("# env " + json.dumps(environment(mods), sort_keys=True))
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
