"""File formats: CSV tables, JSON model files, config digests, run manifests.

Numeric CSV cells are written with 17 significant digits so a value survives
the decimal round trip bitwise and a rerun with the same seed produces
byte-identical files.  Model files are versioned JSON; coefficient floats
round-trip exactly because JSON serializes them at full precision.  Every
writer fills a temp file beside its target and renames it over the target, so
a write that fails leaves the old file as it was.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import uuid
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .estimators import METHODS, FittedModel
from .exceptions import ConfigError, ParseError
from .matrixcore import Transform

MODEL_FORMAT = "egreg-model"
MODEL_FORMAT_VERSION = 1


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_atomically(path, write, newline=None):
    """Fill a temp file beside ``path`` through ``write(fh)``, then rename it
    over ``path``; on any failure the temp file is removed and ``path`` is
    left as it was.  An OSError names ``path``."""
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex[:12]}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline=newline) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno:    # name the target, not the temp file
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def _write_json(path, doc):
    _write_atomically(path, lambda fh: fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n"))


def write_table(path, rows):
    """Write rows to CSV; floats are encoded with 17 significant digits."""
    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    _write_atomically(path, write, newline="")


# ASCII separators that numpy's float parser strips as cell padding and
# Python's float() rejects; a line holding one goes to the row scan.
_NUMPY_ONLY_SPACE = ("\x1c", "\x1d", "\x1e", "\x1f")


def load_table(path):
    """Read a numeric CSV with a header row; returns (names, matrix).

    The body goes through numpy's C reader.  A body it rejects, or whose
    width differs from the header's, is scanned again row by row with
    Python's ``float()``, which also accepts spellings such as ``1_000``.
    Both round correctly, so a cell reads to the same bits either way.
    Blank lines are skipped; ``#`` is not a comment.  A leading UTF-8
    byte-order mark, as spreadsheets write one, is not part of the first
    name.  Malformed cells raise a :class:`ParseError` naming the file line.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        names, header_lines = _read_header(path, fh)
        body_start = fh.tell()
        M = _read_body(fh)
        if M is None or M.shape[0] == 0 or M.shape[1] != len(names):
            fh.seek(body_start)
            M = _scan_body(path, fh, len(names), header_lines)
    return names, M


def _records(path, lines, lines_before=0):
    """csv records of ``lines``, each with the file line it ends on; a csv
    error (such as a cell over the field size limit) is a ParseError."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield lines_before + reader.line_num, row
    except csv.Error as exc:
        raise ParseError(f"{path}, line {lines_before + reader.line_num}: {exc}") from None


def _read_header(path, fh):
    """The stripped column names and the number of file lines they span."""
    # readline (not iteration) keeps fh.tell() usable for the rewind.
    lines, names = next(_records(path, iter(fh.readline, "")), (0, None))
    if names is None:
        raise ParseError(f"{path}: file is empty")
    names = [c.strip() for c in names]
    if "" in names:
        raise ParseError(f"{path}, line 1: column {names.index('') + 1} has an empty name")
    if len(set(names)) != len(names):
        raise ParseError(f"{path}, line 1: duplicate column names")
    return names, lines


def _read_body(fh):
    """The rest of ``fh`` as a 2-D float array, or None where numpy rejects it."""
    def lines():
        for line in fh:
            if any(c in line for c in _NUMPY_ONLY_SPACE):
                raise ValueError("cell padding float() rejects")
            yield line

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(lines(), delimiter=",", comments=None, quotechar='"',
                              ndmin=2, dtype=float)
        except ValueError:
            return None


def _scan_body(path, fh, width, lines_before):
    """The rest of ``fh``, which starts after file line ``lines_before``,
    parsed one row at a time; a bad row raises ParseError."""
    body = []
    for lineno, row in _records(path, fh, lines_before):
        if not row:
            continue
        if len(row) != width:
            raise ParseError(f"{path}, line {lineno}: expected {width} cells, got {len(row)}")
        try:
            body.append([float(c) for c in row])
        except ValueError as exc:
            raise ParseError(f"{path}, line {lineno}: {exc}") from None
    if not body:
        raise ParseError(f"{path}: no data rows")
    return np.array(body, dtype=float)


def split_response(names, M, response=None):
    """Split a table into predictors and responses by column names.

    ``response`` lists the response column names; by default (None) the
    last column is the response.  Returns ``(X, Y, x_names, y_names)``, X a
    view of M when the predictors are one run of columns, as by default.
    """
    if response is None:
        y_names = [names[-1]]
    else:
        y_names = list(response)
        if not y_names:
            raise ConfigError("--response names no column")
        if len(set(y_names)) < len(y_names):
            raise ConfigError(f"a response column is listed twice in {', '.join(y_names)}")
        missing = [c for c in y_names if c not in names]
        if missing:
            raise ConfigError(
                f"response column(s) not in header: {', '.join(missing)}"
            )
    y_idx = [names.index(c) for c in y_names]
    x_idx = [i for i in range(len(names)) if i not in set(y_idx)]
    if not x_idx:
        raise ConfigError("no predictor columns remain after removing responses")
    x_names = [names[i] for i in x_idx]
    run = x_idx[-1] - x_idx[0] + 1 == len(x_idx)
    return M[:, x_idx[0]:x_idx[-1] + 1] if run else M[:, x_idx], M[:, y_idx], x_names, y_names


def load_csv(path, response=None):
    """Load a regression table: ``(X, Y, x_names, y_names)``."""
    names, M = load_table(path)
    return split_response(names, M, response)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelFile:
    """A deserialized model plus the column names stored alongside it."""

    model: FittedModel
    x_names: list | None
    y_names: list | None
    software_version: str


def _transform_to_dict(tr: Transform | None):
    if tr is None:
        return None
    return {
        "mode": tr.mode,
        "x_mean": [float(v) for v in tr.x_mean],
        "x_scale": [float(v) for v in tr.x_scale],
        "y_mean": [float(v) for v in tr.y_mean],
        "y_scale": [float(v) for v in tr.y_scale],
    }


def _numeric(path, what, value, ndim):
    """``value`` as a non-empty, finite float array with ``ndim`` axes, or ParseError."""
    try:
        arr = np.asarray(value)
    except ValueError:      # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.ndim != ndim or arr.size == 0 \
            or not np.all(np.isfinite(arr)):
        raise ParseError(f"{path}: {what} must be a non-empty, finite {ndim}-D numeric array")
    return arr.astype(float)


def _transform_from_dict(path, d, p, q):
    if d is None:
        return None
    if not isinstance(d, dict) or d.get("mode") not in ("center", "standardize"):
        raise ParseError(f"{path}: transform must be an object whose mode is "
                         "'center' or 'standardize'")
    vectors = {}
    for key, size in (("x_mean", p), ("x_scale", p), ("y_mean", q), ("y_scale", q)):
        v = vectors[key] = _numeric(path, f"transform {key}", d.get(key), 1)
        if v.size != size:
            raise ParseError(f"{path}: transform {key} has {v.size} entries; "
                             f"beta is {p} x {q}, so it needs {size}")
        if key.endswith("scale") and np.any(v <= 0):
            raise ParseError(f"{path}: transform {key} must be positive")
    return Transform(mode=d["mode"], **vectors)


def save_model(path, model: FittedModel, x_names=None, y_names=None):
    """Serialize a fitted model to versioned, self-describing JSON."""
    doc = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "software_version": __version__,
        "method": model.method,
        "params": model.params,
        "flags": model.flags,
        "beta": [[float(v) for v in row] for row in model.beta],
        "gamma_hat": (
            None
            if model.gamma_hat is None
            else [[float(v) for v in row] for row in model.gamma_hat]
        ),
        "transform": _transform_to_dict(model.transform),
        "x_names": list(x_names) if x_names is not None else None,
        "y_names": list(y_names) if y_names is not None else None,
    }
    _write_json(path, doc)


def load_model(path) -> ModelFile:
    """Read a model file written by :func:`save_model`.

    A document that is not a well-formed model -- a missing or unknown
    ``method``, a ``beta`` that is not a finite matrix, a ``gamma_hat``,
    transform or column-name list whose size disagrees with ``beta`` --
    raises :class:`ParseError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ParseError(f"{path}: not an {MODEL_FORMAT} file")
    version = doc.get("format_version", 0)
    if not isinstance(version, int) or version > MODEL_FORMAT_VERSION:
        raise ParseError(
            f"{path}: format_version {version!r} is not a supported version "
            f"(at most {MODEL_FORMAT_VERSION})"
        )
    if doc.get("method") not in METHODS:
        raise ParseError(f"{path}: method must be one of {list(METHODS)}, "
                         f"got {doc.get('method')!r}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ParseError(f"{path}: params must be an object")
    beta = _numeric(path, "beta", doc.get("beta"), 2)
    gamma_hat = doc.get("gamma_hat")
    if gamma_hat is not None:
        gamma_hat = _numeric(path, "gamma_hat", gamma_hat, 2)
        if gamma_hat.shape[0] != beta.shape[0]:
            raise ParseError(f"{path}: gamma_hat has {gamma_hat.shape[0]} rows; "
                             f"beta has {beta.shape[0]}")
    for key, size in (("x_names", beta.shape[0]), ("y_names", beta.shape[1])):
        names = doc.get(key)
        if names is not None and not (isinstance(names, list) and len(names) == size
                                      and all(isinstance(c, str) for c in names)):
            raise ParseError(f"{path}: {key} must be a list of {size} column names")
    model = FittedModel(
        beta=beta,
        method=doc["method"],
        d=params.get("d"),
        u=params.get("u"),
        lam=params.get("lambda"),
        gamma_hat=gamma_hat,
        transform=_transform_from_dict(path, doc.get("transform"), *beta.shape),
        flags=doc.get("flags", {}),
    )
    return ModelFile(
        model=model,
        x_names=doc.get("x_names"),
        y_names=doc.get("y_names"),
        software_version=doc.get("software_version", "unknown"),
    )


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

def config_digest(obj) -> str:
    """SHA-256 of the canonical JSON encoding (sorted keys, no whitespace)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to every command's outputs."""

    command: list
    config_digest: str
    seed: int | None
    software_version: str
    wall_clock_sec: float
    outputs: list


def write_manifest(path, manifest: RunManifest):
    _write_json(path, asdict(manifest))
