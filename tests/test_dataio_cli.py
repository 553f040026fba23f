"""Tests for CSV/model persistence and the command-line entry points.

CLI commands are exercised in-process through ``egreg.cli.main`` so exit
codes and emitted files can be checked directly.
"""

import csv
import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

import egreg
from egreg import ConfigError, EnvelopeSimConfig, ParseError
from egreg.cli import _THREAD_VARS, main
from egreg.dataio import (
    config_digest,
    load_model,
    load_table,
    save_model,
    split_response,
    write_table,
)
from egreg.estimators import fit_method, predict
from egreg.matrixcore import Dataset, center_standardize
from egreg.simharness import _alternating, _model_frame, _responses, run_study


def _write_xy(path, X, Y, x_names=None, y_names=None):
    x_names = x_names or [f"x{j + 1}" for j in range(X.shape[1])]
    y_names = y_names or ["y"]
    rows = [x_names + y_names]
    for i in range(X.shape[0]):
        rows.append(list(X[i]) + list(np.atleast_1d(Y[i])))
    write_table(path, rows)
    return x_names, y_names


def _toy(seed=0, n=30, p=4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    Y = X @ rng.standard_normal((p, 1)) + 0.3 * rng.standard_normal((n, 1))
    return X, Y


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_table_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    M = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-12, 12, (7, 3))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = [["a", "b", "c"]] + [list(r) for r in M]
    write_table(p1, rows)
    names, M2 = load_table(p1)
    assert names == ["a", "b", "c"]
    assert np.array_equal(M, M2)
    write_table(p2, [names] + [list(r) for r in M2])
    assert p1.read_bytes() == p2.read_bytes()


def test_float_formatting_round_trips_hard_values(tmp_path):
    vals = [np.pi, 1.0 / 3.0, 1e-300, 6.02214076e23, -0.1, 2.0**-1074]
    path = tmp_path / "v.csv"
    write_table(path, [["v"]] + [[v] for v in vals])
    _, M = load_table(path)
    assert np.array_equal(M[:, 0], np.array(vals))
    # integers stay integral in the text form
    write_table(path, [["v"], [10.0]])
    assert "10\n" in path.read_text()


def test_load_table_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(ParseError, match="empty"):
        load_table(path)
    path.write_text("a,b\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_table(path)
    path.write_text("a,a\n1,2\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_table(path)
    path.write_text("a,b\n1,2\n3,4\n5,oops\n")
    with pytest.raises(ParseError, match="line 4"):
        load_table(path)
    path.write_text("a,b\n1,2,3\n")
    with pytest.raises(ParseError, match="line 2"):
        load_table(path)
    path.write_text('a,b\n"1\n",3\nx,4\n')           # lines are counted, not records
    with pytest.raises(ParseError, match="line 4"):
        load_table(path)
    for header in ("x0,,y", 'x0,"",y', "x0, ,y"):
        path.write_text(header + "\n1,2,3\n")
        with pytest.raises(ParseError, match="line 1: column 2 has an empty name"):
            load_table(path)


def _row_scan_load_table(path):
    """The row-by-row loader that numpy's reader must agree with: csv records,
    Python float() per cell, and the header rules of :func:`load_table`."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        names = [c.strip() for c in names]
        if "" in names:
            raise ParseError(f"{path}, line 1: column {names.index('') + 1} has an empty name")
        if len(set(names)) != len(names):
            raise ParseError(f"{path}, line 1: duplicate column names")
        body = []
        for row in reader:
            lineno = reader.line_num
            if not row:
                continue
            if len(row) != len(names):
                raise ParseError(
                    f"{path}, line {lineno}: expected {len(names)} cells, got {len(row)}"
                )
            try:
                body.append([float(c) for c in row])
            except ValueError as exc:
                raise ParseError(f"{path}, line {lineno}: {exc}") from None
    if not body:
        raise ParseError(f"{path}: no data rows")
    return names, np.array(body, dtype=float)


_ODD_CELLS = (
    " 3 ", "1_0", "1_000", "#5", '"6"', '"7,8"', '"9"9', '9"9', '""', "", " ", "\t",
    "nan", "-nan", "NaN", "inf", "-Infinity", "1e999", "-1e999", "5e-324", "1e-400",
    "-0", "+.5", "5.", "0x1", "1e", "1 2", "abc", "\x1c1", "1\x1f", "\xa01", "\u30001",
    "\uff11", "\x0b2", "\x0c2", '"1\n"', '"\r\n2"', "\x001", "2.2250738585072014e-308",
)


def _odd_csv(rng):
    """CSV text that is valid about half the time."""
    k = int(rng.choice([1, 1, 2, 3, 5]))
    names = [str(rng.choice([f"x{j}", f'"x{j}"', f" x{j} ", f'"x,{j}"'])) for j in range(k)]
    eol = str(rng.choice(["\n", "\r\n", "\r"]))
    odd = rng.random() < 0.5
    lines = [",".join(names)]
    for _ in range(int(rng.choice([0, 1, 2, 3, 8]))):
        u = rng.random()
        if u < 0.08:
            lines.append("")
        elif u < 0.12:
            lines.append(str(rng.choice(["  ", "\t"])))
        else:
            width = k if not odd or rng.random() < 0.85 else int(rng.choice([k - 1, k + 1]))
            cells = []
            for _ in range(width):
                v = float(rng.choice([rng.standard_normal(), np.exp(rng.uniform(-700, 700))]))
                cells.append(str(rng.choice(_ODD_CELLS)) if odd and rng.random() < 0.5
                             else str(rng.choice([repr(v), format(v, ".17g"), format(v, ".3e")])))
            lines.append(",".join(cells))
    return eol.join(lines) + eol * int(rng.choice([0, 1, 1, 3]))


def _load_outcome(load, path):
    try:
        names, M = load(path)
    except ParseError as exc:
        return "ParseError", str(exc)
    return names, M.shape, M.tobytes()


def test_load_table_agrees_with_the_row_scan(tmp_path):
    rng = np.random.default_rng(20251)
    path = tmp_path / "t.csv"
    valid = 0
    for _ in range(1500):
        text = _odd_csv(rng)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        expect = _load_outcome(_row_scan_load_table, path)
        assert _load_outcome(load_table, path) == expect, repr(text)
        valid += expect[0] != "ParseError"
    assert 400 < valid < 1100       # both outcomes are well exercised


def test_load_table_reports_an_oversized_cell_as_a_parse_error(tmp_path, capsys):
    # csv's field size limit (131072 characters) is left as it is; a longer
    # header name or row-scanned cell fails with the file and line.
    limit = csv.field_size_limit()
    path = tmp_path / "long.csv"
    path.write_text("x" * 140000 + ",y\n1,2\n")
    with pytest.raises(ParseError, match=r"long\.csv, line 1: field larger than field limit"):
        load_table(path)
    assert main(["fit", str(path), str(tmp_path / "m.json"), "--method", "pcr", "--d", "1"]) == 1
    assert "line 1: field larger" in capsys.readouterr().err
    path.write_text("a,b\n1,2\n1_0,3\n\n" + "1" * 140000 + ",4\n")  # 1_0 sends it to the row scan
    with pytest.raises(ParseError, match="line 5: field larger than field limit"):
        load_table(path)
    assert csv.field_size_limit() == limit


def test_load_table_skips_a_byte_order_mark(tmp_path, capsys):
    # Spreadsheets save "CSV UTF-8" with a byte-order mark, which must not
    # become part of the first column name, whichever reader takes the body.
    for body in ("1,2,3\n4.5,-6,7e-3\n", "1_0,2,3\n4,5,6\n"):    # 1_0: the row scan
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(("a,b,y\n" + body).encode())
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        names, M = load_table(bom)
        assert names == ["a", "b", "y"] == load_table(plain)[0]
        assert M.tobytes() == load_table(plain)[1].tobytes()
    bom.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n1_0,3\nx,4\n")
    with pytest.raises(ParseError, match="line 4"):
        load_table(bom)
    X, Y = _toy(seed=6)
    _write_xy(plain, X, Y)
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    model = tmp_path / "m.json"
    fit = ["fit", str(bom), str(model), "--method", "pcr", "--d", "1"]
    assert main(fit + ["--response", "x1"]) == 0, capsys.readouterr().err
    assert main(fit) == 0                   # x1 is a predictor the plain table has
    assert main(["predict", str(model), str(plain), str(tmp_path / "p.csv")]) == 0, \
        capsys.readouterr().err


def test_load_table_without_data_rows_warns_nothing(tmp_path):
    path = tmp_path / "t.csv"
    for text in ("a,b\n", "a,b", "a\n\n\n", "a,b\r\n\r\n"):
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="no data rows"):
                load_table(path)


def test_split_response_selection():
    names = ["x1", "x2", "y1", "y2"]
    M = np.arange(8.0).reshape(2, 4)
    X, Y, xn, yn = split_response(names, M)
    assert xn == ["x1", "x2", "y1"] and yn == ["y2"]
    X, Y, xn, yn = split_response(names, M, ["y1", "y2"])
    assert xn == ["x1", "x2"] and yn == ["y1", "y2"]
    assert_allclose(Y, M[:, 2:])
    with pytest.raises(ConfigError, match="z"):
        split_response(names, M, ["z"])
    with pytest.raises(ConfigError):
        split_response(names, M, names)
    with pytest.raises(ConfigError, match="listed twice"):
        split_response(names, M, ["y1", "y1"])
    with pytest.raises(ConfigError, match="names no column"):
        split_response(names, M, [])          # only None means the last column


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def test_model_save_load_is_exact(tmp_path):
    X, Y = _toy(seed=2)
    data = center_standardize(Dataset(X, Y), "standardize")
    model = fit_method(data, "egreg", {"d": 3, "lambda": 0.7})
    path = tmp_path / "m.json"
    save_model(path, model, ["x1", "x2", "x3", "x4"], ["y"])
    mf = load_model(path)
    assert np.array_equal(mf.model.beta, model.beta)
    assert np.array_equal(mf.model.gamma_hat, model.gamma_hat)
    assert mf.model.method == model.method
    assert mf.model.params == {"d": 3, "lambda": 0.7}
    assert mf.x_names == ["x1", "x2", "x3", "x4"] and mf.y_names == ["y"]
    Xnew = _toy(seed=3)[0]
    assert np.array_equal(predict(mf.model, Xnew), predict(model, Xnew))


def test_model_file_format_checks(tmp_path):
    X, Y = _toy(seed=4)
    model = fit_method(center_standardize(Dataset(X, Y)), "pcr", {"d": 2})
    path = tmp_path / "m.json"
    save_model(path, model)
    doc = json.loads(path.read_text())
    doc["format"] = "something-else"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="format"):
        load_model(path)
    doc["format"] = "egreg-model"
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="version"):
        load_model(path)
    path.write_text("not json")
    with pytest.raises(ParseError):
        load_model(path)


def _model_doc(tmp_path):
    X, Y = _toy(seed=15)
    model = fit_method(center_standardize(Dataset(X, Y), "standardize"), "egreg",
                       {"d": 3, "lambda": 0.7})
    path = tmp_path / "m.json"
    save_model(path, model, ["x1", "x2", "x3", "x4"], ["y"])
    return path, json.loads(path.read_text())


def _drop(key):
    return lambda doc: doc.pop(key)


def _put(value, *keys):
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


@pytest.mark.parametrize("edit", [
    pytest.param(_drop("beta"), id="no-beta"),
    pytest.param(_drop("method"), id="no-method"),
    pytest.param(_put("Warp", "method"), id="unknown-method"),
    pytest.param(_put("1,2", "beta"), id="beta-string"),
    pytest.param(_put([1.0, 2.0, 3.0, 4.0], "beta"), id="beta-1d"),
    pytest.param(_put([[1.0], [2.0, 3.0]], "beta"), id="beta-ragged"),
    pytest.param(_put([[1.0], [float("nan")], [0.0], [0.0]], "beta"), id="beta-nan"),
    pytest.param(_put([[True], [False], [True], [False]], "beta"), id="beta-bool"),
    pytest.param(_put([[1.0, 0.0, 0.0]] * 3, "gamma_hat"), id="gamma-rows"),
    pytest.param(_put([0.0, 0.0, 0.0], "transform", "x_mean"), id="x-mean-short"),
    pytest.param(_put([1.0, 1.0], "transform", "y_scale"), id="y-scale-long"),
    pytest.param(_put([1.0, 0.0, 1.0, 1.0], "transform", "x_scale"), id="x-scale-zero"),
    pytest.param(_put("zscore", "transform", "mode"), id="transform-mode"),
    pytest.param(_put([2], "params"), id="params-list"),
    pytest.param(_put(["y", "z"], "y_names"), id="y-names-long"),
    pytest.param(_put("x1", "x_names"), id="x-names-string"),
    pytest.param(_put("1", "format_version"), id="version-string"),
])
def test_load_model_rejects_malformed_documents(tmp_path, edit):
    path, doc = _model_doc(tmp_path)
    load_model(path)
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_model(path)


@pytest.mark.parametrize("edit", [
    pytest.param(_drop("beta"), id="no-beta"),
    pytest.param(_put([0.0, 0.0], "transform", "x_mean"), id="x-mean-short"),
])
def test_cli_predict_reports_a_malformed_model_file(tmp_path, capsys, edit):
    path, doc = _model_doc(tmp_path)
    edit(doc)
    path.write_text(json.dumps(doc))
    newx = tmp_path / "new.csv"
    _write_xy(newx, *_toy(seed=16))
    assert main(["predict", str(path), str(newx), str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert "m.json" in err and "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


def test_write_failure_keeps_the_old_file_and_no_temp_file(tmp_path):
    class Unprintable:
        def __str__(self):
            raise RuntimeError("cannot format")

    path = tmp_path / "t.csv"
    write_table(path, [["a", "b"], [1.0, 2.0]])
    before = path.read_bytes()
    rows = [["a", "b"]] + [[float(i), 0.5] for i in range(5000)] + [[Unprintable(), 1.0]]
    with pytest.raises(RuntimeError, match="cannot format"):
        write_table(path, rows)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["t.csv"]


@pytest.mark.parametrize("target", ["missing/m.json", "m.json"], ids=["missing-dir", "a-dir"])
def test_cli_write_failure_names_the_target(tmp_path, capsys, target):
    # A model path in a missing directory, or one that is a directory: exit 1
    # with an error naming the path given, not the temp file beside it.
    X, Y = _toy(seed=8)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    (tmp_path / "m.json").mkdir()
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert main(["fit", str(train), str(tmp_path / target), "--method", "pcr", "--d", "1"]) == 1
    err = capsys.readouterr().err
    assert repr(str(tmp_path / target)) in err, err
    assert ".tmp" not in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


def test_config_digest_is_canonical():
    a = config_digest({"x": 1, "y": [1, 2], "z": "s"})
    b = config_digest({"z": "s", "y": [1, 2], "x": 1})
    assert a == b and len(a) == 64
    assert config_digest({"x": 2, "y": [1, 2], "z": "s"}) != a


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _manifest(path):
    doc = json.loads(path.read_text())
    assert set(doc) == {"command", "config_digest", "seed", "software_version",
                        "wall_clock_sec", "outputs"}
    return doc


def test_cli_fit_predict_round_trip(tmp_path):
    X, Y = _toy(seed=5)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    model_path = tmp_path / "m.json"
    argv = ["fit", str(train), str(model_path), "--method", "pcr", "--d", "2"]
    assert main(argv) == 0
    man = _manifest(tmp_path / "m.json.manifest.json")
    assert man["command"] == argv
    assert man["outputs"] == [str(model_path)]

    newx = tmp_path / "new.csv"
    write_table(newx, [["x1", "x2", "x3", "x4"]] + [list(r) for r in X])
    out = tmp_path / "pred.csv"
    assert main(["predict", str(model_path), str(newx), str(out)]) == 0
    names, Yp = load_table(out)
    assert names == ["y"]
    _manifest(tmp_path / "pred.csv.manifest.json")

    direct = fit_method(center_standardize(Dataset(X, Y)), "pcr", {"d": 2})
    assert np.max(np.abs(Yp - predict(direct, X))) <= 1e-10


@pytest.mark.parametrize("command", ["fit", "predict", "evaluate-rpe", "theory", "simulate"])
def test_cli_manifest_records_the_argv_and_the_files_written(tmp_path, capsys, command):
    # main writes every command's manifest: its command is the argv as given
    # and its outputs are the files the command wrote.
    X, Y = _toy(seed=7)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    models = [str(tmp_path / "simpls.json"), str(tmp_path / "pcr.json")]
    assert main(["fit", str(train), models[0], "--method", "simpls", "--d", "1"]) == 0
    assert main(["fit", str(train), models[1], "--method", "pcr", "--d", "2"]) == 0
    config = tmp_path / "p1.json"
    config.write_text(json.dumps({"study": "P1", "seed": 0, "n": 80, "replications": 2,
                                  "p_over_n": [0.25], "methods": ["pcr"]}))
    out = tmp_path / "out"
    argv, written, manifest = {
        "fit": (["fit", str(train), str(out), "--method", "ridge", "--lambda", "1"],
                out, f"{out}.manifest.json"),
        "predict": (["predict", models[1], str(train), str(out)], out, f"{out}.manifest.json"),
        "evaluate-rpe": (["evaluate-rpe", str(train), *models, "--out", str(out)],
                         out, f"{out}.manifest.json"),
        "theory": (["theory", str(out), "--grid-count", "3"], out, f"{out}.manifest.json"),
        "simulate": (["simulate", str(config), str(out)], out / "P1.csv",
                     out / "manifest.json"),
    }[command]
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.count("\n") == 1    # the one summary line
    man = _manifest(pathlib.Path(manifest))
    assert man["command"] == argv
    assert man["outputs"] == [str(written)] and written.is_file()


@pytest.mark.parametrize("command", ["fit", "predict", "evaluate-rpe", "theory", "simulate"])
def test_cli_manifest_path_that_is_a_directory_leaves_older_output_untouched(tmp_path, capsys,
                                                                            command):
    # The manifest is written last, so a manifest path that cannot be
    # written (here a directory) is caught before the command runs: exit 1
    # with the OSError's message, the older output unchanged and no file
    # added, not a fresh output without its record.
    X, Y = _toy(seed=7)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    models = [str(tmp_path / "simpls.json"), str(tmp_path / "pcr.json")]
    assert main(["fit", str(train), models[0], "--method", "simpls", "--d", "1"]) == 0
    assert main(["fit", str(train), models[1], "--method", "pcr", "--d", "2"]) == 0
    config = tmp_path / "p1.json"
    config.write_text(json.dumps({"study": "P1", "seed": 0, "n": 80, "replications": 2,
                                  "p_over_n": [0.25], "methods": ["pcr"]}))
    out = tmp_path / "out"
    argv, older, manifest = {
        "fit": (["fit", str(train), str(out), "--method", "ridge", "--lambda", "1"],
                out, f"{out}.manifest.json"),
        "predict": (["predict", models[1], str(train), str(out)], out, f"{out}.manifest.json"),
        "evaluate-rpe": (["evaluate-rpe", str(train), *models, "--out", str(out)],
                         out, f"{out}.manifest.json"),
        "theory": (["theory", str(out), "--grid-count", "3"], out, f"{out}.manifest.json"),
        "simulate": (["simulate", str(config), str(out)], out / "P1.csv",
                     os.path.join(out, "manifest.json")),
    }[command]
    older.parent.mkdir(exist_ok=True)
    older.write_text("older\n")
    os.mkdir(manifest)
    before = sorted(p.name for p in tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"Is a directory: '{manifest}'" in err and "Traceback" not in err
    assert older.read_text() == "older\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == before


def test_cli_fit_standardize_matches_library(tmp_path):
    X, Y = _toy(seed=6)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    mp = tmp_path / "m.json"
    assert main(["fit", str(train), str(mp), "--method", "ridge",
                 "--lambda", "0.8", "--standardize"]) == 0
    mf = load_model(mp)
    direct = fit_method(center_standardize(Dataset(X, Y), "standardize"),
                        "ridge", {"lambda": 0.8})
    Xnew = _toy(seed=7)[0]
    assert_allclose(predict(mf.model, Xnew), predict(direct, Xnew), atol=1e-12)


def test_cli_egreg_zero_lambda_equals_niece(tmp_path):
    X, Y = _toy(seed=8, n=40, p=6)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    m1, m2 = tmp_path / "eg.json", tmp_path / "ni.json"
    assert main(["fit", str(train), str(m1), "--method", "egreg",
                 "--d", "4", "--lambda", "0"]) == 0
    assert main(["fit", str(train), str(m2), "--method", "niece",
                 "--u", "4", "--d", "4"]) == 0
    b1 = load_model(m1).model.beta
    b2 = load_model(m2).model.beta
    assert np.max(np.abs(b1 - b2)) <= 1e-8


def test_cli_predict_aligns_columns_by_name(tmp_path):
    X, Y = _toy(seed=9)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    mp = tmp_path / "m.json"
    assert main(["fit", str(train), str(mp), "--method", "simpls", "--d", "2"]) == 0

    shuffled = tmp_path / "shuffled.csv"
    perm = [3, 0, 2, 1]
    rows = [[f"x{j + 1}" for j in perm] + ["extra"]]
    rows += [[X[i, j] for j in perm] + [99.0] for i in range(X.shape[0])]
    write_table(shuffled, rows)
    out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    assert main(["predict", str(mp), str(shuffled), str(out1)]) == 0
    plain = tmp_path / "plain.csv"
    write_table(plain, [[f"x{j + 1}" for j in range(4)]] + [list(r) for r in X])
    assert main(["predict", str(mp), str(plain), str(out2)]) == 0
    assert np.array_equal(load_table(out1)[1], load_table(out2)[1])


def test_cli_predict_column_mismatch_exits_2(tmp_path, capsys):
    X, Y = _toy(seed=10)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    mp = tmp_path / "m.json"
    assert main(["fit", str(train), str(mp), "--method", "pcr", "--d", "1"]) == 0
    bad = tmp_path / "bad.csv"
    write_table(bad, [["a", "b"], [1.0, 2.0]])
    assert main(["predict", str(mp), str(bad), str(tmp_path / "o.csv")]) == 2
    assert "column" in capsys.readouterr().err


def test_cli_model_without_predictor_names_takes_a_table_of_its_width(tmp_path, capsys):
    # A model file whose x_names is null reads a table's candidate predictor
    # columns as they stand: at the model's width, predict and evaluate-rpe
    # give what the named model gives; any other width exits 2 naming both.
    X, Y = _toy(seed=11)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    named, unnamed, pls = (tmp_path / f"{m}.json" for m in ("named", "unnamed", "pls"))
    assert main(["fit", str(train), str(named), "--method", "pcr", "--d", "2"]) == 0
    assert main(["fit", str(train), str(pls), "--method", "simpls", "--d", "1"]) == 0
    doc = json.loads(named.read_text())
    doc["x_names"] = None
    unnamed.write_text(json.dumps(doc))
    plain = tmp_path / "plain.csv"
    write_table(plain, [["a", "b", "c", "d"]] + [list(r) for r in X])
    outs = [tmp_path / f"p{i}.csv" for i in range(2)]
    assert main(["predict", str(named), str(train), str(outs[0])]) == 0
    assert main(["predict", str(unnamed), str(plain), str(outs[1])]) == 0
    assert np.array_equal(load_table(outs[0])[1], load_table(outs[1])[1])
    rpes = [tmp_path / f"r{i}.csv" for i in range(2)]
    for model, out in zip((named, unnamed), rpes):
        assert main(["evaluate-rpe", str(train), str(pls), str(model), "--out", str(out)]) == 0
    rpe = [[line.split(",")[-1] for line in out.read_text().splitlines()] for out in rpes]
    assert rpe[0] == rpe[1]

    narrow = tmp_path / "narrow.csv"
    _write_xy(narrow, X[:, :3], Y)
    capsys.readouterr()
    assert main(["predict", str(unnamed), str(train), str(tmp_path / "o.csv")]) == 2  # x1..x4, y
    assert "has 5 candidate predictor columns; the model has 4" in capsys.readouterr().err
    assert main(["evaluate-rpe", str(narrow), str(unnamed), str(pls), "--out",
                 str(tmp_path / "r.csv")]) == 2                 # x1..x3 beside y: width 3
    err = capsys.readouterr().err
    assert "has 3 candidate predictor columns; the model has 4" in err and "Traceback" not in err


def test_cli_predict_and_rpe_reject_nonfinite_predictors(tmp_path, capsys):
    X, Y = _toy(seed=17)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    mp, base = tmp_path / "m.json", tmp_path / "s.json"
    assert main(["fit", str(train), str(mp), "--method", "pcr", "--d", "2"]) == 0
    assert main(["fit", str(train), str(base), "--method", "simpls", "--d", "1"]) == 0
    capsys.readouterr()
    for bad in (float("nan"), float("inf")):
        X[2, 1] = bad
        test = tmp_path / "test.csv"
        _write_xy(test, X, Y)
        out = tmp_path / "o.csv"
        assert main(["predict", str(mp), str(test), str(out)]) == 1
        assert "row 3 " in capsys.readouterr().err
        assert main(["evaluate-rpe", str(test), str(base), str(mp), "--out", str(out)]) == 1
        assert "row 3 " in capsys.readouterr().err
        assert not out.exists()
    X[2, 1] = 0.0
    for bad in (float("nan"), float("inf")):
        Y[4, 0] = bad                   # a bad response cell, finite predictors
        _write_xy(test, X, Y)
        assert main(["evaluate-rpe", str(test), str(base), str(mp), "--out", str(out)]) == 1
        assert "response row 5 " in capsys.readouterr().err
        assert not out.exists()


def test_cli_unknown_method_exits_2(tmp_path):
    X, Y = _toy(seed=11)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    with pytest.raises(SystemExit) as exc:
        main(["fit", str(train), str(tmp_path / "m.json"), "--method", "warp"])
    assert exc.value.code == 2


def test_cli_missing_tuning_parameter_exits_2(tmp_path, capsys):
    X, Y = _toy(seed=12)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    code = main(["fit", str(train), str(tmp_path / "m.json"),
                 "--method", "egreg", "--d", "2"])
    assert code == 2
    assert "lambda" in capsys.readouterr().err


def test_cli_fit_rejects_a_flag_its_method_does_not_use(tmp_path, capsys):
    X, Y = _toy(seed=12)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    mp = tmp_path / "m.json"
    code = main(["fit", str(train), str(mp), "--method", "pcr", "--d", "2", "--lambda", "5"])
    assert code == 2
    assert "lambda" in capsys.readouterr().err
    assert not mp.exists()
    assert not (tmp_path / "m.json.manifest.json").exists()


def test_cli_fit_notes_a_degenerate_fit_on_stderr(tmp_path, capsys):
    # A fit with fewer SIMPLS components than asked, or with zero-score
    # directions resolved to 0, is saved (exit 0) with a note on stderr.
    X, _ = _toy(seed=14, n=30, p=5)
    train = tmp_path / "train.csv"
    _write_xy(train, X, np.zeros((30, 1)))
    mp = tmp_path / "m.json"
    for flags, note in ((["--method", "simpls", "--d", "3"], "egreg: note: degenerate fit, "
                         "{'d': 3} gave {'achieved_components': 0, 'early_stop': True}"),
                        (["--method", "egreg", "--d", "3", "--lambda", "0"], "egreg: note: "
                         "degenerate fit, {'d': 3, 'lambda': 0.0} gave "
                         "{'zero_score_directions': [0, 1, 2]}")):
        assert main(["fit", str(train), str(mp), *flags]) == 0, flags
        out, err = capsys.readouterr()
        assert note in err, err
        assert "egreg: note" not in out
        assert mp.exists()
    X, Y = _toy(seed=14, n=30, p=5)
    _write_xy(train, X, Y)
    assert main(["fit", str(train), str(mp), "--method", "simpls", "--d", "3"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_fit_response_listed_twice_exits_2(tmp_path, capsys):
    # A model with two copies of one response would predict a table with a
    # duplicated header, which load_table rejects; split_response refuses it.
    X, Y = _toy(seed=9, p=2)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    mp = tmp_path / "m.json"
    assert main(["fit", str(train), str(mp), "--method", "pcr", "--d", "1",
                 "--response", "y, y"]) == 2
    assert "listed twice" in capsys.readouterr().err
    assert not mp.exists()


@pytest.mark.parametrize("response", ["", ",", " , "])
def test_cli_empty_response_exits_2(tmp_path, capsys, response):
    # A --response that names no column is a usage error, not a request for
    # the default last column: fit and evaluate-rpe exit 2 and write neither
    # their output nor its manifest.
    X, Y = _toy(seed=9, p=2)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    pls = tmp_path / "pls.json"
    assert main(["fit", str(train), str(pls), "--method", "simpls", "--d", "1"]) == 0
    mp, rpe = tmp_path / "m.json", tmp_path / "rpe.csv"
    for argv, out in ((["fit", str(train), str(mp), "--method", "pcr", "--d", "1"], mp),
                      (["evaluate-rpe", str(train), str(pls), "--out", str(rpe)], rpe)):
        capsys.readouterr()
        assert main([*argv, "--response", response]) == 2, argv[0]
        err = capsys.readouterr().err
        assert "--response names no column" in err and "Traceback" not in err
        assert not out.exists() and not pathlib.Path(f"{out}.manifest.json").exists()


def test_cli_fit_parameters_above_the_rank_exit_2(tmp_path, capsys):
    # d or u above the rank of X is a bad flag value, like --d 0.
    X, Y = _toy(seed=13, n=30, p=5)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    mp = tmp_path / "m.json"
    for flags, message in ((["--method", "pcr", "--d", "99"], "d must satisfy"),
                           (["--method", "simpls", "--d", "99"], "d must satisfy"),
                           (["--method", "niece", "--u", "9"], "u must satisfy"),
                           (["--method", "egreg", "--d", "6", "--lambda", "1"], "d must satisfy"),
                           (["--method", "pcr", "--d", "0"], "d must be")):
        assert main(["fit", str(train), str(mp), *flags]) == 2, flags
        assert message in capsys.readouterr().err
        assert not mp.exists()
        assert not (tmp_path / "m.json.manifest.json").exists()


def test_cli_method_choices_are_the_parameter_table():
    # build_parser runs before the BLAS thread cap, so cli spells the choices
    # out instead of importing estimators; this keeps the two lists equal.
    import argparse

    from egreg import estimators
    from egreg.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in sub.choices["fit"]._actions if a.dest == "method")
    assert method.choices == list(estimators._PARAMS)


def test_cli_missing_input_exits_1(tmp_path):
    assert main(["fit", str(tmp_path / "absent.csv"),
                 str(tmp_path / "m.json"), "--method", "pcr", "--d", "1"]) == 1


def test_cli_thread_cap(tmp_path, monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    X, Y = _toy(seed=13)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    mp = tmp_path / "m.json"
    assert main(["fit", str(train), str(mp), "--method", "pcr", "--d", "1",
                 "--threads", "2"]) == 0
    import os
    assert os.environ["OMP_NUM_THREADS"] == "2"
    monkeypatch.setenv("EGREG_THREADS", "lots")
    assert main(["fit", str(train), str(mp), "--method", "pcr", "--d", "1"]) == 2


def test_cli_fit_predict_and_rpe_hold_two_copies_of_the_design(tmp_path):
    # fit, predict and evaluate-rpe hold at most two n x p arrays at once.
    # A fit holds the table (its predictors are a view of it) and the
    # centered copy, then the centered copy and the U factored from it: the
    # cross-product branch drops its scaled design once the product is
    # formed and builds U, and its Cholesky QR step, in 1 MiB blocks, and
    # the SIMPLS refit forms no U D.  predict and evaluate-rpe hold the table
    # (or its predictor columns) and predict's centered copy.  A third copy
    # would put the peak near 3x the table's bytes.  The column scales
    # exp(-j/25) put (sigma_p / sigma_1)^2 near 4e-4, so every centered fit
    # takes the cross-product branch and its Cholesky QR step.  EgReg with no
    # --d (EgReg(r)) and NIECE with a large u read a prefix of the PCs, so
    # they copy no columns of U either.  The table (4 MB) is large beside a
    # block.  The first fit in a process also fills import and BLAS caches,
    # so a warm-up fit runs untraced.
    rng = np.random.default_rng(23)
    n, p = 5000, 100
    X = rng.standard_normal((n, p)) * np.exp(-np.arange(p) / 25.0) + 1.0
    Y = X[:, :3].sum(axis=1, keepdims=True) + rng.standard_normal((n, 1))
    train = tmp_path / "train.csv"
    with open(train, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"x{j + 1}" for j in range(p)] + ["y"]) + "\n")
        np.savetxt(fh, np.column_stack([X, Y]), fmt="%.17g", delimiter=",")
    fits = (("pcr", ["--d", "10"]), ("ridge", ["--lambda", "1.0"]), ("niece", ["--u", "10"]),
            ("egreg", ["--d", "20", "--lambda", "0.5"]), ("egreg", ["--lambda", "0.5"]),
            ("niece", ["--u", "90"]), ("simpls", ["--d", "3", "--standardize"]))
    models = [str(tmp_path / f"{method}{i}.json") for i, (method, _) in enumerate(fits)]
    runs = [["fit", str(train), model, "--method", method, *flags]
            for model, (method, flags) in zip(models, fits)]
    runs += [["predict", models[-1], str(train), str(tmp_path / "pred.csv")],
             ["evaluate-rpe", str(train), *models, "--out", str(tmp_path / "rpe.csv")]]
    assert main(runs[0]) == 0
    table_bytes = n * (p + 1) * 8
    with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as spy:
        for argv in runs:
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * table_bytes, (argv[:4], peak / table_bytes)
    assert spy.call_count == 6


def test_cli_rpe_golden_values(tmp_path):
    # Build a test set whose response IS one model's prediction: that model
    # scores exactly 0; the SIMPLS denominator row is exactly 1 by identity.
    X, Y = _toy(seed=14, n=50, p=5)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    pls, pcr = tmp_path / "pls.json", tmp_path / "pcr.json"
    assert main(["fit", str(train), str(pls), "--method", "simpls", "--d", "1"]) == 0
    assert main(["fit", str(train), str(pcr), "--method", "pcr", "--d", "3"]) == 0

    Xte = _toy(seed=15, n=20, p=5)[0]
    tx = tmp_path / "tx.csv"
    write_table(tx, [[f"x{j + 1}" for j in range(5)]] + [list(r) for r in Xte])
    yhat = tmp_path / "yhat.csv"
    assert main(["predict", str(pcr), str(tx), str(yhat)]) == 0
    Yh = load_table(yhat)[1]
    test_csv = tmp_path / "test.csv"
    _write_xy(test_csv, Xte, Yh)

    out = tmp_path / "rpe.csv"
    assert main(["evaluate-rpe", str(test_csv), str(pls), str(pcr),
                 "--out", str(out), "--response", "y"]) == 0
    with open(out) as fh:
        lines = [l.strip().split(",") for l in fh if l.strip()]
    assert lines[0] == ["model", "method", "rpe"]
    table = {row[1]: float(row[2]) for row in lines[1:]}
    assert table["SIMPLS"] == 1.0
    assert table["PCR"] == 0.0
    _manifest(tmp_path / "rpe.csv.manifest.json")


def test_cli_rpe_matches_columns_by_name(tmp_path, capsys):
    X, Y = _toy(seed=18, n=40, p=5)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    models = [str(tmp_path / f"{m}.json") for m in ("simpls", "pcr")]
    assert main(["fit", str(train), models[0], "--method", "simpls", "--d", "1"]) == 0
    assert main(["fit", str(train), models[1], "--method", "pcr", "--d", "2"]) == 0
    Xte, Yte = _toy(seed=19, n=25, p=5)
    plain, shuffled = tmp_path / "plain.csv", tmp_path / "shuffled.csv"
    _write_xy(plain, Xte, Yte)
    perm = [4, 3, 2, 1, 0]
    rows = [[f"x{j + 1}" for j in perm[:2]] + ["extra"] + [f"x{j + 1}" for j in perm[2:]] + ["y"]]
    rows += [[Xte[i, j] for j in perm[:2]] + [7.0] + [Xte[i, j] for j in perm[2:]]
             + [Yte[i, 0]] for i in range(Xte.shape[0])]
    write_table(shuffled, rows)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["evaluate-rpe", str(plain), *models, "--out", str(out1)]) == 0
    assert main(["evaluate-rpe", str(shuffled), *models, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    write_table(shuffled, [r[:1] + r[2:] for r in rows])      # no x4 column
    capsys.readouterr()
    assert main(["evaluate-rpe", str(shuffled), *models, "--out", str(out2)]) == 2
    assert "x4" in capsys.readouterr().err


def test_cli_rpe_refuses_a_model_whose_responses_differ(tmp_path, capsys):
    # A model scores the table's response columns: stored response names must
    # be those columns, in order, and a model without names must have as many
    # responses.  A two-response model is not broadcast against one column.
    X, Y = _toy(seed=20, n=40, p=4)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    pls, two = str(tmp_path / "pls.json"), str(tmp_path / "two.json")
    assert main(["fit", str(train), pls, "--method", "simpls", "--d", "1"]) == 0
    assert main(["fit", str(train), two, "--method", "pcr", "--d", "2",
                 "--response", "x1,y"]) == 0
    out = tmp_path / "rpe.csv"
    capsys.readouterr()
    assert main(["evaluate-rpe", str(train), pls, two, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{two} predicts the response(s) x1, y; {train} has y" in err, err
    assert not out.exists()

    doc = json.loads(pathlib.Path(two).read_text())
    doc["y_names"] = None
    pathlib.Path(two).write_text(json.dumps(doc))
    assert main(["evaluate-rpe", str(train), pls, two, "--out", str(out)]) == 2
    assert "predicts the response(s) 2 unnamed; " in capsys.readouterr().err
    doc = json.loads(pathlib.Path(pls).read_text())    # one unnamed response: scored
    doc["y_names"] = None
    pathlib.Path(two).write_text(json.dumps(doc))
    assert main(["evaluate-rpe", str(train), pls, two, "--out", str(out)]) == 0


def test_cli_rpe_predicts_each_model_once(tmp_path, monkeypatch):
    import egreg.estimators

    X, Y = _toy(seed=21, n=40, p=4)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    models = [str(tmp_path / f"{m}.json") for m in ("simpls", "ridge")]
    assert main(["fit", str(train), models[0], "--method", "simpls", "--d", "2"]) == 0
    assert main(["fit", str(train), models[1], "--method", "ridge", "--lambda", "1"]) == 0
    calls = []
    real = egreg.estimators.predict
    monkeypatch.setattr(egreg.estimators, "predict",
                        lambda model, X: calls.append(model.method) or real(model, X))
    out = tmp_path / "rpe.csv"
    assert main(["evaluate-rpe", str(train), *models, "--out", str(out)]) == 0
    assert calls == ["SIMPLS", "Ridge"]
    with open(out) as fh:
        assert list(csv.reader(fh))[1][2] == "1"


def test_cli_rpe_requires_simpls_baseline(tmp_path, capsys):
    X, Y = _toy(seed=16)
    train = tmp_path / "train.csv"
    _write_xy(train, X, Y)
    mp = tmp_path / "m.json"
    assert main(["fit", str(train), str(mp), "--method", "pcr", "--d", "2"]) == 0
    code = main(["evaluate-rpe", str(train), str(mp),
                 "--out", str(tmp_path / "r.csv")])
    assert code == 1
    assert "SIMPLS" in capsys.readouterr().err


def test_cli_rpe_envelope_split_favors_egreg(tmp_path):
    # Many high-variance immaterial directions, p > n: component selection
    # overfits where score-proportional shrinkage does not.
    P = tuple(range(7, 17))
    cfg = EnvelopeSimConfig(n=140, p=120, q=1, decay_gamma=1.0, P=P,
                            alpha=_alternating(10)[:, None],
                            Sigma_eps=[[10.0]], seed=7)
    X, truth, _ = _model_frame(cfg)
    Y = _responses(X, truth, cfg.seed, 0, [0])[0]
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    _write_xy(train, X[:60], Y[:60])
    _write_xy(test, X[60:], Y[60:])
    pls, eg = tmp_path / "pls.json", tmp_path / "eg.json"
    assert main(["fit", str(train), str(pls), "--method", "simpls", "--d", "6"]) == 0
    assert main(["fit", str(train), str(eg), "--method", "egreg",
                 "--lambda", "1.0"]) == 0
    out = tmp_path / "rpe.csv"
    assert main(["evaluate-rpe", str(test), str(pls), str(eg),
                 "--out", str(out)]) == 0
    with open(out) as fh:
        lines = [l.strip().split(",") for l in fh if l.strip()]
    table = {row[1]: float(row[2]) for row in lines[1:]}
    assert table["EgReg"] < 1.0


def test_cli_theory_frozen_point(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["theory", str(out), "--grid-start", "0.5",
                 "--grid-stop", "0.5", "--grid-count", "1"]) == 0
    names, M = load_table(out)
    assert names == ["gamma", "niece_risk", "egreg_risk", "lambda_star"]
    gamma, niece, egreg, lam = M[0]
    assert gamma == 0.5
    assert niece == pytest.approx(10.0, rel=1e-12)
    assert lam == pytest.approx(0.5, rel=1e-12)
    assert egreg == pytest.approx(10.0 * (np.sqrt(2.0) - 1.0), rel=1e-12)
    _manifest(tmp_path / "curve.csv.manifest.json")


def test_cli_theory_log_grid_is_geomspace(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["theory", str(out), "--grid-log", "--grid-start", "0.2", "--grid-stop", "7",
                 "--grid-count", "9"]) == 0
    gamma = load_table(out)[1][:, 0]
    assert gamma.tolist() == [float(f"{g:.17g}") for g in np.geomspace(0.2, 7.0, 9)]


def test_cli_theory_rejects_an_empty_grid(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["theory", str(out), "--grid-count", "0"]) == 2
    err = capsys.readouterr().err
    assert "--grid-count" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags,named", [
    (["--grid-log", "--grid-start", "0"], "--grid-start"),
    (["--grid-log", "--grid-stop", "0"], "--grid-stop"),
    (["--grid-log", "--grid-stop", "inf"], "--grid-stop"),
    (["--grid-start", "nan"], "--grid-start"),
    (["--grid-start", "-1"], "--grid-start"),
])
def test_cli_theory_rejects_a_grid_end_that_is_not_finite_and_positive(tmp_path, capsys,
                                                                        flags, named):
    out = tmp_path / "curve.csv"
    assert main(["theory", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags,gamma", [
    (["--grid-stop", "1e308", "--grid-count", "3"], "5e+307"),
    (["--grid-stop", "1e200", "--grid-count", "2"], "1e+200"),
])
def test_cli_theory_rejects_a_grid_whose_risk_overflows(tmp_path, capsys, flags, gamma):
    # lambda* = tr(Sigma_eps) gamma / c^2 overflows at 5e307; at 1e200 the risk does.
    out = tmp_path / "curve.csv"
    assert main(["theory", str(out)] + flags) == 1
    err = capsys.readouterr().err
    assert f"gamma = {gamma}" in err and "Traceback" not in err
    assert not out.exists()


_SMALL_STUDY = {"seed": 0, "n": 20, "replications": 1, "folds": 3, "p_over_n": [1.0]}
_NO_SEED = object()

# Every rule a study config obeys, one case each: (study, keys set, key named).
_BAD_STUDY_CONFIGS = [
    ("P1", {"seed": _NO_SEED}, "seed"),
    ("P1", {"seed": "0"}, "seed"),
    ("P1", {"seed": True}, "seed"),
    ("P1", {"seed": -1}, "seed"),
    ("P1", {"replications": 0}, "replications"),
    ("P1", {"replications": 1.5}, "replications"),
    ("P1", {"replications": True}, "replications"),
    ("P1", {"n": 1}, "n"),
    ("P1", {"folds": 1}, "folds"),
    ("P1", {"folds": 21}, "folds"),
    ("P1", {"methods": 5}, "methods"),
    ("P1", {"methods": "pcr"}, "methods"),
    ("P1", {"methods": []}, "methods"),
    ("P1", {"methods": ["lasso"]}, "methods"),
    ("P1", {"p_over_n": 0.5}, "p_over_n"),
    ("P1", {"p_over_n": []}, "p_over_n"),
    ("P1", {"p_over_n": [0]}, "p_over_n"),
    ("P1", {"p_over_n": ["a"]}, "p_over_n"),
    ("u_star", {"u_star": "full"}, "u_star"),
    ("u_star", {"u_star": 0}, "u_star"),
    ("P1", {"p1": 0}, "p1"),
    ("baseline", {"kind": "XX"}, "kind"),
    ("baseline", {"rho": 1}, "rho"),
    ("baseline", {"rho": "0.5"}, "rho"),
    ("P1", {"sigma_eps_sq": 0}, "sigma_eps_sq"),
    ("P1", {"decay_gamma": 0}, "decay_gamma"),
    ("baseline", {"beta_star": "x"}, "beta_star"),
    ("baseline", {"beta_star": ["a"]}, "beta_star"),
    ("double_descent", {"u_star_over_n": [0.05]}, "u_star_over_n"),
    ("P1", {"tyop": 2}, "tyop"),
    ("Q9", {}, "Q9"),
]


@pytest.mark.parametrize("study,keys,named", _BAD_STUDY_CONFIGS,
                         ids=[f"{s}-{k}" for s, k, _ in _BAD_STUDY_CONFIGS])
def test_cli_simulate_rejects_each_bad_config_value(tmp_path, capsys, study, keys, named):
    doc = {"study": study, **_SMALL_STUDY, **keys}
    if study == "double_descent":
        del doc["p_over_n"]
    doc = {k: v for k, v in doc.items() if v is not _NO_SEED}
    cpath, out = tmp_path / "cfg.json", tmp_path / "o"
    cpath.write_text(json.dumps(doc))
    assert main(["simulate", str(cpath), str(out)]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"(?<![\w-]){re.escape(named)}(?![\w-])", err), err
    assert "Traceback" not in err
    assert not out.exists()


def _study_csv(path, study, config):
    write_table(path, run_study(study, config).rows())
    return path.read_bytes()


def test_cli_simulate_accepts_kind_in_any_case(tmp_path):
    config = {"seed": 2, "n": 30, "replications": 2, "folds": 3, "p_over_n": [0.5],
              "methods": ["pcr", "ridge"], "kind": "cs"}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps({"study": "baseline", **config}))
    assert main(["simulate", str(cpath), str(tmp_path / "o")]) == 0
    out = (tmp_path / "o" / "baseline.csv").read_bytes()
    assert out == _study_csv(tmp_path / "lib.csv", "baseline", config)
    assert out == _study_csv(tmp_path / "upper.csv", "baseline", {**config, "kind": "CS"})


def test_star_import_binds_every_export():
    namespace = {}
    exec("from egreg import *", namespace)
    assert set(egreg._EXPORTS) <= namespace.keys()


def test_cli_simulate_runs_without_jsonschema(tmp_path):
    # A sitecustomize on the path makes jsonschema unimportable in the child
    # processes; the CLI must still run and match the library's CSV.
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text('import sys\nsys.modules["jsonschema"] = None\n')
    src = os.path.dirname(os.path.dirname(os.path.abspath(egreg.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(site), src]),
           "EGREG_THREADS": "1", **{var: "1" for var in _THREAD_VARS}}
    config = {"seed": 0, "replications": 2, "p_over_n": [0.5], "methods": ["pcr", "egreg"]}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps({"study": "P1", **config}))
    cli = subprocess.run([sys.executable, "-m", "egreg.cli", "simulate", str(cpath),
                          str(tmp_path / "o")], env=env, capture_output=True, text=True)
    assert cli.returncode == 0, cli.stderr
    reference = (
        "import json, sys\n"
        "try:\n    import jsonschema\nexcept ImportError:\n    pass\n"
        "else:\n    sys.exit('jsonschema is importable')\n"
        "from egreg.dataio import write_table\n"
        "from egreg.simharness import run_study\n"
        "write_table(sys.argv[1], run_study('P1', json.loads(sys.argv[2])).rows())\n"
    )
    ref = subprocess.run([sys.executable, "-c", reference, str(tmp_path / "ref.csv"),
                          json.dumps(config)], env=env, capture_output=True, text=True)
    assert ref.returncode == 0, ref.stderr
    assert (tmp_path / "o" / "P1.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_cli_simulate_rerun_is_byte_identical(tmp_path):
    config = {"study": "P1", "seed": 3, "n": 80, "replications": 2,
              "p_over_n": [0.25], "methods": ["niece", "egreg"]}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(config))
    d1, d2, d3 = (tmp_path / s for s in ("r1", "r2", "r3"))
    assert main(["simulate", str(cpath), str(d1)]) == 0
    assert main(["simulate", str(cpath), str(d2)]) == 0
    out1 = (d1 / "P1.csv").read_bytes()
    assert out1 == (d2 / "P1.csv").read_bytes()
    man = _manifest(d1 / "manifest.json")
    assert man["seed"] == 3
    # a different seed must change the numbers
    assert main(["simulate", str(cpath), str(d3), "--seed", "4"]) == 0
    assert (d3 / "P1.csv").read_bytes() != out1
    assert _manifest(d3 / "manifest.json")["seed"] == 4


def test_cli_simulate_rejects_a_config_that_is_not_an_object(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text(json.dumps([{"study": "P1", "seed": 0}]))
    assert main(["simulate", str(bad), str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config must be a JSON object" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_cli_simulate_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["simulate", str(bad), str(tmp_path / "o")]) == 2
    assert "invalid JSON" in capsys.readouterr().err

    bad.write_text(json.dumps({"study": "P1"}))
    assert main(["simulate", str(bad), str(tmp_path / "o")]) == 2
    assert "seed" in capsys.readouterr().err

    bad.write_text(json.dumps({"study": "P1", "seed": 1, "tyop": 2}))
    assert main(["simulate", str(bad), str(tmp_path / "o")]) == 2
    assert "tyop" in capsys.readouterr().err

    bad.write_text(json.dumps({"study": "Q9", "seed": 1}))
    assert main(["simulate", str(bad), str(tmp_path / "o")]) == 2
    assert "Q9" in capsys.readouterr().err

    # A negative seed is a usage error, whether from the file or from --seed.
    bad.write_text(json.dumps({"study": "P1", "seed": -1}))
    assert main(["simulate", str(bad), str(tmp_path / "o")]) == 2
    assert "-1" in capsys.readouterr().err
    bad.write_text(json.dumps({"study": "P1", "seed": 1}))
    assert main(["simulate", str(bad), str(tmp_path / "o"), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err
    # json reads NaN as a number; the study rejects it as a grid value.
    bad.write_text(json.dumps({"study": "P1", "seed": 1, "p_over_n": [float("nan")]}))
    assert main(["simulate", str(bad), str(tmp_path / "o")]) == 2
    assert "p_over_n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
