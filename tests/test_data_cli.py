import argparse
import os
import subprocess
import sys
import tempfile

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import setlearn.cli as cli
import setlearn.estimator as estimator
from setlearn import (Abel, DataError, Gaussian, KpcaTruncation, Landweber, Tikhonov, fit,
                      load_csv, load_model, regularization_path, save_model, score_batch,
                      write_table)
from setlearn.cli import main
from setlearn.data import fmt_value

from _reference import table_body


# ---------------------------------------------------------------------------
# CSV ingestion.


def test_load_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,0\n1,1\n")
    ds = load_csv(p)
    assert ds.n == 2 and ds.dim == 2
    npt.assert_array_equal(ds.points, [[0.0, 0.0], [1.0, 1.0]])
    assert ds.labels is None


def test_load_csv_header_skip(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,y\n0,0\n1,1\n")
    ds = load_csv(p, header=True)
    assert ds.n == 2
    with pytest.raises(DataError):
        load_csv(p)


def test_load_csv_whitespace_delimiter(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("0 0\n1\t1\n")
    ds = load_csv(p)
    npt.assert_array_equal(ds.points, [[0.0, 0.0], [1.0, 1.0]])


def test_load_csv_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("# a comment\n\n0,0\n# more\n1,1\n\n")
    assert load_csv(p).n == 2


def test_load_csv_ragged_row_names_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,0\n1\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(p)


def test_load_csv_bad_cell_names_row_and_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,0\n1,zap\n")
    with pytest.raises(DataError, match="row 2.*column 2"):
        load_csv(p)


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(p)


def test_load_csv_non_finite_rejected(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,0\nnan,1\n")
    with pytest.raises(DataError):
        load_csv(p)


def test_load_csv_non_utf8_names_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"1,2\n3,\xff4\n")
    with pytest.raises(DataError, match="row 2 is not UTF-8 text"):
        load_csv(p)


@pytest.mark.parametrize("eols", [(b"\r",) * 3, (b"\n",) * 3, (b"\r\n",) * 3,
                                  (b"\r\n", b"\r", b"\n"), (b"\r", b"\n", b"\r\n")],
                         ids=["cr", "lf", "crlf", "mixed", "mixed-rotated"])
def test_load_csv_non_utf8_row_counts_every_line_ending(tmp_path, eols):
    """The row of a byte that is not UTF-8 counts lines as the parser splits
    them: on \\r, \\n and \\r\\n alike, mixed within one file too."""
    p = tmp_path / "d.csv"
    p.write_bytes(b"".join(row + eol for row, eol in zip([b"1,2", b"3,4", b"5,\xff"], eols)))
    with pytest.raises(DataError, match="row 3 is not UTF-8 text"):
        load_csv(p)


_CELLS = [[b"0.5", b"1.25"], [b"-2", b"3e-3"], [b"7", b"8"]]


@st.composite
def _mutated_csvs(draw):
    """A small two-column table, truncated, with a flipped bit, a header row
    of another width, a non-finite cell or a row of another width."""
    rows = [list(r) for r in _CELLS]
    kind = draw(st.sampled_from(["truncate", "flip", "header", "non-finite", "dims"]))
    if kind == "header":
        rows.insert(0, [b"x%d" % i for i in range(draw(st.integers(0, 4)))])
    elif kind == "non-finite":
        rows[draw(st.integers(0, 2))][draw(st.integers(0, 1))] = draw(
            st.sampled_from([b"nan", b"inf", b"-inf", b"NaN", b"1e999"]))
    elif kind == "dims":
        i = draw(st.integers(0, 2))
        rows[i] = rows[i][:1] if draw(st.booleans()) else rows[i] + [b"0"]
    blob = b"# probe\n" + b"".join(b",".join(r) + b"\n" for r in rows)
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        i = draw(st.integers(0, len(blob) - 1))
        return blob[:i] + bytes([blob[i] ^ (1 << draw(st.integers(0, 7)))]) + blob[i + 1:]
    return blob


@settings(max_examples=300, deadline=None)
@given(blob=_mutated_csvs(), header=st.booleans())
@example(blob=b"1,2\n3,\xff4\n", header=False)
def test_mutated_csv_loads_or_raises_data_error(blob, header):
    """Each mutated table loads as finite points or raises DataError, and the
    CLI's score on it exits 0 or 3."""
    with tempfile.TemporaryDirectory() as d:
        path, model = os.path.join(d, "x.csv"), os.path.join(d, "m.txt")
        with open(path, "wb") as fh:
            fh.write(blob)
        save_model(fit(np.array([[0.0, 0.0], [1.0, 0.5], [0.2, 2.0]]), Abel(0.6),
                       Tikhonov(0.01)), model)
        flag = ["--header"] if header else []
        try:
            ds = load_csv(path, header=header)
        except DataError:
            ds = None
        else:
            assert ds.points.ndim == 2 and np.all(np.isfinite(ds.points))
        rc = main(["score", "--model", model, "--data", path, *flag,
                   "--out", os.path.join(d, "s.csv"), "--no-timestamp"])
        assert rc == (3 if ds is None or ds.dim != 2 else 0)


def test_load_csv_label_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("0,0,1\n1,1,0\n2,2,1\n")
    ds = load_csv(p, label_col=2)
    assert ds.dim == 2
    npt.assert_array_equal(ds.labels, [True, False, True])
    with pytest.raises(DataError):
        load_csv(p, label_col=3)


def test_write_table_format(tmp_path):
    p = tmp_path / "t.csv"
    write_table(p, "demo", ["alpha=1"], ["a", "b"],
                [(1, 0.123456789123), (2, True)], timestamp=False,
                footer=["done"])
    text = p.read_text()
    lines = text.splitlines()
    assert lines[0] == "# demo"
    assert lines[1] == "# alpha=1"
    assert lines[2] == "a,b"
    assert lines[3] == "1,0.123456789"
    assert lines[4] == "2,1"
    assert lines[5] == "# done"
    assert text.endswith("\n")


def test_write_table_timestamp_toggle(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_table(a, "t", [], ["x"], [(1,)], timestamp=False)
    write_table(b, "t", [], ["x"], [(1,)], timestamp=True)
    assert "generated=" not in a.read_text()
    assert "generated=" in b.read_text()


_FLOATS = (st.floats() | st.sampled_from(
    [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308]))
_CELL_KINDS = {
    "bool": st.booleans(),
    "np.bool_": st.booleans().map(np.bool_),
    "int": st.integers(-10**30, 10**30),
    "np.int64": st.integers(-2**63, 2**63 - 1).map(np.int64),
    "np.uint64": st.integers(0, 2**64 - 1).map(np.uint64),
    "float": _FLOATS,
    "np.float64": _FLOATS.map(np.float64),
    "np.float32": st.floats(width=32).map(np.float32),
    "str": st.text(st.characters(codec="utf-8")),
}


@st.composite
def _tables(draw):
    """Rows whose columns each hold one cell kind, or a mix of them."""
    kinds = draw(st.lists(st.sampled_from([*_CELL_KINDS, "mixed"]), min_size=1, max_size=4))
    cells = [st.one_of(*_CELL_KINDS.values()) if k == "mixed" else _CELL_KINDS[k]
             for k in kinds]
    return draw(st.lists(st.tuples(*cells), max_size=12)), len(kinds)


def _table_text(path, rows, width):
    write_table(path, "t", [], [f"c{i}" for i in range(width)], rows, timestamp=False)
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8")


@settings(max_examples=200, deadline=None)
@given(table=_tables())
@example(table=([(0, 0.5), (1, 0.25), ("mean", 0.375), ("std", 0.17677669529663687)], 2))
def test_write_table_matches_cell_by_cell_formatting(table):
    """Column formats give the bytes of fmt_value on every cell, for a list
    of rows and for a one-shot generator of them."""
    rows, width = table
    with tempfile.TemporaryDirectory() as d:
        text = _table_text(os.path.join(d, "a.csv"), rows, width)
        assert _table_text(os.path.join(d, "b.csv"), (r for r in rows), width) == text
    header = "# t\n" + ",".join(f"c{i}" for i in range(width)) + "\n"
    assert text == header + table_body(rows)


def test_write_table_width_mismatch_writes_no_file(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"^row width 3 does not match header 2$"):
        write_table(path, "t", [], ["a", "b"], iter([(1, 2.0), (3, 4.0, 5.0), (6,)]))
    assert not path.exists()


def test_write_table_without_rows_writes_its_header(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, "t", ["k=v"], ["a", "b"], iter([]), timestamp=False, footer=["end"])
    assert path.read_bytes() == b"# t\n# k=v\na,b\n# end\n"


def test_fmt_value_nine_significant_digits():
    assert fmt_value(0.123456789123) == "0.123456789"
    assert fmt_value(3) == "3"
    assert fmt_value(True) == "1"
    assert fmt_value(False) == "0"
    assert fmt_value(1e-12) == "1e-12"


# ---------------------------------------------------------------------------
# CLI workflows, run in-process.


def _train_args(data, out, **over):
    args = ["train", "--data", str(data), "--kernel", "abel",
            "--sigma", "0.6", "--filter", "tikhonov", "--lambda", "0.01",
            "--out", str(out), "--no-timestamp"]
    for k, v in over.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    return args


@pytest.fixture()
def circle_csv(tmp_path):
    p = tmp_path / "pts.csv"
    code = main(["synth", "--task", "circle", "--n", "60", "--seed", "5",
                 "--out", str(p), "--no-timestamp"])
    assert code == 0
    return p


def test_cli_synth_deterministic(tmp_path, circle_csv):
    other = tmp_path / "again.csv"
    assert main(["synth", "--task", "circle", "--n", "60", "--seed", "5",
                 "--out", str(other), "--no-timestamp"]) == 0
    assert other.read_bytes() == circle_csv.read_bytes()


def test_cli_synth_grid_out(tmp_path):
    out = tmp_path / "s.csv"
    grid = tmp_path / "g.csv"
    assert main(["synth", "--task", "cube", "--n", "10", "--seed", "0",
                 "--out", str(out), "--grid-out", str(grid),
                 "--resolution", "8", "--no-timestamp"]) == 0
    text = grid.read_text()
    assert "x0,x1,inside" in text
    assert "# cell_volume=" in text


def test_cli_train_writes_model_and_eigs(tmp_path, circle_csv):
    model = tmp_path / "m.txt"
    assert main(["train", "--data", str(circle_csv), "--header",
                 "--kernel", "abel", "--sigma", "0.6",
                 "--filter", "tikhonov", "--lambda", "0.01",
                 "--out", str(model), "--no-timestamp"]) == 0
    assert model.exists()
    eigs = tmp_path / "m.txt.eigs.csv"
    assert eigs.exists()
    body = [l for l in eigs.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "index,eigenvalue"
    assert len(body) == 1 + 60
    m = load_model(model)
    assert m.n == 60
    assert "tau=0.0" in model.read_text()


def test_cli_train_auto_parameters(tmp_path, circle_csv, capsys):
    model = tmp_path / "m.txt"
    assert main(["train", "--data", str(circle_csv), "--header",
                 "--kernel", "abel", "--sigma", "auto:5",
                 "--filter", "tikhonov", "--lambda", "auto",
                 "--out", str(model), "--no-timestamp"]) == 0
    out = capsys.readouterr().out
    assert "auto:k=5" in out
    assert "curvature" in out
    m = load_model(model)
    assert m.kernel.sigma > 0.0
    assert m.filter.lam > 0.0


def test_cli_train_rate_lambda(tmp_path, circle_csv):
    model = tmp_path / "m.txt"
    assert main(["train", "--data", str(circle_csv), "--header",
                 "--kernel", "abel", "--sigma", "0.6",
                 "--filter", "tikhonov", "--lambda", "rate:1,1",
                 "--out", str(model), "--no-timestamp"]) == 0
    m = load_model(model)
    npt.assert_allclose(m.filter.lam, 60.0 ** -0.25, rtol=1e-12)


def test_cli_train_deterministic_outputs(tmp_path, circle_csv):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert main(["train", "--data", str(circle_csv), "--header",
                     "--kernel", "abel", "--sigma", "0.6",
                     "--filter", "tikhonov", "--lambda", "0.01",
                     "--out", str(out), "--no-timestamp"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.txt.eigs.csv").read_bytes() == \
        (tmp_path / "b.txt.eigs.csv").read_bytes()


def test_cli_train_gaussian_warns(tmp_path, circle_csv, capsys):
    model = tmp_path / "m.txt"
    assert main(["train", "--data", str(circle_csv), "--header",
                 "--kernel", "gaussian", "--sigma", "0.6",
                 "--filter", "tikhonov", "--lambda", "0.01",
                 "--out", str(model), "--no-timestamp"]) == 0
    assert "not completely separating" in capsys.readouterr().err


def test_cli_score_columns_and_members(tmp_path, circle_csv):
    model = tmp_path / "m.txt"
    scores = tmp_path / "s.csv"
    main(_train_args(circle_csv, model, header=None)[:1] +
         ["--data", str(circle_csv), "--header", "--kernel", "abel",
          "--sigma", "0.6", "--filter", "cutoff", "--lambda", "1e-9",
          "--out", str(model), "--no-timestamp"])
    assert main(["score", "--model", str(model), "--data", str(circle_csv),
                 "--header", "--tau", "0", "--out", str(scores),
                 "--no-timestamp"]) == 0
    body = [l for l in scores.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "index,score,member"
    rows = [l.split(",") for l in body[1:]]
    assert len(rows) == 60
    # cutoff below the spectrum scores every training point as a member
    assert all(r[2] == "1" for r in rows)


def test_cli_sweep_single_cell_matches_score(tmp_path, circle_csv):
    model = tmp_path / "m.txt"
    scores = tmp_path / "s.csv"
    sweep = tmp_path / "w.csv"
    main(["train", "--data", str(circle_csv), "--header", "--kernel", "abel",
          "--sigma", "0.6", "--filter", "tikhonov", "--lambda", "0.01",
          "--out", str(model), "--no-timestamp"])
    main(["score", "--model", str(model), "--data", str(circle_csv),
          "--header", "--out", str(scores), "--no-timestamp"])
    assert main(["sweep", "--data", str(circle_csv), "--header",
                 "--kernel", "abel", "--sigma", "0.6", "--filter", "tikhonov",
                 "--lambdas", "0.01", "--taus", "0",
                 "--out", str(sweep), "--no-timestamp"]) == 0
    svals = [float(l.split(",")[1])
             for l in scores.read_text().splitlines()
             if l and not l.startswith("#") and not l.startswith("index")]
    wvals = [float(l.split(",")[3])
             for l in sweep.read_text().splitlines()
             if l and not l.startswith("#") and not l.startswith("lambda")]
    npt.assert_allclose(wvals, svals, atol=1e-10)
    header = sweep.read_text()
    assert "# lambdas=1" in header and "# taus=1" in header


def test_cli_sweep_monotone_in_lambda(tmp_path, circle_csv):
    sweep = tmp_path / "w.csv"
    assert main(["sweep", "--data", str(circle_csv), "--header",
                 "--kernel", "abel", "--sigma", "0.6", "--filter", "tikhonov",
                 "--lambdas", "0.1,0.01,0.001", "--taus", "0",
                 "--out", str(sweep), "--no-timestamp"]) == 0
    rows = [l.split(",") for l in sweep.read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("lambda")]
    by_lam = {}
    for lam, tau, idx, sc, member in rows:
        by_lam.setdefault(float(lam), []).append(float(sc))
    lams = sorted(by_lam, reverse=True)
    a, b, c = (np.array(by_lam[l]) for l in lams)
    assert np.all(b >= a - 1e-12) and np.all(c >= b - 1e-12)


def test_cli_eval_labeled_auc(tmp_path, circle_csv):
    model = tmp_path / "m.txt"
    main(["train", "--data", str(circle_csv), "--header", "--kernel", "abel",
          "--sigma", "0.6", "--filter", "tikhonov", "--lambda", "0.01",
          "--out", str(model), "--no-timestamp"])
    # positives on the circle, negatives far outside: separation is perfect
    labeled = tmp_path / "labeled.csv"
    rng = np.random.default_rng(3)
    t = rng.uniform(0, 2 * np.pi, 30)
    pos = np.column_stack([np.cos(t), np.sin(t)])
    neg = rng.uniform(20.0, 30.0, size=(30, 2))
    with open(labeled, "w") as fh:
        for row in pos:
            fh.write(f"{row[0]},{row[1]},1\n")
        for row in neg:
            fh.write(f"{row[0]},{row[1]},0\n")
    out = tmp_path / "e.csv"
    roc = tmp_path / "roc.csv"
    assert main(["eval", "--model", str(model), "--data", str(labeled),
                 "--label-col", "2", "--roc-out", str(roc),
                 "--out", str(out), "--no-timestamp"]) == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "trial,auc_spectral,auc_parzen"
    vals = body[1].split(",")
    assert float(vals[1]) == 1.0
    assert float(vals[2]) == 1.0
    roc_body = [l for l in roc.read_text().splitlines() if not l.startswith("#")]
    assert roc_body[0] == "fpr,tpr"


def test_cli_eval_task_mode(tmp_path):
    out = tmp_path / "e.csv"
    assert main(["eval", "--task", "circle", "--n", "60", "--trials", "3",
                 "--kernel", "abel", "--sigma", "0.6", "--filter", "tikhonov",
                 "--lambda", "0.01", "--tau", "0.5", "--resolution", "24",
                 "--seed", "1", "--out", str(out), "--no-timestamp"]) == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "trial,auc_spectral,auc_parzen,hausdorff,symdiff"
    assert len(body) == 1 + 3 + 2  # trials + mean + std
    assert body[-2].startswith("mean,")
    assert body[-1].startswith("std,")
    # sample standard deviation over the three trials
    aucs = [float(l.split(",")[1]) for l in body[1:4]]
    npt.assert_allclose(float(body[-1].split(",")[1]),
                        np.std(aucs, ddof=1), rtol=1e-6)


def test_cli_verify_bounds_bernstein(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["verify-bounds", "--harness", "bernstein", "--n", "100",
                 "--delta", "2", "--trials", "50", "--seed", "0",
                 "--out", str(out), "--no-timestamp"]) == 0
    text = out.read_text()
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert body[0] == "trial,n,delta,observed,bound,violated"
    assert len(body) == 1 + 50
    assert "# violation_fraction=" in text


def test_cli_verify_bounds_concentration_small(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["verify-bounds", "--harness", "concentration",
                 "--task", "circle", "--sigma", "1", "--n", "50",
                 "--delta", "2", "--trials", "5", "--ref-size", "500",
                 "--seed", "0", "--out", str(out), "--no-timestamp"]) == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(body) == 1 + 5


# Each size puts one array past the 128 TiB address space of x86-64 user
# space (10**7 per grid axis: 10**14 cells), so the allocation is refused at
# once whatever the overcommit setting.
@pytest.mark.parametrize("argv", [
    ["synth", "--task", "circle", "--n", "10", "--grid-out", "g.csv",
     "--resolution", str(10 ** 7)],
    ["eval", "--task", "circle", "--n", "20", "--trials", "1", "--lambda", "1e-3",
     "--resolution", str(10 ** 7)],
    ["synth", "--task", "circle", "--n", str(10 ** 14)],
    ["eval", "--task", "circle", "--n", "20", "--trials", "1", "--lambda", "1e-3",
     "--resolution", "8", "--n-test", str(10 ** 14)],
], ids=["synth-resolution", "eval-resolution", "synth-n", "eval-n-test"])
def test_cli_reports_an_allocation_too_large_for_memory(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path / "out.csv"), "--no-timestamp"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_cli_refuses_an_overflowing_cholesky_shift(tmp_path, circle_csv, capsys):
    """n*lambda past the float range: train saves the model (it never
    factorizes), then the Cholesky path's score and eval --task exit 4 with
    one error line each."""
    model, out = tmp_path / "m.txt", ["--out", str(tmp_path / "o.csv"), "--no-timestamp"]
    assert main(["train", "--data", str(circle_csv), "--header", "--lambda", "1e307",
                 "--out", str(model), "--no-timestamp"]) == 0
    capsys.readouterr()
    for argv in (["score", "--model", str(model), "--data", str(circle_csv), "--header"],
                 ["eval", "--task", "circle", "--n", "100", "--trials", "1",
                  "--lambda", "1e307"]):
        assert main(argv + out) == 4
        err = capsys.readouterr().err
        assert err == "error: n*lambda overflows the float range (n=%d, lambda=1e+307)\n" % (
            60 if argv[0] == "score" else 100), err
    assert not (tmp_path / "o.csv").exists()


def test_cli_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_builds_its_parser_once_per_process(tmp_path, monkeypatch):
    argv = ["synth", "--task", "circle", "--n", "5", "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(argv) == 0
    assert built == []


def test_cli_after_a_rejected_flag_writes_what_a_fresh_process_writes(tmp_path, capfd,
                                                                       monkeypatch):
    """The parser reused after an argparse rejection prints and writes the bytes
    of a new process, for the rejection and for the valid call after it."""
    monkeypatch.setenv("COLUMNS", "80")
    bad = ["train", "--bogus"]
    good = ["train", "--task", "circle", "--n", "30", "--out", str(tmp_path / "m.txt"),
            "--no-timestamp"]
    outputs = [tmp_path / "m.txt", tmp_path / "m.txt.eigs.csv"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
         os.environ.get("PYTHONPATH", "")])}

    def fresh(argv):
        done = subprocess.run([sys.executable, "-m", "setlearn", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout, done.stderr

    main(good)
    capfd.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    assert main(good) == 0
    in_process = capfd.readouterr()
    written = [p.read_bytes() for p in outputs]
    for p in outputs:
        p.unlink()
    code, err_out, err = fresh(bad)
    assert (code, err_out) == (2, "")
    code, out, fresh_err = fresh(good)
    assert (code, fresh_err) == (0, "")
    assert in_process.err == err
    assert in_process.out == out
    assert [p.read_bytes() for p in outputs] == written


def test_cli_landweber_path(tmp_path, circle_csv):
    model = tmp_path / "m.txt"
    assert main(["train", "--data", str(circle_csv), "--header",
                 "--kernel", "abel", "--sigma", "0.6",
                 "--filter", "landweber", "--m", "50",
                 "--out", str(model), "--no-timestamp"]) == 0
    m = load_model(model)
    assert m.algorithm == "spectral"
    assert m.filter.iterations == 50


def test_landweber_is_an_old_spelling_of_the_spectral_path(tmp_path, circle_csv):
    """A Landweber model file whose header names the ``landweber`` path, as
    files written before Landweber scored as a spectral filter do, loads as
    ``spectral`` with the same scores; ``fit`` reads the name the same way,
    and the CLI no longer offers it."""
    model, old = tmp_path / "m.bin", tmp_path / "old.bin"
    train = ["train", "--data", str(circle_csv), "--header", "--kernel", "abel",
             "--sigma", "0.6", "--filter", "landweber", "--m", "20",
             "--model-format", "binary", "--no-timestamp"]
    assert main(train + ["--out", str(model)]) == 0
    head, payload = model.read_bytes().split(b"data:\n", 1)
    assert b"\nalgorithm=spectral\n" in head
    old.write_bytes(head.replace(b"\nalgorithm=spectral\n", b"\nalgorithm=landweber\n")
                    + b"data:\n" + payload)
    current, legacy = load_model(model), load_model(old)
    assert legacy.algorithm == "spectral"
    X = np.random.default_rng(31).uniform(-1.5, 1.5, (40, 2))
    npt.assert_array_equal(score_batch(legacy, X), score_batch(current, X))
    assert fit(current.points, current.kernel, Landweber(20),
               algorithm="landweber").algorithm == "spectral"
    with pytest.raises(SystemExit) as exc:
        main(train + ["--algorithm", "landweber", "--out", str(tmp_path / "never.bin")])
    assert exc.value.code == 2


_TRAIN = ["train", "--task", "circle", "--n", "60"]
_SWEEP = ["sweep", "--task", "circle", "--n", "60"]
_EVAL_TASK = ["eval", "--task", "circle", "--n", "50", "--trials", "1"]
_BERNSTEIN = ["verify-bounds", "--harness", "bernstein"]
_DATA = ["--data", "pts.csv", "--header"]
_SCORE = ["score", "--model", "m.txt", "--data"]
_EVAL_MODEL = ["eval", "--model", "m.txt", "--data"]
_SCORE_TAMPERED = ["score", *_DATA, "--model"]
_SWEEP_GRID = "does not apply to sweep, which scores its grid through the decomposition"
_LINE_BREAK = ("a table title, meta or footer entry and column name must be a str with no "
               "line break, got ")
_NO_FILE = "[Errno 2] No such file or directory: "
_ANY_SEED = "None, a nonnegative integer or a sequence of them"
_INT_SEED = "a nonnegative integer"
_BAD_CELL = "bad.csv: row 2, column 2: could not parse 'abc' as a number"


@pytest.fixture(scope="module")
def refusal_dir(tmp_path_factory):
    """A directory holding a circle sample (pts.csv), a cutoff model in text
    trained from a full filter spec (m.txt), a Tikhonov model in binary stored
    with its decomposition (m.bin), and an empty, a malformed and a four-column
    test file."""
    d = tmp_path_factory.mktemp("refusals")
    train = ["train", "--data", str(d / "pts.csv"), "--header", "--kernel", "abel", "--sigma",
             "0.6", "--no-timestamp", "--out"]
    assert main(["synth", "--task", "circle", "--n", "60", "--seed", "5", "--no-timestamp",
                 "--out", str(d / "pts.csv")]) == 0
    assert main(train + [str(d / "m.txt"), "--filter", "cutoff lambda=1e-3"]) == 0
    assert main(train + [str(d / "m.bin"), "--lambda", "1e-3", "--algorithm", "spectral",
                         "--model-format", "binary", "--store-decomposition"]) == 0
    for name, text in [("empty", ""), ("bad", "0,0,1\n1,abc,1\n"), ("wide", "0,0,1,1\n1,1,0,1\n")]:
        (d / f"{name}.csv").write_text(text)
    return d


def _tamper(source, change, factor=None):
    """Write tampered.txt or .bin: the model file ``source`` with its header line
    of ``change``'s key replaced by ``change``, or with its ``change``-th binary
    payload value scaled by ``factor``."""
    with open(source, "rb") as fh:
        head, payload = fh.read().split(b"data:\n", 1)
    if factor is None:
        key = change.encode().split(b"=")[0] + b"="
        head = b"\n".join(change.encode() if line.startswith(key) else line
                          for line in head.split(b"\n"))
    else:
        values = np.frombuffer(payload, dtype="<f8").copy()
        values[change] *= factor
        payload = values.tobytes()
    with open("tampered" + os.path.splitext(source)[1], "wb") as fh:
        fh.write(head + b"data:\n" + payload)


def _row(id, argv, message, code=2, edit=None, **counts):
    """One refusal; ``counts`` are the Gram builds and solves it may run."""
    return pytest.param(argv, code, message, edit, counts, id=id)


@pytest.mark.parametrize("argv, code, message, edit, counts", [
    _row("sweep-tau-2", _SWEEP + ["--lambdas", "1e-3", "--taus", "2"],
         "tau values must lie in [0, 1), got 2.0"),
    _row("sweep-tau-nan", _SWEEP + ["--lambdas", "1e-3", "--taus", "nan"],
         "tau values must lie in [0, 1), got nan"),
    _row("sweep-lambda-abc", _SWEEP + ["--lambdas", "abc"], "bad value in --lambdas: 'abc'"),
    _row("sweep-lambda-0", _SWEEP + ["--lambdas", "0"],
         "regularization parameter must be positive and finite, got 0.0"),
    _row("sweep-lambda-subnormal", _SWEEP + ["--lambdas", "1e-320"],
         "regularization parameter 1e-320 is so small that 1/lambda overflows"),
    _row("sweep-landweber-fraction", _SWEEP + ["--filter", "landweber", "--m", "3",
                                               "--lambdas", "2.5"],
         "bad value in --lambdas: '2.5'"),
    _row("sweep-empty-grid", ["sweep", *_DATA, "--kernel", "abel", "--sigma", "0.6",
                              "--lambdas", ","],
         "--lambdas must be a nonempty comma-separated list"),
    _row("train-tau-nan", _TRAIN + ["--tau", "nan"], "tau must lie in [0, 1), got nan"),
    _row("train-tau-2", _TRAIN + ["--tau", "2"], "tau must lie in [0, 1), got 2.0"),
    _row("score-tau-nan", [*_SCORE, "pts.csv", "--header", "--tau", "nan"],
         "tau must lie in [0, 1), got nan"),
    _row("cutoff-lambda-abc", _TRAIN + ["--filter", "cutoff", "--lambda", "abc"],
         "bad --lambda 'abc'"),
    _row("cutoff-lambda-negative", _TRAIN + ["--filter", "cutoff", "--lambda", "-1"],
         "regularization parameter must be positive and finite, got -1.0"),
    _row("cutoff-lambda-rate-s", _TRAIN + ["--filter", "cutoff", "--lambda", "rate:2,1"],
         "s must lie in (0, 1], got 2.0"),
    _row("kpca-lambda-nan", _TRAIN + ["--filter", "kpca", "--lambda", "nan"],
         "regularization parameter must be positive and finite, got nan"),
    _row("spectral-lambda-abc", _TRAIN + ["--lambda", "abc", "--algorithm", "spectral"],
         "bad --lambda 'abc'"),
    _row("spectral-lambda-subnormal", _TRAIN + ["--lambda", "1e-320", "--algorithm", "spectral"],
         "regularization parameter 1e-320 is so small that 1/lambda overflows"),
    _row("sweep-base-lambda-abc", _SWEEP + ["--lambdas", "1e-3", "--lambda", "abc"],
         "bad --lambda 'abc'"),
    _row("train-data-lambda-negative", ["train", *_DATA, "--kernel", "abel", "--sigma", "0.6",
                                        "--filter", "tikhonov", "--lambda", "-0.5"],
         "regularization parameter must be positive and finite, got -0.5"),
    _row("train-filter-spec-abc", ["train", *_DATA, "--filter", "tikhonov lambda=abc"],
         "bad lambda: 'abc'"),
    _row("train-sigma-abc", _TRAIN + ["--sigma", "abc"], "bad --sigma 'abc'"),
    _row("train-sigma-auto-x", _TRAIN + ["--sigma", "auto:x"],
         "bad --sigma 'auto:x'; expected auto:<k>"),
    *(_row(f"train-sigma-auto-{k}", _TRAIN + ["--sigma", f"auto:{k}"],
           f"--sigma auto:<k> needs k in [1, n) = [1, 60), got {k}") for k in ["0", "60"]),
    _row("sweep-sigma-auto-60", _SWEEP + ["--lambdas", "1e-3", "--sigma", "auto:60"],
         "--sigma auto:<k> needs k in [1, n) = [1, 60), got 60"),
    _row("eval-task-sigma-auto-50", _EVAL_TASK + ["--sigma", "auto:50"],
         "--sigma auto:<k> needs k in [1, n) = [1, 50), got 50"),
    _row("cutoff-cholesky", _TRAIN + ["--filter", "cutoff", "--algorithm", "cholesky"],
         "the cholesky path applies only to the Tikhonov filter"),
    # sizes, counts and seeds
    *(_row(f"eval-task-n-{n}", ["eval", "--task", "two_moons", "--n", n, "--trials", "1",
                                "--resolution", "8", "--lambda", "1e-3"],
           f"n must be >= 1, got {n}") for n in ["0", "-3"]),
    *(_row(f"eval-task-n-test-{n}", _EVAL_TASK + ["--n-test", n, "--resolution", "8",
                                                  "--lambda", "1e-3"],
           f"need at least one test point per class, got {n}") for n in ["0", "-1"]),
    _row("eval-task-trials-0", _EVAL_TASK[:-1] + ["0"], "trials must be an integer >= 1, got 0"),
    _row("bernstein-trials-0", _BERNSTEIN + ["--trials", "0"],
         "trials must be an integer >= 1, got 0"),
    *(_row(f"ref-size-{size}", ["verify-bounds", "--harness", "concentration", "--sigma", "1",
                                "--n", "50", "--trials", "2", "--ref-size", size],
           f"need trials, ref_size >= 1, got 2, {size}") for size in ["0", "-5"]),
    # sample takes a seed sequence too; trials build one stream per trial from an integer
    *(_row(f"seed-{id}", argv + ["--seed", "-1"], f"seed must be {kind}, got -1")
      for id, kind, argv in [
          ("synth", _ANY_SEED, ["synth", "--task", "circle", "--n", "10"]),
          ("sweep", _ANY_SEED, ["sweep", "--task", "circle", "--n", "10", "--lambdas", "1e-3"]),
          ("eval-task", _INT_SEED, ["eval", "--task", "circle", "--n", "10", "--trials", "1",
                                    "--resolution", "8"]),
          ("bernstein", _INT_SEED, _BERNSTEIN + ["--n", "10", "--trials", "2"]),
          ("concentration", _INT_SEED, ["verify-bounds", "--n", "10", "--trials", "2",
                                        "--ref-size", "10"])]),
    _row("synth-unknown-task", ["synth", "--task", "nope"], "unknown task 'nope'; available: "
         "circle, circle_noise, cube, moon_lower, moon_upper, segment, two_circles, two_moons"),
    # a source, both or neither, and what each source needs
    _row("train-data-and-task", ["train", *_DATA, "--task", "circle"],
         "provide exactly one of --data or --task"),
    _row("eval-no-source", ["eval"],
         "provide exactly one of --model (labeled data) or --task (trials)"),
    _row("eval-model-no-data", ["eval", "--model", "m.txt", "--label-col", "2"],
         "--model evaluation needs --data"),
    _row("eval-model-no-label-col", [*_EVAL_MODEL, "pts.csv", "--header"],
         "AUC needs labels: pass --label-col"),
    # labeled-data flags, which task trials would ignore
    _row("eval-task-data", _EVAL_TASK + ["--data", "nothere.csv"],
         "--data applies only to --model evaluation"),
    _row("eval-task-label-col", _EVAL_TASK + ["--label-col", "7"],
         "--label-col applies only to --model evaluation"),
    _row("eval-task-roc-out", _EVAL_TASK + ["--roc-out", "roc.csv"],
         "--roc-out applies only to --model evaluation"),
    # the flags' own text in the eval --task metadata, checked before the first trial
    _row("eval-task-kernel-line-break", _EVAL_TASK + ["--kernel", "abel\nsigma=1"],
         _LINE_BREAK + "'kernel=abel\\nsigma=1'"),
    _row("eval-task-sigma-line-break", _EVAL_TASK + ["--sigma", "1\n"],
         _LINE_BREAK + "'sigma=1\\n'"),
    # flags that the resolved configuration does not read
    _row("train-data-seed", ["train", "--data", "nothere.csv", "--seed", "9"],
         "--seed applies only to --task"),
    _row("train-data-n", ["train", "--data", "nothere.csv", "--n", "9"],
         "--n applies only to --task"),
    _row("sweep-data-seed", ["sweep", "--data", "nothere.csv", "--seed", "9", "--lambdas", "1e-3"],
         "--seed applies only to --task"),
    _row("tikhonov-m", _TRAIN + ["--m", "3"], "--m does not apply to --filter tikhonov"),
    _row("cutoff-components", _TRAIN + ["--filter", "cutoff", "--components", "3"],
         "--components does not apply to --filter cutoff"),
    _row("landweber-lambda", _TRAIN + ["--filter", "landweber", "--m", "3", "--lambda", "1"],
         "--lambda does not apply to --filter landweber"),
    _row("kpca-components-lambda", _TRAIN + ["--filter", "kpca", "--components", "3",
                                             "--lambda", "0.1"],
         "--lambda does not apply to --filter kpca with --components"),
    _row("kernel-spec-sigma", _TRAIN + ["--kernel", "abel sigma=1", "--sigma", "7"],
         "--sigma does not apply to --kernel 'abel sigma=1'"),
    _row("linear-sigma", _TRAIN + ["--kernel", "linear", "--sigma", "1"],
         "--sigma does not apply to --kernel 'linear'"),
    _row("filter-spec-lambda", _TRAIN + ["--filter", "tikhonov lambda=1", "--lambda", "5"],
         "--lambda does not apply to a full --filter spec"),
    _row("synth-resolution", ["synth", "--task", "circle", "--resolution", "8"],
         "--resolution applies only with --grid-out"),
    _row("sweep-tau", _SWEEP + ["--lambdas", "1e-3", "--tau", "0.7"], "--tau " + _SWEEP_GRID),
    _row("sweep-algorithm", _SWEEP + ["--lambdas", "1e-3", "--algorithm", "spectral"],
         "--algorithm " + _SWEEP_GRID),
    # --header where no CSV is read
    _row("train-task-header", _TRAIN + ["--header"], "--header applies only to --data"),
    _row("sweep-task-header", _SWEEP + ["--lambdas", "1e-3", "--header"],
         "--header applies only to --data or --test"),
    _row("eval-task-header", _EVAL_TASK + ["--header"],
         "--header applies only to --model evaluation"),
    # verify-bounds flags that its harness does not read, or a width it cannot fix
    *(_row(f"bernstein-{flag[2:]}", [*_BERNSTEIN, flag, value],
           f"{flag} applies only to --harness concentration")
      for flag, value in [("--task", "circle"), ("--kernel", "abel"), ("--sigma", "1"),
                          ("--ref-size", "10")]),
    _row("verify-kernel-spec-sigma", ["verify-bounds", "--kernel", "abel sigma=1", "--sigma", "2"],
         "--sigma does not apply to --kernel 'abel sigma=1'"),
    _row("verify-linear-sigma", ["verify-bounds", "--kernel", "linear", "--sigma", "2"],
         "--sigma does not apply to --kernel 'linear'"),
    _row("verify-auto-sigma", ["verify-bounds", "--sigma", "auto"],
         "verify-bounds needs a fixed --sigma (no training set to adapt to)"),
    # a file that does not load, read before any Gram or solve (m.txt scores through its
    # decomposition), and sweep's --test file, read and checked before the Gram
    _row("score-missing-model", ["score", "--model", "missing.txt", *_DATA],
         _NO_FILE + "'missing.txt'", 3),
    _row("score-empty-data", [*_SCORE, "empty.csv"], "empty.csv: no data rows", 3),
    _row("score-missing-data", [*_SCORE, "missing.csv"], _NO_FILE + "'missing.csv'", 3),
    _row("score-malformed-data", [*_SCORE, "bad.csv"], _BAD_CELL, 3),
    _row("score-wide-data", [*_SCORE, "wide.csv"],
         "query dimension 4 does not match model dimension 2", 3),
    _row("eval-missing-data", [*_EVAL_MODEL, "missing.csv", "--label-col", "2"],
         _NO_FILE + "'missing.csv'", 3),
    _row("eval-malformed-data", [*_EVAL_MODEL, "bad.csv", "--label-col", "2"],
         _BAD_CELL, 3),
    _row("eval-wide-data", [*_EVAL_MODEL, "wide.csv", "--label-col", "3"],
         "query dimension 3 does not match model dimension 2", 3),
    _row("sweep-test-missing", _SWEEP + ["--lambdas", "1e-3", "--test", "missing.csv"],
         _NO_FILE + "'missing.csv'", 3),
    _row("sweep-test-wide", _SWEEP + ["--lambdas", "1e-3", "--test", "wide.csv"],
         "query dimension 4 does not match model dimension 2", 3),
    # a model file with one edit (only a Landweber model reads algorithm=landweber, as
    # spectral); a stored decomposition's load check builds one Gram
    *(_row(f"model-algorithm-{name}", _SCORE_TAMPERED + ["tampered.txt"],
           f"tampered.txt: unknown algorithm {name!r}, expected one of ('spectral', 'cholesky')",
           3, ("m.txt", f"algorithm={name}")) for name in ["bogus", "landweber"]),
    _row("model-filter-abc", _SCORE_TAMPERED + ["tampered.txt"],
         "tampered.txt: bad lambda: 'abc'", 3, ("m.txt", "filter=tikhonov lambda=abc")),
    # after the 60 x 2 points: the top eigenvalue, and V[3, 30] of the 60 x 60 eigenvectors
    _row("model-top-eigenvalue", _SCORE_TAMPERED + ["tampered.bin"],
         "tampered.bin: stored eigenvalues do not sum to trace(K_n/n)", 3, ("m.bin", 120, 2.0),
         gram=1),
    _row("model-trailing-eigenvector", _SCORE_TAMPERED + ["tampered.bin"],
         "tampered.bin: stored eigenpairs do not match the Gram matrix (residual 6.288e-03)",
         3, ("m.bin", 120 + 60 + 3 * 60 + 30, -1.0), gram=1),
])
def test_cli_flag_errors_are_refused_before_the_gram(refusal_dir, tmp_path, monkeypatch, solves,
                                                     capsys, argv, code, message, edit, counts):
    """Every refusal of the CLI: with argv paths in ``refusal_dir`` and a model
    file edited as the row says, the command exits with the row's code, prints
    its one error line and nothing else, writes no file, and builds no Gram
    and runs no solve but those the row counts."""
    monkeypatch.chdir(refusal_dir)
    if edit:
        _tamper(*edit)
    calls = solves()
    assert main(argv + ["--out", str(tmp_path / "out.csv"), "--no-timestamp"]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert calls == {**dict.fromkeys(calls, 0), **counts}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    _SWEEP + ["--lambdas", "1e-3,1e-2"],
    ["eval", "--task", "circle", "--n", "60", "--trials", "3", "--resolution", "16"],
], ids=["sweep", "eval-task"])
def test_cli_resolves_the_filter_flags_once(tmp_path, monkeypatch, argv):
    """A command resolves --lambda, the score path and tau once: sweep does not
    resolve them again for its model, nor eval --task for each trial."""
    calls, paths, taus = [], [], []
    monkeypatch.setattr(cli, "rate_lambda", lambda *a: calls.append(a) or 1e-3)
    monkeypatch.setattr(cli, "_score_path",
                        lambda *a: paths.append(a) or estimator._score_path(*a))
    monkeypatch.setattr(cli, "_check_tau",
                        lambda tau: taus.append(tau) or estimator._check_tau(tau))
    assert main(argv + ["--lambda", "rate:1,1", "--out", str(tmp_path / "out"),
                        "--no-timestamp"]) == 0
    assert calls == [(60, 1.0, 1.0)]
    assert len(paths) == len(taus) == 1


# What eval --model reads, and a valid value for each other option of eval.
_EVAL_MODEL_READS = {"help", "model", "data", "header", "label_col", "roc_out", "out",
                     "no_timestamp"}
_EVAL_VALUES = {"--task": "circle", "--n": "20", "--seed": "1", "--kernel": "gaussian",
                "--sigma": "0.5", "--filter": "cutoff", "--lambda": "1e-3", "--m": "3",
                "--components": "2", "--tau": "0.5", "--algorithm": "spectral",
                "--trials": "2", "--n-test": "10", "--resolution": "8"}


def _eval_task_options():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices["eval"]._actions if a.dest not in _EVAL_MODEL_READS]


@pytest.mark.parametrize("action", _eval_task_options(), ids=lambda a: a.option_strings[0])
def test_cli_eval_model_refuses_every_other_flag(tmp_path, monkeypatch, capsys, action):
    """eval --model reads no model or trial flag: every other option that the
    parser gives eval, with a valid value, exits 2 naming it before the model
    loads, so a flag added later cannot be silently ignored."""
    flag = action.option_strings[0]
    monkeypatch.setattr(cli, "load_model", lambda *a: pytest.fail("the model was loaded"))
    value = [] if action.nargs == 0 else [_EVAL_VALUES[flag]]
    assert main(["eval", "--model", "m.txt", "--data", "l.csv", "--label-col", "2",
                 flag, *value, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err


def test_api_fit_and_load_solve_once(tmp_path, solves):
    """Neither ``fit`` nor ``load_model`` solves anything: the spectral and
    Landweber paths eigensolve on the first score, every model whose gains
    allow it factorizes on its first score and keeps the factor (one QR on
    the spectral path, one Cholesky on the other), and a model past the gate
    never factorizes.  A loaded model solves as its fit does, and never
    eigensolves when the file stores the decomposition."""
    rng = np.random.default_rng(97)
    pts, X = rng.uniform(-1.0, 1.0, (40, 2)), rng.uniform(-1.2, 1.2, (30, 2))
    spectral = fit(pts, Abel(0.8), Tikhonov(1e-2), algorithm="spectral")
    cholesky = fit(pts, Abel(0.8), Tikhonov(1e-2))
    files = {"spectral": tmp_path / "s.txt", "cholesky": tmp_path / "c.txt",
             "stored": tmp_path / "d.txt"}
    save_model(spectral, files["spectral"])
    save_model(cholesky, files["cholesky"])
    save_model(cholesky, files["stored"], include_decomposition=True)
    calls = solves()

    def costs(build):
        """(eigensolves, Cholesky factorizations, QR factorizations) at build
        and after two scores."""
        solves()
        model = build()
        at_build = calls["eigh"], calls["cho_factor"], calls["dgeqrf"]
        score_batch(model, X)
        score_batch(model, X)
        return at_build, (calls["eigh"], calls["cho_factor"], calls["dgeqrf"])

    for f in [Tikhonov(1e-2), Landweber(10)]:
        assert (costs(lambda: fit(pts, Abel(0.8), f, algorithm="spectral"))
                == ((0, 0, 0), (1, 0, 1)))
    # zero gains (kPCA) and a spread past the gate (Gaussian at a tiny lambda) score through V
    for k, f in [(Abel(0.8), KpcaTruncation(lam=1e-2)), (Gaussian(2.0), Tikhonov(1e-12))]:
        assert costs(lambda: fit(pts, k, f, algorithm="spectral")) == ((0, 0, 0), (1, 0, 0))
    assert costs(lambda: fit(pts, Abel(0.8), Tikhonov(1e-2))) == ((0, 0, 0), (0, 1, 0))
    assert costs(lambda: load_model(files["spectral"])) == ((0, 0, 0), (1, 0, 1))
    assert costs(lambda: load_model(files["cholesky"])) == ((0, 0, 0), (0, 1, 0))
    assert costs(lambda: load_model(files["stored"])) == ((0, 0, 0), (0, 1, 0))


def test_cholesky_model_decomposes_once(tmp_path, solves):
    """A Cholesky model builds its decomposition on first read and keeps it:
    two regularization paths and a save that stores it share one eigensolve."""
    rng = np.random.default_rng(98)
    pts, X = rng.uniform(-1.0, 1.0, (40, 2)), rng.uniform(-1.2, 1.2, (30, 2))
    model = fit(pts, Abel(0.8), Tikhonov(1e-2))
    calls = solves()
    regularization_path(model, X, [1e-3, 1e-2])
    regularization_path(model, X, [1e-1])
    save_model(model, tmp_path / "m.txt", include_decomposition=True)
    assert calls["eigh"] == 1


@pytest.mark.parametrize("kernel, f, algorithm, handed, scores, after", [
    (Abel(0.8), Tikhonov(1e-2), "spectral", False, 1, 1),
    (Abel(0.8), Landweber(10), "spectral", False, 1, 1),
    (Abel(0.8), KpcaTruncation(lam=1e-2), "spectral", False, 1, 0),
    (Gaussian(2.0), Tikhonov(1e-12), "spectral", False, 1, 0),
    (Abel(0.8), Tikhonov(1e-2), "cholesky", False, 0, 1),
    (Abel(0.8), Tikhonov(1e-2), "cholesky", True, 0, 1),
], ids=["spectral", "landweber", "kpca", "gated", "cholesky", "cholesky-eigenpairs"])
def test_a_spectral_factor_drops_the_decomposition(tmp_path, solves, kernel, f,
                                                   algorithm, handed, scores, after):
    """Building its triangular factor, R or W, a model drops its eigenvectors: two
    spectral or Landweber scores cost one eigensolve, a regularization path after
    them one more, and a save with the decomposition after that none.  The
    re-solved path reads the bits of a twin model that never scored.  A model
    without such a factor (kPCA, a spread past the gate) keeps the
    decomposition its scores solved.  A Cholesky model's scores solve nothing,
    so its path solves once, the ``eigenpairs`` it was handed dropped by W."""
    rng = np.random.default_rng(99)
    pts, X = rng.uniform(-1.0, 1.0, (40, 2)), rng.uniform(-1.2, 1.2, (30, 2))
    grid = [f.iterations] if isinstance(f, Landweber) else [f.lam]
    twin = regularization_path(fit(pts, kernel, f, algorithm=algorithm), X, grid)
    pairs = fit(pts, kernel, f).decomposition if handed else None
    model = fit(pts, kernel, f, algorithm=algorithm, eigenpairs=pairs)
    calls = solves()
    score_batch(model, X)
    score_batch(model, X)
    assert calls["eigh"] == scores
    assert np.array_equal(regularization_path(model, X, grid), twin)
    assert calls["eigh"] == scores + after
    save_model(model, tmp_path / "m.txt", include_decomposition=True)
    assert calls["eigh"] == scores + after


def test_cli_runs_without_numpy_solvers(tmp_path, monkeypatch):
    """Every solve goes through scipy.linalg: train, eval, sweep and score
    run with numpy's eigensolvers and Cholesky disabled."""
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg solver called")

    for name in ("eigh", "eigvalsh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, refuse)
    sample, model = tmp_path / "x.csv", tmp_path / "m.txt"
    out = ["--out", str(tmp_path / "o.csv"), "--no-timestamp"]
    assert main(["synth", "--task", "circle", "--n", "80", "--out", str(sample),
                 "--no-timestamp"]) == 0
    labeled = tmp_path / "l.csv"
    rows = load_csv(sample, header=True).points
    np.savetxt(labeled, np.column_stack([np.vstack([rows, 2 * rows]),
                                         np.r_[np.ones(80), np.zeros(80)]]), delimiter=",")
    assert main(["train", "--data", str(sample), "--header", "--lambda", "auto",
                 "--store-decomposition", "--out", str(model), "--no-timestamp"]) == 0
    assert main(["eval", "--model", str(model), "--data", str(labeled),
                 "--label-col", "2"] + out) == 0
    assert main(["eval", "--task", "circle", "--n", "60", "--trials", "2",
                 "--resolution", "16"] + out) == 0
    assert main(["sweep", "--data", str(sample), "--header", "--lambdas", "1e-3,1e-2"]
                + out) == 0
    assert main(["score", "--model", str(model), "--data", str(sample), "--header"]
                + out) == 0
