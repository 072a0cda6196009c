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
import setlearn.filters as filters
from setlearn import (Abel, DataError, Gaussian, KpcaTruncation, Landweber, Tikhonov,
                      UsageError, fit, load_csv, load_model, regularization_path, save_model,
                      score_batch, write_table)
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


def test_cli_score_empty_test_file(tmp_path, circle_csv):
    model = tmp_path / "m.txt"
    main(["train", "--data", str(circle_csv), "--header", "--kernel", "abel",
          "--sigma", "0.6", "--filter", "tikhonov", "--lambda", "0.01",
          "--out", str(model), "--no-timestamp"])
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = main(["score", "--model", str(model), "--data", str(empty),
                 "--out", str(tmp_path / "s.csv"), "--no-timestamp"])
    assert code == 3


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


def test_cli_sweep_rejects_empty_grid(tmp_path, circle_csv):
    code = main(["sweep", "--data", str(circle_csv), "--header",
                 "--kernel", "abel", "--sigma", "0.6",
                 "--lambdas", ",", "--out", str(tmp_path / "w.csv"),
                 "--no-timestamp"])
    assert code == 2


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


def test_cli_eval_labeled_requires_label_col(tmp_path, circle_csv):
    model = tmp_path / "m.txt"
    main(["train", "--data", str(circle_csv), "--header", "--kernel", "abel",
          "--sigma", "0.6", "--filter", "tikhonov", "--lambda", "0.01",
          "--out", str(model), "--no-timestamp"])
    code = main(["eval", "--model", str(model), "--data", str(circle_csv),
                 "--header", "--out", str(tmp_path / "e.csv"),
                 "--no-timestamp"])
    assert code == 2


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


def test_cli_verify_bounds_zero_trials(tmp_path):
    code = main(["verify-bounds", "--harness", "bernstein", "--trials", "0",
                 "--out", str(tmp_path / "b.csv"), "--no-timestamp"])
    assert code == 2


def test_cli_verify_bounds_concentration_small(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["verify-bounds", "--harness", "concentration",
                 "--task", "circle", "--sigma", "1", "--n", "50",
                 "--delta", "2", "--trials", "5", "--ref-size", "500",
                 "--seed", "0", "--out", str(out), "--no-timestamp"]) == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(body) == 1 + 5


@pytest.mark.parametrize("ref_size", ["0", "-5"])
def test_cli_verify_bounds_rejects_bad_ref_size(tmp_path, ref_size):
    code = main(["verify-bounds", "--harness", "concentration", "--sigma", "1",
                 "--n", "50", "--trials", "2", "--ref-size", ref_size,
                 "--out", str(tmp_path / "c.csv"), "--no-timestamp"])
    assert code == 2


@pytest.mark.parametrize("n_test", ["0", "-1"])
def test_cli_eval_task_rejects_bad_n_test(tmp_path, capsys, n_test):
    out = tmp_path / "t.csv"
    code = main(["eval", "--task", "circle", "--n", "40", "--trials", "1",
                 "--n-test", n_test, "--resolution", "8", "--lambda", "1e-3",
                 "--out", str(out), "--no-timestamp"])
    assert code == 2
    assert "test point" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_cli_eval_task_rejects_bad_n(tmp_path, capsys, n):
    out = tmp_path / "t.csv"
    code = main(["eval", "--task", "two_moons", "--n", n, "--trials", "1",
                 "--resolution", "8", "--lambda", "1e-3", "--out", str(out),
                 "--no-timestamp"])
    assert code == 2
    assert "n must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--task", "circle", "--n", "10"],
    ["sweep", "--task", "circle", "--n", "10", "--lambdas", "1e-3"],
    ["eval", "--task", "circle", "--n", "10", "--trials", "1", "--resolution", "8"],
    ["verify-bounds", "--harness", "bernstein", "--n", "10", "--trials", "2"],
    ["verify-bounds", "--n", "10", "--trials", "2", "--ref-size", "10"]])
def test_cli_refuses_a_negative_seed(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be" in capsys.readouterr().err
    assert not out.exists()


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


def test_cli_exit_codes(tmp_path, circle_csv):
    # unknown task -> usage error
    assert main(["synth", "--task", "nope", "--out", str(tmp_path / "x.csv"),
                 "--no-timestamp"]) == 2
    # missing file -> data error
    assert main(["score", "--model", str(tmp_path / "missing.txt"),
                 "--data", str(circle_csv),
                 "--out", str(tmp_path / "x.csv"), "--no-timestamp"]) == 3
    # invalid lambda -> usage error
    assert main(["train", "--data", str(circle_csv), "--header",
                 "--kernel", "abel", "--sigma", "0.6",
                 "--filter", "tikhonov", "--lambda", "-0.5",
                 "--out", str(tmp_path / "m.txt"), "--no-timestamp"]) == 2
    # both --data and --task -> usage error
    assert main(["train", "--data", str(circle_csv), "--task", "circle",
                 "--out", str(tmp_path / "m.txt"), "--no-timestamp"]) == 2


def test_cli_score_rejects_tampered_decomposition(tmp_path, circle_csv):
    model = tmp_path / "m.txt"
    assert main(["train", "--data", str(circle_csv), "--header", "--kernel", "abel",
                 "--sigma", "0.6", "--filter", "landweber", "--m", "50",
                 "--store-decomposition", "--out", str(model), "--no-timestamp"]) == 0
    lines = model.read_text().splitlines()
    row = lines.index("data:") + 1 + 60   # the eigenvalue line follows the points
    lines[row] = " ".join(repr(2.0 * float(v)) for v in lines[row].split())
    model.write_text("\n".join(lines) + "\n")
    assert main(["score", "--model", str(model), "--data", str(circle_csv), "--header",
                 "--out", str(tmp_path / "s.csv"), "--no-timestamp"]) == 3


def test_cli_score_rejects_a_tampered_trailing_eigenvector(tmp_path, circle_csv):
    """Negating half of the 31st eigenvector, past any leading pairs, exits 3."""
    model = tmp_path / "m.bin"
    assert main(["train", "--data", str(circle_csv), "--header", "--kernel", "abel",
                 "--sigma", "0.6", "--filter", "tikhonov", "--lambda", "1e-3",
                 "--algorithm", "spectral", "--model-format", "binary",
                 "--store-decomposition", "--out", str(model), "--no-timestamp"]) == 0
    head, payload = model.read_bytes().split(b"data:\n")
    values = np.frombuffer(payload, dtype="<f8").copy()
    V = values[60 * 2 + 60:].reshape(60, 60)   # after the points and the eigenvalues
    V[:30, 30] *= -1.0
    model.write_bytes(head + b"data:\n" + values.tobytes())
    assert main(["score", "--model", str(model), "--data", str(circle_csv), "--header",
                 "--out", str(tmp_path / "s.csv"), "--no-timestamp"]) == 3


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


# an unknown algorithm, and `landweber`, which only a Landweber model reads (as spectral)
@pytest.mark.parametrize("algorithm", ["bogus", "landweber"])
def test_cli_score_rejects_bad_algorithm(tmp_path, circle_csv, algorithm):
    model = tmp_path / "m.txt"
    assert main(["train", "--data", str(circle_csv), "--header", "--kernel", "abel",
                 "--sigma", "0.6", "--filter", "tikhonov", "--lambda", "0.01",
                 "--out", str(model), "--no-timestamp"]) == 0
    lines = [f"algorithm={algorithm}" if l.startswith("algorithm=") else l
             for l in model.read_text().splitlines()]
    model.write_text("\n".join(lines) + "\n")
    assert main(["score", "--model", str(model), "--data", str(circle_csv), "--header",
                 "--out", str(tmp_path / "s.csv"), "--no-timestamp"]) == 3


def test_cli_bad_filter_number_exits_2_on_flag_and_3_in_model_file(tmp_path, circle_csv):
    model = tmp_path / "m.txt"
    train = ["train", "--data", str(circle_csv), "--header", "--kernel", "abel",
             "--sigma", "0.6", "--out", str(model), "--no-timestamp"]
    assert main(train + ["--filter", "tikhonov lambda=abc"]) == 2
    assert main(train + ["--filter", "tikhonov lambda=0.01"]) == 0
    lines = ["filter=tikhonov lambda=abc" if l.startswith("filter=") else l
             for l in model.read_text().splitlines()]
    model.write_text("\n".join(lines) + "\n")
    assert main(["score", "--model", str(model), "--data", str(circle_csv), "--header",
                 "--out", str(tmp_path / "s.csv"), "--no-timestamp"]) == 3


_TRAIN = ["train", "--task", "circle", "--n", "60"]
_SWEEP = ["sweep", "--task", "circle", "--n", "60"]
_EVAL_TASK = ["eval", "--task", "circle", "--n", "50", "--trials", "1"]
_LINE_BREAK = ("a table title, meta or footer entry and column name must be a str with no "
               "line break, got ")


def _count_solves(monkeypatch):
    """Count, from here on, full eigensolves (``eigh``), eigenvalue-only
    solves (``eigvalsh``), Cholesky factorizations, QR factorizations
    (``dgeqrf``) and Gram builds."""
    calls = {"eigh": 0, "eigvalsh": 0, "cho_factor": 0, "dgeqrf": 0, "gram": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls["eigvalsh" if kwargs.get("eigvals_only") else name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(filters, "eigh", counted("eigh", filters.eigh))
    monkeypatch.setattr(estimator, "cho_factor", counted("cho_factor", estimator.cho_factor))
    monkeypatch.setattr(estimator, "dgeqrf", counted("dgeqrf", estimator.dgeqrf))
    for module in (cli, estimator):
        monkeypatch.setattr(module, "gram", counted("gram", module.gram))
    return calls


@pytest.mark.parametrize("argv, rc, eigh, eigvalsh, cho, grams", [
    (_TRAIN, 0, 0, 1, 0, 1),
    (_TRAIN + ["--algorithm", "cholesky", "--lambda", "0.01"], 0, 0, 1, 0, 1),
    (_TRAIN + ["--store-decomposition"], 0, 1, 0, 0, 1),
    (_TRAIN + ["--algorithm", "spectral"], 0, 1, 0, 0, 1),
    (_TRAIN + ["--filter", "cutoff"], 0, 1, 0, 0, 1),
    (_TRAIN + ["--filter", "kpca", "--components", "3"], 0, 1, 0, 0, 1),
    (_TRAIN + ["--filter", "landweber", "--m", "5"], 0, 1, 0, 0, 1),
    (["sweep", "--task", "circle", "--n", "60", "--lambdas", "1e-3,1e-2"], 0, 1, 0, 0, 1),
    (["eval", "--task", "circle", "--n", "60", "--trials", "2", "--resolution", "16"],
     0, 0, 2, 2, 4),
    (["eval", "--task", "circle", "--n", "60", "--trials", "2", "--resolution", "16",
      "--lambda", "1e-3"], 0, 0, 0, 2, 2),
    (_TRAIN + ["--filter", "cutoff", "--lambda", "1e-3", "--algorithm", "cholesky"],
     2, 0, 0, 0, 0),
    (_TRAIN + ["--filter", "landweber", "--m", "5", "--algorithm", "cholesky"],
     2, 0, 0, 0, 0),
], ids=["train", "train-cholesky-fixed", "store-decomposition", "spectral", "cutoff",
        "kpca-components", "landweber", "sweep", "eval-task", "eval-task-fixed",
        "cutoff-cholesky-refused", "landweber-cholesky-refused"])
def test_cli_model_build_solves_once(tmp_path, monkeypatch, argv, rc, eigh, eigvalsh, cho,
                                     grams):
    """At most one spectral solve per model build, on a Gram built for it:
    eigenvalues only when the model scores through its Cholesky factor, and
    none when nothing reads them.  The Cholesky factor is built only by a
    score, from a Gram of its own, so ``train`` never factorizes and each
    ``eval --task`` trial under the auto lambda builds two Grams.  A score
    path the filter cannot take is refused before any Gram is built."""
    calls = _count_solves(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "out"), "--no-timestamp"]) == rc
    assert calls == {"eigh": eigh, "eigvalsh": eigvalsh, "cho_factor": cho, "dgeqrf": 0,
                     "gram": grams}


@pytest.mark.parametrize("argv, message", [
    (_SWEEP + ["--lambdas", "1e-3", "--taus", "2"], "tau values must lie in [0, 1), got 2.0"),
    (_SWEEP + ["--lambdas", "1e-3", "--taus", "nan"], "tau values must lie in [0, 1), got nan"),
    (_SWEEP + ["--lambdas", "abc"], "bad value in --lambdas: 'abc'"),
    (_SWEEP + ["--lambdas", "0"],
     "regularization parameter must be positive and finite, got 0.0"),
    (_SWEEP + ["--lambdas", "1e-320"],
     "regularization parameter 1e-320 is so small that 1/lambda overflows"),
    (_SWEEP + ["--filter", "landweber", "--m", "3", "--lambdas", "2.5"],
     "bad value in --lambdas: '2.5'"),
    (_TRAIN + ["--tau", "nan"], "tau must lie in [0, 1), got nan"),
    (_TRAIN + ["--tau", "2"], "tau must lie in [0, 1), got 2.0"),
    (_TRAIN + ["--filter", "cutoff", "--lambda", "abc"], "bad --lambda 'abc'"),
    (_TRAIN + ["--filter", "cutoff", "--lambda", "-1"],
     "regularization parameter must be positive and finite, got -1.0"),
    (_TRAIN + ["--filter", "cutoff", "--lambda", "rate:2,1"], "s must lie in (0, 1], got 2.0"),
    (_TRAIN + ["--filter", "kpca", "--lambda", "nan"],
     "regularization parameter must be positive and finite, got nan"),
    (_TRAIN + ["--lambda", "abc", "--algorithm", "spectral"], "bad --lambda 'abc'"),
    (_TRAIN + ["--lambda", "1e-320", "--algorithm", "spectral"],
     "regularization parameter 1e-320 is so small that 1/lambda overflows"),
    (_SWEEP + ["--lambdas", "1e-3", "--lambda", "abc"], "bad --lambda 'abc'"),
    # labeled-data flags, which task trials would ignore
    (_EVAL_TASK + ["--data", "nothere.csv"], "--data applies only to --model evaluation"),
    (_EVAL_TASK + ["--label-col", "7"], "--label-col applies only to --model evaluation"),
    (_EVAL_TASK + ["--roc-out", "roc.csv"], "--roc-out applies only to --model evaluation"),
    # the flags' own text in the eval --task metadata, checked before the first trial
    (_EVAL_TASK + ["--kernel", "abel\nsigma=1"], _LINE_BREAK + "'kernel=abel\\nsigma=1'"),
    (_EVAL_TASK + ["--sigma", "1\n"], _LINE_BREAK + "'sigma=1\\n'"),
    # flags that the resolved configuration does not read
    (["train", "--data", "nothere.csv", "--seed", "9"], "--seed applies only to --task"),
    (["train", "--data", "nothere.csv", "--n", "9"], "--n applies only to --task"),
    (["sweep", "--data", "nothere.csv", "--seed", "9", "--lambdas", "1e-3"],
     "--seed applies only to --task"),
    (_TRAIN + ["--m", "3"], "--m does not apply to --filter tikhonov"),
    (_TRAIN + ["--filter", "cutoff", "--components", "3"],
     "--components does not apply to --filter cutoff"),
    (_TRAIN + ["--filter", "landweber", "--m", "3", "--lambda", "1"],
     "--lambda does not apply to --filter landweber"),
    (_TRAIN + ["--filter", "kpca", "--components", "3", "--lambda", "0.1"],
     "--lambda does not apply to --filter kpca with --components"),
    (_TRAIN + ["--kernel", "abel sigma=1", "--sigma", "7"],
     "--sigma does not apply to --kernel 'abel sigma=1'"),
    (_TRAIN + ["--kernel", "linear", "--sigma", "1"],
     "--sigma does not apply to --kernel 'linear'"),
    (_TRAIN + ["--filter", "tikhonov lambda=1", "--lambda", "5"],
     "--lambda does not apply to a full --filter spec"),
    (["synth", "--task", "circle", "--resolution", "8"],
     "--resolution applies only with --grid-out"),
], ids=["sweep-tau-2", "sweep-tau-nan", "sweep-lambda-abc", "sweep-lambda-0",
        "sweep-lambda-subnormal", "sweep-landweber-fraction", "train-tau-nan", "train-tau-2",
        "cutoff-lambda-abc", "cutoff-lambda-negative", "cutoff-lambda-rate-s",
        "kpca-lambda-nan", "spectral-lambda-abc", "spectral-lambda-subnormal",
        "sweep-base-lambda-abc", "eval-task-data", "eval-task-label-col", "eval-task-roc-out",
        "eval-task-kernel-line-break", "eval-task-sigma-line-break", "train-data-seed",
        "train-data-n", "sweep-data-seed", "tikhonov-m", "cutoff-components",
        "landweber-lambda", "kpca-components-lambda", "kernel-spec-sigma", "linear-sigma",
        "filter-spec-lambda", "synth-resolution"])
def test_cli_flag_errors_are_refused_before_the_gram(tmp_path, monkeypatch, capsys, argv,
                                                     message):
    """A bad grid, lambda or margin, a line break in the text eval --task writes
    to its metadata, and a flag that nothing reads exit 2 with their message
    before any Gram or solve."""
    calls = _count_solves(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "out"), "--no-timestamp"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls["gram"] == calls["eigh"] == calls["eigvalsh"] == 0


def test_cli_sweep_reads_its_test_file_before_the_gram(tmp_path, monkeypatch, capsys):
    """A missing --test file exits 3 before any Gram or solve."""
    calls = _count_solves(monkeypatch)
    missing = tmp_path / "missing.csv"
    assert main(_SWEEP + ["--lambdas", "1e-3", "--test", str(missing),
                          "--out", str(tmp_path / "out"), "--no-timestamp"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err and err.count("\n") == 1
    assert calls["gram"] == calls["eigh"] == calls["eigvalsh"] == 0


def test_cli_sweep_checks_its_test_dimension_before_the_gram(tmp_path, monkeypatch, capsys):
    """A --test file of another dimension than the sample exits 3 before any
    Gram or solve, with the message scoring gives it."""
    calls = _count_solves(monkeypatch)
    test = tmp_path / "t3.csv"
    test.write_text("1,2,3\n4,5,6\n")
    assert main(_SWEEP + ["--lambdas", "1e-3", "--test", str(test),
                          "--out", str(tmp_path / "out"), "--no-timestamp"]) == 3
    assert (capsys.readouterr().err
            == "error: query dimension 3 does not match model dimension 2\n")
    assert calls["gram"] == calls["eigh"] == calls["eigvalsh"] == 0


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


@pytest.mark.parametrize("command", ["score", "eval"])
@pytest.mark.parametrize("data", ["malformed", "missing", "three-columns"])
def test_cli_refuses_bad_data_before_the_eigensolve(tmp_path, monkeypatch, capsys, command,
                                                    data):
    """``score`` and ``eval --model`` on a model that scores through its
    decomposition refuse a bad --data with exit 3 before the model solves."""
    model = tmp_path / "m.txt"
    assert main(_TRAIN + ["--filter", "cutoff", "--lambda", "1e-3", "--out", str(model),
                          "--no-timestamp"]) == 0
    path = tmp_path / "t.csv"
    rows = {"malformed": ["0,0", "1,abc"], "three-columns": ["0,0,1", "1,1,0"]}.get(data)
    extra = []
    if command == "eval":   # the points, then a label column
        extra = ["--label-col", "3" if data == "three-columns" else "2"]
        rows = rows and [row + ",1" for row in rows]
    if rows:
        path.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    calls = _count_solves(monkeypatch)
    assert main([command, "--model", str(model), "--data", str(path), *extra,
                 "--out", str(tmp_path / "o.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert calls["eigh"] == 0


def test_cli_score_refuses_a_bad_tau_before_the_factor(tmp_path, monkeypatch, capsys,
                                                       circle_csv):
    """``score`` refuses a bad --tau before it loads and factorizes the model."""
    model = tmp_path / "m.txt"
    assert main(_TRAIN + ["--out", str(model), "--no-timestamp"]) == 0
    capsys.readouterr()
    calls = _count_solves(monkeypatch)
    assert main(["score", "--model", str(model), "--data", str(circle_csv), "--header",
                 "--tau", "nan", "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err == "error: tau must lie in [0, 1), got nan\n"
    assert calls == {"eigh": 0, "eigvalsh": 0, "cho_factor": 0, "dgeqrf": 0, "gram": 0}


def test_api_fit_and_load_solve_once(tmp_path, monkeypatch):
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
    calls = _count_solves(monkeypatch)

    def solves(build):
        """(eigensolves, Cholesky factorizations, QR factorizations) at build
        and after two scores."""
        calls.update(dict.fromkeys(calls, 0))
        model = build()
        at_build = calls["eigh"], calls["cho_factor"], calls["dgeqrf"]
        score_batch(model, X)
        score_batch(model, X)
        return at_build, (calls["eigh"], calls["cho_factor"], calls["dgeqrf"])

    for f in [Tikhonov(1e-2), Landweber(10)]:
        assert (solves(lambda: fit(pts, Abel(0.8), f, algorithm="spectral"))
                == ((0, 0, 0), (1, 0, 1)))
    # zero gains (kPCA) and a spread past the gate (Gaussian at a tiny lambda) score through V
    for k, f in [(Abel(0.8), KpcaTruncation(lam=1e-2)), (Gaussian(2.0), Tikhonov(1e-12))]:
        assert solves(lambda: fit(pts, k, f, algorithm="spectral")) == ((0, 0, 0), (1, 0, 0))
    assert solves(lambda: fit(pts, Abel(0.8), Tikhonov(1e-2))) == ((0, 0, 0), (0, 1, 0))
    assert solves(lambda: load_model(files["spectral"])) == ((0, 0, 0), (1, 0, 1))
    assert solves(lambda: load_model(files["cholesky"])) == ((0, 0, 0), (0, 1, 0))
    assert solves(lambda: load_model(files["stored"])) == ((0, 0, 0), (0, 1, 0))


def test_cholesky_model_decomposes_once(tmp_path, monkeypatch):
    """A Cholesky model builds its decomposition on first read and keeps it:
    two regularization paths and a save that stores it share one eigensolve."""
    rng = np.random.default_rng(98)
    pts, X = rng.uniform(-1.0, 1.0, (40, 2)), rng.uniform(-1.2, 1.2, (30, 2))
    model = fit(pts, Abel(0.8), Tikhonov(1e-2))
    calls = _count_solves(monkeypatch)
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
def test_a_spectral_factor_drops_the_decomposition(tmp_path, monkeypatch, kernel, f,
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
    calls = _count_solves(monkeypatch)
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
