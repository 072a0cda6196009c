import numpy as np
import numpy.testing as npt
import pytest

from setlearn import DataError, UsageError, load_csv, load_model, write_table
from setlearn.cli import main
from setlearn.data import fmt_value


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


def test_cli_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_landweber_path(tmp_path, circle_csv):
    model = tmp_path / "m.txt"
    assert main(["train", "--data", str(circle_csv), "--header",
                 "--kernel", "abel", "--sigma", "0.6",
                 "--filter", "landweber", "--m", "50",
                 "--out", str(model), "--no-timestamp"]) == 0
    m = load_model(model)
    assert m.algorithm == "landweber"
    assert m.filter.iterations == 50


# an unknown algorithm, and one that does not match the model's Tikhonov filter
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
