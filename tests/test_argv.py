"""Drawn command lines: every subcommand, every flag of ``build_parser()``.

Each example appends up to three of a subcommand's own flags to a small
command that exits 0, with values drawn from valid ones and from the
boundary and garbage set 0, -1, nan, inf, 1e-320, 1e308, empty and
non-numeric.  ``main`` runs in process and must exit 0, 2, 3 or 4 with no
exception escaping.  On exit 0, every number it wrote, to stdout or to a
file, must be finite, but for the documented NaNs: the Hausdorff distance
to an empty estimated set and the Parzen AUC without a usable width.
"""

import argparse
import contextlib
import io
import math
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setlearn import load_model
from setlearn.cli import build_parser, main

GARBAGE = ["0", "-1", "nan", "inf", "1e-320", "1e308", "", "abc"]
# Columns and keys that may read nan on exit 0, as documented.
DOCUMENTED_NAN = {"hausdorff", "auc_parzen"}
OUTPUT_FLAGS = {"--out", "--eigs-out", "--roc-out", "--grid-out"}


# Small commands that exit 0; <x>, <labeled> and <model> name the input files.
BASES = {
    "train-task": ["train", "--task", "circle", "--n", "20"],
    "train-data": ["train", "--data", "<x>", "--header"],
    "score": ["score", "--model", "<model>", "--data", "<x>", "--header"],
    "eval-task": ["eval", "--task", "circle", "--n", "20", "--trials", "2", "--resolution", "8"],
    "eval-labeled": ["eval", "--model", "<model>", "--data", "<labeled>", "--header",
                     "--label-col", "2"],
    "sweep": ["sweep", "--task", "circle", "--n", "20", "--lambdas", "1e-3,1e-2"],
    "synth": ["synth", "--task", "circle", "--n", "20", "--resolution", "8"],
    "verify-bounds": ["verify-bounds", "--n", "10", "--trials", "3", "--ref-size", "30"],
}
# Valid values of every flag that takes one, beside its choices.
VALID = {
    "--data": ["<x>", "<labeled>"], "--model": ["<model>"], "--test": ["<x>"],
    "--task": ["circle", "two_moons"],
    "--kernel": ["gaussian", "l1exp", "linear", "abel sigma=0.5"],
    "--sigma": ["0.5", "auto:3"], "--filter": ["cutoff", "landweber", "kpca"],
    "--lambda": ["1e-3", "rate:0.5,0.5"], "--lambdas": ["1e-3,1e-2", "3"], "--taus": ["0,0.5"],
    "--tau": ["0.5"], "--m": ["3"], "--components": ["2"], "--n": ["15"], "--n-test": ["10"],
    "--seed": ["1"], "--trials": ["2"], "--resolution": ["6"], "--label-col": ["2"],
    "--ref-size": ["25"], "--delta": ["1"],
    "--out": ["o.csv"], "--eigs-out": ["e.csv"], "--roc-out": ["r.csv"], "--grid-out": ["g.csv"],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The input files, built once: a training sample, a labelled sample and a model."""
    d = tmp_path_factory.mktemp("argv-inputs")
    paths = {"<x>": str(d / "x.csv"), "<labeled>": str(d / "labeled.csv"),
             "<model>": str(d / "m.txt")}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--task", "circle", "--n", "20", "--out", paths["<x>"]]) == 0
        assert main(["train", "--data", paths["<x>"], "--header",
                     "--out", paths["<model>"]]) == 0
    with open(paths["<x>"]) as fh:
        rows = [line for line in fh if not line.startswith(("#", "x"))]
    with open(paths["<labeled>"], "w") as fh:
        fh.write("x0,x1,y\n")
        fh.writelines(f"{row.strip()},{i % 2}\n" for i, row in enumerate(rows))
    return paths


def _subcommand_flags():
    """Each subcommand's option actions, from the parser the CLI builds."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in sp._actions if a.option_strings != ["-h", "--help"]]
            for name, sp in sub.choices.items()}


FLAGS = _subcommand_flags()


def test_every_subcommand_has_a_base():
    assert {base[0] for base in BASES.values()} == set(FLAGS)


def _values(action):
    """Drawn values of one flag: none for a switch; for an output path a valid
    name, empty or a directory; else a valid value, a choice or garbage."""
    if action.nargs == 0:
        return st.just([])
    flag = action.option_strings[0]
    assert flag in VALID or action.choices, f"no valid value listed for {flag}"
    bad = ["", "."] if flag in OUTPUT_FLAGS else GARBAGE
    return st.sampled_from([*VALID.get(flag, []), *(action.choices or []), *bad]).map(
        lambda v: [v])


def _nonfinite(text):
    """Non-finite numbers in ``text``: every value of a key=value token and every
    bare number, but for the documented keys."""
    found = []
    for token in text.split():
        key, _, value = token.rpartition("=")
        value = value.strip("[](),;")
        if key in DOCUMENTED_NAN:
            continue
        try:
            number = float(value)
        except ValueError:
            continue
        if not math.isfinite(number):
            found.append(token)
    return found


def _table_nonfinite(text):
    """Non-finite numbers in a CSV table: its comment lines as text, and every
    data cell outside a documented column."""
    lines = text.splitlines()
    found = _nonfinite("\n".join(l for l in lines if l.startswith("#")))
    body = [l.split(",") for l in lines if not l.startswith("#")]
    for row in body[1:]:
        for column, cell in zip(body[0], row):
            if column not in DOCUMENTED_NAN:
                found += _nonfinite(cell)
    return found


def _written_nonfinite(directory, stdout):
    """Non-finite numbers in stdout and in every file in ``directory``; a model
    file must load, which refuses non-finite values."""
    found = _nonfinite(stdout)
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob.startswith(b"# support model"):
            load_model(path)
        else:
            found += [f"{name}: {v}" for v in _table_nonfinite(blob.decode())]
    return found


@st.composite
def _argv(draw, base):
    chosen = draw(st.lists(st.sampled_from(FLAGS[base[0]]), max_size=3, unique_by=id))
    drawn = []
    for action in chosen:
        drawn += [action.option_strings[0], *draw(_values(action))]
    return base + ["--out", "o.csv", "--no-timestamp"] + drawn


@settings(max_examples=240, deadline=None)
@given(argv=st.sampled_from(list(BASES.values())).flatmap(_argv))
# an inf bound is never violated: the run wrote bound=inf and exited 0
@example(argv=BASES["verify-bounds"] + ["--out", "o.csv", "--no-timestamp", "--delta", "1e308"])
def test_a_drawn_argv_exits_cleanly_and_writes_finite_numbers(inputs, argv):
    argv = [inputs.get(v, v) for v in argv]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d, contextlib.chdir(d):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:   # argparse refuses a flag value
                rc = exc.code
        assert rc in (0, 2, 3, 4), err.getvalue()
        if rc == 0:
            assert _written_nonfinite(d, out.getvalue()) == []
        else:
            assert err.getvalue().count("error:") == 1, err.getvalue()
