"""A fixed matrix of CLI commands whose outputs are pinned byte for byte.

``generate(directory)`` runs every command in one child process with
``directory`` as the working directory, so the paths the outputs quote are
relative.  The child runs OpenBLAS on one thread, set before numpy is
imported, since the last bits of an eigensolve depend on the thread count:
the corpus holds on any core count.

Each command leaves its ``--no-timestamp`` files and one ``<name>.out``
record (exit code, stdout, stderr).  Files above ``DIGEST_ABOVE`` bytes are
pinned by their SHA-256 in ``SHA256SUMS`` rather than stored.

Rewrite the committed corpus (only when an output is meant to change, and
name the file and the reason in CHANGES.md)::

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys

import numpy as np

from setlearn import get_task, write_table
from setlearn.cli import main

TESTS = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS, "golden")
SRC = os.path.join(os.path.dirname(TESTS), "src")
DIGESTS = "SHA256SUMS"
KEEP = ("README.md", DIGESTS)
DIGEST_ABOVE = 128 * 1024

_CIRCLE = ["--data", "circle.csv", "--header"]
_MOONS = ["--data", "moons.csv", "--header"]
_TASK = ["--n", "80", "--trials", "2", "--resolution", "16"]
_PRODUCT = "product factors=(abel sigma=1.0 @0:1)+(l1exp sigma=0.5 @1:2)"
# The benchmark's select op at one seed: n = 300 fits on the default 64 x 64 grid.
_SELECT = ["--task", "two_moons", "--n", "300", "--seed", "41"]

# (name, argv).  Later commands read what earlier ones wrote.
COMMANDS = [
    ("synth-circle", ["synth", "--task", "circle", "--n", "150", "--seed", "7",
                      "--out", "circle.csv"]),
    ("synth-moons", ["synth", "--task", "two_moons", "--n", "120", "--seed", "3",
                     "--out", "moons.csv", "--grid-out", "moons_grid.csv",
                     "--resolution", "12"]),
    ("synth-circle500", ["synth", "--task", "circle", "--n", "500", "--seed", "11",
                         "--out", "circle500.csv"]),
    ("train-auto", ["train", *_CIRCLE, "--lambda", "auto", "--tau", "0.2",
                    "--out", "m_auto.txt"]),
    ("train-fixed-binary", ["train", *_CIRCLE, "--lambda", "0.01", "--model-format", "binary",
                            "--out", "m_fixed.bin"]),
    ("train-rate", ["train", *_CIRCLE, "--lambda", "rate:0.5,0.5", "--out", "m_rate.txt"]),
    ("train-spectral", ["train", *_CIRCLE, "--lambda", "1e-3", "--algorithm", "spectral",
                        "--out", "m_spectral.txt"]),
    ("train-cutoff", ["train", *_MOONS, "--filter", "cutoff", "--lambda", "1e-3",
                      "--out", "m_cutoff.txt"]),
    ("train-kpca-count", ["train", *_MOONS, "--filter", "kpca", "--components", "5",
                          "--out", "m_kpca.txt"]),
    ("train-kpca-spec", ["train", *_MOONS, "--filter", "kpca lambda=0.01",
                         "--out", "m_kpca_spec.txt"]),
    ("train-landweber-binary", ["train", *_MOONS, "--filter", "landweber", "--m", "30",
                                "--model-format", "binary", "--out", "m_lw.bin"]),
    ("train-gaussian", ["train", *_MOONS, "--kernel", "gaussian", "--sigma", "0.3",
                        "--lambda", "1e-3", "--out", "m_gauss.txt"]),
    # Two models that score through V: a cutoff whose Gram has null
    # eigenvalues, and a Tikhonov lambda too small for the gated factor.
    ("train-gauss-cutoff", ["train", *_MOONS, "--kernel", "gaussian", "--sigma", "0.3",
                            "--filter", "cutoff", "--lambda", "1e-3",
                            "--out", "m_gauss_cutoff.txt"]),
    ("train-gauss-tiny", ["train", *_MOONS, "--kernel", "gaussian", "--sigma", "0.3",
                          "--lambda", "1e-12", "--algorithm", "spectral",
                          "--out", "m_gauss_tiny.txt"]),
    ("train-l1exp", ["train", *_MOONS, "--kernel", "l1exp", "--sigma", "0.5",
                     "--lambda", "1e-3", "--out", "m_l1exp.txt"]),
    ("train-product", ["train", *_CIRCLE, "--kernel", _PRODUCT, "--lambda", "auto",
                       "--out", "m_product.txt"]),
    ("train-decomp-text", ["train", *_CIRCLE, "--lambda", "auto", "--store-decomposition",
                           "--out", "m_decomp.txt"]),
    ("train-decomp-binary", ["train", *_CIRCLE, "--lambda", "1e-3", "--store-decomposition",
                             "--model-format", "binary", "--out", "m_decomp.bin"]),
    ("train-decomp-500", ["train", "--data", "circle500.csv", "--header", "--lambda", "auto",
                          "--store-decomposition", "--out", "m500.txt"]),
    ("score-auto", ["score", "--model", "m_auto.txt", *_MOONS, "--out", "s_auto.csv"]),
    ("score-fixed-binary", ["score", "--model", "m_fixed.bin", *_MOONS, "--tau", "0.3",
                            "--out", "s_fixed.csv"]),
    ("score-spectral", ["score", "--model", "m_spectral.txt", *_MOONS,
                        "--out", "s_spectral.csv"]),
    ("score-cutoff", ["score", "--model", "m_cutoff.txt", *_CIRCLE, "--out", "s_cutoff.csv"]),
    ("score-kpca", ["score", "--model", "m_kpca.txt", *_CIRCLE, "--out", "s_kpca.csv"]),
    ("score-landweber", ["score", "--model", "m_lw.bin", *_CIRCLE, "--out", "s_lw.csv"]),
    ("score-gaussian", ["score", "--model", "m_gauss.txt", *_CIRCLE, "--out", "s_gauss.csv"]),
    ("score-gauss-cutoff", ["score", "--model", "m_gauss_cutoff.txt", *_CIRCLE,
                            "--out", "s_gauss_cutoff.csv"]),
    ("score-gauss-tiny", ["score", "--model", "m_gauss_tiny.txt", *_CIRCLE,
                          "--out", "s_gauss_tiny.csv"]),
    ("score-l1exp", ["score", "--model", "m_l1exp.txt", *_CIRCLE, "--out", "s_l1exp.csv"]),
    ("score-product", ["score", "--model", "m_product.txt", *_MOONS,
                       "--out", "s_product.csv"]),
    ("score-decomp-text", ["score", "--model", "m_decomp.txt", *_MOONS,
                           "--out", "s_decomp.csv"]),
    ("score-decomp-binary", ["score", "--model", "m_decomp.bin", *_MOONS,
                             "--out", "s_decomp_bin.csv"]),
    ("score-decomp-500", ["score", "--model", "m500.txt", *_CIRCLE, "--out", "s500.csv"]),
    ("eval-labeled", ["eval", "--model", "m_auto.txt", "--data", "labeled.csv", "--header",
                      "--label-col", "2", "--out", "e_auto.csv", "--roc-out", "roc.csv"]),
    ("eval-labeled-decomp", ["eval", "--model", "m_decomp.txt", "--data", "labeled.csv",
                             "--header", "--label-col", "2", "--out", "e_decomp.csv"]),
    # Widths at which the Parzen baseline's normalizer 1/(n h^d) leaves the float range.
    ("train-wide", ["train", *_CIRCLE, "--sigma", "1e200", "--lambda", "0.1",
                    "--out", "m_wide.txt"]),
    ("eval-labeled-wide", ["eval", "--model", "m_wide.txt", "--data", "labeled.csv",
                           "--header", "--label-col", "2", "--out", "e_wide.csv"]),
    ("train-narrow", ["train", *_CIRCLE, "--sigma", "1e-170", "--lambda", "0.1",
                      "--out", "m_narrow.txt"]),
    ("eval-labeled-narrow", ["eval", "--model", "m_narrow.txt", "--data", "labeled.csv",
                             "--header", "--label-col", "2", "--out", "e_narrow.csv"]),
    ("eval-task-auto", ["eval", "--task", "circle", *_TASK, "--out", "task_auto.csv"]),
    ("eval-task-fixed", ["eval", "--task", "circle", *_TASK, "--lambda", "1e-3",
                         "--out", "task_fixed.csv"]),
    ("eval-task-cutoff", ["eval", "--task", "two_moons", *_TASK, "--filter", "cutoff",
                          "--lambda", "1e-3", "--tau", "0.3", "--out", "task_cutoff.csv"]),
    ("sweep", ["sweep", *_CIRCLE, "--lambdas", "1e-4,1e-3,1e-2", "--taus", "0.1,0.3",
               "--out", "sweep.csv"]),
    ("sweep-landweber", ["sweep", *_MOONS, "--filter", "landweber", "--m", "10",
                         "--lambdas", "5,10,40", "--test", "circle.csv",
                         "--out", "sweep_lw.csv"]),
    ("sweep-500", ["sweep", "--data", "circle500.csv", "--header", "--lambdas", "1e-3,1e-2",
                   "--out", "sweep500.csv"]),
    ("select-eval", ["eval", *_SELECT, "--trials", "1", "--tau", "0.5",
                     "--out", "select_eval.csv"]),
    ("select-sweep", ["sweep", *_SELECT, "--lambdas", "1e-4,3e-4,1e-3,3e-3,1e-2,3e-2",
                      "--taus", "0.1,0.3", "--out", "select_sweep.csv"]),
    ("verify-concentration", ["verify-bounds", "--harness", "concentration", "--n", "40",
                              "--trials", "20", "--ref-size", "500", "--out", "vb_conc.csv"]),
    ("verify-bernstein", ["verify-bounds", "--harness", "bernstein", "--n", "50",
                          "--trials", "40", "--out", "vb_bern.csv"]),
    ("error-usage", ["train", *_CIRCLE, "--lambda", "bogus", "--out", "never.txt"]),
    ("error-filter-spec", ["train", *_CIRCLE, "--filter", "tikhonov lambda=abc",
                           "--out", "never.txt"]),
    ("error-filter-unknown", ["train", *_CIRCLE, "--filter", "bogus", "--out", "never.txt"]),
    ("error-kernel-unknown", ["train", *_CIRCLE, "--kernel", "bogus", "--out", "never.txt"]),
    ("error-landweber-no-m", ["train", *_CIRCLE, "--filter", "landweber", "--out", "never.txt"]),
    ("error-kpca-spec", ["train", *_CIRCLE, "--filter", "filter=kpca", "--out", "never.txt"]),
    ("error-landweber-spec", ["train", *_CIRCLE, "--filter", "landweber m=1.5",
                              "--out", "never.txt"]),
    ("error-landweber-lambda", ["train", *_CIRCLE, "--filter", "landweber lambda=1",
                                "--out", "never.txt"]),
    ("error-kernel-no-sigma", ["train", *_CIRCLE, "--kernel", "kernel=abel",
                               "--out", "never.txt"]),
    ("error-kernel-option", ["train", *_CIRCLE, "--kernel", "abel width=2",
                             "--out", "never.txt"]),
    ("error-kernel-linear-option", ["train", *_CIRCLE, "--kernel", "linear sigma=1",
                                    "--out", "never.txt"]),
    ("error-kernel-normalized-group", ["train", *_CIRCLE, "--kernel",
                                       "normalized inner=linear", "--out", "never.txt"]),
    ("error-kernel-product-slice", ["train", *_CIRCLE, "--kernel",
                                    "product factors=(abel sigma=1)", "--out", "never.txt"]),
    ("error-kernel-product-tiling", ["train", *_CIRCLE, "--kernel",
                                     "product factors=(abel sigma=1 @0:2)+(abel sigma=1 @1:3)",
                                     "--out", "never.txt"]),
    ("error-kernel-sigma", ["train", *_CIRCLE, "--kernel", "gaussian sigma=abc",
                            "--out", "never.txt"]),
    ("error-delta-nan", ["verify-bounds", "--harness", "bernstein", "--delta", "nan",
                         "--out", "never.csv"]),
    ("error-delta-nan-concentration", ["verify-bounds", "--delta", "nan", "--out", "never.csv"]),
    ("error-bernstein-n", ["verify-bounds", "--harness", "bernstein", "--n", "0",
                           "--out", "never.csv"]),
    ("error-ref-size", ["verify-bounds", "--ref-size", "0", "--out", "never.csv"]),
    ("error-csv-encoding", ["train", "--data", "latin1.csv", "--lambda", "1e-3",
                            "--out", "never.txt"]),
    ("error-model-encoding", ["score", "--model", "m_latin1.txt", *_CIRCLE,
                              "--out", "never.csv"]),
    ("error-model-counts", ["score", "--model", "m_negative.bin", *_CIRCLE,
                            "--out", "never.csv"]),
    ("error-data", ["score", "--model", "missing.txt", *_CIRCLE, "--out", "never.csv"]),
    ("error-product-dim", ["train", *_CIRCLE, "--kernel", "product factors=(abel sigma=1 @0:1)",
                           "--lambda", "1e-3", "--out", "never.txt"]),
    ("error-numeric", ["train", "--data", "origin.csv", "--header", "--kernel", "linear",
                       "--lambda", "1e-3", "--out", "never.txt"]),
    ("train-huge-lambda", ["train", *_CIRCLE, "--lambda", "1e307", "--out", "m_huge.txt"]),
    ("error-numeric-shift", ["score", "--model", "m_huge.txt", *_CIRCLE,
                             "--out", "never.csv"]),
]


def _labeled_csv(path):
    """Circle points (label 1) against box points (label 0), written like a CLI table."""
    task = get_task("circle")
    rng = np.random.default_rng(5)
    pos = task.draw(60, rng)
    neg = np.column_stack([rng.uniform(lo, hi, 60) for lo, hi in task.bounding_box])
    rows = [(x, y, 1) for x, y in pos] + [(x, y, 0) for x, y in neg]
    write_table(path, "labeled probe", ["seed=5"], ["x0", "x1", "label"], rows,
                timestamp=False)


def _origin_csv(path):
    """Four corners of the unit square, one at the origin, where x . x = 0."""
    write_table(path, "origin probe", [], ["x0", "x1"], [(0, 0), (1, 0), (0, 1), (1, 1)],
                timestamp=False)


def _malformed_inputs():
    """A CSV holding a byte that is not UTF-8, a text model whose data section
    holds a byte that is not ascii, and a binary model with negative n and d."""
    head = (b"# support model v1\nformat=%s\nkernel=abel sigma=1.0\n"
            b"filter=tikhonov lambda=0.1\nalgorithm=cholesky\ntau=0.0\n"
            b"n=%d\nd=%d\ndecomposition=none\ndata:\n")
    for name, blob in [("latin1.csv", b"1,2\n3,\xff4\n"),
                       ("m_latin1.txt", head % (b"text", 1, 2) + b"0.5 \xe9\n"),
                       ("m_negative.bin", head % (b"binary", -1, -1) + bytes(8))]:
        with open(name, "wb") as fh:
            fh.write(blob)


def one_thread(args):
    """Run ``python *args`` with OpenBLAS on one thread and ``src`` and ``tests``
    importable; a failure raises with the child's stderr."""
    path = os.pathsep.join(filter(None, [SRC, TESTS, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"python {' '.join(args)} exited {done.returncode}:\n{done.stderr}")


def generate(directory):
    """Run the matrix in ``directory`` at one thread; returns {file name: bytes}
    of everything written."""
    one_thread([os.path.abspath(__file__), directory])
    files = {}
    for fname in sorted(os.listdir(directory)):
        with open(os.path.join(directory, fname), "rb") as fh:
            files[fname] = fh.read()
    return files


def _run(directory):
    """Run the matrix in process in ``directory``."""
    here = os.getcwd()
    os.chdir(directory)
    try:
        _labeled_csv("labeled.csv")
        _origin_csv("origin.csv")
        _malformed_inputs()
        for name, argv in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv + ["--no-timestamp"])
            with open(f"{name}.out", "w", encoding="utf-8") as fh:
                fh.write(f"exit={rc}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    finally:
        os.chdir(here)


def split(files):
    """({name: bytes} stored verbatim, SHA256SUMS text for the rest)."""
    stored = {k: v for k, v in files.items() if len(v) <= DIGEST_ABOVE}
    sums = "".join(f"{hashlib.sha256(v).hexdigest()}  {k}\n"
                   for k, v in files.items() if len(v) > DIGEST_ABOVE)
    return stored, sums


def rewrite(directory=GOLDEN):
    """Regenerate the committed corpus in place, keeping its README."""
    scratch = directory + ".new"
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        stored, sums = split(generate(scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for fname in os.listdir(directory) if os.path.isdir(directory) else []:
        if fname not in KEEP:
            os.remove(os.path.join(directory, fname))
    os.makedirs(directory, exist_ok=True)
    for fname, blob in stored.items():
        with open(os.path.join(directory, fname), "wb") as fh:
            fh.write(blob)
    with open(os.path.join(directory, DIGESTS), "w", encoding="utf-8") as fh:
        fh.write(sums)
    return len(stored), sums.count("\n")


if __name__ == "__main__":
    if len(sys.argv) > 1:   # the child process of generate()
        _run(sys.argv[1])
    else:
        n_stored, n_digests = rewrite()
        print(f"{n_stored} files stored and {n_digests} digested in {GOLDEN}", file=sys.stderr)
