"""The benchmark's workloads.

Each workload builds its inputs from the run seed, runs one op at a time
(a closed loop with one client) and checks every op's output outside the
timed region.  ``build`` is the set-up (inputs, fits, warm-up) and returns
the warm-up op's output; ``op`` is what gets timed and returns (input key,
output); ``check`` returns one op's errors and ``finish`` returns
(input key, error) pairs found after the loop.

Why these workloads: see README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import numpy as np

import setlearn
from setlearn import cli

# Score-path agreement bounds, the ones tests/test_acceptance.py's
# test_score_paths_agree holds the library to.
TIKHONOV_AGREE = 1e-8
LANDWEBER_AGREE = 1e-10

# Quality floors, below every value the exact estimator gave on 160 seeded
# inputs (lowest train-large probe AUC 0.938, lowest select AUC 0.977); they
# stop a faster approximation from losing accuracy without failing the run.
TRAIN_AUC_FLOOR = 0.9
SELECT_AUC_FLOOR = 0.9


def _run_cli(tracer, argv):
    """One in-process CLI call; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with tracer.span("cli." + argv[0]), contextlib.redirect_stdout(out):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code
    return rc, out.getvalue()


def _digest(stdout, paths):
    h = hashlib.sha256(stdout.encode())
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _first_row(path):
    """First data row of a CLI table (after the ``#`` header and column names)."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    return [float(v) for v in rows[1].split(",")]


def _footer(path):
    with open(path, encoding="utf-8") as fh:
        pairs = (line[2:].strip().split("=", 1) for line in fh if line.startswith("# "))
        return {p[0]: p[1] for p in pairs if len(p) == 2}


def _unit_interval(values):
    return bool(np.all(np.isfinite(values)) and values.min() >= 0.0 and values.max() <= 1.0)


class CliWorkload:
    """Ops are CLI commands on a cycle of inputs; an op's ``--no-timestamp``
    outputs must be byte-identical to the first op on the same input."""

    pool = 4

    def __init__(self, seed, workdir, tracer):
        self.rng = np.random.default_rng([seed, self.index])
        self.workdir = workdir
        self.tracer = tracer
        self.first = {}
        self.quality_by_key = {}

    def path(self, name):
        return os.path.join(self.workdir, name)

    def build(self):
        self.make_inputs()
        return self.op(0)

    def op(self, i):
        key = i % self.pool
        results = [_run_cli(self.tracer, argv) for argv in self.commands(key)]
        return key, results

    def check(self, out):
        key, results = out
        errors = [f"{argv[0]} exited {rc}"
                  for argv, (rc, _) in zip(self.commands(key), results) if rc != 0]
        if errors:
            return errors
        digest = _digest("".join(text for _, text in results), self.outputs())
        if self.first.setdefault(key, digest) != digest:
            errors.append(f"outputs differ from the first op on input {key}")
        quality = self.quality_of(key)
        self.quality_by_key.setdefault(key, quality)
        return errors + self.quality_errors(quality)

    def finish(self):
        return []

    def quality(self):
        values = list(self.quality_by_key.values())
        return {k: float(np.mean([v[k] for v in values])) for k in values[0]} if values else {}


class TrainLarge(CliWorkload):
    name = "train-large"
    index = 0
    n = 1000

    def make_inputs(self):
        task = setlearn.get_task("two_moons")
        for k in range(self.pool):
            np.savetxt(self.path(f"train{k}.csv"), task.draw(self.n, self.rng), delimiter=",")
        # Negatives sit 0.05 off the support, so the AUC stays off its ceiling.
        pos = task.draw(500, self.rng)
        step = self.rng.normal(size=(500, 2))
        step /= np.linalg.norm(step, axis=1)[:, None]
        neg = task.draw(500, self.rng) + 0.05 * step
        probe = np.column_stack([np.vstack([pos, neg]), np.r_[np.ones(500), np.zeros(500)]])
        np.savetxt(self.path("probe.csv"), probe, delimiter=",")

    def commands(self, key):
        return [
            ["train", "--data", self.path(f"train{key}.csv"), "--kernel", "abel",
             "--sigma", "auto", "--lambda", "auto", "--filter", "tikhonov",
             "--model-format", "text", "--out", self.path("model.txt"), "--no-timestamp"],
            ["eval", "--model", self.path("model.txt"), "--data", self.path("probe.csv"),
             "--label-col", "2", "--out", self.path("eval.csv"), "--no-timestamp"],
        ]

    def outputs(self):
        return [self.path("model.txt"), self.path("model.txt.eigs.csv"), self.path("eval.csv")]

    def quality_of(self, key):
        return {"auc": _first_row(self.path("eval.csv"))[1]}

    def quality_errors(self, q):
        if q["auc"] >= TRAIN_AUC_FLOOR:
            return []
        return [f"probe auc {q['auc']:.4f} < {TRAIN_AUC_FLOOR}"]


class Select(CliWorkload):
    name = "select"
    index = 1
    # op cost depends on the sample (the grid set's size), so a run cycles
    # through many seeds to keep its median steady from one run seed to the next
    pool = 16
    lambdas = "1e-4,3e-4,1e-3,3e-3,1e-2,3e-2"

    def make_inputs(self):
        self.seeds = [int(s) for s in self.rng.integers(0, 2 ** 31, self.pool)]

    def commands(self, key):
        seed = str(self.seeds[key])
        return [
            ["eval", "--task", "two_moons", "--n", "300", "--trials", "1", "--tau", "0.5",
             "--seed", seed, "--out", self.path("eval.csv"), "--no-timestamp"],
            ["sweep", "--task", "two_moons", "--n", "300", "--seed", seed,
             "--lambdas", self.lambdas, "--taus", "0.1,0.3",
             "--out", self.path("sweep.csv"), "--no-timestamp"],
        ]

    def outputs(self):
        return [self.path("eval.csv"), self.path("sweep.csv")]

    def quality_of(self, key):
        _, auc, _, hausdorff, symdiff = _first_row(self.path("eval.csv"))
        return {"auc": auc, "hausdorff": hausdorff, "symdiff": symdiff}

    def quality_errors(self, q):
        # eval reports hausdorff as nan when no grid point clears 1 - tau;
        # that is its documented output for an empty estimated set.
        errors = [] if np.isfinite(q["symdiff"]) else ["symdiff is not finite"]
        if q["auc"] < SELECT_AUC_FLOOR:
            errors.append(f"auc {q['auc']:.4f} < {SELECT_AUC_FLOOR}")
        return errors

    def quality(self):
        values = list(self.quality_by_key.values())
        if not values:
            return {}
        hausdorff = [v["hausdorff"] for v in values if np.isfinite(v["hausdorff"])]
        return {"auc": float(np.mean([v["auc"] for v in values])),
                "hausdorff": float(np.mean(hausdorff)) if hausdorff else float("nan"),
                "symdiff": float(np.mean([v["symdiff"] for v in values])),
                "empty_sets": sum(not np.isfinite(v["hausdorff"]) for v in values)}


class Bounds(CliWorkload):
    name = "bounds"
    index = 2

    def make_inputs(self):
        self.seeds = [int(s) for s in self.rng.integers(0, 2 ** 31, self.pool)]

    def commands(self, key):
        return [["verify-bounds", "--harness", "concentration", "--task", "circle",
                 "--n", "100", "--trials", "40", "--ref-size", "4000", "--sigma", "1",
                 "--seed", str(self.seeds[key]), "--out", self.path("bounds.csv"),
                 "--no-timestamp"]]

    def outputs(self):
        return [self.path("bounds.csv")]

    def quality_of(self, key):
        footer = _footer(self.path("bounds.csv"))
        return {k: float(footer[k]) for k in ("violation_fraction", "tolerated_fraction")}

    def quality_errors(self, q):
        if q["violation_fraction"] <= q["tolerated_fraction"]:
            return []
        return [f"violation fraction {q['violation_fraction']} above "
                f"{q['tolerated_fraction']}"]


class ScoreStream:
    """Warm serving: score_batch on one fitted model, factorization warmed in set-up.

    One workload per score path, so each path's latency has its own bound;
    all three draw the same sample and batches from a given seed.
    """

    index = 3
    n = 1500
    batch = 256
    pool = 8

    def __init__(self, seed, workdir, tracer):
        self.rng = np.random.default_rng([seed, self.index])
        self.tracer = tracer
        self.first = {}

    def build(self):
        task = setlearn.get_task("circle")
        self.points = task.draw(self.n, self.rng)
        self.kernel = setlearn.Abel(setlearn.width_heuristic(self.points))
        self.batches = []
        half = self.batch // 2
        for _ in range(self.pool):
            near = task.draw(half, self.rng) + self.rng.normal(0.0, 0.02, (half, 2))
            box = np.column_stack([self.rng.uniform(lo, hi, half) for lo, hi in task.bounding_box])
            self.batches.append(np.vstack([near, box]))
        self.model = setlearn.fit(self.points, self.kernel, self.filter(), algorithm=self.path)
        # the first score_batch computes the lazy factorization
        return self.op(0)

    def op(self, i):
        key = i % self.pool
        return key, setlearn.score_batch(self.model, self.batches[key])

    def check(self, out):
        key, scores = out
        self.first.setdefault(key, scores)
        return [] if _unit_interval(scores) else ["scores not finite or outside [0, 1]"]

    def finish(self):
        """Rescore every distinct batch on the reference path; (key, error) pairs."""
        ref = setlearn.fit(self.points, self.kernel, self.filter(), algorithm=self.reference)
        errors = []
        for key, scores in sorted(self.first.items()):
            drift = float(np.max(np.abs(setlearn.score_batch(ref, self.batches[key]) - scores)))
            if drift > self.tolerance:
                errors.append((key, f"{self.path} vs {self.reference} drift {drift:.3e}"))
        return errors

    def quality(self):
        return {}


class ScoreSpectral(ScoreStream):
    name = "score-stream.spectral"
    path, reference, tolerance = "spectral", "cholesky", TIKHONOV_AGREE

    def filter(self):
        return setlearn.Tikhonov(1e-3)


class ScoreCholesky(ScoreSpectral):
    name = "score-stream.cholesky"
    path, reference = "cholesky", "spectral"


class ScoreLandweber(ScoreStream):
    name = "score-stream.landweber"
    path, reference, tolerance = "landweber", "spectral", LANDWEBER_AGREE

    def filter(self):
        return setlearn.Landweber(20)


WORKLOADS = {w.name: w for w in (TrainLarge, ScoreSpectral, ScoreCholesky,
                                 ScoreLandweber, Select, Bounds)}
