"""Seeded benchmark for setlearn: one workload per process, one client.

Usage, from the root of a checkout:

    python3 bench/run.py --workload train-large --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --all --seed 1            # every workload, fresh processes

A run builds its inputs from ``--seed``, sets up (import, inputs, fits,
warm-up), runs ops one at a time for ``--seconds`` and checks every
output.  With ``--trace 0`` it reports the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced ops
and reports the per-layer metrics, including a single-threaded baseline
run in a child process.  The last line of standard output is one JSON
object; the full report goes to ``bench/out/``.  The exit code is 0 only
when every check passed.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
NPROC = len(os.sched_getaffinity(0))

# Set-up is repeated this many times in an untraced run, and the import in
# every run; setup_s adds the two medians.
SETUP_REPEATS = 3
IMPORT_REPEATS = 3

# Ops per window of the tail statistic.
TAIL_WINDOW = 50

QUALITY_UNITS = {"auc": "1", "hausdorff": "length", "symdiff": "area", "empty_sets": "count",
                 "violation_fraction": "1", "tolerated_fraction": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="workload name (see bench/README.md)")
    p.add_argument("--all", action="store_true", help="run every workload in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=NPROC,
                   help="BLAS threads (default: the cores this process may use)")
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload or --all")
    return args


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def machine_facts(threads):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor, version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        vendor = version = "unknown"
    return {"nproc": NPROC, "blas_vendor": vendor, "blas_version": version,
            "blas_threads": threads, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read from .git; 'unknown' outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(latencies):
    """(value, percentile, windows) of the tail latency.

    In each window of TAIL_WINDOW consecutive ops (one window when the run
    has fewer than twice that), take the highest percentile with at least
    ten samples beyond it; report the median over windows, so that a burst
    of outside load in one window does not set the run's tail.
    """
    k = max(1, len(latencies) // TAIL_WINDOW)
    size = len(latencies) // k
    values, percentiles = [], []
    for j in range(k):
        s = sorted(latencies[j * size:(j + 1) * size if j < k - 1 else None])
        i = len(s) - 11 if len(s) > 10 else len(s) - 1
        values.append(s[i])
        percentiles.append(100.0 * (i + 1) / len(s))
    return statistics.median(values), statistics.median(percentiles), k


def median_ms(values):
    return 1000.0 * statistics.median(values) if values else 0.0


def metric_name(span, field):
    """Per-layer metric name; score paths go last: estimator.score_batch.s.spectral."""
    stem, _, path = span.partition(".score_batch.")
    return f"{stem}.score_batch.{field}.{path}" if path else f"{span}.{field}"


def layer_metrics(tracer, traced, untraced, import_s, baseline):
    """Per-layer values: per traced op, computed rates, speed-ups, tracing cost."""
    from tracing import SCORE_PATHS, span_fields

    ops = [i for i, _ in traced]
    n = max(len(ops), 1)
    agg = tracer.aggregate(ops)
    setup = tracer.aggregate(["setup"])
    out = {"setup.import_s": import_s, "trace.ops": len(ops)}
    for span, fields in span_fields().items():
        for f in fields:
            out[metric_name(span, f)] = agg.get(span, {}).get(f, 0) / n
    for span in ("kernels.gram", "filters.decompose", "estimator.cho_factor"):
        out[f"setup.{span}.s"] = setup.get(span, {}).get("s", 0.0)
    for span, count in (("kernels.gram", "entries"), ("kernels.cross_gram", "entries"),
                        ("filters.decompose", "n3"),
                        ("estimator.landweber_coefficients", "gemm_flops"),
                        ("oracles.concentration_trials", "kernel_entries")):
        a = agg.get(span, {})
        out[f"{span}.rate_computed"] = a[count] / a["s"] if a.get("s") else 0.0
    # busy time per call with one BLAS thread over busy time per call here
    for span in ("filters.decompose", "oracles.concentration_trials",
                 *(f"estimator.score_batch.{p}" for p in SCORE_PATHS)):
        name = metric_name(span, "thread_speedup")
        calls = metric_name(span, "calls")
        out[name] = 0.0
        if baseline and baseline[calls] and out[calls]:
            busy = metric_name(span, "s")
            out[name] = (baseline[busy] / baseline[calls]) / (out[busy] / out[calls])
    wall = sum(d for _, d in traced)
    out["trace.self_share"] = sum(tracer.self_seconds(i) for i in ops) / wall if wall else 0.0
    out["trace.overhead_ms"] = (median_ms([d for _, d in traced])
                                - median_ms([d for _, d in untraced]))
    return out


def single_thread_baseline(args):
    """The same workload, traced, in a child process with one BLAS thread."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(max(1.0, args.seconds / 2)),
           "--trace", "1", "--threads", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"single-thread baseline failed:\n{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()}


def attempt(fn):
    """Run fn, timed; returns (output, seconds, error or None)."""
    t = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception:
        out, err = None, "raised\n" + traceback.format_exc()
    return out, time.perf_counter() - t, err


def import_seconds():
    """Time of ``import setlearn`` (numpy and scipy included) in a fresh interpreter."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import setlearn; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


def run_workload(args, import_s):
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    failed, errors = 0, []

    def check(label, workload, out, err):
        nonlocal failed
        problems = [err] if err else workload.check(out)
        failed += bool(problems)
        errors.extend(f"{label}: {p}" for p in problems)

    try:
        builds = []
        for b in range(1 if args.trace else SETUP_REPEATS):
            workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
            if args.trace:
                tracer.install("setup")
            out, d, err = attempt(workload.build)
            tracer.uninstall()
            builds.append(d)
            check(f"setup {b}", workload, out, err)
            if err:
                raise RuntimeError(f"set-up failed: {err}")
        setup_s = import_s + statistics.median(builds)

        timed, keys = [], []
        start = time.perf_counter()
        while not timed or time.perf_counter() < start + args.seconds:
            i = len(timed)
            # alternate traced and untraced ops, flipping every pass over the
            # input pool so each input is timed both ways
            traced = args.trace and (i + i // workload.pool) % 2 == 1
            if traced:
                tracer.install(i)
            out, d, err = attempt(lambda: workload.op(i))
            tracer.uninstall()
            timed.append((i, d, traced))
            keys.append(None if err else out[0])
            check(f"op {i}", workload, out, err)
        loop_s = time.perf_counter() - start

        for key, problem in workload.finish():
            hit = keys.count(key)
            failed += hit
            errors.append(f"input {key} ({hit} ops): {problem}")
        quality = workload.quality()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(builds) + len(timed)
    latencies = [d for _, d, _ in timed]
    p_tail, pct, windows = tail(latencies)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(args.threads),
        "attempted": attempted, "failed": min(failed, attempted), "errors": errors,
        "error_rate": min(failed, attempted) / attempted, "setup_builds_s": builds,
        "latency_tail": {"percentile": pct, "samples": len(latencies), "windows": windows},
        "quality": quality, "latencies_s": latencies,
        "end_to_end": {
            "setup_s": setup_s,
            "ops_per_s": len(latencies) / loop_s,
            "latency_p50_ms": median_ms(latencies),
            "latency_tail_ms": 1000.0 * p_tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if args.trace:
        traced = [(i, d) for i, d, tr in timed if tr]
        untraced = [(i, d) for i, d, tr in timed if not tr]
        baseline = single_thread_baseline(args) if args.threads > 1 else None
        report["per_layer"] = layer_metrics(tracer, traced, untraced, import_s, baseline)
        worst = max((tracer.self_seconds(i) / d for i, d in traced), default=0.0)
        if worst > 1.0:
            errors.append(f"layer self-times exceed op wall time (share {worst:.6f})")
    return report, tracer


def emit(report, tracer, spec):
    kind = "per_layer" if report["trace"] else "end_to_end"
    values = report[kind]
    metrics = {}
    for m in spec[kind]:
        if m["name"] not in values:
            raise KeyError(f"BENCHMARK.json lists {m['name']!r}, which this run does not compute")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    stem = os.path.join(OUT, f"{report['workload']}.seed{report['seed']}.trace{report['trace']}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if report["trace"]:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")

    mach = report["machine"]
    print(f"workload={report['workload']} seed={report['seed']} seconds={report['seconds']} "
          f"trace={report['trace']}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in mach.items()))
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>16.6g} {m['unit']}")
    t = report["latency_tail"]
    print(f"  latency_tail_ms is p{t['percentile']:.1f}, the median over {t['windows']} "
          f"windows of {t['samples']} ops")
    print(f"  error_rate {report['error_rate']:.6g} ({report['failed']} of "
          f"{report['attempted']} ops failed)")
    for k, v in report["quality"].items():
        print(f"  {k} {v:.9g} {QUALITY_UNITS[k]}")
    for e in report["errors"]:
        print(f"error: {e}", file=sys.stderr)
    print(f"report: {os.path.relpath(stem + '.json', ROOT)}")
    correct = not report["errors"]
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


# The end-to-end names the summary prints for --all: per-path medians come
# from the score-stream.<path> workloads, quality from the workloads that have it.
def run_all(args, spec):
    reports, status = {}, 0
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--threads", str(args.threads)]
        path = os.path.join(OUT, f"{w['name']}.seed{args.seed}.trace{args.trace}.json")
        if os.path.exists(path):
            os.remove(path)
        proc = subprocess.run(cmd, cwd=ROOT, timeout=600)
        status = status or proc.returncode
        if not os.path.exists(path):
            print(f"error: {w['name']} wrote no report", file=sys.stderr)
            continue
        with open(path, encoding="utf-8") as fh:
            reports[w["name"]] = json.load(fh)
    print("\nsummary (workload, metric, value, unit)")
    for name, r in reports.items():
        for m in spec["end_to_end"]:
            print(f"  {name:<24} {m['name']:<28} {r['end_to_end'][m['name']]:>14.6g} {m['unit']}")
        print(f"  {name:<24} {'error_rate':<28} {r['error_rate']:>14.6g} 1")
        for k, v in r["quality"].items():
            print(f"  {name:<24} {k:<28} {v:>14.6g} {QUALITY_UNITS[k]}")
        path = name.partition("score-stream.")[2]
        if path:
            value = r["end_to_end"]["latency_p50_ms"]
            print(f"  {name:<24} {'latency_p50_ms.' + path:<28} {value:>14.6g} ms")
    with open(os.path.join(OUT, f"all.seed{args.seed}.trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(reports, fh, indent=1)
    return status


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.threads)
    if not os.path.isfile(os.path.join(SRC, "setlearn", "__init__.py")):
        print(f"error: no setlearn sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.all:
        os.makedirs(OUT, exist_ok=True)
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import setlearn
    imports = [time.perf_counter() - t]
    if not os.path.abspath(setlearn.__file__).startswith(SRC + os.sep):
        print(f"error: imported setlearn from {setlearn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    imports += [import_seconds() for _ in range(IMPORT_REPEATS - 1)]
    import_s = statistics.median(imports)
    report, tracer = run_workload(args, import_s)
    return emit(report, tracer, spec)


if __name__ == "__main__":
    sys.exit(main())
