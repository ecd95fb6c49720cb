"""modecomb benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload multimode-demo --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``, the run
length the baseline was measured at.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it times untraced ops for half the time and
traced ops for the other half and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (environment, every op time, and the spans of a traced run) is
written to ``.perfbench/`` at the root of the checkout.
"""

import os

# One BLAS thread per process, set before anything loads numpy: the
# pipelines' own thread pool (one worker per CPU) supplies the parallelism.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
NAMES = ("multimode-demo", "twomode-demo", "temp-sweep", "short-demos")
SETUP_REPEATS = 5  # fresh processes per run; the median is reported
MIN_OPS = 2  # per run, so every run can compare a rerun's artifacts
E2E_UNITS = {"setup_s": "s", "op_s_p50": "s", "units_per_s": "1/s",
             "peak_rss_mb": "MB", "ok_frac": "frac"}


def run_seconds():
    """How long one run measures, as ``BENCHMARK.json`` fixes it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def _import_modecomb():
    """Import the package from this checkout's ``src``, nothing else."""
    sys.path.insert(0, SRC)
    import modecomb

    if os.path.dirname(os.path.dirname(os.path.abspath(modecomb.__file__))) != SRC:
        raise ImportError(f"modecomb imported from {modecomb.__file__}, not {SRC}")
    return modecomb


def _setup_probe(args):
    """Fresh-process set-up: import modecomb, then make the workload's inputs."""
    directory = os.path.join(OUT, f"probe-{os.getpid()}")
    t0 = time.perf_counter()
    _import_modecomb()
    import workloads

    workloads.WORKLOADS[args.workload]().prepare(args.seed, directory, args.tiny)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def _measure_setup(args, repeats):
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(repeats):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def _loop(work, seconds, min_ops, tracer=None):
    """Closed loop, one client: (op seconds, Outcome or None if it raised)."""
    records = []
    deadline = time.perf_counter() + seconds
    while len(records) < min_ops or time.perf_counter() < deadline:
        work.reset()
        scope = tracer.op_span(len(records)) if tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                result = work.op()
        except Exception:  # a failing op is counted, and the run goes on
            records.append((time.perf_counter() - t0, None))
            traceback.print_exc()
            continue
        elapsed = time.perf_counter() - t0
        records.append((elapsed, work.evaluate(result)))
    return records


def _failures(records):
    """Ops that raised, failed their check, or changed artifacts from the first op."""
    done = [o for _, o in records if o is not None]
    reference = done[0].digest if done else None
    failed = 0
    for _, outcome in records:
        if outcome is None:
            failed += 1
        elif outcome.problems or outcome.digest != reference:
            failed += 1
            for problem in outcome.problems or ["artifacts differ from the first op's"]:
                print(f"check failed: {problem}", file=sys.stderr)
    return failed


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    nproc = os.cpu_count() or 1
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": nproc,
            "blas_threads": BLAS_THREADS,
            # cli's default pool: one worker per CPU, at most 8 and at most
            # one per work item
            "pool_workers": min(nproc, 8), "seed": seed}


def _run_workload(args):
    _import_modecomb()
    import workloads

    directory = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    record = {"args": vars(args), "environment": environment(args.seed)}
    try:
        cls = workloads.WORKLOADS[args.workload]
        if not args.trace:
            repeats = 1 if args.tiny else SETUP_REPEATS
            # the first probe compiles bytecode and warms the file cache
            setup = _measure_setup(args, repeats + (0 if args.tiny else 1))[-repeats:]
            record["setup_s"] = setup
        work = cls()
        work.prepare(args.seed, os.path.join(directory, "op"), args.tiny)
        if not args.tiny:
            # lazy imports and first-call costs inside the library
            warm = cls()
            warm.prepare(args.seed, os.path.join(directory, "warm"), True)
            warm.reset()
            warm.op()
        if args.trace:
            result, records = _traced(work, args.seconds, record)
        else:
            records = _loop(work, args.seconds, MIN_OPS)
            result = _e2e(records, statistics.median(setup))
        record["op_s"] = [t for t, _ in records]
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    record["result"] = result
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def _peak_rss_mb():
    """High-water resident memory of this process image.

    ``getrusage`` would also count the peak of whatever process launched
    this one, because Linux carries ``ru_maxrss`` across ``exec``.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _e2e(records, setup_s):
    failed = _failures(records)
    times = [t for t, _ in records]
    units = sum(o.units for _, o in records if o is not None)
    metrics = {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(times),
        "units_per_s": units / sum(times),
        "peak_rss_mb": _peak_rss_mb(),
        "ok_frac": 1.0 - failed / len(records),
    }
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}}


def _traced(work, seconds, record):
    import layers
    import tracer as tr

    half = seconds / 2.0
    cpu0 = time.process_time()
    plain = _loop(work, half, 1)
    cpu_per_op = (time.process_time() - cpu0) / len(plain)
    tracer = tr.Tracer()
    with tr.installed(tracer, layers.TARGETS, "modecomb"):
        traced = _loop(work, half, 1, tracer)
    records = plain + traced
    failed = _failures(records)
    overhead = (statistics.median(t for t, _ in traced)
                / statistics.median(t for t, _ in plain) - 1.0)
    done = [o for _, o in traced if o is not None]
    summary = layers.Summary(tracer.spans, len(traced),
                             artifact_bytes=statistics.mean(o.artifact_bytes for o in done)
                             if done else 0.0,
                             cpu_s=cpu_per_op, overhead=overhead)
    record["shares"] = summary.shares()
    record["spans"] = [s.to_dict() for s in tracer.spans]
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": layers.layer_metrics(summary)}, records


def _run_all(args):
    """Each workload in its own process; prints one table row per metric."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode:
            print(f"{name}: exit code {done.returncode}", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"{name:15s} {metric:45s} {m['value']:14.6g} {m['unit']}")
        r = results[name]
        print(f"{name:15s} {'fail_frac':45s} {r['failed'] / r['attempted']:14.6g} frac"
              f"  ({r['failed']} of {r['attempted']} ops)")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a smoke-test size")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "modecomb", "__init__.py")):
        print(f"no modecomb source under {SRC}; run from a modecomb checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return _setup_probe(args)
    if args.workload == "all":
        return _run_all(args)
    result = _run_workload(args)
    for metric, m in result["metrics"].items():
        print(f"{metric} {m['value']!r} {m['unit']}")
    print(f"fail_frac {result['failed'] / result['attempted']!r} frac "
          f"({result['failed']} of {result['attempted']} ops)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
