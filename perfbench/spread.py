"""Repeat the benchmark over ten seeds and write the baseline.

    python3 perfbench/spread.py

For every workload and end-to-end metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the distance
between them as a share of the median, which is the spread a change's
median must beat before it counts as a difference.  It then makes one
traced run per workload (on the first seed) and writes the environment,
the spreads, the per-layer metrics, each layer's share of self time and
the predicted effects of each layer metric to ``perfbench/baseline.json``.
Every run lasts ``run_seconds`` from ``BENCHMARK.json``.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import NAMES, OUT, SRC, environment, run_seconds  # noqa: E402

SEEDS = list(range(1, 11))
BASELINE = os.path.join(HERE, "baseline.json")


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median,
            "values": values}


def _run(name, seed, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{name} seed {seed}: outputs failed their checks")
    return result


def main():
    summary = {"seeds": SEEDS, "seconds": run_seconds(), "workloads": {}}
    for name in NAMES:
        values = {}
        for seed in SEEDS:
            for metric, m in _run(name, seed, 0)["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        entry = summary["workloads"][name] = {
            "end_to_end": {metric: spread(v) for metric, v in values.items()}}
        for metric, s in entry["end_to_end"].items():
            print(f"{name:15s} {metric:12s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} iqr/median {s['iqr_share']:.4f}",
                  flush=True)
        traced = _run(name, SEEDS[0], 1)
        entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
        with open(os.path.join(OUT, f"{name}-seed{SEEDS[0]}-trace1.json")) as fh:
            entry["self_time_shares"] = json.load(fh)["shares"]
    sys.path.insert(0, SRC)
    import layers

    summary["environment"] = environment(None)
    summary["predictions"] = layers.prediction_map()
    with open(BASELINE, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
