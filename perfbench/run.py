"""nestvr benchmark: run one workload with one seed and report its metrics.

    python3 perfbench/run.py --workload saddle-d10 --seed 1 --seconds 30 --trace 0

The BLAS thread count is pinned before numpy is imported, and the workload
runs in this process, so each run's imports, caches and peak memory belong
to one workload only.  This script prints every metric named in
BENCHMARK.json with its unit, the records behind them, and as its last line
one JSON object with the keys correct, attempted, failed and metrics.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Records go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
from pathlib import Path
import resource
import sys

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: one BLAS thread: the closed loop is a single process, the d=10 workloads
#: make no BLAS calls worth splitting, the d=200 gathers are memory-bound, and
#: two threads made regularized-d200 throughput noisier (README.md)
BLAS_THREADS = 1


def metric_specs(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def measured(value) -> bool:
    """A value the manifest can bound: a finite, nonzero number that a double
    holds exactly if it is an integer."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value != 0 and abs(value) < 2**53)


def host() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg())}


def main(argv=None) -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path.insert(0, str(HERE))
    import workload  # imports numpy, after the thread count is pinned

    parser = argparse.ArgumentParser(description="nestvr benchmark, one workload and seed")
    parser.add_argument("--workload", required=True, choices=sorted(workload.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    specs = metric_specs(args.trace)

    out = ROOT / ".perfbench" / f"{args.workload}-trace{args.trace}"  # latest run only
    load_before = os.getloadavg()
    try:
        result = workload.run(args.workload, args.seed, args.seconds, bool(args.trace), out)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    except workload.OutputError as exc:
        print(f"error: malformed output: {exc}", file=sys.stderr)
        return 1

    values = dict(result["metrics"])
    if not args.trace:
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    names = [m["name"] for m in specs]
    missing = [name for name in names if name not in values]
    if missing:
        print(f"error: metrics {missing} missing", file=sys.stderr)
        return 1
    unmeasured = [name for name in names if not measured(values[name])]
    if unmeasured:
        print(f"error: metrics {unmeasured} are not finite, nonzero numbers below 2**53: "
              f"{[values[name] for name in unmeasured]}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    # layer metrics that read 0 on some workload (a layer it never calls)
    unlisted = {name: value for name, value in values.items() if name not in metrics}

    info = result["info"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": True, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": metrics, "unlisted_metrics": unlisted, "info": info,
        "env": {**info.pop("env"), "blas_threads_pinned": BLAS_THREADS, **host(),
                "loadavg_before": list(load_before)},
    }
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"nestvr benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    width = max(len(n) for n in [*names, *unlisted])
    for name in names:
        print(f"  {name:<{width}}  {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    for name, value in unlisted.items():
        print(f"  {name:<{width}}  {value:.6g}  (recorded only)")
    print(f"  trials: {result['attempted']} attempted, {result['failed']} failed; "
          f"count metrics and digest over the first {info['fixed_trials']}")
    if "trial_samples" in info:
        t = info["trial_s.tail"]
        tail = (f"p{t['percentile']:.1f} = {t['value']:.6g} s" if t
                else "undefined (fewer than 11 trials)")
        print(f"  {info['passes']:.0f} passes; trial_s.p50 = {info['trial_s.p50']:.6g} s over "
              f"{info['trial_samples']} trials; trial_s.tail {tail}; setup_s over "
              f"{info['setup_reps']} repeats, fastest {info['setup_s.min']:.6g} s (recorded, not bounded)")
    if "ledger" in info:
        led = info["ledger"]
        print(f"  {info['passes']:.0f} passes; ledger: {led['reconciled']}/{led['trials']} traced trials reconcile; "
              f"{led['charged']} grads charged, {led['evaluated']} evaluated")
    print(f"  digest sha256 {info['digest']}")
    env = record["env"]
    print(f"  env: {env['cpu']}, nproc {env['nproc']}, numpy {env['numpy']}, {env['blas']}, "
          f"BLAS threads {BLAS_THREADS}, load {env['loadavg_before']}")
    print(f"  record: {out.relative_to(ROOT) / 'result.json'}")
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
