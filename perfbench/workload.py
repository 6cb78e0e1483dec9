"""One benchmark workload: its config, its output checks and its timed loop.

``run.py`` pins the BLAS thread count, imports this module (and so numpy)
and calls ``run``, which returns the metrics and the records behind them.
"""

from __future__ import annotations

from contextlib import nullcontext
import csv
from dataclasses import dataclass
import hashlib
import io
import json
import os
from pathlib import Path
import shutil
import statistics
import sys
import time

import numpy as np

from spans import MODULE_SITES, Recorder, summarise

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    problem: dict
    algorithm: dict
    #: trials per run_experiment call; each call also builds the problem once
    batch_trials: int
    #: the batches an untraced run repeats, round-robin, until --seconds have
    #: passed (each at least once); the count metrics and the trace digest
    #: cover exactly these, so they repeat for a seed
    fixed_batches: int


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    "saddle-d10": Workload(
        problem={"family": "saddle", "dim": 10, "n": 256, "negative_eigenvalue": -1.0, "radius": 1.5},
        algorithm={"mode": "finite", "smoothness_order": 2, "eps": 1e-3, "eps_H": 0.1,
                   "overrides": {"U": 500}},
        batch_trials=10,
        fixed_batches=2,
    ),
    "regularized-d200": Workload(
        problem={"family": "regularized", "dim": 200, "n": 20000},
        algorithm={"mode": "finite", "smoothness_order": 2, "eps": 3e-3, "eps_H": 0.1,
                   "overrides": {"U": 300}},
        batch_trials=2,
        fixed_batches=1,
    ),
    "streaming-saddle-d10": Workload(
        problem={"family": "streaming-saddle", "dim": 10, "negative_eigenvalue": -1.0, "radius": 1.5},
        algorithm={"mode": "online", "smoothness_order": 2, "eps": 1e-3, "eps_H": 0.1,
                   "overrides": {"U": 500}},
        batch_trials=10,
        fixed_batches=2,
    ),
}


#: the fixed events.csv header; the program's CSV_HEADER must also equal it
CSV_HEADER = ("trial", "u", "event", "grads_cum", "f_value", "grad_norm", "rayleigh", "wall_ms")
SUMMARY_KEYS = {"status", "grads_total", "final_grad_norm", "final_lambda_min"}


class OutputError(Exception):
    """The program wrote a malformed or inconsistent trace."""


def config_doc(workload: Workload, seed: int, batch: int) -> dict:
    """The experiment config of one batch; every input derives from ``seed``."""
    batch_seed = int(np.random.SeedSequence([seed, batch]).generate_state(1)[0])
    return {
        "problem": {**workload.problem, "seed": seed},
        "algorithm": workload.algorithm,
        "trials": workload.batch_trials,
        "seed": batch_seed,
    }


def import_nestvr():
    """Import nestvr from this checkout's ``src``, and nowhere else."""
    if not (SRC / "nestvr" / "__init__.py").is_file():
        raise ImportError(f"no nestvr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nestvr
    from nestvr import driver, epoch, harness, ncfinder

    if Path(nestvr.__file__).resolve().parent != (SRC / "nestvr").resolve():
        raise ImportError(f"nestvr imported from {nestvr.__file__}, not from {SRC}")
    return {"driver": driver, "epoch": epoch, "harness": harness, "ncfinder": ncfinder}


def time_setup(harness, config, min_seconds: float = 0.05) -> list[float]:
    """Times of build_problem + build_driver_config, repeated for at least
    ``min_seconds`` and at least once.  Called before every batch, so that the
    set-up samples span the run as the trial samples do."""
    times: list[float] = []
    while not times or sum(times) < min_seconds:
        t0 = time.perf_counter()
        built = harness.build_problem(config.problem, config.seed)
        harness.build_driver_config(built, config.algorithm)
        times.append(time.perf_counter() - t0)
    return times


def run_batch(harness, doc: dict, out_dir: Path, recorder=None):
    """``nestvr run`` for one config: parse, run the trials, write the trace."""
    span = recorder.span if recorder is not None else (lambda name: nullcontext())
    config = harness.parse_config(doc)
    t0 = time.perf_counter()
    with span("harness.run_experiment"):
        results = harness.run_experiment(config)
    elapsed = time.perf_counter() - t0
    with span("harness.write_trace"):
        harness.write_trace(results, out_dir)
    return config, results, elapsed


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def check_batch(mods, problem, config, results, out_dir: Path):
    """Gate one batch's outputs; return per-trial ok flags, digest bytes, summaries.

    Raises OutputError on a malformed trace.  A trial is ok when it is
    certified and its final point is finite, in the domain, and passes the
    exact classify_point check at (2 eps, 2 eps_H).
    """
    driver = mods["driver"]
    text = (out_dir / "events.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_HEADER or mods["harness"].CSV_HEADER != CSV_HEADER:
        raise OutputError(f"{out_dir}/events.csv: header {rows[:1]} is not {CSV_HEADER}")
    wall = CSV_HEADER.index("wall_ms")
    blanked = io.StringIO()
    writer = csv.writer(blanked)
    last: dict[int, int] = {}
    for row in rows:
        if len(row) != len(CSV_HEADER):
            raise OutputError(f"{out_dir}/events.csv: row {row} has {len(row)} fields")
        writer.writerow(row[:wall] + [""] + row[wall + 1:])
        if row is rows[0]:
            continue
        trial, grads = int(row[0]), int(row[3])
        if grads < last.get(trial, 0):
            raise OutputError(f"{out_dir}/events.csv: grads_cum decreases in trial {trial}")
        last[trial] = grads
    digest = [blanked.getvalue().encode()]

    eps, eps_H = config.algorithm.eps, config.algorithm.eps_H
    radius = problem.smoothness.radius
    ok, summaries = [], []
    for res in results:
        path = out_dir / f"summary_{res.trial:03d}.json"
        raw = path.read_bytes()
        try:
            summary = _strict_json(raw.decode())
        except ValueError as exc:
            raise OutputError(f"{path}: {exc}") from exc
        missing = SUMMARY_KEYS - set(summary)  # later keys are additive by design
        if missing:
            raise OutputError(f"{path}: missing keys {sorted(missing)}")
        if summary["grads_total"] != res.outcome.grads_total or last.get(res.trial) != res.outcome.grads_total:
            raise OutputError(f"{path}: grads_total disagrees with the run and events.csv")
        digest.append(raw)
        summaries.append(summary)
        z = res.outcome.z_final
        finite = bool(np.all(np.isfinite(z)))
        in_domain = not res.outcome.out_of_domain and (
            radius is None or float(np.linalg.norm(z - problem.x0)) <= radius * (1 + 1e-9)
        )
        ok.append(
            summary["status"] == driver.STATUS_CERTIFIED
            and finite
            and in_domain
            and driver.classify_point(problem, z, 2 * eps, 2 * eps_H).is_sosp
        )
    if len(last) != len(results):
        raise OutputError(f"{out_dir}/events.csv: {len(last)} trials for {len(results)} summaries")
    return ok, b"".join(digest), summaries


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


def tail(times: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(times)
    if n < 11:
        return None
    k = n - 11  # sorted index with exactly ten samples above it
    return {"percentile": 100.0 * (k + 1) / n, "value": sorted(times)[k], "samples": n}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": sys.version.split()[0],
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """Run one workload; return correct/attempted/failed, metrics and info.

    Raises ImportError without the program's sources and OutputError on a
    malformed or irreproducible output.
    """
    mods = import_nestvr()
    harness = mods["harness"]
    workload = WORKLOADS[workload_name]
    out.mkdir(parents=True, exist_ok=True)
    first = harness.parse_config(config_doc(workload, seed, 0))
    problem = harness.build_problem(first.problem, first.seed)  # warm-up; the instance checks use
    state = {"attempted": 0, "failed": 0, "digest": hashlib.sha256(), "env": environment()}
    fixed = {"trials": 0, "certified": 0, "ok": 0, "grads": 0, "summaries": []}

    def checked_batch(batch: int, recorder=None):
        """Run and gate one batch; fold its first run into the fixed counts."""
        doc = config_doc(workload, seed, batch)
        batch_dir = out / f"{'traced' if recorder else 'batch'}_{batch:03d}"
        config, results, elapsed = run_batch(harness, doc, batch_dir, recorder)
        ok, batch_digest, summaries = check_batch(mods, problem, config, results, batch_dir)
        written = dir_bytes(batch_dir)
        shutil.rmtree(batch_dir)
        state["attempted"] += len(results)
        state["failed"] += ok.count(False)
        if recorder is None and batch < workload.fixed_batches and batch not in digests:
            digests[batch] = batch_digest
            state["digest"].update(batch_digest)
            fixed["trials"] += len(results)
            fixed["ok"] += ok.count(True)
            fixed["summaries"].extend(summaries)
            for r in results:
                fixed["grads"] += r.outcome.grads_total
                fixed["certified"] += r.outcome.status == mods["driver"].STATUS_CERTIFIED
        elif recorder is None and digests.get(batch, batch_digest) != batch_digest:
            raise OutputError(f"batch {batch}: a repeat with the same config changed the trace")
        return results, batch_digest, elapsed, written

    digests: dict[int, bytes] = {}
    start = time.perf_counter()
    if trace:
        metrics, info = traced_loop(mods, workload, problem, checked_batch, seconds, start, out)
    else:
        metrics, info = timed_loop(harness, workload, first, checked_batch, seconds, start)
        metrics.update({
            "grads_per_cert": fixed["grads"] / max(fixed["certified"], 1),
            "cert_frac": fixed["certified"] / fixed["trials"],
            "ok_frac": fixed["ok"] / fixed["trials"],
        })
    info.update({
        "fixed_trials": fixed["trials"],
        "digest": state["digest"].hexdigest(),
        "summaries": fixed["summaries"],
        "env": state["env"],
    })
    return {"correct": True, "attempted": state["attempted"], "failed": state["failed"],
            "metrics": metrics, "info": info}


def timed_loop(harness, workload: Workload, first, checked_batch, seconds: float, start: float):
    """Repeat the fixed batches round-robin, in whole passes, until ``seconds``
    have passed.

    ``trials_per_s`` is every trial completed over the sum of their times, and
    ``setup_s`` the median of the set-up repeats made before every batch.  On
    a shared host the same code runs up to twice as slow in periods of tens of
    seconds; a rate over the whole run averages them, where the fastest
    repeat of each trial would follow the one fast period a run happened to
    catch (README.md, "Environment and steadiness").
    """
    setup: list[float] = []
    trial_s: list[float] = []
    runs = 0
    while runs == 0 or runs % workload.fixed_batches or time.perf_counter() - start < seconds:
        setup.extend(time_setup(harness, first))
        results, _, _, _ = checked_batch(runs % workload.fixed_batches)
        trial_s.extend(r.outcome.trace.events[-1].wall_ms / 1e3 for r in results)
        runs += 1
    metrics = {
        "setup_s": statistics.median(setup),
        "trials_per_s": len(trial_s) / sum(trial_s),
    }
    info = {
        "batches": runs,
        "passes": runs / workload.fixed_batches,
        "setup_reps": len(setup),
        "setup_s.min": min(setup),
        "trial_samples": len(trial_s),
        "trial_s.p50": statistics.median(trial_s),
        "trial_s.tail": tail(trial_s),
        "trial_s": trial_s,
    }
    return metrics, info


def traced_loop(mods, workload: Workload, problem, checked_batch, seconds: float, start: float, out: Path):
    """Run each fixed batch untraced, then traced, round-robin in whole passes
    until ``seconds`` have passed; the two traces must be identical.  Every
    pass repeats the same trials, so the per-trial counts repeat exactly for a
    seed.  Return the per-layer metrics."""
    recorder = Recorder()
    traced: list = []  # traced trial results, in span trial-id order
    overhead = [0.0, 0.0]  # untraced, traced run_experiment seconds
    written = 0
    runs = 0
    while runs == 0 or runs % workload.fixed_batches or time.perf_counter() - start < seconds:
        batch = runs % workload.fixed_batches
        _, batch_digest, elapsed, _ = checked_batch(batch)
        originals = {(m, a): getattr(mods[m], a) for m, a, _ in MODULE_SITES}
        with recorder.installed(mods):
            traced_results, traced_digest, traced_elapsed, traced_bytes = checked_batch(batch, recorder)
        if any(getattr(mods[m], a) is not f for (m, a), f in originals.items()):
            raise OutputError("a wrapped call site was not restored")
        if traced_digest != batch_digest:
            raise OutputError(f"batch {batch}: tracing changed the trace")
        written += traced_bytes
        traced.extend(traced_results)
        overhead[0] += elapsed
        overhead[1] += traced_elapsed
        runs += 1

    spans = recorder.to_arrays()
    np.savez(out / "spans.npz", **spans)
    trials = [
        {
            "status": r.outcome.status,
            "grads_total": r.outcome.grads_total,
            "outer_iters": sum(ev.kind == "grad-check" for ev in r.outcome.trace.events),
            "nc_steps": sum(ev.kind == "nc-step" for ev in r.outcome.trace.events),
        }
        for r in traced
    ]
    metrics, ledger = summarise(spans, n=problem.n, dim=problem.dim, trials=trials)
    metrics["harness.bytes_written"] = written / len(traced)
    metrics["trace.slowdown"] = overhead[1] / overhead[0]
    metrics["trace.overhead_frac"] = overhead[1] / overhead[0] - 1.0
    (out / "ledger.json").write_text(json.dumps(ledger, indent=1) + "\n")
    bad = [row["trial"] for row in ledger if not row["reconciles"]]
    if bad:
        raise OutputError(f"gradient ledger does not reconcile for traced trials {bad}")
    info = {
        "batches": runs,
        "passes": runs / workload.fixed_batches,
        "ledger": {
            "trials": len(ledger),
            "reconciled": len(ledger) - len(bad),
            "charged": sum(row["charged"] for row in ledger),
            "evaluated": sum(row["evaluated"] for row in ledger),
        },
        "spans": int(len(spans["code"])),
    }
    return metrics, info
