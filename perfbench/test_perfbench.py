"""The benchmark's own test.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs the benchmark as the harness does, with a one-second budget, so each
run makes each of its workload's fixed batches once.
"""

import json
from pathlib import Path
import shutil
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def result_and_record(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = bench(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / f"{workload}-trace{trace}" / "result.json").read_text())
    return result, record


def test_same_seed_repeats_digest_and_counts():
    first, first_record = result_and_record("saddle-d10", 5, 0)
    second, second_record = result_and_record("saddle-d10", 5, 0)
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert first_record["info"]["digest"] == second_record["info"]["digest"]
    for name in ("grads_per_cert", "cert_frac", "ok_frac"):
        assert first["metrics"][name] == second["metrics"][name]


def test_traced_run_reconciles_and_reports_every_layer_metric():
    result, record = result_and_record("saddle-d10", 5, 1)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    ledger = record["info"]["ledger"]
    assert ledger["trials"] > 0 and ledger["reconciled"] == ledger["trials"]
    assert ledger["evaluated"] < ledger["charged"]  # zero-level refreshes are charged only


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, "saddle-d10", 5, 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
