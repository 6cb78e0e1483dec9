"""Bit identity of whole runs: one short experiment per family, and one whose
curvature probes search a row subsample, run the way ``nestvr run`` runs it
(parse_config, run_experiment, write_trace) and hashed with the wall-clock
column blanked.

Any change to an oracle call's arguments or order, a random draw, a float
operation or a charge moves a digest.  A change that means to do so updates
the pin and says why in CHANGES.md.  The pins were taken with numpy 2.4 and
its bundled OpenBLAS on x86-64; a numpy or BLAS that rounds differently
moves them too.
"""

import csv
import hashlib
import io

import pytest

from nestvr.harness import CSV_HEADER, parse_config, run_experiment, write_trace

ALGORITHM = {"smoothness_order": 2, "eps": 1e-3, "eps_H": 0.1, "overrides": {"U": 400}}

# run -> (problem, algorithm, SHA-256 of the blanked events.csv and the summaries)
RUNS = {
    "saddle": (
        {"family": "saddle", "dim": 10, "n": 256, "negative_eigenvalue": -1.0, "radius": 1.5},
        ALGORITHM,
        "bf535e0b0905a4a11dd96afafe31754e36c184e85c92196d272cf0ebd2c0c6c8",
    ),
    "regularized": (
        {"family": "regularized", "dim": 20, "n": 400},
        ALGORITHM,
        "1993a985c5b569c4b255c0cd8960aa233b6b0a603d609faeffe9be7292ed0778",
    ),
    "streaming-saddle": (
        {"family": "streaming-saddle", "dim": 10, "negative_eigenvalue": -1.0, "radius": 1.5},
        ALGORITHM,
        "37b1b51a5ced5afe49ea9f87931979477723ed0f7c55de4c17cdd05c3394dd65",
    ),
    # the one pin whose curvature probes run on a row subsample (1635 of
    # 3000 rows, three blocks) and whose level-3 batches read 1125 rows
    "regularized-subsampled": (
        {"family": "regularized", "dim": 60, "n": 3000},
        {"smoothness_order": 2, "eps": 3e-3, "eps_H": 0.3, "overrides": {"U": 400}},
        "f4c4f874bd63f5eb3939a4c9c3480cfc130168fa671d229b43c30ec9f7f8d1a6",
    ),
}


def trace_digest(problem, algorithm, out_dir):
    """SHA-256 of a two-trial run's events.csv, its wall_ms column blanked,
    followed by its summaries in trial order."""
    config = parse_config({"problem": {**problem, "seed": 3}, "algorithm": algorithm, "trials": 2, "seed": 11})
    results = run_experiment(config)
    events = write_trace(results, out_dir)
    wall = CSV_HEADER.index("wall_ms")
    blanked = io.StringIO()
    writer = csv.writer(blanked)
    with events.open(newline="") as fh:
        for row in csv.reader(fh):
            writer.writerow(row[:wall] + [""] + row[wall + 1 :])
    digest = hashlib.sha256(blanked.getvalue().encode())
    for res in results:
        digest.update((out_dir / f"summary_{res.trial:03d}.json").read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("run", list(RUNS))
def test_trace_is_pinned(run, tmp_path):
    problem, algorithm, pin = RUNS[run]
    assert trace_digest(problem, algorithm, tmp_path) == pin
