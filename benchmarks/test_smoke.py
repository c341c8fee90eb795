"""Smoke check of the benchmark: one round of every workload, every check.

    python3 -m pytest benchmarks/test_smoke.py -q

Takes about a minute on two cores.  The repository's own test suite does not
collect this file (its testpaths is ``tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
from covers import cyclic_cover  # noqa: E402


def _run(*args) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_every_workload_runs_once_with_no_failed_check():
    result = _run("--workload", "all", "--seconds", "0", "--seed", "3")
    assert result["correct"] and result["failed"] == 0
    for block in result["metrics"].values():
        assert block["error_rate"] == 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_UNITS


@pytest.mark.parametrize("n", [5, 6, 8])
def test_cover_generator_is_seeded_and_free(n):
    tiling, aut = cyclic_cover(n, seed=4)
    assert (tiling, aut) == cyclic_cover(n, seed=4)
    assert tiling != cyclic_cover(n, seed=5)[0]
    perm = {int(k): v for k, v in aut["half_edge_perm"].items()}
    assert sorted(perm) == sorted(perm.values()) == tiling["half_edges"]
    assert all(perm[h] != h for h in perm) and aut["order"] == n


def test_refuses_to_run_without_the_program():
    bare = HERE.parent / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bench = bare / "benchmarks"
    bench.mkdir(parents=True)
    (bare / "BENCHMARK.json").write_bytes(
        (HERE.parent / "BENCHMARK.json").read_bytes())
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                           "count-sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    shutil.rmtree(bare)
    assert done.returncode != 0 and done.stdout == ""
