"""Reproduce the genus-2 cover gap recorded in README.md.

    python3 benchmarks/genus2_gap.py [--timeout 60]

Cyclic covers of the bundled genus-2 tiling are not in the benchmark: the
pipeline does not finish them with exit 0.  This script builds them with the
benchmark's own generator and runs ``tessella pipeline`` on each, printing
the exit code (or the timeout) and the stage that stopped the run:

* 24 double covers with seeded random Z/2 voltages;
* for every perfect matching of the tiling, the 3- and 4-fold covers with
  voltage 1 on the matching's edges and 0 elsewhere ("one-matching").
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from covers import cyclic_cover  # noqa: E402
from workloads import child_env  # noqa: E402

from tessella.datafiles import load_data  # noqa: E402
from tessella.equivariant import all_dimers  # noqa: E402
from tessella.surfacemap import tiling_from_json  # noqa: E402


def run_cover(label: str, n: int, voltages, work: Path, timeout: float):
    base = load_data("genus2_tiling.json")
    tiling, aut = cyclic_cover(n, 0, base=base, voltages=voltages, genus=None)
    d = work / label
    d.mkdir(parents=True)
    (d / "tiling.json").write_text(json.dumps(tiling))
    (d / "automorphism.json").write_text(json.dumps(aut))
    (d / "config.json").write_text(json.dumps(
        {"tiling": "tiling.json", "automorphism": "automorphism.json",
         "field_sizes": [2], "output_dir": "out"}))
    try:
        done = subprocess.run([sys.executable, "-m", "tessella.cli", "pipeline",
                               "--config", str(d / "config.json")],
                              env=child_env(1), capture_output=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"{label}: no result within {timeout:g}s"
    stopped = [s for s in json.loads(done.stdout)["stages"]
               if s["status"] == "failed"] if done.stdout else []
    where = f"{stopped[0]['name']}: {stopped[0]['detail'][:90]}" \
        if stopped else "all stages ok"
    return f"{label}: exit {done.returncode} ({where})"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--timeout", type=float, default=60.0)
    args = parser.parse_args()
    work = HERE.parent / ".bench_work" / "genus2_gap"
    shutil.rmtree(work, ignore_errors=True)
    base = load_data("genus2_tiling.json")
    edges = [tuple(e) for e in base["involution"]]
    rng = random.Random(0)
    for i in range(24):
        volts = [rng.randrange(2) for _ in edges]
        print(run_cover(f"random-n2-{i:02d}", 2, volts, work, args.timeout),
              flush=True)
    matchings = all_dimers(tiling_from_json(base))
    for j, m in enumerate(sorted(matchings, key=sorted)):
        chosen = {frozenset(e) for e in m}
        volts = [int(frozenset(e) in chosen) for e in edges]
        for n in (3, 4):
            print(run_cover(f"matching{j}-n{n}", n, volts, work, args.timeout),
                  flush=True)
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
