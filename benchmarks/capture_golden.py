"""Capture the golden outputs the benchmark compares against.

    python3 benchmarks/capture_golden.py

Runs every bundled-input call of the benchmark once at the current commit
and writes its stdout to ``benchmarks/golden/<name>.out``.  The files in the
repository were captured at the commit that introduced the benchmark; run
this again only when a change is meant to alter the CLI's bytes.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as wl  # noqa: E402


def main() -> int:
    wl.GOLDEN.mkdir(exist_ok=True)
    work = (HERE.parent / ".bench_work" / "golden").resolve()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    calls = {name: argv for name, argv in wl.COUNT_CALLS.items()}
    calls.update({wl.golden_name(argv): argv for argv in wl.BUNDLED_CALLS})
    bundled = wl.write_bundled_pipeline(work)
    calls["pipeline_bundled"] = ("pipeline", "--config",
                                 bundled / "config.json")
    for name, argv in calls.items():
        rc, stdout = wl.CliCall(argv, None).run(work, in_process=False)
        if rc != 0:
            print(f"error: {name} exited {rc}", file=sys.stderr)
            return 1
        stdout = stdout.replace(str(bundled).encode(), b"$WORK")
        (wl.GOLDEN / f"{name}.out").write_bytes(stdout)
        print(f"{name}: {len(stdout)} bytes")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
