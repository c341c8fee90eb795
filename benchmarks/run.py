"""tessella benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 benchmarks/run.py --workload count-sweep --seed 1 --seconds 30 --trace 0

``--workload`` is one of count-sweep, pipeline-covers, word-kernel, or
``all`` (every workload in turn, reported under the named metrics of
README.md; ``--seconds 0`` makes that a one-round smoke check).  With
``--trace 0`` each of the workload's five operations is repeated in a closed
loop with one client for about ``--seconds`` seconds and the medians are
reported; CLI workloads run ``tessella`` in subprocesses.  With ``--trace 1``
the operations run once untraced and once traced, in-process, and the
per-layer metrics come from the traced pass.  Every output is checked.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op1_s": "s", "op2_s": "s",
             "op3_s": "s", "op4_s": "s", "op5_s": "s"}


def _program_present() -> bool:
    return (ROOT / "src" / "tessella" / "cli.py").is_file()


# -- untraced runs -----------------------------------------------------------------


class SetupCall:
    """A fresh process that only gets ready to work."""

    def __init__(self, argv):
        self.argv = argv

    def run(self, cwd: Path, in_process: bool):
        import workloads as wl
        try:
            return subprocess.run(self.argv, cwd=cwd, env=wl.child_env(1),
                                  capture_output=True,
                                  timeout=wl.CALL_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return None

    def verify(self, rc) -> tuple[int, list]:
        return 1, [] if rc == 0 else [f"set-up process {self.argv}: {rc}"]


def measure_setup(workload: str, work: Path, tally: dict) -> float:
    """Median probe-scaled wall time of a fresh process that gets ready to
    work: for CLI workloads ``tessella --version``; for word-kernel, import
    plus building the bundled orbit context."""
    import workloads as wl
    if workload in wl.CLI_WORKLOADS:
        argv = [sys.executable, "-m", "tessella.cli", "--version"]
    else:
        argv = [sys.executable, "-c", "import sys; sys.path.insert(0, "
                "sys.argv[1]); import workloads; workloads.bundled_context()",
                str(HERE)]
    setup = wl.Op("setup_s", "setup", [SetupCall(argv)] * SETUP_REPEATS)
    return statistics.median(run_op(setup, work, False, tally, paced=True))


def run_op(op, work: Path, in_process: bool, tally: dict,
           paced: bool = False, calls=None) -> list:
    """Time each call of one operation (or the given ``calls`` of it), then
    check every output.

    When ``paced``, the machine probe runs before the first call and after
    every call, and each call's time is scaled to the reference probe time
    by the mean probe time around it.  Subprocess calls last seconds, so
    they take the median of three probes on each side."""
    times, outputs = [], []
    calls = op.calls if calls is None else calls
    repeats = 1 if in_process else 3

    def speed():
        return statistics.median(probe.machine_probe()
                                 for _ in range(repeats))

    before = speed() if paced else None
    for call in calls:
        gc.collect()
        t0 = time.perf_counter()
        outputs.append(call.run(work, in_process))
        elapsed = time.perf_counter() - t0
        if paced:
            after = speed()
            elapsed *= probe.REFERENCE_S / ((before + after) / 2)
            before = after
        times.append(elapsed)
    for call, out in zip(calls, outputs):
        items, problems = call.verify(out)
        tally["attempted"] += items
        tally["failed"] += len(problems)
        tally["problems"].extend(problems)
    return times


def prepare(workload: str, seed: int, work: Path):
    import workloads as wl
    ops = wl.WORKLOADS[workload](seed, work)
    # the inputs live for the whole run: keep them out of the collector's
    # full passes, which would otherwise charge their size to the program
    gc.collect()
    gc.freeze()
    return ops


def untraced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """Closed loop, one client.  Each round runs every call of each plain
    operation and the next batch of each batched one, so a round is short
    and batches of all operations interleave.  Rounds go on for about
    ``seconds``, and at least until every batch has run once."""
    import workloads as wl
    tally = {"attempted": 0, "failed": 0, "problems": []}
    setup_s = measure_setup(workload, work, tally)
    ops = prepare(workload, seed, work)
    in_process = workload not in wl.CLI_WORKLOADS
    full = max(len(op.calls) if op.batched else 1 for op in ops)
    samples = {op.slot: [] for op in ops}
    start = time.perf_counter()
    rounds = 0
    while True:
        t0 = time.perf_counter()
        for op in ops:
            calls = ([op.calls[rounds % len(op.calls)]] if op.batched
                     else op.calls)
            times = run_op(op, work, in_process, tally, True, calls)
            samples[op.slot].extend(times if op.batched else [sum(times)])
        rounds += 1
        spent = time.perf_counter() - start
        if rounds >= full and spent + (time.perf_counter() - t0) > seconds:
            break
    metrics = {"setup_s": setup_s}
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    for op in ops:
        med = statistics.median(samples[op.slot])
        metrics[op.slot] = med * len(op.calls) if op.batched else med
    named = {name: sum(metrics[s] for s in slots)
             for name, slots in wl.NAMED_METRICS[workload].items()}
    labels = {op.slot: op.name for op in ops}
    return {"tally": tally, "rounds": rounds, "metrics": metrics,
            "named": named, "labels": labels}


# -- traced runs -------------------------------------------------------------------


def traced(workload: str, seed: int, work: Path) -> dict:
    import layers
    from tracer import Tracer
    import_ms = layers.import_cli_ms()
    tally = {"attempted": 0, "failed": 0, "problems": []}
    ops = prepare(workload, seed, work)
    # untraced, traced, untraced, each paced by the machine probe; the
    # faster untraced pass is the reference, so that a slow first pass (cold
    # caches) does not hide the tracing cost
    def one_pass():
        return sum(sum(run_op(op, work, True, tally, paced=True))
                   for op in ops)

    before = one_pass()
    tracer = Tracer()
    tracer.install(layers.SPECS)
    try:
        traced_s = one_pass()
    finally:
        tracer.uninstall()
    untraced_s = min(before, one_pass())
    spans = tracer.spans()
    tracer.save(work.parent / f"trace-{workload}.npz", spans)
    metrics = layers.layer_metrics(tracer.names, tracer.tags, spans)
    metrics["cli.import_ms"] = import_ms
    metrics["trace_overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return {"tally": tally, "rounds": 1, "metrics": metrics,
            "untraced_s": untraced_s, "traced_s": traced_s}


# -- reporting ---------------------------------------------------------------------


def run_one(workload: str, args) -> dict:
    work = (ROOT / ".bench_work" / workload).resolve()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            return traced(workload, args.seed, work)
        return untraced(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process, reported under its named metrics,
    so that peak memory and imports are per workload."""
    import workloads as wl
    attempted = failed = 0
    metrics = {}
    for name in wl.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited {done.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if not args.trace:
            values = {**{named: sum(values[s] for s in slots)
                         for named, slots in wl.NAMED_METRICS[name].items()},
                      "setup_s": values["setup_s"],
                      "peak_rss_mb": values["peak_rss_mb"]}
        values["error_rate"] = result["failed"] / result["attempted"]
        metrics[name] = values
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("count-sweep", "pipeline-covers",
                                 "word-kernel", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _program_present():
        print(f"error: no tessella sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    import workloads as wl
    if not args.trace:
        # one CPU for the runner and its single-threaded children, so that
        # each probe sees the CPU the timed call ran on
        os.sched_setaffinity(0, {min(wl.ALL_CPUS)})
    import layers

    name = args.workload
    res = run_one(name, args)
    tally = res["tally"]
    for problem in tally["problems"][:20]:
        print(f"[{name}] FAILED {problem}", file=sys.stderr)
    print(f"[{name}] seed {args.seed}, {res['rounds']} round(s), "
          f"{tally['attempted']} checked, {tally['failed']} failed, "
          f"error_rate {tally['failed'] / max(tally['attempted'], 1):g}")
    units = layers.LAYER_UNITS if args.trace else E2E_UNITS
    for key, value in res["metrics"].items():
        label = res.get("labels", {}).get(key, "")
        print(f"[{name}]   {key:<58} {value:>14.6f} {units[key]:<8} {label}")
    for key, value in res.get("named", {}).items():
        print(f"[{name}]   {key:<58} {value:>14.6f} s")
    metrics = {k: {"value": v, "unit": units[k]}
               for k, v in res["metrics"].items()}
    print(json.dumps({"correct": tally["failed"] == 0,
                      "attempted": max(tally["attempted"], 1),
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
