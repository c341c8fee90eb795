"""The three benchmark workloads and the correctness check of every operation.

Each workload is a list of five timed operations, one per end-to-end slot
``op1_s`` .. ``op5_s`` (README.md maps each slot to its named metric).  An
operation is a list of calls.  A CLI call runs ``tessella`` in a subprocess
for the end-to-end numbers and through ``tessella.cli.main`` in-process for
the traced run; a library call always runs in-process.  Every call's output
is checked; each failed check is one failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
CALL_TIMEOUT_S = 150

COVER_ORDERS = (6, 8, 10)
SAMPLE_SIZE = 150_000
XI_PATH_LENGTH = 6
XI_BATCHES = 20
DEHN_WORDS_PER_GENUS = 3000
DEHN_BATCHES = 8
CRIT_POINTS = 300
CRIT_BATCHES = 6

# The 12 single-subcommand calls on bundled defaults (pipeline is timed on
# its own); golden/ holds the stdout of each.
BUNDLED_CALLS = (
    ("dual",), ("refine",), ("dimer",), ("choose-xi",), ("transport",),
    ("derive",), ("gdga-check",), ("verify-eq31",), ("psi-verify",),
    ("check-script",), ("count", "--q", "3", "--d", "1"), ("probe", "--q", "3"),
)
COUNT_CALLS = {  # golden name -> argv
    "count_q11_d1": ("count", "--q", "11", "--d", "1"),
    "count_q2_d2": ("count", "--q", "2", "--d", "2"),
    "probe_q11": ("probe", "--q", "11"),
}
BUNDLED_PIPELINE = {"phi_star": "genus2_phi_star.json",
                    "script": "genus2_derivation.json", "psi_mode": "dehn",
                    "field_sizes": [2], "dimension": 1,
                    "output_dir": "bundled_out"}


# Taken at import, before the runner pins itself to one CPU.
ALL_CPUS = frozenset(os.sched_getaffinity(0))


def nproc() -> int:
    return len(ALL_CPUS)


def golden_name(argv) -> str:
    return "_".join(a.lstrip("-") for a in argv)


def golden(name: str) -> bytes:
    return (GOLDEN / f"{name}.out").read_bytes()


def child_env(threads: int) -> dict:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH"))
                           if p)
    return dict(os.environ, PYTHONPATH=path, TESSELLA_THREADS=str(threads))


# -- calls ---------------------------------------------------------------------


class CliCall:
    """One ``tessella`` invocation; ``check(rc, stdout)`` lists problems."""

    def __init__(self, argv, check, threads: int = 1):
        self.argv = [str(a) for a in argv]
        self.check = check
        self.threads = threads

    def run(self, cwd: Path, in_process: bool):
        if not in_process:
            try:
                done = subprocess.run(
                    [sys.executable, "-m", "tessella.cli", *self.argv],
                    cwd=cwd, env=child_env(self.threads), capture_output=True,
                    timeout=CALL_TIMEOUT_S, preexec_fn=self._cpus)
            except subprocess.TimeoutExpired:
                return None, b""
            return done.returncode, done.stdout
        from tessella import cli
        saved = os.environ.get("TESSELLA_THREADS")
        os.environ["TESSELLA_THREADS"] = str(self.threads)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(self.argv)
        finally:
            if saved is None:
                del os.environ["TESSELLA_THREADS"]
            else:
                os.environ["TESSELLA_THREADS"] = saved
        return rc, out.getvalue().encode()

    def _cpus(self) -> None:
        """A multi-threaded call may use every CPU the runner was given."""
        if self.threads > 1:
            os.sched_setaffinity(0, ALL_CPUS)

    def verify(self, output) -> tuple[int, list]:
        rc, stdout = output
        if rc is None:
            return 1, [f"{self.argv}: timed out after {CALL_TIMEOUT_S}s"]
        try:
            problems = self.check(rc, stdout)
        except (ValueError, KeyError, OSError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        return 1, [f"{' '.join(self.argv)}: {p}" for p in problems]


class LibCall:
    """An in-process batch; ``check(result)`` gives (items, problems)."""

    def __init__(self, fn, check):
        self.fn = fn
        self.check = check

    def run(self, cwd: Path, in_process: bool):
        return self.fn()

    def verify(self, output) -> tuple[int, list]:
        return self.check(output)


class Op:
    """A timed operation.  Its time is the sum of its calls, or, when the
    calls are equal seeded batches of one job, the number of batches times
    the median batch time."""

    def __init__(self, slot: str, name: str, calls: list,
                 batched: bool = False):
        self.slot, self.name, self.calls = slot, name, calls
        self.batched = batched


def expect_bytes(expected: bytes):
    def check(rc, stdout):
        problems = [] if rc == 0 else [f"exit {rc}"]
        if stdout != expected:
            problems.append("stdout differs from the golden output")
        return problems
    return check


# -- count-sweep -----------------------------------------------------------------


def count_sweep(seed: int, work: Path) -> list:
    """Counting through the CLI: d=1 on one thread and on nproc threads,
    d=2, a seeded sample and the d=1 probe."""
    def sample_check(rc, stdout):
        if rc != 0:
            return [f"exit {rc}"]
        rep = json.loads(stdout)
        hist = sum(rep["histogram"].values())
        problems = []
        if (rep["mode"], rep["q"], rep["seed"]) != ("sample", 17, seed):
            problems.append("wrong mode, field or seed echoed")
        if not hist == rep["total"] == SAMPLE_SIZE:
            problems.append(f"histogram sums to {hist}, total {rep['total']}"
                            f", sample size {SAMPLE_SIZE}")
        if not 0 <= rep["critical"] <= SAMPLE_SIZE:
            problems.append("critical count out of range")
        return problems

    def golden_call(name, threads=1):
        return CliCall(COUNT_CALLS[name], expect_bytes(golden(name)), threads)

    sample = ("count", "--q", "17", "--mode", "sample", "--sample-size",
              SAMPLE_SIZE, "--seed", seed)
    return [Op("op1_s", "count_d1_s", [golden_call("count_q11_d1")]),
            Op("op2_s", "count_parallel_s",
               [golden_call("count_q11_d1", nproc())]),
            Op("op3_s", "count_d2_s", [golden_call("count_q2_d2")]),
            Op("op4_s", "sample_s", [CliCall(sample, sample_check)]),
            Op("op5_s", "probe_s", [golden_call("probe_q11")])]


# -- pipeline-covers ---------------------------------------------------------------


def _artifact_digests(outdir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.name != "timings.json"}


def _cover_problems(outdir: Path, n: int) -> list:
    report = json.loads((outdir / "report.json").read_text())
    problems = [f"stage {s['name']} {s['status']}: {s['detail']}"
                for s in report["stages"] if s["status"] != "ok"]
    if problems:
        return problems
    qpot = json.loads((outdir / "orbit_qpot.json").read_text())
    if not (qpot["homogeneous"] and qpot["degree"] == n):
        problems.append(f"orbit potential not homogeneous of degree {n}")
    verify = json.loads((outdir / "verify.json").read_text())
    problems += [f"verify group {k} failed" for k, v in verify.items()
                 if not v["ok"]]
    return problems


def write_cover(n: int, seed: int, work: Path) -> Path:
    from covers import cyclic_cover
    tiling, aut = cyclic_cover(n, seed)
    d = work / f"cover{n}"
    d.mkdir(parents=True, exist_ok=True)
    (d / "tiling.json").write_text(json.dumps(tiling))
    (d / "automorphism.json").write_text(json.dumps(aut))
    config = {"tiling": "tiling.json", "automorphism": "automorphism.json",
              "field_sizes": [2], "dimension": 1, "output_dir": "out"}
    (d / "config.json").write_text(json.dumps(config))
    return d


def write_bundled_pipeline(work: Path) -> Path:
    d = work / "bundled"
    d.mkdir(parents=True, exist_ok=True)
    data = SRC / "tessella" / "data"
    for name in (BUNDLED_PIPELINE["phi_star"], BUNDLED_PIPELINE["script"]):
        shutil.copyfile(data / name, d / name)
    (d / "config.json").write_text(json.dumps(BUNDLED_PIPELINE))
    return d


def pipeline_covers(seed: int, work: Path) -> list:
    """The symbolic chain end to end: seeded torus covers (choice search
    dominates), the bundled genus-2 run in Dehn mode with the derivation
    script, and the 12 other subcommands on bundled defaults."""
    ops = []
    for slot, n in zip(("op1_s", "op2_s", "op3_s"), COVER_ORDERS):
        d = write_cover(n, seed, work)
        reference: dict = {}

        def check(rc, stdout, d=d, n=n, reference=reference):
            if rc != 0:
                return [f"exit {rc}"]
            problems = _cover_problems(d / "out", n)
            digests = _artifact_digests(d / "out")
            if reference.setdefault("digests", digests) != digests:
                problems.append("artifacts differ between two runs")
            return problems

        ops.append(Op(slot, f"cover_pipeline_n{n}_s",
                      [CliCall(("pipeline", "--config", d / "config.json"),
                               check)]))
    bundled = write_bundled_pipeline(work)

    def bundled_check(rc, stdout, d=bundled):
        problems = [] if rc == 0 else [f"exit {rc}"]
        expected = golden("pipeline_bundled")
        report = (d / "bundled_out" / "report.json").read_bytes()
        for label, got in (("stdout", stdout), ("report.json", report)):
            if got.replace(str(d).encode(), b"$WORK") != expected:
                problems.append(f"{label} differs from the golden report")
        return problems

    ops.append(Op("op4_s", "pipeline_s",
                  [CliCall(("pipeline", "--config", bundled / "config.json"),
                           bundled_check)]))
    ops.append(Op("op5_s", "cli_calls_s",
                  [CliCall(argv, expect_bytes(golden(golden_name(argv))))
                   for argv in BUNDLED_CALLS]))
    # one untimed reference run of each cover, whose artifacts every timed
    # run must reproduce byte for byte
    for op in ops[:len(COVER_ORDERS)]:
        call = op.calls[0]
        call.verify(call.run(work, in_process=False))
    return ops


# -- word-kernel -------------------------------------------------------------------


def bundled_context():
    """The bundled orbit context with the canonical a..e / r choice the CLI
    emits, built through the public library API: (ctx, W, W')."""
    from tessella.datafiles import load_data
    from tessella.equivariant import (OrbitChoice, build_orbit_quiver,
                                      equivariant_dimer,
                                      induced_quiver_automorphism,
                                      refine_tiling,
                                      tiling_automorphism_from_json,
                                      transport_potential)
    from tessella.surfacemap import dual_quiver, tiling_from_json

    tiling = tiling_from_json(load_data("genus2_tiling.json"))
    taut = tiling_automorphism_from_json(
        tiling, load_data("genus2_automorphism.json"))
    tiling, taut = refine_tiling(tiling, taut)
    tiling, taut, _ = equivariant_dimer(tiling, taut)
    quiver, W = dual_quiver(tiling)
    phi = induced_quiver_automorphism(tiling, taut, quiver)
    choice = OrbitChoice("abcde", {1: 2}, require_common_source=True)
    ctx = build_orbit_quiver(quiver, phi, choice)
    return ctx, W, transport_potential(W, ctx).potential


def base_paths(quiver, n: int) -> list:
    """Every nonconstant path of length <= n (as in acceptance criterion 05)."""
    frontier = [quiver.word([], at=v) for v in quiver.vertices]
    out = []
    for _ in range(n):
        frontier = [quiver.word(list(w.letters) + [(a, 1)])
                    for w in frontier for a in quiver.arrow_ids()
                    if quiver.target(a) == w.source]
        out.extend(frontier)
    return out


def dehn_batch(genus: int, count: int, rng: random.Random) -> tuple:
    """Half conjugate products u R^{+-1} u^-1 v R^{+-1} v^-1 (trivial), half
    random words of length 24.  The seed draws letters, never lengths, so
    that one seed's batch costs what another's does."""
    from tessella.presentation import SurfacePresentation, invert_letters
    pres = SurfacePresentation(genus)
    signed = [(g, e) for g in pres.generators for e in (1, -1)]
    words, trivial = [], []
    for i in range(count):
        if i % 2 == 0:
            word = []
            for _ in range(2):
                u = tuple(rng.choice(signed) for _ in range(4))
                core = pres.relator if rng.random() < 0.5 else \
                    invert_letters(pres.relator)
                word.extend(u + core + invert_letters(u))
        else:
            word = [rng.choice(signed) for _ in range(24)]
        words.append(tuple(word))
        trivial.append(i % 2 == 0)
    return pres, words, trivial


def dehn_problems(pres, words, trivial, reduced) -> list:
    """Conjugate products must reduce to (); every output must be freely
    reduced and hold no more than half of any rotation of R^{+-1}."""
    rel = pres.relator
    inv = tuple((a, -e) for a, e in reversed(rel))
    half = len(rel) // 2
    pieces = {(c + c)[i:i + half + 1] for c in (rel, inv)
              for i in range(len(c))}
    problems = []
    for w, triv, out in zip(words, trivial, reduced):
        if triv and out != ():
            problems.append(f"trivial word reduced to {out}")
        elif any(out[i][0] == out[i + 1][0] and out[i][1] == -out[i + 1][1]
                 for i in range(len(out) - 1)):
            problems.append(f"{w} reduced to a word that is not freely reduced")
        elif any(out[i:i + half + 1] in pieces
                 for i in range(len(out) - half)):
            problems.append(f"{w} reduced to a word holding half a relator")
    return problems


def crit_points(quiver, W, count: int, rng: random.Random) -> tuple:
    """``count`` seeded d=2, q=2 points and their verdicts from an
    independent numpy evaluation of the trace gradient (criterion 07).

    Half the points are critical and half not where the draws allow; for the
    bundled potential every point over F_2 is critical, because each term
    with an odd coefficient is a square.
    """
    import itertools

    import numpy as np

    arrows = quiver.arrow_ids()
    pools = {}
    for a in arrows:
        mats = [np.array(m, dtype=np.int64).reshape(2, 2)
                for m in itertools.product(range(2), repeat=4)]
        if quiver.is_localized(a):
            mats = [m for m in mats
                    if (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) % 2 == 1]
        pools[a] = np.stack(mats)
    nprng = np.random.default_rng(rng.randrange(2 ** 32))
    draws = 20 * count
    mats = {a: pools[a][nprng.integers(len(pools[a]), size=draws)]
            for a in arrows}

    def word_value(cyc):
        out = mats[cyc[0][0]]
        for a, e in cyc[1:]:
            if e != 1:
                raise ValueError("the oracle handles inverse-free terms only")
            out = np.matmul(out, mats[a]) % 2
        return out

    grads = {a: np.zeros((draws, 2, 2), dtype=np.int64) for a in arrows}
    for coeff, cyc in W.terms():
        c = int(coeff) % 2
        for i, (a, _) in enumerate(cyc):
            if c:
                rest = cyc[i + 1:] + cyc[:i]
                grads[a] = (grads[a] + c * word_value(rest)
                            .transpose(0, 2, 1)) % 2
    flat = np.ones(draws, dtype=bool)
    for a in arrows:
        flat &= (grads[a] == 0).all(axis=(1, 2))
    crit, other = np.flatnonzero(flat), np.flatnonzero(~flat)
    n_other = min(len(other), count - min(count // 2, len(crit)))
    chosen = ([int(k) for k in crit[:count - n_other]]
              + [int(k) for k in other[:n_other]])
    points = [{a: tuple(tuple(int(v) for v in row) for row in mats[a][k])
               for a in arrows} for k in chosen]
    return points, [bool(flat[k]) for k in chosen]


def _split(items: list, parts: int) -> list:
    """Contiguous equal chunks: every chunk of an alternating list holds
    both kinds in equal shares."""
    size = -(-len(items) // parts)
    return [items[i:i + size] for i in range(0, len(items), size)]


def word_kernel(seed: int, work: Path) -> list:
    """Library batches behind acceptance criteria 05, 07 and 10: the xi
    round trip over every base path up to length 6, seeded Dehn words at
    genus 2 and 3, and crit_check on seeded d=2, q=2 points.  Each operation
    runs as equal seeded batches, so that one round gives several samples."""
    # Layer functions are looked up on their modules at call time, so that
    # the traced run sees the wrappers it installs there.
    from tessella import equivariant, presentation, repcount
    from tessella.pathalg import Quiver

    rng = random.Random(seed)
    ctx, _, Wp = bundled_context()
    n = ctx.phi.order
    paths = base_paths(ctx.base, XI_PATH_LENGTH)
    rng.shuffle(paths)
    embedded: dict = {}

    def xi_calls(batch_no, batch):
        def embed():
            embedded[batch_no] = [equivariant.xi_embed(p, ctx) for p in batch]
            return embedded[batch_no]

        def embed_check(words):
            return len(batch), [f"xi({p}) has degree not divisible by {n}"
                                for p, w in zip(batch, words)
                                if ctx.word_degree(w) % n != 0]

        def factor():
            return [equivariant.factor_word(w, ctx)
                    for w in embedded[batch_no]]

        def factor_check(factored):
            return len(batch), [f"round trip of {p} gave {back}, iso {iso}"
                                for p, (iso, back) in zip(batch, factored)
                                if not (iso.is_constant and back == p)]

        return LibCall(embed, embed_check), LibCall(factor, factor_check)

    xi = [xi_calls(i, b) for i, b in enumerate(_split(paths, XI_BATCHES))]

    def dehn_calls(genus):
        pres, words, trivial = dehn_batch(genus, DEHN_WORDS_PER_GENUS, rng)
        calls = []
        for batch in _split(list(zip(words, trivial)), DEHN_BATCHES):
            ws, ts = [w for w, _ in batch], [t for _, t in batch]
            calls.append(LibCall(
                lambda ws=ws: [presentation.dehn_reduce(w, pres) for w in ws],
                lambda out, ws=ws, ts=ts: (
                    len(ws), dehn_problems(pres, ws, ts, out))))
        return calls

    flipped = [a for a in ctx.quiver.arrow_ids()
               if not ctx.quiver.is_localized(a)]
    counting = Quiver(ctx.quiver.vertices, ctx.quiver.arrows,
                      localized=flipped)
    points = list(zip(*crit_points(counting, Wp, CRIT_POINTS, rng)))
    rng.shuffle(points)
    crit = []
    for batch in _split(points, CRIT_BATCHES):
        reps = [repcount.MatrixRep(counting, 2, 2, p) for p, _ in batch]
        crit.append(LibCall(
            lambda reps=reps: [repcount.crit_check(r, counting, Wp)
                               for r in reps],
            lambda out, batch=batch: (len(batch), [
                f"crit_check disagrees with the numpy oracle at {p}"
                for (p, want), got in zip(batch, out) if got != want])))

    return [Op("op1_s", "xi_embed_s", [e for e, _ in xi], batched=True),
            Op("op2_s", "factor_word_s", [f for _, f in xi], batched=True),
            Op("op3_s", "dehn_genus2_s", dehn_calls(2), batched=True),
            Op("op4_s", "dehn_genus3_s", dehn_calls(3), batched=True),
            Op("op5_s", "crit_oracle_s", crit, batched=True)]


WORKLOADS = {"count-sweep": count_sweep, "pipeline-covers": pipeline_covers,
             "word-kernel": word_kernel}
CLI_WORKLOADS = ("count-sweep", "pipeline-covers")

# The named metrics each workload reports, built from its slots.
NAMED_METRICS = {
    "count-sweep": {"count_d1_s": ["op1_s"], "count_parallel_s": ["op2_s"],
                    "count_d2_s": ["op3_s"], "sample_s": ["op4_s"],
                    "probe_s": ["op5_s"]},
    "pipeline-covers": {"cover_pipeline_s": ["op1_s", "op2_s", "op3_s"],
                        "pipeline_s": ["op4_s"], "cli_calls_s": ["op5_s"]},
    "word-kernel": {"xi_roundtrip_s": ["op1_s", "op2_s"],
                    "dehn_s": ["op3_s", "op4_s"], "crit_oracle_s": ["op5_s"]},
}
