"""The counting sweep against fixed outputs and against per-point walks.

``enumerate_reps`` and ``conjecture_probe_d1`` share one block/slice
sweep, which in exhaustive mode walks one gauge slice of the space; an
exhaustive d = 1 count or probe within the monomial budget takes the
monomial route instead.  These tests pin seeded sample reports to values
recorded before the sweep was introduced, and an exhaustive and a sampled
q = 17 report to the bytes the unreduced sweep and the per-draw
``randrange`` loop printed; hold the bulk index draws to that loop, draw
for draw; hold every batch count, on both routes, to a walk over
``iter_reps`` with the per-point evaluators on generated quivers and
potentials (inverse letters included), and to the same sweep with no gauge
tree; check that block size, slice size, the monomial budget and a
leftover ``TESSELLA_THREADS`` never change a result or an error, that
omega strata which are not gauge invariant get no tree, and test the
exhaustive and int64 guards at their edges.  The sweep's entry pools, an
inverse letter's included, are held to the tuple pools and checked to be
the only pools a sweep builds, d = 3 samples to the per-point evaluators at
their draws, and potentials whose derivatives vanish mod q for some
arrows to the walk; d = 2 counts with critical loci that are neither
empty nor everything are pinned to the bytes of the (n, d, d) layout.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from functools import partial
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tessella.matrixrep as matrixrep
import tessella.repcount as repcount
import tessella.sweep as sweep
from conftest import cyclic_cover
from tessella import cli
from tessella.datafiles import load_data
from tessella.equivariant import tiling_automorphism_to_json
from tessella.pathalg import (
    Element,
    InverseOfNonLocalized,
    NonComposable,
    Potential,
    Quiver,
    _is_prime,
    parse_letters,
)
from tessella.repcount import (
    CountReport,
    ProbeReport,
    StateSpaceTooLarge,
    _RepSpace,
    _check_int64,
    _gauge_tree,
    conjecture_probe_d1,
    crit_check,
    enumerate_reps,
    iter_reps,
    state_space_size,
    trace_potential,
)
from tessella.sweep import _Batches, _Draws, _sweep

# -- sample reports recorded before the shared sweep -------------------------

_NORM_Q17 = {"GL_exponent": -2, "GL_order": 16, "L_exponent": "-3"}
PINNED = [
    ((1, 17, 70000, 1), {
        "critical": 4467, "d": 1, "mode": "sample", "q": 17, "seed": 1,
        "state_space": 17825792, "total": 70000, "zeros": 12027,
        "ones": 3592, "normalization": _NORM_Q17,
        "histogram": {"0": 12027, "1": 3592, "2": 3922, "3": 3496,
                      "4": 3637, "5": 3539, "6": 3648, "7": 3622, "8": 3664,
                      "9": 3680, "10": 3629, "11": 3544, "12": 3498,
                      "13": 3632, "14": 3542, "15": 3663, "16": 3665}}),
    ((1, 17, 70000, 2), {
        "critical": 4356, "d": 1, "mode": "sample", "q": 17, "seed": 2,
        "state_space": 17825792, "total": 70000, "zeros": 11792,
        "ones": 3607, "normalization": _NORM_Q17,
        "histogram": {"0": 11792, "1": 3607, "2": 3731, "3": 3629,
                      "4": 3640, "5": 3503, "6": 3591, "7": 3638, "8": 3575,
                      "9": 3704, "10": 3645, "11": 3661, "12": 3536,
                      "13": 3774, "14": 3588, "15": 3660, "16": 3726}}),
    ((2, 2, 70000, 5), {
        "critical": 70000, "d": 2, "mode": "sample", "q": 2, "seed": 5,
        "state_space": 124416, "total": 70000, "zeros": 40947,
        "ones": 29053,
        "normalization": {"GL_exponent": -2, "GL_order": 6,
                          "L_exponent": "-12"},
        "histogram": {"0": 40947, "1": 29053}}),
]


@pytest.fixture(scope="module")
def bundled_counting():
    return cli._Run({})["counting"]


@pytest.mark.parametrize("case, expected", PINNED,
                         ids=["q17-seed1", "q17-seed2", "d2-q2-seed5"])
def test_sample_reports_are_pinned(bundled_counting, case, expected):
    quiver, W = bundled_counting
    d, q, size, seed = case
    assert size > sweep._CHUNK  # more than one draw block
    report = enumerate_reps(quiver, W, d, q, mode="sample", sample_size=size,
                            seed=seed)
    assert report.to_json() == expected


def test_sample_reports_ignore_slices_and_threads(bundled_counting):
    """The threads are a ``TESSELLA_THREADS`` left in the environment,
    which the sweep no longer reads."""
    quiver, W = bundled_counting
    base = enumerate_reps(quiver, W, 1, 5, mode="sample", sample_size=70000,
                          seed=9)
    with mock.patch.object(sweep, "_SLICE", 1000), \
            mock.patch.dict(os.environ, {"TESSELLA_THREADS": "3"}):
        assert enumerate_reps(quiver, W, 1, 5, mode="sample",
                              sample_size=70000, seed=9) == base


# -- the draw stream ------------------------------------------------------------


def reference_draws(seed, sizes, blocks) -> list:
    """Sample mode's draws as one ``randrange`` per point per arrow: for each
    block of n points, for each arrow's pool size, n draws.  Returns each
    arrow's draws over all blocks."""
    rng = random.Random(seed)
    out = [[] for _ in sizes]
    for n in blocks:
        for drawn, size in zip(out, sizes):
            drawn.extend(rng.randrange(size) for _ in range(n))
    return out


def bulk_draws(seed, sizes, blocks) -> list:
    source = _Draws(seed)
    out = [[] for _ in sizes]
    for n in blocks:
        for drawn, size in zip(out, sizes):
            got = source.below(size, n)
            assert got.dtype == "int64" and len(got) == n
            drawn.extend(got.tolist())
    return out


_SEEDS = [0, -5, (1 << 40) + 3]
# GL_1(F_2) (each draw about two words), 2, a power of two (about half the
# words rejected), F_17, GL_2(F_3), the largest pool the guard admits and the
# largest one-word size
_SIZES = [1, 2, 16, 17, 48, repcount._POOL_GUARD, sweep._DRAW_LIMIT - 1]


@pytest.mark.parametrize("seed", _SEEDS)
def test_bulk_draws_follow_the_randrange_stream(seed):
    """Words read ahead for one arrow serve the next arrow and block."""
    blocks = [1, 1, 2, 7, sweep._CHUNK + 3, 1000, 1]
    assert (bulk_draws(seed, _SIZES, blocks)
            == reference_draws(seed, _SIZES, blocks))


def _recorded_sample(space, draws, seed) -> list:
    """Each arrow's indices, in order, as ``_sweep`` hands them to a kernel."""
    seen = {a: [] for a in space.arrows}

    def kernel(idx, n):
        for a, v in idx.items():
            assert len(v) == n
            seen[a].extend(v.tolist())
        return 0

    assert _sweep(space, kernel, draws, seed) == 0
    return [seen[a] for a in space.arrows]


_ONE_LOCALIZED = Quiver([0], [("x", 0, 0), ("y", 0, 0)], localized=["y"])


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("draws", [1, 5, sweep._CHUNK + 5])
@pytest.mark.parametrize("case", ["q2-gl1", "bundled-q17", "bundled-d2-q3"])
def test_sample_sweep_draws_the_randrange_stream(bundled_counting, case,
                                                 draws, seed):
    """Blocks of ``_CHUNK`` draws, the last one short, arrows in id order."""
    quiver = _ONE_LOCALIZED if case == "q2-gl1" else bundled_counting[0]
    d, q = {"q2-gl1": (1, 2), "bundled-q17": (1, 17),
            "bundled-d2-q3": (2, 3)}[case]
    space = _RepSpace(quiver, d, q)
    sizes = [space.sizes[a] for a in space.arrows]
    assert set(sizes) == {"q2-gl1": {2, 1}, "bundled-q17": {17, 16},
                          "bundled-d2-q3": {81, 48}}[case]
    blocks = [min(sweep._CHUNK, draws - lo)
              for lo in range(0, draws, sweep._CHUNK)]
    assert (_recorded_sample(space, draws, seed)
            == reference_draws(seed, sizes, blocks))


def test_pools_stay_below_the_one_word_draw_limit():
    assert sweep._DRAW_LIMIT == 1 << 32
    assert repcount._POOL_GUARD < sweep._DRAW_LIMIT


def test_a_pool_at_the_draw_limit_is_refused_with_one_line():
    with pytest.raises(StateSpaceTooLarge, match="32-bit") as info:
        _Draws(0).below(sweep._DRAW_LIMIT, 1)
    assert "\n" not in str(info.value)
    space = _RepSpace(_ONE_LOCALIZED, 1, 3)
    space.sizes["x"] = sweep._DRAW_LIMIT
    with pytest.raises(StateSpaceTooLarge, match="32-bit"):
        _sweep(space, lambda idx, n: 0, 10, 0)


_IMPORTS = """
import sys
from tessella import cli
from tessella.pathalg import Element, parse_letters
from tessella.repcount import conjecture_probe_d1, enumerate_reps
quiver, W = cli._Run({})["counting"]
omega = Element.from_word(quiver.word(parse_letters("rere")))
enumerate_reps(quiver, W, 1, 3)
conjecture_probe_d1(quiver, W, omega, 3)
print("numpy.random" in sys.modules)
enumerate_reps(quiver, W, 1, 3, mode="sample", sample_size=10, seed=0)
print("numpy.random" in sys.modules)
"""


def test_counting_does_not_import_numpy_random():
    """Sample mode reads its words from ``random``, so no count pays for
    numpy.random's import."""
    path = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"),
        os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _IMPORTS],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\nFalse\n"


# -- generated quivers against per-point walks -------------------------------

# (d, q) -> most arrows, keeping every space small enough to walk per point;
# q = 5 because over F_2 and F_3 every scalar is its own inverse
_MAX_ARROWS = {(1, 2): 4, (1, 3): 4, (1, 5): 3, (2, 2): 2, (2, 3): 1}


@st.composite
def small_cases(draw, max_arrows=_MAX_ARROWS):
    d, q = draw(st.sampled_from(sorted(max_arrows)))
    nv = draw(st.integers(1, 2))
    na = draw(st.integers(1, max_arrows[d, q]))
    arrows = [(f"x{i}", draw(st.integers(0, nv - 1)),
               draw(st.integers(0, nv - 1))) for i in range(na)]
    localized = [a for a, _, _ in arrows if draw(st.booleans())]
    quiver = Quiver(list(range(nv)), arrows, localized=localized)
    # (arrow, exponent, source, target): inverses only of localized arrows
    steps = [(a, 1, s, t) for a, s, t in arrows]
    steps += [(a, -1, t, s) for a, s, t in arrows if a in localized]

    def cycle(start, length):
        """A closed word at ``start``, written left to right (each letter's
        source is the target of the letter on its right), that never steps
        straight back, across the seam either; None when stuck."""
        letters, at = [], start

        def cancels(a, e, k):
            return ((letters and letters[-1] == (a, -e))
                    or (k + 1 == length and letters
                        and letters[0] == (a, -e)))

        for k in range(length):
            options = [st_ for st_ in steps if st_[3] == at
                       and (k + 1 < length or st_[2] == start)
                       and not cancels(st_[0], st_[1], k)]
            if not options:
                return None
            a, e, at, _ = draw(st.sampled_from(options))
            letters.append((a, e))
        return letters

    def element_words(count):
        words = []
        for _ in range(count):
            start = draw(st.integers(0, nv - 1))
            letters = cycle(start, draw(st.integers(0, 4)))
            if letters is not None:
                coeff = draw(st.integers(-3, 3).filter(bool))
                words.append((coeff, letters, start))
        return words

    terms = [(c, w) for c, w, _ in element_words(draw(st.integers(0, 4)))
             if w]
    W = Potential.build(quiver, terms) if terms else Potential()
    omega = Element()
    for c, letters, start in element_words(draw(st.integers(1, 2))):
        omega = omega + Element.from_word(quiver.word(letters, at=start), c)
    return quiver, W, omega, d, q


def _walk(quiver, W, omega, d, q):
    """Every batch quantity, one ``iter_reps`` point at a time."""
    hist, crit = {v: 0 for v in range(q)}, 0
    w_total = w_nilp = w_inv = 0
    differentiable = all(e == 1 for _, cyc in W.terms() for _, e in cyc)
    for rep in iter_reps(quiver, d, q):
        f = trace_potential(rep, W)
        hist[f] += 1
        if differentiable:
            crit += crit_check(rep, quiver, W)
        m = rep.evaluate(omega)
        weight = (f == 0) - (f == 1)
        w_total += weight
        if m[0][0] == 0:
            w_nilp += weight
        else:
            w_inv += weight
    return {"hist": hist, "crit": crit if differentiable else None,
            "probe": (w_total, w_nilp, w_inv)}


# (block size, slice size, monomial budget): settings that must not change a
# count; every block and slice size on the numpy sweep (budget 0), then the
# default budget, under which a d = 1 count or probe here is monomial
SWEEP_CONFIGS = [*product((16, sweep._CHUNK), (5, sweep._SLICE), (0,)),
                 (sweep._CHUNK, sweep._SLICE, repcount._MONOMIAL_BUDGET)]


def _check_against_walk(quiver, W, omega, d, q):
    assert state_space_size(quiver, d, q) <= 256
    walk = _walk(quiver, W, omega, d, q)
    for chunk, slice_, budget in SWEEP_CONFIGS:
        with mock.patch.object(sweep, "_CHUNK", chunk), \
                mock.patch.object(sweep, "_SLICE", slice_), \
                mock.patch.object(repcount, "_MONOMIAL_BUDGET", budget):
            if walk["crit"] is None:
                with pytest.raises(InverseOfNonLocalized):
                    enumerate_reps(quiver, W, d, q)
            else:
                report = enumerate_reps(quiver, W, d, q)
                assert report.histogram == walk["hist"]
                assert report.critical == walk["crit"]
            if d == 1 and q > 2:
                probe = conjecture_probe_d1(quiver, W, omega, q)
                assert (probe.weight_total, probe.weight_nilpotent,
                        probe.weight_invertible) == walk["probe"]


def _two_vertices(W_terms, omega_words, d, q, loop=True, y=False):
    """Vertices 0 and 1 joined by the localized arrow t: 0 -> 1 and the free
    arrow u: 1 -> 0, with a free loop x at 1 when ``loop`` and a free loop y
    at 0 when ``y``.  Words are letter lists; an empty omega word is the
    trivial path at vertex 1."""
    arrows = [("t", 0, 1), ("u", 1, 0)] + ([("x", 1, 1)] if loop else []) \
        + ([("y", 0, 0)] if y else [])
    quiver = Quiver([0, 1], arrows, localized=["t"])
    W = Potential.build(quiver, W_terms)
    omega = Element()
    for c, letters in omega_words:
        omega = omega + Element.from_word(
            quiver.word(letters, at=None if letters else 1), c)
    return quiver, W, omega, d, q


# cases whose gauge tree is the arrow t at every d, so that every run of the
# walk test on the numpy sweep sweeps a slice; the second reads t^-1 in W:
# in t^-1 x t y the loops keep t^-1 from meeting a t, so the potential keeps
# the inverse letter
TREE_CASES = [
    _two_vertices([(1, ["u", "t"]), (2, ["u", "t", "u", "t"]),
                   (-1, ["u", "x", "t"]), (1, ["x", "x", "x"])],
                  [(1, [("x", 1)]), (2, [("t", 1), ("u", 1)])], 1, 3),
    _two_vertices([(1, [("u", 1), ("t", 1)]),
                   (2, [("t", -1), ("x", 1), ("t", 1), ("y", 1)])],
                  [(1, [("t", 1), ("u", 1), ("x", 1)]), (1, [])], 1, 3, y=True),
    _two_vertices([(1, ["u", "t", "u", "t"]), (1, ["u", "t"])],
                  [(1, [("t", 1), ("u", 1)]),
                   (1, [("t", 1), ("u", 1), ("t", 1), ("u", 1)])],
                  2, 2, loop=False),
]


@settings(max_examples=60, deadline=None)
@given(small_cases())
@example(TREE_CASES[0])
@example(TREE_CASES[1])
@example(TREE_CASES[2])
def test_sweep_matches_per_point_walk(case):
    _check_against_walk(*case)


@pytest.mark.parametrize("case", TREE_CASES)
def test_tree_cases_sweep_a_slice(case):
    quiver, W, omega, d, _ = case
    assert _gauge_tree(quiver) == _gauge_tree(quiver, omega) == ("t",)
    if case is TREE_CASES[1]:
        assert any(e == -1 for _, cycle in W.terms() for _, e in cycle)


def _mixed_loops():
    """x y x^-1 y on a localized loop x and a free loop y: at d = 1 its trace
    is y^2, which reading x^-1 as x would turn into x^2 y^2."""
    quiver = Quiver([0], [("x", 0, 0), ("y", 0, 0)], localized=["x"])
    W = Potential.build(quiver, [(1, [("x", 1), ("y", 1), ("x", -1),
                                      ("y", 1)])])
    omega = (Element.from_word(quiver.word([("x", -1)]))
             + Element.from_word(quiver.word([("y", 1)]), 2))
    return quiver, W, omega


@pytest.mark.parametrize("d, q", [(1, 5), (2, 2)])
def test_sweep_reads_inverse_letters_through_inverse_matrices(d, q):
    _check_against_walk(*_mixed_loops(), d, q)


# -- the monomial route against the numpy sweep and the per-point oracle -----


def _outcome(route, count, *args, budget=None):
    """("ok", report) or (error type, message) of ``count(*args)`` on one
    route: "monomial" under ``budget`` (the default if None), with the numpy
    sweep failing if it runs, or "numpy" with the monomial route declining
    every count, so that the numpy kernels meet every error themselves."""
    if route == "monomial":
        budget = repcount._MONOMIAL_BUDGET if budget is None else budget
        patches = (mock.patch.object(repcount, "_MONOMIAL_BUDGET", budget),
                   mock.patch.object(sweep, "_sweep", side_effect=(
                       AssertionError("_sweep ran"))))
    else:
        patches = (mock.patch.object(repcount, "_monomial_route",
                                     return_value=None),)
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        try:
            return "ok", count(*args)
        except (ValueError, StateSpaceTooLarge) as exc:
            return type(exc), str(exc)


def _oracle_reports(quiver, W, omega, q) -> tuple:
    """The CountReport and ProbeReport of the per-point MatrixRep walk over
    the full space; None where the count or the probe refuses its input."""
    walk = _walk(quiver, W, omega, 1, q)
    space = state_space_size(quiver, 1, q)
    hist = walk["hist"]
    count = None if walk["crit"] is None else CountReport(
        q=q, d=1, mode="exhaustive", total=space, state_space=space,
        zeros=hist[0], ones=hist[1], critical=walk["crit"], histogram=hist,
        normalization=repcount._normalization(quiver, 1, q))
    w_total, w_nilp, w_inv = walk["probe"]
    probe = None if q == 2 else ProbeReport(
        q=q, weight_total=w_total, weight_nilpotent=w_nilp,
        weight_invertible=w_inv, nilpotent_times_q=q * w_nilp,
        nilpotent_times_qminus1=(q - 1) * w_nilp,
        total_matches=w_total == q * w_nilp,
        invertible_matches=w_inv == (q - 1) * w_nilp)
    return count, probe


def _check_routes_against_oracle(quiver, W, omega, d, q):
    """Both routes give the oracle's reports, or raise the same error."""
    assert d == 1
    count, probe = _oracle_reports(quiver, W, omega, q)
    for run, args, expected in ((enumerate_reps, (quiver, W, 1, q), count),
                                (conjecture_probe_d1, (quiver, W, omega, q),
                                 probe)):
        monomial = _outcome("monomial", run, *args)
        assert monomial == _outcome("numpy", run, *args)
        if expected is not None:
            assert monomial == ("ok", expected)


# d = 1 quivers small enough to walk per point, over each q of the probe's
# range and q = 2
_D1_ARROWS = {(1, 2): 4, (1, 3): 4, (1, 5): 3, (1, 7): 3}


def _two_localized_loops():
    """Localized loops x, y and a free loop z, with inverse letters of both
    localized loops in W and in omega."""
    quiver = Quiver([0], [("x", 0, 0), ("y", 0, 0), ("z", 0, 0)],
                    localized=["x", "y"])
    W = Potential.build(quiver, [(1, [("x", 1), ("z", 1), ("y", -1)]),
                                 (2, [("y", -1), ("y", -1), ("z", 1)])])
    omega = (Element.from_word(quiver.word([("y", -1)]))
             + Element.from_word(quiver.word([("x", -1), ("z", 1)]), 3))
    return quiver, W, omega


INVERSE_CASES = [(*_mixed_loops(), 1, 5), (*_two_localized_loops(), 1, 7)]


@pytest.mark.parametrize("case", INVERSE_CASES)
def test_the_inverse_cases_read_inverse_letters_in_w_and_omega(case):
    _, W, omega, _, _ = case
    assert any(e == -1 for _, cyc in W.terms() for _, e in cyc)
    assert any(e == -1 for w in omega.words() for _, e in w.letters)


@st.composite
def monomial_cases(draw):
    """Loops at one vertex over F_2, F_3, F_5 or F_7: free loops x0 and x1,
    which share a term of W, so that a stratum with both zero kills it;
    localized loops l0, l1, ..., whose inverse letters W and omega read; and
    perhaps a free loop z that neither W nor omega holds.  A term or word
    of 0 to 4 more letters repeats x0 or x1 as often as it draws them."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    extra = draw(st.integers(0, {2: 4, 3: 2, 5: 1, 7: 1}[q]))
    localized = [f"l{i}" for i in range(draw(st.integers(0, extra)))]
    absent = ["z"] if len(localized) < extra else []
    quiver = Quiver([0], [(a, 0, 0) for a in ["x0", "x1", *localized,
                                               *absent]],
                    localized=localized)
    alphabet = [("x0", 1), ("x1", 1), *((a, e) for a in localized
                                        for e in (1, -1))]
    coeff = st.integers(-3, 3).filter(bool)

    def word(*start):
        return [*start, *(draw(st.sampled_from(alphabet))
                          for _ in range(draw(st.integers(0, 4))))]

    terms = [(draw(coeff), word(("x0", 1), ("x1", 1)))]
    terms += [(draw(coeff), word()) for _ in range(draw(st.integers(0, 3)))]
    W = Potential()
    for term in terms:
        try:  # localized letters alone may cancel to a constant path
            W = W + Potential.build(quiver, [term])
        except NonComposable:
            pass
    omega = Element()
    for _ in range(draw(st.integers(1, 2))):
        omega = omega + Element.from_word(quiver.word(word(), at=0),
                                          draw(coeff))
    return quiver, W, omega, 1, q


def _pruned():
    """Free loops x0, x1 and z and a localized loop l over F_5, W =
    x0^2 x1 + 3 x0 l + l^2 and omega = x0 x1 + 2 l^-1.  Once x0 is zero,
    every word holding x1 is dead, for the count (x0^2 x1 has two zero
    letters) and the probe (x0 x1 has one), so x1 is summed out there; z
    is in no word, so it is summed out everywhere."""
    quiver = Quiver([0], [(a, 0, 0) for a in ("x0", "x1", "l", "z")],
                    localized=["l"])
    W = Potential.build(quiver, [(1, ["x0", "x0", "x1"]),
                                 (3, ["x0", "l"]),
                                 (1, ["l", "l"])])
    omega = (Element.from_word(quiver.word(parse_letters("x0 x1")))
             + Element.from_word(quiver.word([("l", -1)]), 2))
    return quiver, W, omega, 1, 5


@settings(max_examples=120, deadline=None)
@given(st.one_of(small_cases(_D1_ARROWS), monomial_cases()))
@example(TREE_CASES[0])
@example(TREE_CASES[1])
@example(INVERSE_CASES[0])
@example(INVERSE_CASES[1])
@example(_pruned())
def test_scalar_route_matches_the_numpy_sweep_and_the_oracle(case):
    """The route on Python scalars, the monomial map, on quivers of one or
    two vertices and on loops that exercise its strata."""
    _check_routes_against_oracle(*case)


def test_the_monomial_route_splits_only_on_arrows_of_live_words():
    """On :func:`_pruned`, x0 nonzero splits on x1 and x0 zero does not: 3
    strata, not the 8 of three free arrows."""
    quiver, W, omega, _, q = _pruned()
    spans = mock.patch.object(repcount, "_span", wraps=repcount._span)
    for run, args in ((enumerate_reps, (quiver, W, 1, q)),
                      (conjecture_probe_d1, (quiver, W, omega, q))):
        with spans as span:
            run(*args)
        assert span.call_count == 3


def _localized_loops(q, W_powers, omega_powers=()):
    """Localized loops x0, x1, ... at one vertex, with W the sum of
    x_i^k over the pairs (i, k) of ``W_powers`` and omega likewise."""
    n = 1 + max(i for i, _ in [*W_powers, *omega_powers])
    names = [f"x{i}" for i in range(n)]
    quiver = Quiver([0], [(a, 0, 0) for a in names], localized=names)
    W = Potential.build(quiver, [(1, [names[i]] * k) for i, k in W_powers])
    omega = Element()
    for i, k in omega_powers:
        omega = omega + Element.from_word(quiver.word([(names[i], 1)] * k))
    return quiver, W, omega


def test_a_count_at_the_budget_is_scalar_and_one_past_it_is_numpy():
    """Over F_257, W = x0 + x1^4 on localized loops maps the torus onto
    Z/256 x 4Z/256: one stratum with 2^14 elements, which costs 2^14 +
    ``_STRATUM_COST``.  The default budget holds it, and so does a budget of
    exactly that cost, so the count takes the monomial route on Python
    scalars.  Under a budget one lower it leaves the count to the numpy
    sweep, and all give the same report."""
    assert (repcount._MONOMIAL_BUDGET, repcount._STRATUM_COST) == (1 << 16, 8)
    cost = (1 << 14) + repcount._STRATUM_COST
    quiver, W, _ = _localized_loops(257, [(0, 1), (1, 4)])
    at = (quiver, W, 1, 257)
    monomial = _outcome("monomial", enumerate_reps, *at)
    assert monomial[0] == "ok"
    assert monomial == _outcome("monomial", enumerate_reps, *at, budget=cost)
    assert monomial == _outcome("numpy", enumerate_reps, *at)
    with pytest.raises(AssertionError, match="_sweep ran"):
        _outcome("monomial", enumerate_reps, *at, budget=cost - 1)
    with mock.patch.object(repcount, "_MONOMIAL_BUDGET", cost - 1):
        assert ("ok", enumerate_reps(*at)) == monomial


def test_a_probe_at_the_budget_is_scalar_and_one_past_it_is_numpy():
    """Over F_257, W = x0 and omega = x1^4: the same 2^14 elements in one
    stratum."""
    cost = (1 << 14) + repcount._STRATUM_COST
    quiver, W, omega = _localized_loops(257, [(0, 1)], [(1, 4)])
    at = (quiver, W, omega, 257)
    monomial = _outcome("monomial", conjecture_probe_d1, *at)
    assert monomial[0] == "ok"
    assert monomial == _outcome("monomial", conjecture_probe_d1, *at,
                                budget=cost)
    assert monomial == _outcome("numpy", conjecture_probe_d1, *at)
    with pytest.raises(AssertionError, match="_sweep ran"):
        _outcome("monomial", conjecture_probe_d1, *at, budget=cost - 1)


def test_the_budget_counts_the_groups_of_every_stratum():
    """A free loop r beside localized x0, x1 with W = r x0 + x1^4 over
    F_17: the stratum r != 0 maps onto (r x0, x1^4) and r = 0 onto (x1^4,
    and x0 from r's derivative), 64 elements each, and each stratum costs
    8 more.  A budget of 144 holds both; at 143 the count is the numpy
    sweep's, although each stratum alone would fit."""
    assert repcount._STRATUM_COST == 8
    quiver = Quiver([0], [("r", 0, 0), ("x0", 0, 0), ("x1", 0, 0)],
                    localized=["x0", "x1"])
    W = Potential.build(quiver, [(1, ["r", "x0"]), (1, ["x1"] * 4)])
    at = (quiver, W, 1, 17)
    monomial = _outcome("monomial", enumerate_reps, *at, budget=144)
    assert monomial[0] == "ok"
    assert monomial == _outcome("numpy", enumerate_reps, *at)
    with pytest.raises(AssertionError, match="_sweep ran"):
        _outcome("monomial", enumerate_reps, *at, budget=143)


@pytest.mark.parametrize("n, route", [(12, "monomial"), (13, "numpy")])
def test_every_stratum_counts_against_the_budget(n, route):
    """W = x0 + x1 + ... on n free loops over F_2: no term holds two
    letters, so the count splits into 2^n strata, each with the trivial
    group, which cost 9 elements each.  2^12 of them fit the budget of
    2^16; at 2^13 the split stops and the numpy sweep counts, with the
    report a larger budget gives."""
    quiver = Quiver([0], [(f"x{i}", 0, 0) for i in range(n)])
    W = Potential.build(quiver, [(1, [f"x{i}"]) for i in range(n)])
    at = (quiver, W, 1, 2)
    wide = _outcome("monomial", enumerate_reps, *at, budget=1 << 17)
    assert wide[0] == "ok"
    if route == "monomial":
        assert _outcome("monomial", enumerate_reps, *at) == wide
    else:
        with pytest.raises(AssertionError, match="_sweep ran"):
            _outcome("monomial", enumerate_reps, *at)
    assert _outcome("numpy", enumerate_reps, *at) == wide


def test_a_count_that_must_split_past_the_budget_spans_no_group():
    """On 13 free loops over F_2, W = x0 + ... + x12, no free arrow can
    kill the term of a later one, so every arrow splits: 2^13 strata at 9
    elements or more pass 2^16 before any is built, and the route declines
    without spanning a group."""
    quiver = Quiver([0], [(f"x{i}", 0, 0) for i in range(13)])
    W = Potential.build(quiver, [(1, [f"x{i}"]) for i in range(13)])
    at = (quiver, W, 1, 2)
    wide = _outcome("monomial", enumerate_reps, *at, budget=1 << 17)
    with mock.patch.object(repcount, "_span",
                           side_effect=AssertionError("_span ran")):
        assert ("ok", enumerate_reps(*at)) == wide


def _foreign_cases() -> dict:
    """name -> (count, args, error type, message start) that both routes
    raise: W or omega on arrows the counted quiver lacks (``y``) or holds
    free (``x``), a q whose (q-1)^2 reaches 2^63, a prime past the pool
    guard, and a space past the exhaustive guard (before any letter)."""
    free = Quiver([0], [("x", 0, 0)])
    both_free = Quiver([0], [("x", 0, 0), ("y", 0, 0)])
    other = Quiver([0], [("x", 0, 0), ("y", 0, 0)], localized=["x"])
    inverse = Potential.build(other, [(1, [("x", -1), ("y", 1)])])  # x^-1 y
    foreign = Potential.build(other, [(1, ["y", "x"])])  # x y
    x_only = Potential.build(free, [(1, ["x"])])
    x_inv = Element.from_word(other.word([("x", -1)]))
    y_word = Element.from_word(other.word([("y", 1)]))
    root = math.isqrt((1 << 63) - 1)  # largest m with m * m < 2^63
    big = next(p for p in range(root + 2, root + 1000) if _is_prime(p))
    past_pool = next(p for p in range(repcount._POOL_GUARD + 1,
                                      repcount._POOL_GUARD + 1000)
                     if _is_prime(p))
    seven = Quiver([0], [(f"x{i}", 0, 0) for i in range(7)])  # 17^7 points
    swept = (StateSpaceTooLarge, "410338673 points to sweep")
    no_matrices = (repcount.ShapeMismatch, "no matrices for arrow 'y'")
    underivable = (InverseOfNonLocalized,
                   "cannot differentiate through an inverse occurrence of 'x'")
    return {
        "probe-free-inverse-in-w": (conjecture_probe_d1,
                                    (free, inverse, Element(), 5),
                                    InverseOfNonLocalized, "x"),
        "probe-free-inverse-in-omega": (conjecture_probe_d1,
                                        (free, x_only, x_inv, 5),
                                        InverseOfNonLocalized, "x"),
        "probe-unknown-arrow-in-w": (conjecture_probe_d1,
                                     (free, foreign, Element(), 5),
                                     *no_matrices),
        "probe-unknown-arrow-in-omega": (conjecture_probe_d1,
                                         (free, x_only, y_word, 5),
                                         *no_matrices),
        "probe-w-before-omega": (conjecture_probe_d1,
                                 (free, foreign, x_inv, 5), *no_matrices),
        "count-unknown-arrow": (enumerate_reps, (free, foreign, 1, 5),
                                repcount.ShapeMismatch,
                                "potential uses arrows not in the quiver"),
        "count-inverse-of-a-localized-arrow": (
            enumerate_reps, (other, inverse, 1, 5), *underivable),
        "count-inverse-of-a-free-arrow": (
            enumerate_reps, (both_free, inverse, 1, 5), *underivable),
        "probe-int64-guard": (conjecture_probe_d1,
                              (Quiver([0], []), x_only, Element(), big),
                              StateSpaceTooLarge, "int64 sums could reach"),
        "count-pool-guard-before-int64-guard": (
            enumerate_reps, (free, x_only, 1, big),
            StateSpaceTooLarge, "a single arrow already"),
        "count-pool-guard": (enumerate_reps, (free, x_only, 1, past_pool),
                             StateSpaceTooLarge, "a single arrow already"),
        "count-exhaustive-guard": (enumerate_reps, (seven, Potential(), 1, 17),
                                   *swept),
        "probe-exhaustive-guard-before-letters": (
            conjecture_probe_d1, (seven, foreign, x_inv, 17), *swept),
    }


@pytest.mark.parametrize("count, args, error, message",
                         _foreign_cases().values(), ids=_foreign_cases())
def test_both_routes_raise_the_same_error(count, args, error, message):
    monomial = _outcome("monomial", count, *args)
    assert monomial == _outcome("numpy", count, *args)
    assert monomial[0] is error and monomial[1].startswith(message)


# -- omega strata that are not gauge invariant get no tree --------------------

# omega is the open word t: 0 -> 1 next to the loop x^2 at 1, and W = x^2
# (a term u t would make every probe weight 0, with a tree or without)
NO_TREE_CASES = [
    _two_vertices([(1, ["x", "x"])],
                  [(1, [("t", 1)]), (1, [("x", 1), ("x", 1)])], 1, 5),
]


def _tree_ignoring_omega(quiver, omega=None):
    return _gauge_tree(quiver)


@pytest.mark.parametrize("case", NO_TREE_CASES, ids=["d1-open"])
def test_strata_that_gauge_moves_sweep_the_whole_space(case):
    quiver, W, omega, d, q = case
    assert _gauge_tree(quiver) == ("t",)
    assert _gauge_tree(quiver, omega) == ()
    _check_against_walk(*case)
    # the tree would be wrong here: fixing t moves the probe's strata
    with mock.patch.object(repcount, "_gauge_tree", _tree_ignoring_omega):
        probe = _outcome("numpy", conjecture_probe_d1, quiver, W, omega, q)[1]
    walk = _walk(quiver, W, omega, d, q)
    assert (probe.weight_total, probe.weight_nilpotent,
            probe.weight_invertible) != walk["probe"]


# -- the gauge-fixed sweep against the same sweep with no tree ----------------


def _without_tree(count, *args):
    """``count(*args)`` with every exhaustive sweep over the full space."""
    with mock.patch.object(repcount, "_gauge_tree", lambda *_: frozenset()):
        return count(*args)


def _on_numpy(count, *args):
    """``count(*args)`` on the numpy sweep, the monomial route declining."""
    with mock.patch.object(repcount, "_monomial_route", return_value=None):
        return count(*args)


def _bundled_omega(quiver):
    return (Element.from_word(quiver.word(parse_letters("rere")))
            + Element.from_word(quiver.word(parse_letters("erer"))))


@pytest.mark.parametrize("d, q", [(1, 3), (1, 5), (1, 7), (1, 11), (2, 2)])
def test_bundled_count_agrees_with_the_unreduced_sweep(bundled_counting, d,
                                                       q):
    """The gauge-fixed sweep, the sweep with no tree and, at d = 1, the
    monomial route."""
    quiver, W = bundled_counting
    assert _gauge_tree(quiver) == ("c",)
    report = enumerate_reps(quiver, W, d, q)
    assert report == _on_numpy(enumerate_reps, quiver, W, d, q)
    assert report == _without_tree(_on_numpy, enumerate_reps, quiver, W, d, q)


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_bundled_probe_agrees_with_the_unreduced_sweep(bundled_counting, q):
    quiver, W = bundled_counting
    omega = _bundled_omega(quiver)
    assert _gauge_tree(quiver, omega) == ("c",)
    report = conjecture_probe_d1(quiver, W, omega, q)
    assert report == _on_numpy(conjecture_probe_d1, quiver, W, omega, q)
    assert report == _without_tree(_on_numpy, conjecture_probe_d1, quiver, W,
                                   omega, q)


def _torus_cover_counting(n, tmp_path):
    """The counting quiver and W_phi of the n-fold torus cover with edge
    voltages (1, 0, 2), through the chain as the pipeline runs it."""
    tiling, taut = cyclic_cover(load_data("torus_tiling.json"), n, (1, 0, 2),
                                seed=n)
    files = {"tiling": tmp_path / "tiling.json",
             "automorphism": tmp_path / "automorphism.json"}
    files["tiling"].write_text(json.dumps(cli.tiling_to_json(tiling)))
    files["automorphism"].write_text(
        json.dumps(tiling_automorphism_to_json(taut)))
    return cli._Run({k: str(v) for k, v in files.items()})["counting"]


@pytest.mark.parametrize("n, q", [(3, 2), (3, 3), (3, 5), (3, 7), (4, 2),
                                  (4, 3), (4, 5), (4, 7), (6, 2), (6, 3),
                                  (6, 5), (8, 2), (8, 3), (16, 2)])
def test_torus_cover_counts_agree_on_both_routes(tmp_path, n, q):
    """n - 1 free arrows and three localized ones: the monomial route's
    strata against the numpy sweep of the gauge slice."""
    quiver, W = _torus_cover_counting(n, tmp_path)
    free = [a for a in quiver.arrow_ids() if not quiver.is_localized(a)]
    assert (len(free), len(quiver.localized)) == (n - 1, 3)
    monomial = _outcome("monomial", enumerate_reps, quiver, W, 1, q)
    assert monomial[0] == "ok"
    assert monomial == _outcome("numpy", enumerate_reps, quiver, W, 1, q)


# critical loci that are neither empty nor everything, from the sweep on
# (n, d)-shaped batches of the parent layout
_COVER_D2 = {
    (3, 2): {"critical": 28800, "d": 2, "histogram": {"0": 51840, "1": 3456},
             "mode": "exhaustive", "normalization": {
                 "GL_exponent": -3, "GL_order": 6, "L_exponent": "-10"},
             "ones": 3456, "q": 2, "state_space": 55296, "total": 55296,
             "zeros": 51840},
    (2, 3): {"critical": 373248, "d": 2,
             "histogram": {"0": 4119552, "1": 2419200, "2": 2419200},
             "mode": "exhaustive", "normalization": {
                 "GL_exponent": -2, "GL_order": 48, "L_exponent": "-8"},
             "ones": 2419200, "q": 3, "state_space": 8957952,
             "total": 8957952, "zeros": 4119552},
}


@pytest.mark.parametrize("n, q", sorted(_COVER_D2))
def test_torus_cover_counts_at_d2_are_pinned(tmp_path, n, q):
    quiver, W = _torus_cover_counting(n, tmp_path)
    assert enumerate_reps(quiver, W, 2, q).to_json() == _COVER_D2[n, q]


# -- (★) on torus covers: critical points against commuting triples -----------


def _commuting(d: int, q: int) -> tuple:
    """|GL_d(F_q)|, its commuting pairs and its commuting triples, with the
    group enumerated as row-major entry tuples of nonzero determinant
    (d <= 2)."""
    def mul(x, y):
        return tuple(sum(x[i * d + k] * y[k * d + j] for k in range(d)) % q
                     for i in range(d) for j in range(d))

    group = [x for x in product(range(q), repeat=d * d)
             if (x[0] if d == 1 else x[0] * x[3] - x[1] * x[2]) % q]
    centralizer = {x: {y for y in group if mul(x, y) == mul(y, x)}
                   for x in group}
    pairs = sum(map(len, centralizer.values()))
    triples = sum(len(centralizer[x] & centralizer[y])
                  for x in group for y in centralizer[x])
    return len(group), pairs, triples


# (d, q) -> (conjugacy classes of GL_d(F_q): q - 1 at d = 1 and q^2 - 1 at
# d = 2, commuting triples)
_GL_SIDE = {(1, 2): (1, 1), (1, 3): (2, 8), (1, 5): (4, 64), (1, 7): (6, 216),
            (2, 2): (3, 48), (2, 3): (8, 2688)}


@pytest.mark.parametrize("d, q", sorted(_GL_SIDE))
@pytest.mark.parametrize("n", range(2, 9))
def test_torus_cover_critical_points_count_commuting_triples(tmp_path, n, d,
                                                             q):
    """(★) on a torus cover: phi is a deck translation, so M = T^3 and
    pi_1 M = Z^3.  With every arrow of the counting quiver localized, the
    critical count is |GL_d(F_q)|^(V-1) times the number of commuting
    triples in GL_d(F_q) when q does not divide n, and every point is
    critical when it does.  The group side is checked against the class
    equation: commuting pairs = |G| times the number of classes."""
    quiver, W = _torus_cover_counting(n, tmp_path)
    every = Quiver(quiver.vertices, quiver.arrows, quiver.arrow_ids())
    report = enumerate_reps(every, W, d, q)
    order, pairs, triples = _commuting(d, q)
    classes, expected = _GL_SIDE[d, q]
    assert (order, pairs, triples) == (repcount.gl_order(d, q),
                                       order * classes, expected)
    if n % q == 0:
        assert report.critical == report.state_space
    else:
        gauge = order ** (len(quiver.vertices) - 1)
        assert divmod(report.critical, gauge) == (triples, 0)


GOLDEN_Q17 = Path(__file__).resolve().parent / "golden" / "count_q17_d1.out"


def test_count_q17_prints_the_bytes_of_the_unreduced_sweep(capsys):
    """``tessella count --q 17 --d 1`` as the full-space sweep printed it."""
    assert cli.main(["count", "--q", "17", "--d", "1"]) == 0
    assert capsys.readouterr().out.encode() == GOLDEN_Q17.read_bytes()


GOLDEN_SAMPLE = GOLDEN_Q17.with_name("count_q17_sample.out")


def test_count_q17_sample_prints_the_bytes_of_the_per_draw_loop(capsys):
    """The benchmark's sample call as one ``randrange`` per draw printed it."""
    assert cli.main(["count", "--q", "17", "--mode", "sample",
                     "--sample-size", "150000", "--seed", "1"]) == 0
    assert capsys.readouterr().out.encode() == GOLDEN_SAMPLE.read_bytes()


def test_count_q3_d2_sample_prints_the_pinned_bytes(capsys):
    """A d = 2 sample whose points are critical at some draws only, as the
    (n, d, d) batches printed it."""
    assert cli.main(["count", "--q", "3", "--d", "2", "--mode", "sample",
                     "--sample-size", "20000", "--seed", "7"]) == 0
    assert capsys.readouterr().out.encode() == GOLDEN_Q17.with_name(
        "count_q3_d2_sample.out").read_bytes()


# -- the exhaustive guard ------------------------------------------------------


def test_guard_names_the_swept_points_and_the_state_space(bundled_counting):
    quiver, W = bundled_counting
    with pytest.raises(StateSpaceTooLarge) as info:
        enumerate_reps(quiver, W, 2, 3)
    assert str(info.value) == (
        "429981696 points to sweep (state space 20639121408 modulo a gauge "
        "tree of 1 arrow) exceed the exhaustive guard 100000000")


def test_guard_without_a_tree_sweeps_the_state_space():
    quiver = Quiver([0], [(f"x{i}", 0, 0) for i in range(7)])
    with pytest.raises(StateSpaceTooLarge) as info:
        enumerate_reps(quiver, Potential(), 1, 17)
    assert str(info.value) == (
        "410338673 points to sweep (state space 410338673 modulo a gauge "
        "tree of 0 arrows) exceed the exhaustive guard 100000000")


def test_guard_names_sizes_beyond_int64_by_their_powers():
    quiver = Quiver([0, 1], [("t", 0, 1)] + [(f"x{i}", 0, 0) for i in range(30)],
                    localized=["t"])
    with pytest.raises(StateSpaceTooLarge) as info:
        enumerate_reps(quiver, Potential(), 1, 17)
    assert str(info.value) == (
        "17^30 points to sweep (state space 16 * 17^30 modulo a gauge tree "
        "of 1 arrow) exceed the exhaustive guard 100000000")


def test_guard_bounds_the_swept_points(bundled_counting):
    """A space over the guard whose gauge slice is under it is counted."""
    quiver, W = bundled_counting
    full = state_space_size(quiver, 1, 5)
    with mock.patch.object(repcount, "_STATE_GUARD", full - 1):
        assert enumerate_reps(quiver, W, 1, 5).total == full
        with pytest.raises(StateSpaceTooLarge):
            _without_tree(enumerate_reps, quiver, W, 1, 5)


# -- the int64 guard -----------------------------------------------------------

_ROOT = math.isqrt((1 << 63) - 1)  # largest m with m * m < 2^63


@pytest.mark.parametrize("d, q, terms, occurrences", [
    (1, _ROOT + 1, 0, 0),                 # one product: d (q-1)^2
    ((1 << 61) - 1, 3, 0, 0),
    (1, 3, 0, (1 << 61) - 1),             # one arrow's gradient sum
    (2, 3, (1 << 60) - 1, 0),             # the trace sum: terms d (q-1)^2
])
def test_int64_guard_accepts_the_largest_safe_sizes(d, q, terms, occurrences):
    _check_int64(d, q, terms, occurrences)


@pytest.mark.parametrize("d, q, terms, occurrences", [
    (1, _ROOT + 2, 0, 0),
    (1 << 61, 3, 0, 0),
    (1, 3, 0, 1 << 61),
    (2, 3, 1 << 60, 0),
])
def test_int64_guard_refuses_one_step_further(d, q, terms, occurrences):
    with pytest.raises(StateSpaceTooLarge, match="int64") as info:
        _check_int64(d, q, terms, occurrences)
    assert "\n" not in str(info.value)


# -- lazy reduction: remainders only where a bound reaches 2^63 ---------------


def _check_lazy_against_walk(quiver, W, omega, d, q):
    """Every batch count against the per-point walk: on the numpy sweep with
    the default slice and with 7-point slices, then with the default
    monomial budget, which takes a d = 1 count or probe here off numpy."""
    walk = _walk(quiver, W, omega, d, q)
    for slice_, budget in ((sweep._SLICE, 0), (7, 0),
                           (sweep._SLICE, repcount._MONOMIAL_BUDGET)):
        with mock.patch.object(sweep, "_SLICE", slice_), \
                mock.patch.object(repcount, "_MONOMIAL_BUDGET", budget):
            report = enumerate_reps(quiver, W, d, q)
            assert (report.histogram, report.critical) == (walk["hist"],
                                                           walk["crit"])
            if d == 1 and q > 2:
                probe = conjecture_probe_d1(quiver, W, omega, q)
                assert (probe.weight_total, probe.weight_nilpotent,
                        probe.weight_invertible) == walk["probe"]


def _power_of_a_loop(length, coeff=1):
    """One free loop x with W = coeff * x^length and omega = x^length: the
    exhaustive sweep visits the matrix of largest entries, whose products
    reach every bound the kernel tracks."""
    quiver = Quiver([0], [("x", 0, 0)])
    W = Potential.build(quiver, [(coeff, ["x"] * length)])
    omega = Element.from_word(quiver.word([("x", 1)] * length))
    return quiver, W, omega


@pytest.mark.parametrize("q", [233, 239])
def test_an_eight_letter_term_around_the_int64_crossing(q):
    """At d = 1, x^8 has bound (q-1)^8: 232^8 < 2^63 <= 238^8, so at
    q = 233 no product is reduced before the trace, and at q = 239 the last
    one must be."""
    assert 232 ** 8 < 1 << 63 <= 238 ** 8
    _check_lazy_against_walk(*_power_of_a_loop(8), 1, q)


@pytest.mark.parametrize("q", [3, 5])
def test_a_d2_term_around_the_int64_crossing(q):
    """At d = 2, x^22 has bound 2^21 (q-1)^22: 2^43 at q = 3, but 2^65 at
    q = 5, where its 22 gradient terms of bound 2^62 also overflow their
    sum.  A bound that forgot the factor d would read 4^22 = 2^44 there."""
    assert 2 ** 21 * 2 ** 22 < 1 << 63 <= 2 ** 21 * 4 ** 22
    assert 22 * 2 ** 20 * 4 ** 21 >= 1 << 63
    _check_lazy_against_walk(*_power_of_a_loop(22), 2, q)


@pytest.mark.parametrize("q", [233, 239])
@pytest.mark.parametrize("c", [100, -1])
def test_omega_sums_around_the_int64_crossing(q, c):
    """omega = c x^7 - c y^7 on two free loops vanishes exactly where
    x^7 = y^7.  Its scaled words have bounds c (q-1)^7 and (q-c) (q-1)^7,
    and their sum q (q-1)^7 reaches 2^63 between q = 233 and q = 239; at
    c = -1 the word scaled by q - 1 alone does, (q-1)^8."""
    assert 233 * 232 ** 7 < 1 << 63 <= 239 * 238 ** 7
    assert 232 ** 8 < 1 << 63 <= 238 ** 8
    quiver = Quiver([0], [("x", 0, 0), ("y", 0, 0)])
    omega = (Element.from_word(quiver.word([("x", 1)] * 7), c)
             + Element.from_word(quiver.word([("y", 1)] * 7), -c))
    sevenths = Counter(pow(v, 7, q) for v in range(q))
    zeros = sum(m * m for m in sevenths.values())
    for route in ("numpy", "monomial"):
        _, probe = _outcome(route, conjecture_probe_d1, quiver, Potential(),
                            omega, q, budget=1 << 16)
        assert (probe.weight_nilpotent, probe.weight_invertible) == (
            zeros, q * q - zeros)


# (d, q, loops) -> longest word: spaces of at most 625 points whose long
# words cross 2^63 at the larger q of each dimension
_LONG_WORDS = {(1, 233, 1): 12, (1, 251, 1): 12, (1, 23, 2): 16,
               (2, 3, 1): 34, (2, 5, 1): 26}


@st.composite
def long_word_cases(draw):
    d, q, loops = key = draw(st.sampled_from(sorted(_LONG_WORDS)))
    names = [f"x{i}" for i in range(loops)]
    quiver = Quiver([0], [(a, 0, 0) for a in names],
                    localized=[a for a in names if draw(st.booleans())])
    length = st.integers(1, _LONG_WORDS[key])

    def word():
        return [draw(st.sampled_from(names)) for _ in range(draw(length))]

    W = Potential.build(quiver, [(draw(st.integers(-3, 3).filter(bool)),
                                  word())
                                 for _ in range(draw(st.integers(1, 3)))])
    omega = Element()
    for _ in range(draw(st.integers(1, 2))):
        omega = omega + Element.from_word(
            quiver.word([(a, 1) for a in word()]),
            draw(st.integers(-3, 3).filter(bool)))
    return quiver, W, omega, d, q


@settings(max_examples=25, deadline=None)
@given(long_word_cases())
def test_lazy_reduction_matches_the_per_point_walk(case):
    _check_lazy_against_walk(*case)


# -- entry-major batches, their pools, and the live arrows -------------------


@pytest.mark.parametrize("invertible, inverse", [
    (False, False), (True, False), (True, True)],
    ids=["False", "True", "inverse"])
@pytest.mark.parametrize("d, q", [(1, 2), (1, 5), (2, 2), (2, 3), (3, 2)])
def test_entry_pools_hold_the_matrices_of_the_tuple_pools(d, q, invertible,
                                                          inverse):
    """An arrow's entry pool holds the matrices of its tuple pool, and the
    inverse pool of a localized arrow their inverses, in the same order."""
    pool = sweep._entry_pool(d, q, invertible)
    mats = matrixrep._pool(d, q, invertible)
    if inverse:
        pool = sweep._inverse_entries(pool, d, q)
        mats = [matrixrep._mat_inv(m, q) for m in mats]
    assert pool.dtype == "int64" and pool.shape == (d * d, len(mats))
    assert pool.T.tolist() == [[x for row in m for x in row] for m in mats]


# cases of test_the_sweep_builds_no_tuple_pool: the arguments of ``count``
# and the bytes it prints, or None for the probe on _mixed_loops()
NO_TUPLE_POOL = {
    "q31-d2-sample": (["--q", "31", "--d", "2", "--mode", "sample",
                       "--sample-size", "100", "--seed", "1"],
                      GOLDEN_Q17.with_name("count_q31_d2_sample.out")),
    "q2-d2-gauge-tree": (["--q", "2", "--d", "2"],
                         Path(__file__).resolve().parents[1] / "benchmarks"
                         / "golden" / "count_q2_d2.out"),
    "probe-inverse-letters": (None, None),
}


@pytest.mark.parametrize("args, golden", NO_TUPLE_POOL.values(),
                         ids=NO_TUPLE_POOL)
def test_the_sweep_builds_no_tuple_pool(capsys, args, golden):
    """Every pool the sweep reads is an entry pool, a gauge-tree arrow's
    (the bundled quiver's c at d = 2) and an inverse letter's (x^-1 in the
    probe's W and omega) included: with ``_pool`` and ``_mat_inv`` failing,
    a count prints the bytes that the tuple pools gave, and the probe on
    the numpy sweep gives the weights of the per-point walk."""
    quiver, W, omega = _mixed_loops()
    walk = _walk(quiver, W, omega, 1, 5)["probe"]
    with contextlib.ExitStack() as stack:
        for name in ("_pool", "_mat_inv"):
            stack.enter_context(mock.patch.object(
                matrixrep, name, side_effect=AssertionError(name)))
        if args is None:
            probe = _on_numpy(conjecture_probe_d1, quiver, W, omega, 5)
            assert (probe.weight_total, probe.weight_nilpotent,
                    probe.weight_invertible) == walk
        else:
            assert cli.main(["count", *args]) == 0
            assert capsys.readouterr().out.encode() == golden.read_bytes()


def _nilpotent_loops(q):
    """A free loop x and a localized loop y, W = x^4 + x^3 + y^q + q x y.
    Over F_q, dW/dx is x^2 at q = 2 and x^3 at q = 3, which vanishes on the
    nilpotent matrices of that order; dW/dy = q y^(q-1) is 0, so y^q is
    read for its trace alone, and q x y adds nothing."""
    quiver = Quiver([0], [("x", 0, 0), ("y", 0, 0)], localized=["y"])
    W = Potential.build(quiver, [(1, ["x"] * 4), (1, ["x"] * 3),
                                 (1, ["y"] * q), (q, ["x", "y"])])
    return quiver, W


@pytest.mark.parametrize("q", [2, 3])
def test_a_d3_sample_matches_the_per_point_oracle_at_its_draws(q):
    """Each draw of ``randrange`` (:func:`reference_draws`) picks a matrix
    of :func:`matrixrep._pool`, and :func:`trace_potential` and
    :func:`crit_check` read the point they make."""
    quiver, W = _nilpotent_loops(q)
    d, n, seed = 3, 1000, 11
    sizes = repcount._arrow_sizes(quiver, d, q)
    arrows = quiver.arrow_ids()
    draws = reference_draws(seed, [sizes[a] for a in arrows], [n])
    pools = [matrixrep._pool(d, q, quiver.is_localized(a)) for a in arrows]
    hist, crit = Counter({v: 0 for v in range(q)}), 0
    for point in zip(*draws):
        rep = repcount.MatrixRep(quiver, d, q, {
            a: pool[i] for a, pool, i in zip(arrows, pools, point)})
        hist[trace_potential(rep, W)] += 1
        crit += crit_check(rep, quiver, W)
    report = enumerate_reps(quiver, W, d, q, mode="sample", sample_size=n,
                            seed=seed)
    assert 0 < crit < n
    assert (report.histogram, report.critical) == (dict(hist), crit)


def _partly_dead(q):
    """Free loops x, y, z and W = 3 x y + x z z: at q = 3 the derivative by
    y, 3 x, is 0 and those by x and z are not."""
    quiver = Quiver([0], [("x", 0, 0), ("y", 0, 0), ("z", 0, 0)])
    W = Potential.build(quiver, [(3, ["x", "y"]), (1, ["x", "z", "z"])])
    return quiver, W, Element.from_word(quiver.word(parse_letters("x"))), 1, q


def _partly_dead_d2():
    """A free loop x and a localized loop y, W = 3 x y + x x + y y y: at
    q = 3, d = 2 the derivative by y, 3 x + 3 y y, is 0, and that by x is
    2 x, so the critical points are those with x = 0."""
    quiver = Quiver([0], [("x", 0, 0), ("y", 0, 0)], localized=["y"])
    W = Potential.build(quiver, [(3, ["x", "y"]), (1, ["x", "x"]),
                                 (1, ["y"] * 3)])
    return quiver, W, Element(), 2, 3


@pytest.mark.parametrize("case", [_partly_dead(3), _partly_dead(5),
                                  _partly_dead_d2()],
                         ids=["d1-q3", "d1-q5", "d2-q3"])
def test_a_w_whose_derivatives_vanish_mod_q_for_some_arrows(case):
    quiver, W, omega, d, q = case
    derivs = repcount.derivatives(quiver, W)
    zero = {a for a in quiver.arrow_ids()
            if all(c % q == 0 for c in derivs[a].coeffs.values())}
    assert zero == ({"y"} if q == 3 else set())
    if d == 1:
        _check_against_walk(*case)
        return
    walk = _walk(*case)
    assert walk["crit"] == state_space_size(quiver, d, q) // q ** (d * d)
    for count in (enumerate_reps, partial(_without_tree, enumerate_reps)):
        report = count(quiver, W, d, q)
        assert (report.histogram, report.critical) == (walk["hist"],
                                                       walk["crit"])


def test_a_count_without_a_live_arrow_adds_and_scales_no_batch(capsys):
    """Over F_2 every derivative of the bundled W is 0, so ``count --q 2
    --d 2`` multiplies out each term for its trace and forms no gradient."""
    with mock.patch.object(_Batches, "add", side_effect=AssertionError(
            "add")), mock.patch.object(_Batches, "scale",
                                       side_effect=AssertionError("scale")):
        assert cli.main(["count", "--q", "2", "--d", "2"]) == 0
    golden = Path(__file__).resolve().parents[1] / "benchmarks" / "golden"
    assert capsys.readouterr().out.encode() == (
        golden / "count_q2_d2.out").read_bytes()
