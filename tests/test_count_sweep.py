"""The counting sweep against fixed outputs and against per-point walks.

``enumerate_reps``, ``stratify_by_omega`` and ``conjecture_probe_d1`` share
one block/slice/thread sweep, which in exhaustive mode walks one gauge slice
of the space.  These tests pin seeded sample reports to values recorded
before the sweep was introduced, and an exhaustive and a sampled q = 17
report to the bytes the unreduced sweep and the per-draw ``randrange`` loop
printed; hold the bulk index draws to that loop, draw for draw; hold every
batch count to a walk over ``iter_reps`` with the per-point evaluators on
generated quivers and potentials (inverse letters included), and to the
same sweep with no gauge tree; check that block size, slice size and thread count never change a
result, that omega strata which are not gauge invariant get no tree, and
test the exhaustive and int64 guards at their edges.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import warnings
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tessella.repcount as repcount
from tessella import cli
from tessella.pathalg import (
    Element,
    InverseOfNonLocalized,
    Potential,
    Quiver,
    parse_letters,
)
from tessella.repcount import (
    StateSpaceTooLarge,
    _Draws,
    _RepSpace,
    _sweep,
    _check_int64,
    _gauge_tree,
    _mat_det,
    _mat_mul,
    conjecture_probe_d1,
    crit_check,
    enumerate_reps,
    iter_reps,
    state_space_size,
    stratify_by_omega,
    trace_potential,
)

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
    assert size > repcount._CHUNK  # more than one draw block
    report = enumerate_reps(quiver, W, d, q, mode="sample", sample_size=size,
                            seed=seed)
    assert report.to_json() == expected


def test_sample_reports_ignore_slices_and_threads(bundled_counting):
    quiver, W = bundled_counting
    base = enumerate_reps(quiver, W, 1, 5, mode="sample", sample_size=70000,
                          seed=9)
    with mock.patch.object(repcount, "_SLICE", 1000), \
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
_SIZES = [1, 2, 16, 17, 48, repcount._POOL_GUARD, repcount._DRAW_LIMIT - 1]


@pytest.mark.parametrize("seed", _SEEDS)
def test_bulk_draws_follow_the_randrange_stream(seed):
    """Words read ahead for one arrow serve the next arrow and block."""
    blocks = [1, 1, 2, 7, repcount._CHUNK + 3, 1000, 1]
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
@pytest.mark.parametrize("draws", [1, 5, repcount._CHUNK + 5])
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
    blocks = [min(repcount._CHUNK, draws - lo)
              for lo in range(0, draws, repcount._CHUNK)]
    assert (_recorded_sample(space, draws, seed)
            == reference_draws(seed, sizes, blocks))


def test_pools_stay_below_the_one_word_draw_limit():
    assert repcount._DRAW_LIMIT == 1 << 32
    assert repcount._POOL_GUARD < repcount._DRAW_LIMIT


def test_a_pool_at_the_draw_limit_is_refused_with_one_line():
    with pytest.raises(StateSpaceTooLarge, match="32-bit") as info:
        _Draws(0).below(repcount._DRAW_LIMIT, 1)
    assert "\n" not in str(info.value)
    space = _RepSpace(_ONE_LOCALIZED, 1, 3)
    space.sizes["x"] = repcount._DRAW_LIMIT
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
def small_cases(draw):
    d, q = draw(st.sampled_from(sorted(_MAX_ARROWS)))
    nv = draw(st.integers(1, 2))
    na = draw(st.integers(1, _MAX_ARROWS[d, q]))
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
    nilp = inv = w_total = w_nilp = w_inv = 0
    differentiable = all(e == 1 for _, cyc in W.terms() for _, e in cyc)
    for rep in iter_reps(quiver, d, q):
        f = trace_potential(rep, W)
        hist[f] += 1
        if differentiable:
            crit += crit_check(rep, quiver, W)
        m = rep.evaluate(omega)
        power = m
        for _ in range(d - 1):
            power = _mat_mul(power, m, q)
        nilp += all(x == 0 for row in power for x in row)
        invertible = _mat_det(m, q) != 0
        inv += invertible
        weight = (f == 0) - (f == 1)
        w_total += weight
        if m[0][0] == 0:
            w_nilp += weight
        else:
            w_inv += weight
    return {"hist": hist, "crit": crit if differentiable else None,
            "strata": (nilp, inv), "probe": (w_total, w_nilp, w_inv)}


# (block size, slice size, threads): settings that must not change a count
SWEEP_CONFIGS = list(product((16, repcount._CHUNK), (5, repcount._SLICE),
                             ("1", "3")))


def _check_against_walk(quiver, W, omega, d, q):
    assert state_space_size(quiver, d, q) <= 256
    walk = _walk(quiver, W, omega, d, q)
    for chunk, slice_, threads in SWEEP_CONFIGS:
        with mock.patch.object(repcount, "_CHUNK", chunk), \
                mock.patch.object(repcount, "_SLICE", slice_), \
                mock.patch.dict(os.environ, {"TESSELLA_THREADS": threads}), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            if walk["crit"] is None:
                with pytest.raises(InverseOfNonLocalized):
                    enumerate_reps(quiver, W, d, q)
            else:
                report = enumerate_reps(quiver, W, d, q)
                assert report.histogram == walk["hist"]
                assert report.critical == walk["crit"]
            strata = stratify_by_omega(quiver, W, omega, d, q)
            assert (strata.nilpotent, strata.invertible) == walk["strata"]
            if d == 1 and q > 2:
                probe = conjecture_probe_d1(quiver, W, omega, q)
                assert (probe.weight_total, probe.weight_nilpotent,
                        probe.weight_invertible) == walk["probe"]


def _two_vertices(W_terms, omega_words, d, q, loop=True):
    """Vertices 0 and 1 joined by the localized arrow t: 0 -> 1 and the free
    arrow u: 1 -> 0, with a free loop x at 1 when ``loop``.  Words are
    letter lists; an empty omega word is the trivial path at vertex 1."""
    arrows = [("t", 0, 1), ("u", 1, 0)] + ([("x", 1, 1)] if loop else [])
    quiver = Quiver([0, 1], arrows, localized=["t"])
    W = Potential.build(quiver, W_terms)
    omega = Element()
    for c, letters in omega_words:
        omega = omega + Element.from_word(
            quiver.word(letters, at=None if letters else 1), c)
    return quiver, W, omega, d, q


# cases whose gauge tree is the arrow t at every d, so that every run of the
# walk test sweeps a slice; the second reads t^-1 in W
TREE_CASES = [
    _two_vertices([(1, ["u", "t"]), (2, ["u", "t", "u", "t"]),
                   (-1, ["u", "x", "t"]), (1, ["x", "x", "x"])],
                  [(1, [("x", 1)]), (2, [("t", 1), ("u", 1)])], 1, 3),
    _two_vertices([(1, [("u", 1), ("t", 1)]),
                   (2, [("t", -1), ("x", 1), ("t", 1)])],
                  [(1, [("t", 1), ("u", 1), ("x", 1)]), (1, [])], 1, 5),
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
    quiver, _, omega, d, _ = case
    assert _gauge_tree(quiver, d) == _gauge_tree(quiver, d, omega) == ("t",)


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


# -- omega strata that are not gauge invariant get no tree --------------------

# at d = 1 the open word t: 0 -> 1 next to the loop x^2 at 1; at d = 2 the
# cycles u t at 0 and t u at 1
NO_TREE_CASES = [
    _two_vertices([(1, ["u", "t"]), (1, ["x", "x"])],
                  [(1, [("t", 1)]), (1, [("x", 1), ("x", 1)])], 1, 5),
    _two_vertices([(1, ["u", "t", "u", "t"])],
                  [(1, [("u", 1), ("t", 1)]), (1, [("t", 1), ("u", 1)])],
                  2, 2, loop=False),
]


def _tree_ignoring_omega(quiver, d, omega=None):
    return _gauge_tree(quiver, d)


@pytest.mark.parametrize("case", NO_TREE_CASES, ids=["d1-open", "d2-two"])
def test_strata_that_gauge_moves_sweep_the_whole_space(case):
    quiver, W, omega, d, q = case
    assert _gauge_tree(quiver, d) == ("t",)
    assert _gauge_tree(quiver, d, omega) == ()
    _check_against_walk(*case)
    # the tree would be wrong here: fixing t moves the strata
    with mock.patch.object(repcount, "_gauge_tree", _tree_ignoring_omega), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        strata = stratify_by_omega(quiver, W, omega, d, q)
    walk = _walk(quiver, W, omega, d, q)
    assert (strata.nilpotent, strata.invertible) != walk["strata"]


# -- the gauge-fixed sweep against the same sweep with no tree ----------------


def _without_tree(count, *args):
    """``count(*args)`` with every exhaustive sweep over the full space."""
    with mock.patch.object(repcount, "_gauge_tree",
                           lambda *_: frozenset()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return count(*args)


def _bundled_omega(quiver):
    return (Element.from_word(quiver.word(parse_letters("rere")))
            + Element.from_word(quiver.word(parse_letters("erer"))))


@pytest.mark.parametrize("d, q", [(1, 3), (1, 5), (1, 7), (1, 11), (2, 2)])
def test_bundled_count_agrees_with_the_unreduced_sweep(bundled_counting, d,
                                                       q):
    quiver, W = bundled_counting
    assert _gauge_tree(quiver, d) == ("c",)
    assert (enumerate_reps(quiver, W, d, q)
            == _without_tree(enumerate_reps, quiver, W, d, q))


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_bundled_probe_agrees_with_the_unreduced_sweep(bundled_counting, q):
    quiver, W = bundled_counting
    omega = _bundled_omega(quiver)
    assert _gauge_tree(quiver, 1, omega) == ("c",)
    assert (conjecture_probe_d1(quiver, W, omega, q)
            == _without_tree(conjecture_probe_d1, quiver, W, omega, q))


@pytest.mark.parametrize("d, q", [(1, 3), (2, 2)])
def test_bundled_strata_agree_with_the_unreduced_sweep(bundled_counting, d,
                                                       q):
    """rere closes at vertex 1 and erer at vertex 2: a tree at d = 1 only."""
    quiver, W = bundled_counting
    omega = _bundled_omega(quiver)
    assert _gauge_tree(quiver, d, omega) == (("c",) if d == 1 else ())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        reduced = stratify_by_omega(quiver, W, omega, d, q)
    assert reduced == _without_tree(stratify_by_omega, quiver, W, omega, d, q)


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
