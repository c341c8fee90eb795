"""The counting sweep against fixed outputs and against per-point walks.

``enumerate_reps``, ``stratify_by_omega`` and ``conjecture_probe_d1`` share
one block/slice/thread sweep.  These tests pin seeded sample reports to
values recorded before the sweep was introduced, hold every batch count to a
walk over ``iter_reps`` with the per-point evaluators on generated quivers
and potentials (inverse letters included), check that block size, slice size
and thread count never change a result, and test the int64 guard at its
edges.
"""

from __future__ import annotations

import math
import os
import warnings
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tessella.repcount as repcount
from tessella import cli
from tessella.pathalg import Element, InverseOfNonLocalized, Potential, Quiver
from tessella.repcount import (
    StateSpaceTooLarge,
    _check_int64,
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
    omega = Element.zero()
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


@settings(max_examples=60, deadline=None)
@given(small_cases())
def test_sweep_matches_per_point_walk(case):
    _check_against_walk(*case)


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
