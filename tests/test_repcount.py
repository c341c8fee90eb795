"""Finite-field representation counting: trace fibres, critical points
and the weighted degree-one probe."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction
from itertools import islice, product as iproduct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tessella.matrixrep as matrixrep
import tessella.sweep as sweep
from tessella.pathalg import (
    Element,
    InverseOfNonLocalized,
    Potential,
    Quiver,
    cyclic_derivative,
    derivatives,
    parse_letters,
)
from tessella.repcount import (
    CountReport,
    MatrixRep,
    ProbeReport,
    ShapeMismatch,
    StateSpaceTooLarge,
    conjecture_probe_d1,
    crit_check,
    enumerate_reps,
    gl_order,
    iter_reps,
    nth_rep,
    state_space_size,
    trace_gradient,
    trace_potential,
)


def counting_quiver() -> Quiver:
    """The two-vertex quiver with the loop/connecting generators invertible
    and the return arrow free (the localization used for counting)."""
    return Quiver((1, 2),
                  [("a", 1, 1), ("b", 1, 1), ("c", 1, 2), ("d", 1, 2),
                   ("e", 1, 2), ("r", 2, 1)],
                  localized=("a", "b", "c", "d", "e"))


def counting_potential(q: Quiver) -> Potential:
    return Potential.build(q, [(1, "abreabre"), (2, "rdrc"),
                               (-2, "ardbrc"), (-1, "rere")])


def omega_element(q: Quiver) -> Element:
    return (Element.from_word(q.word(parse_letters("rere")))
            + Element.from_word(q.word(parse_letters("erer"))))


def free_loop() -> Quiver:
    return Quiver((0,), [("x", 0, 0)])


def scalar_rep(q: int, a, b, c, d, e, r) -> MatrixRep:
    return MatrixRep.scalar(counting_quiver(), q,
                            {"a": a, "b": b, "c": c, "d": d, "e": e, "r": r})


def mat_is_zero(m) -> bool:
    return all(x == 0 for row in m for x in row)


def scalar_brute_force(q: int) -> dict:
    """Every d=1 point walked with inline integer arithmetic.

    The trace value, all six partial derivatives, and the value of
    rere + erer are computed from closed scalar formulas, independently of
    the library's evaluators.
    """
    hist = {v: 0 for v in range(q)}
    crit = w_total = w_nilp = 0
    for a, b, c, d, e in iproduct(range(1, q), repeat=5):
        for r in range(q):
            f = (a*a*b*b*e*e*r*r + 2*c*d*r*r - 2*a*b*c*d*r*r - e*e*r*r) % q
            hist[f] += 1
            partials = (
                2*r*r*(a*b*b*e*e - b*c*d),
                2*r*r*(a*a*b*e*e - a*c*d),
                2*r*r*(d - a*b*d),
                2*r*r*(c - a*b*c),
                2*a*a*b*b*e*r*r - 2*e*r*r,
                2*a*a*b*b*e*e*r + 4*c*d*r - 4*a*b*c*d*r - 2*e*e*r,
            )
            if all(p % q == 0 for p in partials):
                crit += 1
            weight = (f == 0) - (f == 1)
            w_total += weight
            if 2 * e * e * r * r % q == 0:
                w_nilp += weight
    return {"hist": hist, "crit": crit, "w_total": w_total, "w_nilp": w_nilp}


def dual_partial(values: dict, W: Potential, a, q: int) -> int:
    """d(Tr W)/da at scalar values, evaluated over F_q[t]/(t^2)."""
    out = 0
    for coeff, cyc in W.terms():
        real, eps = 1, 0
        for x, exp in cyc:
            assert exp == 1
            vr = values[x] % q
            ve = 1 if x == a else 0
            real, eps = real * vr % q, (real * ve + eps * vr) % q
        out = (out + int(coeff) * eps) % q
    return out


# -- representations and evaluation --------------------------------------------


def test_rep_requires_prime_field():
    with pytest.raises(ValueError, match="prime"):
        scalar_rep(4, 1, 1, 1, 1, 1, 0)
    with pytest.raises(ValueError, match="prime"):
        scalar_rep(1, 1, 1, 1, 1, 1, 0)


def test_rep_requires_positive_dimension():
    with pytest.raises(ValueError, match="dimension"):
        MatrixRep(free_loop(), 0, 3, {"x": ()})


@pytest.mark.parametrize("d", [True, False, 2.0])
def test_a_dimension_that_is_not_an_int_is_refused(d):
    q = counting_quiver()
    W = counting_potential(q)
    mats = {a: ((1,),) for a in q.arrow_ids()}
    calls = [lambda: MatrixRep(q, d, 2, mats),
             lambda: enumerate_reps(q, W, d, 2),
             lambda: enumerate_reps(q, W, d, 2, mode="sample", sample_size=5,
                                    seed=0),
             lambda: nth_rep(q, d, 2, 0),
             lambda: next(iter_reps(q, d, 2)),
             lambda: state_space_size(q, d, 2)]
    for call in calls:
        with pytest.raises(ValueError, match="dimension must be a positive"):
            call()


def test_rep_requires_exact_arrow_cover():
    q = counting_quiver()
    with pytest.raises(ShapeMismatch, match="missing"):
        MatrixRep.scalar(q, 3, {"a": 1, "b": 1})
    with pytest.raises(ShapeMismatch):
        MatrixRep.scalar(q, 3, {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1,
                                "r": 0, "zz": 1})


def test_rep_rejects_wrong_shape():
    with pytest.raises(ShapeMismatch):
        MatrixRep(free_loop(), 2, 3, {"x": ((1, 0),)})


def test_rep_localized_arrow_must_be_invertible():
    with pytest.raises(ShapeMismatch, match="invertibly"):
        scalar_rep(3, 1, 1, 0, 1, 1, 0)


def test_rep_reduces_entries_mod_q():
    rep = scalar_rep(3, 5, 1, 1, 1, 1, -1)
    assert rep.matrix("a") == ((2,),)
    assert rep.matrix("r") == ((2,),)


def test_evaluate_word_multiplies_in_written_order():
    two_loops = Quiver((0,), [("x", 0, 0), ("y", 0, 0)])
    rep = MatrixRep(two_loops, 2, 3, {"x": ((1, 1), (0, 1)),
                                      "y": ((1, 0), (1, 1))})
    assert rep.evaluate(two_loops.word(parse_letters("xy"))) == ((2, 1), (1, 1))
    assert rep.evaluate(two_loops.word(parse_letters("yx"))) == ((1, 1), (1, 2))


def test_evaluate_scalar_word_and_constant():
    q = counting_quiver()
    rep = scalar_rep(5, 2, 3, 1, 4, 1, 2)
    assert rep.evaluate(q.word(parse_letters("rdrc"))) == ((2 * 4 * 2 * 1 % 5,),)
    assert rep.evaluate(q.word((), at=1)) == ((1,),)


def test_evaluate_inverse_of_localized_arrow():
    q = counting_quiver()
    rep = scalar_rep(5, 2, 1, 1, 1, 3, 0)
    assert rep.evaluate(q.word([("e", -1)])) == ((pow(3, -1, 5),),)
    assert rep.evaluate(q.word([("a", -1)])) == ((pow(2, -1, 5),),)


def test_evaluate_element_with_rational_coefficient():
    q = counting_quiver()
    rep = scalar_rep(5, 1, 1, 1, 1, 1, 2)
    el = Element.from_word(q.word(parse_letters("r")), Fraction(1, 2))
    assert rep.evaluate(el) == ((pow(2, -1, 5) * 2 % 5,),)


def test_evaluate_rejects_non_algebra_input():
    rep = scalar_rep(3, 1, 1, 1, 1, 1, 0)
    with pytest.raises(TypeError):
        rep.evaluate("rere")


# -- trace of the potential -----------------------------------------------------


def test_trace_all_ones_q2_is_zero():
    q = counting_quiver()
    rep = scalar_rep(2, 1, 1, 1, 1, 1, 1)
    assert trace_potential(rep, counting_potential(q)) == 0


def test_trace_all_ones_q3_is_zero():
    q = counting_quiver()
    rep = scalar_rep(3, 1, 1, 1, 1, 1, 1)
    assert trace_potential(rep, counting_potential(q)) == 0


def test_trace_zero_potential_is_zero():
    rep = scalar_rep(3, 1, 2, 1, 2, 1, 2)
    assert trace_potential(rep, Potential()) == 0


def test_trace_planted_value_q5():
    q = counting_quiver()
    rep = scalar_rep(5, 1, 2, 1, 1, 1, 1)
    assert trace_potential(rep, counting_potential(q)) == 1


def test_trace_mismatched_arrows_raises():
    loop = free_loop()
    w_loop = Potential.build(loop, [(1, "xx")])
    rep = scalar_rep(3, 1, 1, 1, 1, 1, 0)
    with pytest.raises(ShapeMismatch):
        trace_potential(rep, w_loop)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 4), st.integers(1, 4), st.integers(0, 4))
def test_trace_matches_scalar_closed_form(a, b, c, d, e, r):
    q = counting_quiver()
    rep = scalar_rep(5, a, b, c, d, e, r)
    expected = (a*a*b*b*e*e*r*r + 2*c*d*r*r - 2*a*b*c*d*r*r - e*e*r*r) % 5
    assert trace_potential(rep, counting_potential(q)) == expected


def test_trace_d2_matches_numpy_oracle():
    q = counting_quiver()
    W = counting_potential(q)
    rng = np.random.default_rng(20260815)
    for _ in range(5):
        mats = {}
        for a in q.arrow_ids():
            while True:
                m = rng.integers(0, 3, size=(2, 2))
                if not q.is_localized(a) or int(m[0, 0]*m[1, 1]
                                                - m[0, 1]*m[1, 0]) % 3:
                    break
            mats[a] = tuple(map(tuple, m.tolist()))
        rep = MatrixRep(q, 2, 3, mats)
        total = 0
        for coeff, cyc in W.terms():
            prod = np.eye(2, dtype=np.int64)
            for x, exp in cyc:
                assert exp == 1
                prod = prod @ np.array(mats[x], dtype=np.int64) % 3
            total = (total + int(coeff) * int(np.trace(prod))) % 3
        assert trace_potential(rep, W) == total


# -- gradients and critical points ----------------------------------------------


def test_crit_vanishes_when_return_arrow_is_zero():
    q = counting_quiver()
    rep = scalar_rep(5, 2, 3, 4, 1, 2, 0)
    assert crit_check(rep, q, counting_potential(q)) is True


def test_crit_all_ones_q2():
    q = counting_quiver()
    rep = scalar_rep(2, 1, 1, 1, 1, 1, 1)
    assert crit_check(rep, q, counting_potential(q)) is True


def test_crit_planted_failure_q5():
    q = counting_quiver()
    W = counting_potential(q)
    rep = scalar_rep(5, 1, 2, 1, 1, 1, 1)
    assert crit_check(rep, q, W) is False
    assert rep.evaluate(cyclic_derivative(q, W, "c")) == ((3,),)
    assert trace_gradient(rep, W)["c"] == ((3,),)


def test_gradient_matches_dual_number_partials_d1():
    q = counting_quiver()
    W = counting_potential(q)
    for vals in [(1, 2, 3, 4, 1, 2), (2, 2, 1, 1, 4, 0), (3, 1, 2, 4, 2, 3)]:
        rep = scalar_rep(5, *vals)
        values = {a: rep.matrix(a)[0][0] for a in q.arrow_ids()}
        grads = trace_gradient(rep, W)
        for a in q.arrow_ids():
            assert grads[a][0][0] == dual_partial(values, W, a, 5)


def test_gradient_matches_dual_matrix_oracle_d2():
    q = counting_quiver()
    W = counting_potential(q)
    rng = np.random.default_rng(7)
    for _ in range(3):
        mats = {}
        for a in q.arrow_ids():
            while True:
                m = rng.integers(0, 3, size=(2, 2))
                if not q.is_localized(a) or int(m[0, 0]*m[1, 1]
                                                - m[0, 1]*m[1, 0]) % 3:
                    break
            mats[a] = tuple(map(tuple, m.tolist()))
        rep = MatrixRep(q, 2, 3, mats)
        grads = trace_gradient(rep, W)
        for a in q.arrow_ids():
            for i in range(2):
                for j in range(2):
                    unit = np.zeros((2, 2), dtype=np.int64)
                    unit[i, j] = 1
                    total = 0
                    for coeff, cyc in W.terms():
                        real = np.eye(2, dtype=np.int64)
                        eps = np.zeros((2, 2), dtype=np.int64)
                        for x, exp in cyc:
                            m = np.array(mats[x], dtype=np.int64)
                            bump = unit if x == a else np.zeros_like(unit)
                            real, eps = (real @ m % 3,
                                         (real @ bump + eps @ m) % 3)
                        total = (total + int(coeff) * int(np.trace(eps))) % 3
                    assert grads[a][i][j] == total
        crit_check(rep, q, W)  # exercises the internal cross-validation


def test_gradient_mismatched_arrows_raises():
    loop = free_loop()
    rep = scalar_rep(3, 1, 1, 1, 1, 1, 0)
    with pytest.raises(ShapeMismatch):
        trace_gradient(rep, Potential.build(loop, [(1, "xx")]))


# -- the per-point route against the loops it replaced ---------------------------


def _mat_mul_reference(a, b, q):
    """``_mat_mul`` before its row by column form: a generator per entry."""
    d = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(d)) % q
                       for j in range(d)) for i in range(d))


def _mat_add_reference(a, b, q):
    """``_mat_add``, which summed tuple matrices entry by entry mod q."""
    return tuple(tuple((x + y) % q for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def _mat_scale_reference(c, a, q):
    """``_mat_scale``, which scaled a tuple matrix mod q."""
    return tuple(tuple(c * x % q for x in row) for row in a)


def _coeff_mod_reference(c, q):
    c = Fraction(c)
    if c.denominator % q == 0:
        raise ValueError(f"coefficient {c} is not defined in F_{q}")
    return c.numerator * pow(c.denominator, -1, q) % q


def _word_matrix_reference(rep, letters):
    """``MatrixRep._word_matrix`` before it started from the first letter."""
    out = matrixrep._eye(rep.d)
    for a, e in letters:
        if e != 1 and not rep.quiver.is_localized(a):
            raise InverseOfNonLocalized(a)
        m = rep.matrix(a) if e == 1 else matrixrep._mat_inv(rep.matrix(a), rep.q)
        out = _mat_mul_reference(out, m, rep.q)
    return out


def _evaluate_reference(rep, x):
    """``MatrixRep.evaluate`` on an Element before its flat accumulator:
    every word's matrix scaled and added mod q, one new matrix per word."""
    out = tuple((0,) * rep.d for _ in range(rep.d))
    for w, c in x.coeffs.items():
        c = _coeff_mod_reference(c, rep.q)
        out = _mat_add_reference(out, _mat_scale_reference(
            c, _word_matrix_reference(rep, w.letters), rep.q), rep.q)
    return out


def _trace_gradient_reference(rep, W):
    """``trace_gradient`` before its shared prefix and suffix products:
    every occurrence's product from scratch."""
    q = rep.q
    out = {a: tuple((0,) * rep.d for _ in range(rep.d)) for a in rep.matrices}
    for c, cyc in W.terms():
        cm = _coeff_mod_reference(c, q)
        for i, (a, e) in enumerate(cyc):
            if e != 1:
                raise InverseOfNonLocalized(
                    f"cannot differentiate through an inverse of {a!r}")
            m = _word_matrix_reference(rep, cyc[i + 1:] + cyc[:i])
            out[a] = _mat_add_reference(
                out[a], _mat_scale_reference(cm, matrixrep._transpose(m), q), q)
    return out


def _crit_check_reference(rep, quiver, W):
    """``crit_check`` on the references: both routes compared per arrow."""
    grads = _trace_gradient_reference(rep, W)
    derivs = derivatives(quiver, W)
    flat = True
    for a in quiver.arrow_ids():
        d_val = _evaluate_reference(rep, derivs[a])
        if matrixrep._transpose(d_val) != grads[a]:
            raise RuntimeError(f"gradient cross-check failed at arrow {a!r}")
        flat = flat and mat_is_zero(d_val)
    return flat


def _random_rep(quiver, d, q, rng):
    mats = {}
    for a in quiver.arrow_ids():
        while True:
            m = tuple(tuple(rng.randrange(q) for _ in range(d))
                      for _ in range(d))
            if not quiver.is_localized(a) or matrixrep._mat_det(m, q):
                break
        mats[a] = m
    return MatrixRep(quiver, d, q, mats)


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 4), q=st.sampled_from([2, 3, 5, 7, 101]),
       seed=st.integers(0, 2**32 - 1))
def test_mat_mul_matches_the_generator_form(d, q, seed):
    rng = random.Random(seed)
    a, b = ([[rng.randrange(q) for _ in range(d)] for _ in range(d)]
            for _ in range(2))
    assert matrixrep._mat_mul(a, b, q) == _mat_mul_reference(a, b, q)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_trace_gradient_and_word_matrices_match_the_per_occurrence_loop(d, q):
    rng = random.Random(1000 * d + q)
    quiver = counting_quiver()
    potentials = [counting_potential(quiver),
                  Potential.build(quiver, [(Fraction(1, 11), "a"),
                                           (3, "aabab"), (-1, "rc")])]
    words = [(), parse_letters("a"), parse_letters("rdrc"),
             [("a", -1), ("r", 1), ("c", 1), ("b", -1)]]
    for _ in range(4):
        rep = _random_rep(quiver, d, q, rng)
        for W in potentials:
            assert trace_gradient(rep, W) == _trace_gradient_reference(rep, W)
        for letters in words:
            assert (rep._word_matrix(letters)
                    == _word_matrix_reference(rep, letters))


def test_trace_gradient_still_refuses_an_inverse_letter():
    quiver = counting_quiver()
    W = Potential.build(quiver, [(1, "rc"), (1, [("a", -1), ("b", 1)])])
    rep = _random_rep(quiver, 2, 3, random.Random(0))
    with pytest.raises(InverseOfNonLocalized) as want:
        _trace_gradient_reference(rep, W)
    with pytest.raises(InverseOfNonLocalized) as got:
        trace_gradient(rep, W)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("route", ["gradient", "derivative"])
def test_crit_check_raises_when_its_two_routes_disagree(monkeypatch, route):
    quiver = counting_quiver()
    W = counting_potential(quiver)
    rep = _random_rep(quiver, 2, 3, random.Random(5))
    assert crit_check(rep, quiver, W) in (True, False)
    if route == "gradient":
        def planted(rep, W):
            grads = trace_gradient(rep, W)
            grads["c"] = _mat_add_reference(grads["c"], matrixrep._eye(2), 3)
            return grads
        monkeypatch.setattr(matrixrep, "trace_gradient", planted)
    else:
        table = derivatives(quiver, W)
        bump = Element.from_word(quiver.word((), at=2))
        monkeypatch.setattr(matrixrep, "derivatives",
                            lambda quiver, W: {**table, "c": table["c"] + bump})
    with pytest.raises(RuntimeError, match="cross-check failed at arrow 'c'"):
        crit_check(rep, quiver, W)


def _same_outcome(f, g):
    """f() and g() return the same value, or raise the same error."""
    try:
        want = g()
    except Exception as err:  # noqa: BLE001 - the type is compared below
        with pytest.raises(type(err)) as got:
            f()
        assert str(got.value) == str(err)
        return
    assert f() == want


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 4), q=st.sampled_from([2, 3, 5, 7, 101]),
       seed=st.integers(0, 2**32 - 1))
def test_evaluate_and_crit_check_match_the_tuple_references(d, q, seed):
    quiver = counting_quiver()
    rep = _random_rep(quiver, d, q, random.Random(seed))
    W = counting_potential(quiver)
    W_eleven = Potential.build(quiver, [(Fraction(1, 11), "a"),
                                        (3, "aabab"), (-1, "rc")])
    word = quiver.word
    looped = Quiver(quiver.vertices, [*quiver.arrows, ("x", 1, 1)],
                    localized=quiver.localized)
    # a word with r^-1 exists only where r is localized; the rep's r is not
    r_inverse = Quiver(quiver.vertices, quiver.arrows,
                       localized=quiver.arrow_ids()).word([("r", -1)])
    elements = [
        *derivatives(quiver, W).values(),
        *derivatives(quiver, W_eleven).values(),
        Element.from_word(word((), at=1), Fraction(1, 11))
        + Element.from_word(word(parse_letters("a")), 3),
        Element.from_word(word([("a", -1), ("r", 1), ("c", 1), ("b", -1)]),
                          Fraction(-2, 11))
        + Element.from_word(word([("c", 1), ("a", -1)]), 5),
        Element.from_word(word((), at=2), Fraction(1, q)),  # not in F_q
        Element.from_word(r_inverse),
        Element.from_word(looped.word(parse_letters("xa"))),  # no matrix for x
        Element.from_word(word((), at=2), 0),
    ]
    for x in elements:
        _same_outcome(lambda: rep.evaluate(x),
                      lambda: _evaluate_reference(rep, x))
    for pot in (W, W_eleven, Potential()):
        _same_outcome(lambda: trace_gradient(rep, pot),
                      lambda: _trace_gradient_reference(rep, pot))
        _same_outcome(lambda: crit_check(rep, quiver, pot),
                      lambda: _crit_check_reference(rep, quiver, pot))
    foreign = Potential.build(looped, [(1, "xx")])
    with pytest.raises(ShapeMismatch, match=r"without matrices: \['x'\]"):
        trace_gradient(rep, foreign)


def test_crit_check_repeats_its_products_and_shares_none(monkeypatch):
    """No work is kept between calls: a second crit_check on the same rep
    makes the same products.  And its two routes share none: it makes
    exactly the products of trace_gradient and of the derivative table's
    evaluations run on their own."""
    quiver = counting_quiver()
    W = counting_potential(quiver)
    rep = _random_rep(quiver, 2, 3, random.Random(11))
    derivs = derivatives(quiver, W)
    calls = Counter()
    for name in ("_mat_mul", "_add_product"):
        def counted(*args, name=name, f=getattr(matrixrep, name)):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(matrixrep, name, counted)

    def products(f):
        calls.clear()
        f()
        return Counter(calls)

    first = products(lambda: crit_check(rep, quiver, W))
    assert first["_mat_mul"] > 0 and first["_add_product"] > 0
    assert products(lambda: crit_check(rep, quiver, W)) == first
    gradient = products(lambda: trace_gradient(rep, W))
    derivative = products(
        lambda: [rep.evaluate(derivs[a]) for a in quiver.arrow_ids()])
    assert first == gradient + derivative


def test_repeated_crit_checks_build_the_derivative_table_once():
    quiver = counting_quiver()
    W = counting_potential(quiver)
    reps = list(islice(iter_reps(quiver, 1, 5), 300))
    derivatives.cache_clear()
    flat = [crit_check(rep, quiver, W) for rep in reps]
    info = derivatives.cache_info()
    assert (info.misses, info.hits) == (1, 299)
    assert 0 < sum(flat) < 300


# -- exhaustive enumeration -------------------------------------------------------


def test_enumerate_q2_forced_units():
    q = counting_quiver()
    report = enumerate_reps(q, counting_potential(q), 1, 2)
    assert report.total == 2 == report.state_space
    assert report.zeros == 2 and report.ones == 0
    assert report.critical == 2
    assert report.histogram == {0: 2, 1: 0}
    assert report.mode == "exhaustive" and report.seed is None
    assert report.normalization == {"L_exponent": Fraction(-3),
                                    "GL_exponent": -2, "GL_order": 1}


def test_enumerate_q3_against_brute_force():
    q = counting_quiver()
    report = enumerate_reps(q, counting_potential(q), 1, 3)
    brute = scalar_brute_force(3)
    assert report.total == 96 == report.state_space
    assert report.histogram == brute["hist"] == {0: 64, 1: 16, 2: 16}
    assert report.critical == brute["crit"] == 48


def test_enumerate_q5_against_brute_force():
    q = counting_quiver()
    report = enumerate_reps(q, counting_potential(q), 1, 5)
    brute = scalar_brute_force(5)
    assert report.total == 4 ** 5 * 5 == 5120
    assert report.histogram == brute["hist"]
    assert report.critical == brute["crit"]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_enumerate_free_loop_zero_potential(q):
    report = enumerate_reps(free_loop(), Potential(), 1, q)
    assert report.total == q
    assert report.zeros == q and report.ones == 0
    assert report.critical == q


def test_enumerate_localized_loop_d2_matches_per_point_walk():
    loop = Quiver((0,), [("x", 0, 0)], localized=("x",))
    w = Potential.build(loop, [(1, "xx")])
    for q, crit_expected in [(2, 6), (3, 0)]:
        report = enumerate_reps(loop, w, 2, q)
        hist = {v: 0 for v in range(q)}
        crit = 0
        for rep in iter_reps(loop, 2, q):
            hist[trace_potential(rep, w)] += 1
            crit += crit_check(rep, loop, w)
        assert report.total == gl_order(2, q)
        assert report.histogram == hist
        assert report.critical == crit == crit_expected


def test_enumerate_free_loop_d2_critical_only_at_zero():
    loop = free_loop()
    w = Potential.build(loop, [(1, "xx")])
    report = enumerate_reps(loop, w, 2, 3)
    assert report.total == 3 ** 4
    assert report.critical == 1  # 2X = 0 forces the zero matrix


def test_enumerate_running_example_d2_q2():
    q = counting_quiver()
    report = enumerate_reps(q, counting_potential(q), 2, 2)
    assert report.state_space == state_space_size(q, 2, 2) == 6 ** 5 * 16
    assert report.total == 124416
    assert sum(report.histogram.values()) == report.total
    assert 0 < report.critical <= report.total
    assert report.normalization["L_exponent"] == Fraction(-12)


def test_enumerate_guard_rejects_huge_spaces():
    big = Quiver((0,), [(f"x{i}", 0, 0) for i in range(4)])
    with pytest.raises(StateSpaceTooLarge):
        enumerate_reps(big, Potential(), 1, 101)


def test_pool_guard_rejects_huge_single_arrow():
    with pytest.raises(StateSpaceTooLarge):
        enumerate_reps(free_loop(), Potential(), 2, 47)


def test_enumerate_rejects_foreign_potential():
    loop = free_loop()
    w = Potential.build(loop, [(1, "xx")])
    with pytest.raises(ShapeMismatch):
        enumerate_reps(counting_quiver(), w, 1, 3)


def test_enumerate_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        enumerate_reps(free_loop(), Potential(), 1, 3, mode="guess")


def test_counts_invariant_under_arrow_relabeling():
    q = counting_quiver()
    W = counting_potential(q)
    swap = {"a": "b", "b": "a", "c": "d", "d": "c", "e": "e", "r": "r"}
    W2 = Potential.build(q, [(c, [(swap[x], exp) for x, exp in cyc])
                             for c, cyc in W.terms()])
    assert W2 != W
    for p in (3, 5):
        assert enumerate_reps(q, W, 1, p) == enumerate_reps(q, W2, 1, p)


def test_chunking_and_threads_do_not_change_reports(monkeypatch):
    """Block size changes no report, nor does a ``TESSELLA_THREADS`` left
    in the environment, which the sweep no longer reads."""
    q = counting_quiver()
    W = counting_potential(q)
    base = enumerate_reps(q, W, 1, 3)
    monkeypatch.setattr(sweep, "_CHUNK", 16)
    monkeypatch.setenv("TESSELLA_THREADS", "3")
    assert enumerate_reps(q, W, 1, 3) == base
    monkeypatch.setenv("TESSELLA_THREADS", "not-a-number")
    assert enumerate_reps(q, W, 1, 3) == base


def test_counts_start_no_thread(monkeypatch):
    """Every batch count sweeps its blocks on the calling thread."""
    q = counting_quiver()
    W = counting_potential(q)
    started = []
    start = threading.Thread.start

    def record(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    enumerate_reps(q, W, 1, 3)
    enumerate_reps(q, W, 1, 3, mode="sample", sample_size=50, seed=1)
    conjecture_probe_d1(q, W, omega_element(q), 3)
    assert started == []


def test_count_report_validates_tallies():
    norm = {"L_exponent": Fraction(-1), "GL_exponent": -1, "GL_order": 1}
    with pytest.raises(ValueError, match="histogram"):
        CountReport(q=2, d=1, mode="exhaustive", total=3, state_space=3,
                    zeros=1, ones=1, critical=0, histogram={0: 1, 1: 1},
                    normalization=norm)
    with pytest.raises(ValueError, match="zeros"):
        CountReport(q=2, d=1, mode="exhaustive", total=2, state_space=2,
                    zeros=0, ones=1, critical=0, histogram={0: 1, 1: 1},
                    normalization=norm)
    for critical in (-1, 3):
        with pytest.raises(ValueError, match="critical count out of range"):
            CountReport(q=2, d=1, mode="exhaustive", total=2, state_space=2,
                        zeros=1, ones=1, critical=critical,
                        histogram={0: 1, 1: 1}, normalization=norm)
    report = CountReport(2, 1, "exhaustive", 2, 2, 1, 1, 2, {0: 1, 1: 1}, norm)
    assert report.seed is None
    assert repr(report).startswith("CountReport(q=2, d=1, mode='exhaustive',")


def test_count_report_json_round_shape():
    q = counting_quiver()
    report = enumerate_reps(q, counting_potential(q), 1, 3)
    blob = report.to_json()
    assert blob["histogram"] == {"0": 64, "1": 16, "2": 16}
    assert blob["normalization"]["L_exponent"] == "-3"
    assert blob["critical"] == 48
    assert "seed" not in blob


# -- sampling ---------------------------------------------------------------------


def test_sampling_is_deterministic_and_within_binomial_bounds():
    q = counting_quiver()
    W = counting_potential(q)
    exact = enumerate_reps(q, W, 1, 3)
    n = 1500
    sampled = enumerate_reps(q, W, 1, 3, mode="sample", sample_size=n, seed=11)
    assert sampled == enumerate_reps(q, W, 1, 3, mode="sample",
                                     sample_size=n, seed=11)
    assert sampled.total == n and sampled.state_space == 96
    assert sampled.mode == "sample" and sampled.seed == 11
    assert sum(sampled.histogram.values()) == n
    for v in range(3):
        p = exact.histogram[v] / exact.total
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(sampled.histogram[v] - n * p) <= 5 * sigma
    p_crit = exact.critical / exact.total
    sigma = math.sqrt(n * p_crit * (1 - p_crit))
    assert abs(sampled.critical - n * p_crit) <= 5 * sigma


def test_sampling_requires_size_and_seed():
    q = counting_quiver()
    W = counting_potential(q)
    with pytest.raises(ValueError, match="sample_size"):
        enumerate_reps(q, W, 1, 3, mode="sample", seed=1)
    with pytest.raises(ValueError, match="seed"):
        enumerate_reps(q, W, 1, 3, mode="sample", sample_size=10)


@pytest.mark.parametrize("size, seed, message", [
    (True, 1, "sample_size"), (2.0, 1, "sample_size"),
    (10, True, "seed"), (10, 2.5, "seed"), (True, True, "sample_size")])
def test_a_sample_size_or_seed_that_is_not_an_int_is_refused(size, seed,
                                                              message):
    q = counting_quiver()
    with pytest.raises(ValueError, match=f"needs an .*integer {message}"):
        enumerate_reps(q, counting_potential(q), 1, 3, mode="sample",
                       sample_size=size, seed=seed)


# -- enumeration order ----------------------------------------------------------


def test_enumeration_order_is_lexicographic():
    q = counting_quiver()
    first = nth_rep(q, 1, 3, 0)
    assert first.matrix("a") == ((1,),) and first.matrix("r") == ((0,),)
    second = nth_rep(q, 1, 3, 1)
    assert second.matrix("r") == ((1,),)
    fourth = nth_rep(q, 1, 3, 3)
    assert fourth.matrix("e") == ((2,),) and fourth.matrix("r") == ((0,),)
    with pytest.raises(IndexError):
        nth_rep(q, 1, 3, 96)


def test_iter_reps_agrees_with_nth_rep():
    q = counting_quiver()
    head = list(islice(iter_reps(q, 1, 3), 4))
    for k, rep in enumerate(head):
        other = nth_rep(q, 1, 3, k)
        assert rep.matrices == other.matrices


def test_iter_reps_refuses_oversized_spaces():
    q = counting_quiver()
    with pytest.raises(StateSpaceTooLarge, match="limit"):
        list(iter_reps(q, 1, 3, limit=10))


def test_state_space_sizes():
    q = counting_quiver()
    assert state_space_size(q, 1, 3) == 96
    assert state_space_size(q, 2, 2) == 124416
    assert gl_order(1, 5) == 4
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48


# -- three-way agreement of the critical test ------------------------------------


@pytest.mark.parametrize("q", [2, 3])
def test_three_way_crit_agreement_exhaustive(q):
    quiver = counting_quiver()
    W = counting_potential(quiver)
    derivs = {a: cyclic_derivative(quiver, W, a) for a in quiver.arrow_ids()}
    report = enumerate_reps(quiver, W, 1, q)
    crit_direct = 0
    for rep in iter_reps(quiver, 1, q):
        by_check = crit_check(rep, quiver, W)
        by_relations = all(mat_is_zero(rep.evaluate(el))
                           for el in derivs.values())
        values = {a: rep.matrix(a)[0][0] for a in quiver.arrow_ids()}
        by_duals = all(dual_partial(values, W, a, q) == 0
                       for a in quiver.arrow_ids())
        assert by_check == by_relations == by_duals
        crit_direct += by_check
    assert crit_direct == report.critical


def test_three_way_crit_agreement_strided_q5():
    quiver = counting_quiver()
    W = counting_potential(quiver)
    derivs = {a: cyclic_derivative(quiver, W, a) for a in quiver.arrow_ids()}
    for k in range(0, 5120, 17):
        rep = nth_rep(quiver, 1, 5, k)
        by_check = crit_check(rep, quiver, W)
        by_relations = all(mat_is_zero(rep.evaluate(el))
                           for el in derivs.values())
        values = {a: rep.matrix(a)[0][0] for a in quiver.arrow_ids()}
        by_duals = all(dual_partial(values, W, a, 5) == 0
                       for a in quiver.arrow_ids())
        assert by_check == by_relations == by_duals


def test_probe_report_validates_weights():
    with pytest.raises(ValueError, match="weights do not partition at d = 1"):
        ProbeReport(q=3, weight_total=5, weight_nilpotent=2,
                    weight_invertible=2, nilpotent_times_q=6,
                    nilpotent_times_qminus1=4, total_matches=False,
                    invertible_matches=False)
    report = ProbeReport(3, 4, 2, 2, 6, 4, False, False)
    assert report.to_json()["weight_total"] == 4


# -- the degree-one probe ----------------------------------------------------------


def test_probe_running_example_q3():
    q = counting_quiver()
    report = conjecture_probe_d1(q, counting_potential(q),
                                 omega_element(q), 3)
    brute = scalar_brute_force(3)
    assert report.weight_total == brute["w_total"] == 48
    assert report.weight_nilpotent == brute["w_nilp"] == 32
    assert report.weight_invertible == 16
    assert report.nilpotent_times_q == 96 and not report.total_matches
    assert report.nilpotent_times_qminus1 == 64 and not report.invertible_matches


def test_probe_running_example_q5():
    q = counting_quiver()
    report = conjecture_probe_d1(q, counting_potential(q),
                                 omega_element(q), 5)
    brute = scalar_brute_force(5)
    assert report.weight_total == brute["w_total"]
    assert report.weight_nilpotent == brute["w_nilp"]
    assert report.weight_invertible == brute["w_total"] - brute["w_nilp"]


def test_probe_free_loop_is_exact():
    loop = free_loop()
    om = Element.from_word(loop.word([("x", 1)]))
    report = conjecture_probe_d1(loop, Potential(), om, 5)
    assert report.weight_total == 5
    assert report.weight_nilpotent == 1 and report.weight_invertible == 4
    assert report.total_matches and report.invertible_matches


def test_probe_refuses_even_characteristic():
    q = counting_quiver()
    with pytest.raises(ValueError, match="odd"):
        conjecture_probe_d1(q, counting_potential(q), omega_element(q), 2)


def test_probe_refuses_composite_q():
    q = counting_quiver()
    with pytest.raises(ValueError, match="prime"):
        conjecture_probe_d1(q, counting_potential(q), omega_element(q), 9)


def test_probe_report_json():
    loop = free_loop()
    om = Element.from_word(loop.word([("x", 1)]))
    blob = conjecture_probe_d1(loop, Potential(), om, 3).to_json()
    assert blob["total_matches"] is True
    assert "heuristic" in blob["note"]


# -- the per-point oracle's names on repcount --------------------------------

_ORACLE_IMPORT = """
import sys
from tessella.repcount import (MatrixRep, crit_check, iter_reps, nth_rep,
                               trace_gradient, trace_potential)
from tessella import matrixrep
names = ("MatrixRep", "crit_check", "iter_reps", "nth_rep", "trace_gradient",
         "trace_potential")
print(all(globals()[n] is getattr(matrixrep, n) for n in names),
      sorted({"numpy", "tessella.sweep"} & set(sys.modules)))
"""


def test_repcount_serves_the_oracle_from_matrixrep_without_numpy():
    """The oracle's public names import from :mod:`tessella.repcount` as
    the objects of :mod:`tessella.matrixrep`, and loading them loads
    neither numpy nor the numpy sweep."""
    path = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"),
        os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _ORACLE_IMPORT],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "True []\n"


def test_repcount_serves_no_other_name():
    from tessella import repcount

    for name in ("no_such_name", "_pool", "_sweep"):
        with pytest.raises(AttributeError, match=f"'tessella.repcount' has "
                                                 f"no attribute '{name}'"):
            getattr(repcount, name)
