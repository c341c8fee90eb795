"""Path-algebra arithmetic: normal forms, products, cyclic derivatives,
bounded ideal reduction, and the doubled-quiver differential."""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tessella.pathalg import (
    Element,
    InverseOfNonLocalized,
    LocalizedQuiverUnsupported,
    NonComposable,
    Potential,
    Quiver,
    UnknownArrow,
    Word,
    _letterkey,
    canonical_rotation,
    check_d_squared,
    commutator_sum,
    cyclic_derivative,
    derivatives,
    element_from_json,
    element_to_json,
    ginzburg_dga,
    jacobi_relations,
    multiply,
    normalize,
    parse_letters,
    potential_from_json,
    potential_to_json,
    qpot_from_json,
    qpot_to_json,
    word_product,
)

from tessella.surfacemap import dual_quiver

from conftest import SQUARE_TORUS, cyclic_cover, genus2_quiver, orbit_quiver


def _w(q, s, at=None):
    return q.word(parse_letters(s) if s else (), at=at)


def _el(q, terms):
    out = Element()
    for c, s in terms:
        out = out + Element.from_word(_w(q, s), c)
    return out


# -- Word --------------------------------------------------------------------


def test_a_word_is_a_tuple_that_equals_only_words():
    letters = (("a", 1), ("r", -1))
    w, plain = Word(1, 2, letters), (1, 2, letters)
    assert isinstance(w, tuple) and tuple(w) == plain
    assert w != plain and plain != w
    assert not w == plain and not plain == w
    assert w == Word(1, 2, letters) and not w != Word(1, 2, letters)
    assert w != Word(2, 2, letters)
    assert plain not in {w} and w not in {plain}
    # the hash of the frozen dataclass it replaced: set orders stay put
    assert hash(w) == hash((w.source, w.target, w.letters))


def test_a_word_is_immutable():
    w = Word(1, 2, (("a", 1),))
    for name in ("source", "target", "letters", "other"):
        with pytest.raises(AttributeError):
            setattr(w, name, 3)
    assert w == Word(1, 2, (("a", 1),))


def test_a_word_builds_by_keyword_with_no_letters_by_default():
    assert Word(1, 1).letters == ()
    assert Word(target=2, letters=(("a", 1),), source=1) == \
        Word(1, 2, (("a", 1),))


def test_words_do_not_order():
    w, v = Word(1, 1), Word(2, 2)
    for left, right in ((w, v), (w, tuple(v)), (tuple(w), v)):
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(left, right)


# -- normalize ---------------------------------------------------------------


def test_normalize_cancels_inverse_pair(qp):
    w = qp.word([("r", 1), ("r", -1)])
    assert w.is_constant() and w.source == 1 == w.target


def test_normalize_keeps_normal_word(qp):
    w = _w(qp, "rer")
    assert w.letters == (("r", 1), ("e", 1), ("r", 1))
    assert (w.source, w.target) == (2, 1)


def test_normalize_rejects_inverse_of_non_localized(qp):
    with pytest.raises(InverseOfNonLocalized):
        qp.word([("a", -1)])


def test_normalize_rejects_non_composable(qp):
    with pytest.raises(NonComposable):
        _w(qp, "cd")  # both start at vertex 1


def test_normalize_idempotent(qp):
    w = _w(qp, "abre")
    assert normalize(qp, w) == w


# -- multiply ----------------------------------------------------------------


def test_constant_path_is_identity(q2):
    e1 = Element.from_word(_w(q2, "", at=1))
    a = _el(q2, [(1, "a")])
    assert multiply(q2, e1, a) == a
    assert multiply(q2, a, e1) == a


def test_product_concatenates_written_forms(q2):
    g = _el(q2, [(1, "g")])
    c = _el(q2, [(1, "c")])
    gc = multiply(q2, g, c)
    (word,) = gc.words()
    assert word.letters == (("g", 1), ("c", 1))
    assert word.source == word.target == 1  # c: 1->2 acts first, then g: 2->1


def test_non_composable_product_is_zero(q2):
    c = _el(q2, [(1, "c")])
    d = _el(q2, [(1, "d")])
    assert multiply(q2, c, d).is_zero()


def test_product_distributes_over_sums(qp):
    x = _el(qp, [(1, "ab"), (2, "a")])
    y = _el(qp, [(1, "re"), (-1, "b")])
    lhs = multiply(qp, x, y)
    rhs = (multiply(qp, _el(qp, [(1, "ab")]), y)
           + multiply(qp, _el(qp, [(2, "a")]), y))
    assert lhs == rhs


def test_products_cancelling_to_a_constant_keep_the_vertex(qp):
    r, r_inv = _w(qp, "r"), qp.word([("r", -1)])
    # r^-1: 1 -> 2 acts first, then r: 2 -> 1
    assert word_product(qp, r, r_inv) == Word(1, 1, ())
    assert word_product(qp, r_inv, r) == Word(2, 2, ())
    assert word_product(qp, r_inv, r, r_inv, r) == Word(2, 2, ())
    assert multiply(qp, Element.from_word(r_inv), Element.from_word(r)) \
        == Element.from_word(_w(qp, "", at=2))
    assert word_product(qp, _w(qp, "er"), r_inv, r) == _w(qp, "er")


def test_seam_products_check_the_seam(qp):
    c, d = _w(qp, "c"), _w(qp, "d")
    with pytest.raises(NonComposable):
        word_product(qp, c, d)
    with pytest.raises(NonComposable):  # a constant factor has a vertex too
        word_product(qp, _w(qp, "", at=1), c)
    with pytest.raises(NonComposable):
        word_product(qp)


# -- cyclic derivative -------------------------------------------------------


def test_derivative_matches_display(qp, wp):
    assert cyclic_derivative(qp, wp, "c") == _el(qp, [(2, "rdr"), (-2, "ardbr")])


def test_all_five_derivatives(qp, wp):
    expected = {
        "a": [(2, "breabre"), (-2, "rdbrc")],
        "b": [(2, "reabrea"), (-2, "rcard")],
        "c": [(2, "rdr"), (-2, "ardbr")],
        "d": [(2, "rcr"), (-2, "brcar")],
        "e": [(2, "abreabr"), (-2, "rer")],
    }
    for arrow, terms in expected.items():
        assert cyclic_derivative(qp, wp, arrow) == _el(qp, terms), arrow


def test_derivative_of_absent_arrow_is_zero(qp):
    w = Potential.build(qp, [(1, ["a", "b"])])
    assert cyclic_derivative(qp, w, "c").is_zero()


def test_derivative_unknown_arrow(qp, wp):
    with pytest.raises(UnknownArrow):
        cyclic_derivative(qp, wp, "z")


def test_derivative_checks_each_cycle_on_the_quiver_it_is_given(q2, w2):
    """With ``c`` moved to a loop at 2, each cycle through ``c`` (``gc``,
    ``agic``) breaks only at the seam after ``c``; the slices ``g`` and
    ``agi`` alone would still compose."""
    moved = [(a, 2, 2) if a == "c" else (a, s, t) for a, s, t in q2.arrows]
    with pytest.raises(NonComposable):
        cyclic_derivative(Quiver(q2.vertices, moved), w2, "c")


def test_derivative_refuses_an_inverse_letter_the_quiver_does_not_invert():
    """As the counting quiver frees the isomorphism arrows a transported
    potential may invert."""
    arrows = [("x", 1, 2), ("y", 1, 2), ("s", 1, 2)]
    q = Quiver([1, 2], arrows, localized=["s"])
    w = Potential.build(q, [(1, [("s", -1), "x", ("s", -1), "y"])])
    assert cyclic_derivative(q, w, "x") == _el(q, [(1, "s^-1 y s^-1")])
    with pytest.raises(InverseOfNonLocalized):
        cyclic_derivative(Quiver([1, 2], arrows), w, "x")


def _cyclic_derivative_reference(quiver, W, a):
    """``cyclic_derivative`` before the derivative table: one scan of all of
    W per arrow, checking each cycle that holds ``a`` from its first ``a``."""
    if not quiver.has_arrow(a):
        raise UnknownArrow(a)
    source, target, letter = quiver.target(a), quiver.source(a), (a, 1)
    pairs = []
    for cyc, c in W.coeffs.items():
        if any(x == a and e != 1 for x, e in cyc):
            raise InverseOfNonLocalized(
                f"cannot differentiate through an inverse occurrence of {a!r}")
        if letter not in cyc:
            continue
        first = cyc.index(letter)
        rot = normalize(quiver, cyc[first + 1:] + cyc[:first + 1])
        if rot.source != rot.target:
            raise NonComposable(f"cycle {cyc!r} is not closed")
        pairs += ((Word(source, target, cyc[i + 1:] + cyc[:i]), c)
                  for i in range(first, len(cyc)) if cyc[i] == letter)
    return Element(pairs)


def _torus_cover_quiver():
    tiling, _ = cyclic_cover(SQUARE_TORUS, 3, (0, 0, 1, 1), seed=0)
    return dual_quiver(tiling)[0]


_DERIVATIVE_QUIVERS = {"genus2": genus2_quiver, "orbit": orbit_quiver,
                       "torus-cover": _torus_cover_quiver}


def _random_closed_cycle(quiver, rng, length):
    """A random walk over the arrows and the inverses of localized arrows,
    closed by a shortest path of arrows back to its start; written order."""
    letters = [(a, 1) for a in quiver.arrow_ids()]
    letters += [(a, -1) for a in quiver.arrow_ids() if quiver.is_localized(a)]
    start = here = rng.choice(quiver.vertices)
    walk = []  # in the order applied
    for _ in range(length):
        step = rng.choice([l for l in letters
                           if quiver.letter_ends(l)[0] == here])
        walk.append(step)
        here = quiver.letter_ends(step)[1]
    home = {here: []}  # vertex -> arrows from ``here`` to it, as applied
    frontier = [here]
    while start not in home:
        reached = []
        for v in frontier:
            for a in quiver.arrow_ids():
                t = quiver.target(a)
                if quiver.source(a) == v and t not in home:
                    home[t] = home[v] + [(a, 1)]
                    reached.append(t)
        frontier = reached
    return list(reversed(walk + home[start]))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_DERIVATIVE_QUIVERS)),
       seed=st.integers(0, 2**32 - 1), terms=st.integers(1, 5),
       localize=st.integers(0, 3),
       view=st.sampled_from(["built on", "freed", "one arrow moved"]))
def test_the_derivative_table_matches_the_per_arrow_loop(name, seed, terms,
                                                         localize, view):
    """Every arrow's entry equals the old loop's derivative, in value and
    term order, or raises the same fault with the same message.  W is read
    on the quiver it was built on, with every arrow freed (so inverse
    letters of other arrows fail the closure check), or with one arrow
    moved to a loop (so cycles through it may not close)."""
    base = _DERIVATIVE_QUIVERS[name]()
    rng = random.Random(seed)
    arrows = base.arrow_ids()
    quiver = Quiver(base.vertices, base.arrows, base.localized
                    | set(rng.sample(arrows, localize)))
    pairs = []
    for _ in range(terms):
        cycle = _random_closed_cycle(quiver, rng, rng.randint(1, 8))
        try:
            Potential.build(quiver, [(1, cycle)])
        except NonComposable:  # cancels to a constant path
            continue
        pairs.append((rng.choice([-2, -1, Fraction(1, 2), 1, 3]), cycle))
    W = Potential.build(quiver, pairs)
    if view == "freed":
        quiver = Quiver(quiver.vertices, quiver.arrows)
    elif view == "one arrow moved":
        moved, at = rng.choice(arrows), rng.choice(quiver.vertices)
        quiver = Quiver(quiver.vertices,
                        [(a, at, at) if a == moved else (a, s, t)
                         for a, s, t in quiver.arrows], quiver.localized)
    derivatives.cache_clear()  # equal inputs of earlier examples share a table
    table = derivatives(quiver, W)
    defined = []
    for a in arrows:
        try:
            want = _cyclic_derivative_reference(quiver, W, a)
        except (ValueError, KeyError) as exc:
            with pytest.raises(type(exc)) as got:
                table[a]
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
        else:
            assert table[a] == want and list(table[a].coeffs) == list(want.coeffs)
            assert cyclic_derivative(quiver, W, a) is table[a]
            defined.append(a)
    assert list(table) == defined
    with pytest.raises(UnknownArrow):
        table["no such arrow"]


def test_the_derivative_table_is_built_once_per_quiver_and_potential(qp, wp):
    derivatives.cache_clear()
    table = derivatives(qp, wp)
    assert derivatives(orbit_quiver(), Potential(dict(wp.coeffs))) is table
    assert jacobi_relations(qp, wp) == [table[a] for a in "abcde"]
    assert derivatives.cache_info().misses == 1
    assert hash(qp) == hash(Quiver(reversed(qp.vertices),
                                   reversed(qp.arrows), ["r"]))


def test_a_faulty_arrow_raises_only_when_read(qp):
    """``e`` occurs inverted, so it alone has no derivative."""
    q = Quiver(qp.vertices, qp.arrows, localized=["e", "r"])
    w = Potential.build(q, [(1, [("e", -1), "c"]), (1, ["a"])])
    table = derivatives(q, w)
    assert list(table) == ["a", "b", "c", "d", "r"]
    assert table["a"] == Element.from_word(q.word((), at=1))
    assert table["c"] == Element.from_word(q.word([("e", -1)]))
    with pytest.raises(InverseOfNonLocalized, match="occurrence of 'e'"):
        table["e"]


def test_one_loop_cube():
    q = Quiver([0], [("a", 0, 0)])
    w = Potential.build(q, [(1, ["a", "a", "a"])])
    assert cyclic_derivative(q, w, "a") == _el(q, [(3, "aa")])


def test_derivative_linear_in_potential(qp, wp):
    other = Potential.build(qp, [(1, ["a", "b"])])
    combo = wp + other.scale(Fraction(3, 2))
    for arrow in "abcde":
        lhs = cyclic_derivative(qp, combo, arrow)
        rhs = (cyclic_derivative(qp, wp, arrow)
               + cyclic_derivative(qp, other, arrow).scale(Fraction(3, 2)))
        assert lhs == rhs


def test_derivative_by_localized_arrow_uses_unlocalized_view(qp, wp):
    dr = cyclic_derivative(qp, wp, "r")
    expected = _el(qp, [(2, "eabreab"), (2, "drc"), (2, "crd"),
                        (-2, "dbrca"), (-2, "cardb"), (-2, "ere")])
    assert dr == expected


def test_jacobi_relations_skip_localized(qp, wp):
    rels = jacobi_relations(qp, wp)
    assert len(rels) == 5  # a..e; r is localized
    assert rels[2] == _el(qp, [(2, "rdr"), (-2, "ardbr")])


def test_jacobi_relations_on_tiling_quiver(q2, w2):
    rels = {a: cyclic_derivative(q2, w2, a) for a in "abcdefghij"}
    assert rels["c"] == _el(q2, [(1, "g"), (-1, "agi")])
    assert all(not r.is_zero() for r in rels.values())


# -- Ginzburg dga ------------------------------------------------------------


def test_dga_shape_on_tiling_quiver(q2, w2):
    dga = ginzburg_dga(q2, w2)
    stars = [a for a in dga.degree if dga.degree[a] == -1]
    loops = [a for a in dga.degree if dga.degree[a] == -2]
    assert len(stars) == 10 and len(loops) == 2
    ok, witnesses = check_d_squared(dga)
    assert ok, witnesses


def test_dga_one_loop_cube():
    q = Quiver([0], [("a", 0, 0)])
    w = Potential.build(q, [(1, ["a", "a", "a"])])
    dga = ginzburg_dga(q, w)
    assert dga.differential["a"].is_zero()
    assert dga.differential["a*"] == _el(dga.quiver, [(3, "aa")])
    t = dga.differential["t_0"]
    aa = Element.from_word(dga.quiver.word([("a", 1), ("a*", 1)]))
    sa = Element.from_word(dga.quiver.word([("a*", 1), ("a", 1)]))
    assert t == aa - sa
    ok, _ = check_d_squared(dga)
    assert ok


def test_dga_zero_potential(q2):
    dga = ginzburg_dga(q2, Potential())
    assert all(dga.differential[dga.star[a]].is_zero() for a in "abcdefghij")
    ok, _ = check_d_squared(dga)
    assert ok


def test_dga_refuses_localized(qp, wp):
    with pytest.raises(LocalizedQuiverUnsupported):
        ginzburg_dga(qp, wp)


def test_dga_detects_corrupted_differential(q2, w2):
    # Perturbing d(c*) by the constant path at s(c) breaks d^2 on t_1:
    # d^2(t_1) picks up [c, e_1] = c - 0 which no longer cancels.
    dga = ginzburg_dga(q2, w2)
    e1 = Element.from_word(dga.quiver.word((), at=1))
    dga.differential["c*"] = dga.differential["c*"] + e1
    ok, witnesses = check_d_squared(dga)
    assert not ok
    assert any(not w.is_zero() for w in witnesses.values())


# -- the commutator identity on random instances ------------------------------


def _random_instance(rng: random.Random):
    nv = rng.randint(1, 4)
    vertices = list(range(nv))
    na = rng.randint(1, 8)
    arrows = [(f"x{i}", rng.randrange(nv), rng.randrange(nv)) for i in range(na)]
    q = Quiver(vertices, arrows)
    out = {v: [a for a, s, _ in arrows if s == v] for v in vertices}
    terms = []
    for _ in range(rng.randint(1, 4)):
        # random closed walk of length <= 6 (right-to-left: build backwards)
        length = rng.randint(1, 6)
        for _attempt in range(60):
            start = rng.randrange(nv)
            walk, here = [], start
            for _ in range(length):
                choices = out[here]
                if not choices:
                    break
                a = rng.choice(choices)
                walk.append(a)
                here = q.target(a)
            if len(walk) == length and here == start:
                # walk applied first-to-last; written form is reversed
                terms.append((rng.choice([-2, -1, 1, 2, 3]), list(reversed(walk))))
                break
    if not terms:
        return None
    return q, Potential.build(q, terms)


def test_commutator_identity_and_d_squared_random_family():
    rng = random.Random(20260815)
    checked = 0
    while checked < 100:
        inst = _random_instance(rng)
        if inst is None:
            continue
        q, w = inst
        assert commutator_sum(q, w).is_zero()
        ok, witnesses = check_d_squared(ginzburg_dga(q, w))
        assert ok, witnesses
        checked += 1


def test_commutator_identity_on_running_examples(q2, w2, qp, wp):
    assert commutator_sum(q2, w2).is_zero()
    # the orbit quiver treated on its un-localized presentation
    q_flat = Quiver(qp.vertices, qp.arrows)
    assert commutator_sum(q_flat, wp).is_zero()


# -- hypothesis properties ----------------------------------------------------


def _random_word_letters(qp, rng, length):
    # backwards random walk allowing r and r^-1
    here = rng.choice([1, 2])
    walk = []
    for _ in range(length):
        options = [l for l in
                   [("a", 1), ("b", 1), ("c", 1), ("d", 1), ("e", 1),
                    ("r", 1), ("r", -1)]
                   if qp.letter_ends(l)[0] == here]
        l = rng.choice(options)
        walk.append(l)
        here = qp.letter_ends(l)[1]
    return list(reversed(walk)), here


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(0, 12),
       k=st.integers(0, 4))
def test_normalize_confluence_under_pair_insertion(seed, length, k):
    qp = Quiver([1, 2],
                [("a", 1, 1), ("b", 1, 1), ("c", 1, 2), ("d", 1, 2),
                 ("e", 1, 2), ("r", 2, 1)], localized=["r"])
    rng = random.Random(seed)
    letters, _ = _random_word_letters(qp, rng, length)
    base = qp.word(letters, at=1 if not letters else None)
    padded = list(base.letters)
    for _ in range(k):
        # vertex profile of the path, scanned in written (left-to-right) order
        spots = []
        here = base.target
        profile = [here]
        for l in padded:
            here = qp.letter_ends(l)[0]
            profile.append(here)
        for pos, v in enumerate(profile):
            for pair in ([("r", 1), ("r", -1)], [("r", -1), ("r", 1)]):
                v_pair = qp.letter_ends(pair[1])[0]  # vertex the pair sits at
                if v_pair == v:
                    spots.append((pos, pair))
        if not spots:
            break
        pos, pair = rng.choice(spots)
        padded[pos:pos] = pair
    renorm = normalize(qp, padded, at=base.source if not padded else None)
    assert renorm == base


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_multiply_associative(seed):
    qp = Quiver([1, 2],
                [("a", 1, 1), ("b", 1, 1), ("c", 1, 2), ("d", 1, 2),
                 ("e", 1, 2), ("r", 2, 1)], localized=["r"])
    rng = random.Random(seed)

    def rand_element():
        out = Element()
        for _ in range(rng.randint(0, 3)):
            letters, _ = _random_word_letters(qp, rng, rng.randint(0, 4))
            w = qp.word(letters, at=rng.choice([1, 2]) if not letters else None)
            out = out + Element.from_word(w, rng.choice([-2, -1, 1, 2]))
        return out

    x, y, z = rand_element(), rand_element(), rand_element()
    assert multiply(qp, multiply(qp, x, y), z) == multiply(qp, x, multiply(qp, y, z))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(0, 12),
       cuts=st.lists(st.integers(0, 12), max_size=3))
def test_seam_products_match_normalize(seed, length, cuts):
    """Cutting a walk into normal pieces and joining them at the seams gives
    the normal form of the whole walk."""
    qp = Quiver([1, 2],
                [("a", 1, 1), ("b", 1, 1), ("c", 1, 2), ("d", 1, 2),
                 ("e", 1, 2), ("r", 2, 1)], localized=["r"])
    rng = random.Random(seed)
    letters, target = _random_word_letters(qp, rng, length)
    # vertex[i] is where the walk stands left of letters[i]
    vertex = [target] + [qp.letter_ends(l)[0] for l in letters]
    # a repeated cut yields a constant piece
    bounds = sorted([0, len(letters), *(min(c, len(letters)) for c in cuts)])
    pieces = [qp.word(letters[i:j], at=vertex[i] if i == j else None)
              for i, j in zip(bounds, bounds[1:])]
    whole = qp.word(letters, at=target if not letters else None)
    assert word_product(qp, *pieces) == whole
    if len(pieces) == 2:
        x, y = (Element.from_word(w) for w in pieces)
        assert multiply(qp, x, y) == Element.from_word(whole)


def _least_rotation_reference(cycle):
    """The rule ``canonical_rotation`` replaced: build every rotation and
    compare their full key tuples; ``min`` keeps the first of equal keys."""
    rotations = [cycle[i:] + cycle[:i] for i in range(len(cycle))]
    return min(rotations, default=cycle,
               key=lambda r: tuple(_letterkey(l) for l in r))


@settings(max_examples=300, deadline=None)
@given(base=st.lists(st.tuples(st.sampled_from(["a", "b", 1, "1", "r"]),
                               st.sampled_from([1, -1])), max_size=8),
       repeats=st.integers(1, 3))
def test_canonical_rotation_matches_the_all_rotations_rule(base, repeats):
    # repeated blocks tie whole rotations; ids 1 and "1" share a key, so
    # rotations with equal keys can still differ in their letters
    cycle = tuple(base) * repeats
    assert canonical_rotation(cycle) == _least_rotation_reference(cycle)


def _as_pairs(cycle):
    return [l if isinstance(l, tuple) else (l, 1) for l in cycle]


def _old_potential_key(cycle):
    """The key ``Potential`` once recomputed on every construction: read
    bare arrow ids as exponent-1 letters, cancel inverse pairs across the
    rotation seam, take the least rotation."""
    letters = tuple(_as_pairs(cycle))
    while len(letters) >= 2 and letters[0] == (letters[-1][0], -letters[-1][1]):
        letters = letters[1:-1]
    return _least_rotation_reference(letters)


def _random_cycle(qp, rng, length):
    """A random closed walk in written order, closed by one letter when the
    walk ends away from where it started; exponent-1 letters are given as
    bare arrow ids at random."""
    letters, target = _random_word_letters(qp, rng, length)
    source = qp.letter_ends(letters[-1])[0]
    if target != source:
        letters.insert(0, ("c", 1) if target == 1 else ("r", 1))
    return [a if e == 1 and rng.random() < 0.5 else (a, e) for a, e in letters]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       coeffs=st.lists(st.fractions(-2, 2, max_denominator=3), min_size=1,
                       max_size=8),
       split=st.integers(0, 8), k=st.fractions(-3, 3, max_denominator=2))
def test_built_potentials_are_keyed_once_and_trusted(seed, coeffs, split, k):
    qp = orbit_quiver()
    rng = random.Random(seed)
    terms, expected = [], {}
    for c in coeffs:
        cycle = _random_cycle(qp, rng, rng.randint(1, 8))
        key = _old_potential_key(qp.word(_as_pairs(cycle)).letters)
        if not key:
            with pytest.raises(NonComposable, match="constant path"):
                Potential.build(qp, [(c, cycle)])
            continue
        terms.append((c, cycle))
        expected[key] = expected.get(key, 0) + c
    built = Potential.build(qp, terms)
    assert built.coeffs == {key: c for key, c in expected.items() if c}
    words = [(c, qp.word(_as_pairs(cycle))) for c, cycle in terms]
    assert Potential.build(qp, words) == built
    # the combination core trusts the keys of built potentials
    x, y = Potential.build(qp, terms[:split]), Potential.build(qp, terms[split:])
    assert x + y == built
    assert x - y == Potential.build(
        qp, terms[:split] + [(-c, cycle) for c, cycle in terms[split:]])
    assert x.scale(k) == Potential.build(qp, [(c * k, cycle)
                                              for c, cycle in terms[:split]])


def test_build_keeps_its_three_errors(qp):
    # a Word is taken as normal and checked only for closure
    for cycle, message in [((), "empty cycle"), ("c", "not closed"),
                           ([("r", 1), ("r", -1)], "constant path"),
                           (_w(qp, "c"), "not closed"),
                           (_w(qp, "", at=1), "constant path")]:
        with pytest.raises(NonComposable, match=message):
            Potential.build(qp, [(1, cycle)])


# -- the shared combination core ------------------------------------------------


def test_elements_and_potentials_stay_distinct_types():
    assert Element() != Potential() and Potential() != Element()
    assert not isinstance(Potential(), Element)
    assert not isinstance(Element(), Potential)


_ELEMENT_KEYS = ["a", "rdr", "ardbr", "r^-1 a", "rcr", None]  # None: e_2
# canonical keys, as ``Potential.build`` makes them: ``rere`` and ``erer``
# share one, as do ``rdrc`` and ``crdr``
_CYCLE_KEYS = [canonical_rotation(tuple(parse_letters(s)))
               for s in ("rere", "erer", "abreabre", "rdrc", "crdr", "ardbrc")]


@settings(max_examples=100, deadline=None)
@given(potential=st.booleans(),
       picks=st.lists(st.tuples(st.integers(0, 5),
                                st.fractions(-2, 2, max_denominator=3)),
                      max_size=10),
       cancel=st.integers(0, 10))
def test_built_from_pairs_equals_the_folded_sum(potential, picks, cancel):
    """Repeated keys add up (``rere`` and ``erer`` are one cycle, so their
    canonical keys merge) and cancelling ones drop out, as when singletons
    are summed with ``+``."""
    qp = orbit_quiver()
    if potential:
        kind = Potential
        keys = _CYCLE_KEYS
        assert keys[0] == keys[1] and keys[3] == keys[4]
    else:
        kind = Element
        keys = [_w(qp, s) if s else _w(qp, "", at=2) for s in _ELEMENT_KEYS]
    pairs = [(keys[i], c) for i, c in picks]
    pairs += [(k, -c) for k, c in pairs[:cancel]]
    folded = kind()
    for k, c in pairs:
        folded = folded + kind({k: c})
    built = kind(pairs)
    assert built == folded and hash(built) == hash(folded)
    assert all(built.coeffs.values())
    assert built == kind(dict(built.coeffs)) == built.scale(2) - built.scale(1)


def test_printed_forms_of_the_bundled_potentials(q2, w2, qp, wp):
    assert str(w2) == "cg + dh - ef - agic - bhjd + abfjie"
    assert [str(cyclic_derivative(q2, w2, a)) for a in q2.arrow_ids()] == [
        "-gic + bfjie", "-hjd + fjiea", "g - agi", "h - bhj", "-f + abfji",
        "-e + jieab", "c - ica", "d - jdb", "-cag + eabfj", "-dbh + ieabf"]
    assert str(wp) == "2crdr - erer - 2ardbrc + abreabre"
    assert repr(wp) == "Potential(2crdr - erer - 2ardbrc + abreabre)"
    assert str(wp.scale(Fraction(-1, 2))) == \
        "-crdr + 1/2erer + ardbrc - 1/2abreabre"
    assert [str(cyclic_derivative(qp, wp, a)) for a in qp.arrow_ids()] == [
        "-2rdbrc + 2breabre", "-2rcard + 2reabrea", "2rdr - 2ardbr",
        "2rcr - 2brcar", "-2rer + 2abreabr",
        "2crd + 2drc - 2ere - 2cardb - 2dbrca + 2eabreab"]
    x = _el(qp, [(Fraction(1, 2), "r^-1 a")]) - Element.from_word(
        _w(qp, "", at=2), 3)
    assert repr(x) == "Element(-3e_2 + 1/2r^-1a)"
    assert str(Element()) == str(Potential()) == "0"


# -- JSON round trips ----------------------------------------------------------


def test_qpot_json_round_trip(qp, wp):
    obj = qpot_to_json(qp, wp)
    q2_, w2_ = qpot_from_json(obj)
    assert q2_ == qp
    assert w2_ == wp


def test_potential_json_rejects_inverse_of_unlocalized(qp):
    with pytest.raises(InverseOfNonLocalized):
        potential_from_json(qp, [{"coeff": 1, "word": [["e", -1], ["c", 1]]}])


def test_potential_accepts_localized_inverses_and_wrap_cancels(qp):
    # as a cyclic word, r^-1 a r is the loop a
    got = potential_from_json(qp, [{"coeff": 1, "word": [["r", -1], ["a", 1], ["r", 1]]}])
    assert got == Potential.build(qp, [(1, "a")])
    back = potential_to_json(got)
    assert back == [{"coeff": 1, "word": [["a", 1]]}]


def test_element_json_round_trip(qp):
    x = Element()
    x = x + Element.from_word(qp.word(parse_letters("r^-1 a")), Fraction(1, 2))
    x = x + Element.from_word(qp.word((), at=2), -3)
    items = element_to_json(x)
    assert element_from_json(qp, items) == x
