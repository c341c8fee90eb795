"""Surface-group reduction, semidirect bookkeeping, the matrix-unit map, and
derivation-script checking, exercised on the order-2 genus-2 running example."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    cyclic_cover,
    default_choice,
    genus2_potential,
    genus2_quiver,
    square_torus_covers,
)
from tessella.datafiles import load_data
from tessella.equivariant import (
    ChoiceSearch,
    MatchingStuck,
    NoChoiceFound,
    OrbitChoice,
    QuiverAutomorphism,
    build_orbit_quiver,
    equivariant_dimer,
    induced_quiver_automorphism,
    refine_tiling,
    transport_potential,
)
from tessella.pathalg import (
    NonComposable,
    Potential,
    Quiver,
    UnknownArrow,
    _cancel,
    _wrap_reduce,
    normalize,
    parse_letters,
    word_product,
)
from tessella.presentation import (
    GenusTooSmall,
    MatrixUnitElement,
    MissingPhiAction,
    NotInTreeClosure,
    PhiAction,
    SemidirectElement,
    SurfacePresentation,
    as_group_letters,
    basepoint,
    check_derivation_script,
    contracted_relations,
    cyclic_core,
    default_tree,
    dehn_reduce,
    free_reduce,
    invert_letters,
    parse_group_word,
    phi_action_from_json,
    psi_assignment_from_json,
    psi_eval,
    psi_multiply,
    render_group_word,
    semidirect_equal,
    semidirect_inverse,
    semidirect_multiply,
    semidirect_normalize,
    verify_psi_relations,
)
from tessella.surfacemap import dual_quiver

PRES2 = SurfacePresentation(2)
PRES3 = SurfacePresentation(3)
LETTERS2 = tuple((g, e) for g in PRES2.generators for e in (1, -1))
LETTERS3 = tuple((g, e) for g in PRES3.generators for e in (1, -1))

ARROW_SWAP = {"a": "j", "b": "i", "c": "h", "d": "g", "e": "f",
              "f": "e", "g": "d", "h": "c", "i": "b", "j": "a"}


@lru_cache(maxsize=None)
def orbit_setup():
    q = genus2_quiver()
    W = genus2_potential(q)
    phi = QuiverAutomorphism(q, {1: 2, 2: 1}, ARROW_SWAP)
    ctx = build_orbit_quiver(q, phi, OrbitChoice("abcde", {1: 2}))
    return ctx, W, transport_potential(W, ctx).potential


@lru_cache(maxsize=None)
def torus_setup():
    q = Quiver((1,), [("x", 1, 1), ("y", 1, 1), ("z", 1, 1)])
    W = Potential.build(q, [(1, "xyz"), (-1, "xzy")])
    ident = QuiverAutomorphism.identity(q)
    return build_orbit_quiver(q, ident, default_choice(q, ident)), W


@lru_cache(maxsize=None)
def surface_action():
    return phi_action_from_json(load_data("genus2_phi_star.json"))


@pytest.fixture(scope="module")
def ctx():
    return orbit_setup()[0]


@pytest.fixture(scope="module")
def base_w():
    return orbit_setup()[1]


@pytest.fixture(scope="module")
def wprime():
    return orbit_setup()[2]


@pytest.fixture(scope="module")
def phi_star():
    return surface_action()


def random_reduced(rng, letters, n):
    out = []
    while len(out) < n:
        l = rng.choice(letters)
        if out and out[-1][0] == l[0] and out[-1][1] == -l[1]:
            continue
        out.append(l)
    return tuple(out)


def insertion_oracle(w, pres):
    """Trivial iff freely trivial after inserting at most one relator rotation.

    Sound for any word (rotations represent 1).  Complete for reduced words of
    length <= 6: a nonempty trivial reduced word contains more than half of
    some rotation s.t (so |s| >= 5), and inserting (s.t)^-1 before s leaves a
    trivial word of raw length <= 6 - |s| + |t| <= 4, which must cancel freely
    because nonempty reduced trivial words are at least as long as a
    Greendlinger piece bound allows (>= 5 letters).
    """
    w = free_reduce(w)
    if not w:
        return True
    for pos in range(len(w) + 1):
        for rot in pres.rotations():
            if not free_reduce(w[:pos] + rot + w[pos:]):
                return True
    return False


# -- group words -------------------------------------------------------------------


def test_parse_and_render_group_words():
    assert parse_group_word("x1 y1^-1") == (("x1", 1), ("y1", -1))
    assert parse_group_word("") == ()
    assert parse_group_word("  r   c^-1 ") == (("r", 1), ("c", -1))
    assert parse_group_word("x2^1") == (("x2", 1),)
    w = (("x1", 1), ("y2", -1), ("x1", -1))
    assert parse_group_word(render_group_word(w)) == w
    assert render_group_word(()) == ""
    with pytest.raises(ValueError):
        parse_group_word("^-1")


_TOKENS = st.sampled_from(["x1", "y1", "r", "ab", "x1^-1", "r^-1", "y1^1",
                           "ab^1", "c^-1"])


@given(st.lists(_TOKENS, min_size=1, max_size=6),
       st.sampled_from([" ", "  ", " \t "]))
@settings(max_examples=60, deadline=None)
def test_path_and_group_parsers_read_tokens_alike(tokens, sep):
    """One token reader serves both parsers: on any string with a space
    the path-word parser reads exactly the group-word tokens."""
    s = " " + sep.join(tokens)
    assert tuple(parse_letters(s)) == parse_group_word(s)


def test_path_and_group_parsers_share_the_edge_cases():
    assert parse_letters("x^1 y") == [("x", 1), ("y", 1)]
    for bad in ("^-1 a", "a ^1"):
        with pytest.raises(ValueError, match="empty generator name"):
            parse_letters(bad)
        with pytest.raises(ValueError, match="empty generator name"):
            parse_group_word(bad)


def test_as_group_letters_validation():
    assert as_group_letters("x1 x1") == (("x1", 1), ("x1", 1))
    assert as_group_letters([("a", 1), ("b", -1)]) == (("a", 1), ("b", -1))
    with pytest.raises(ValueError):
        as_group_letters([("a", 2)])


def test_free_reduce_and_cyclic_core():
    assert free_reduce("x1 x1^-1") == ()
    assert free_reduce("x1 y1 y1^-1 x1^-1 x2") == (("x2", 1),)
    assert invert_letters("x1 y1") == (("y1", -1), ("x1", -1))
    # conjugation collars strip cyclically, layer by layer
    w = parse_group_word("y2 x1 y1 x1^-1 y2^-1")
    assert cyclic_core(w) == (("y1", 1),)
    assert cyclic_core("x1 y1 x1^-1 y1^-1") == parse_group_word(
        "x1 y1 x1^-1 y1^-1")
    assert cyclic_core("x1 x1^-1") == ()


@given(st.lists(st.sampled_from(LETTERS2), max_size=14).map(tuple))
def test_free_reduce_idempotent_and_reduced(w):
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert all(not (r[i][0] == r[i + 1][0] and r[i][1] == -r[i + 1][1])
               for i in range(len(r) - 1))


@given(st.lists(st.sampled_from(LETTERS2), max_size=14).map(tuple))
def test_invert_letters_involution(w):
    assert invert_letters(invert_letters(w)) == tuple(w)
    assert free_reduce(tuple(w) + invert_letters(w)) == ()


# free reduction is the path-word normal form on one vertex whose arrows are
# the generators, all localized
ONE_VERTEX = Quiver((0,), [(g, 0, 0) for g in PRES2.generators],
                    localized=PRES2.generators)


@given(st.lists(st.sampled_from(LETTERS2), max_size=14).map(tuple))
def test_free_reduce_is_normalize_on_one_localized_vertex(w):
    assert free_reduce(w) == normalize(ONE_VERTEX, w, at=0).letters


# -- the surface presentation ------------------------------------------------------


def test_surface_presentation_structure():
    assert PRES2.generators == ("x1", "y1", "x2", "y2")
    assert PRES2.relator == parse_group_word(
        "x1 y1 x1^-1 y1^-1 x2 y2 x2^-1 y2^-1")
    assert len(PRES2.rotations()) == 16
    assert len(set(PRES2.rotations())) == 16
    assert PRES2.piece_bound == 1

    assert len(PRES3.relator) == 12
    assert len(set(PRES3.rotations())) == 24
    g5 = SurfacePresentation(5)
    assert len(g5.relator) == 20 and g5.piece_bound == 1


def test_rotations_inverse_closed():
    rots = set(PRES2.rotations())
    assert all(invert_letters(r) in rots for r in rots)


def test_genus_too_small():
    for g in (1, 0, -3):
        with pytest.raises(GenusTooSmall):
            SurfacePresentation(g)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_pair_index_names_each_rotation_by_its_first_two_letters(genus):
    pres = SurfacePresentation(genus)
    index = pres.pair_index
    assert len(index) == 8 * genus
    assert all(index[rot[:2]] is rot for rot in pres.rotations())


# -- Dehn's algorithm --------------------------------------------------------------


def test_dehn_reduce_kills_relator():
    assert dehn_reduce(PRES2.relator, PRES2) == ()
    assert dehn_reduce(PRES3.relator, PRES3) == ()
    for rot in PRES2.rotations():
        assert dehn_reduce(rot, PRES2) == ()


def test_dehn_reduce_majority_match():
    # seven of eight relator letters leave the complement's inverse
    w = parse_group_word("x1 y1 x1^-1 y1^-1 x2 y2 x2^-1")
    assert dehn_reduce(w, PRES2) == (("y2", 1),)


def test_dehn_reduce_conjugate_products_trivial():
    for pres, letters, seed in ((PRES2, LETTERS2, 7), (PRES3, LETTERS3, 11)):
        rng = random.Random(seed)
        for _ in range(20):
            w = []
            for _ in range(3):
                u = [rng.choice(letters) for _ in range(rng.randrange(5))]
                rot = rng.choice(pres.rotations())
                w.extend(u + list(rot) + list(invert_letters(u)))
            assert dehn_reduce(tuple(w), pres) == ()


def test_dehn_reduce_keeps_nontrivial_words():
    k = parse_group_word("x1 y1 x1^-1 y1^-1")
    assert dehn_reduce(k, PRES2) == k  # a commutator matches only half of R
    assert dehn_reduce(parse_group_word("x2 y2 x2^-1 y2^-1"), PRES2)
    assert dehn_reduce((("x1", 1),), PRES2) == (("x1", 1),)


@given(st.lists(st.sampled_from(LETTERS2), max_size=12).map(tuple))
def test_dehn_reduce_never_lengthens(w):
    out = dehn_reduce(w, PRES2)
    assert len(out) <= len(free_reduce(w))
    assert dehn_reduce(tuple(w) + invert_letters(w), PRES2) == ()


def test_dehn_agrees_with_insertion_oracle_exhaustively():
    words = [()]
    for n in (1, 2, 3):
        words.extend(w for w in itertools.product(LETTERS2, repeat=n)
                     if free_reduce(w) == w)
    assert len(words) == 1 + 8 + 56 + 392
    for w in words:
        assert (dehn_reduce(w, PRES2) == ()) == insertion_oracle(w, PRES2)


def test_dehn_agrees_with_insertion_oracle_sampled():
    rng = random.Random(23)
    for _ in range(250):
        w = random_reduced(rng, LETTERS2, rng.randrange(4, 7))
        assert (dehn_reduce(w, PRES2) == ()) == insertion_oracle(w, PRES2)
    # trivial-side coverage: single conjugates of relator rotations
    for _ in range(30):
        u = random_reduced(rng, LETTERS2, rng.randrange(6))
        w = u + rng.choice(PRES2.rotations()) + invert_letters(u)
        assert dehn_reduce(w, PRES2) == ()
        assert insertion_oracle(w, PRES2)


def reference_dehn_reduce(w, pres):
    """The scan ``dehn_reduce`` replaced, kept to pin its exact output: every
    position against all 8g rotations, and a fresh free reduction of the
    whole word after each replacement."""
    w = free_reduce(w)
    half = 2 * pres.genus
    rots = pres.rotations()
    while True:
        best_pos, best_len, best_rot = -1, half, None
        for pos in range(len(w)):
            if len(w) - pos <= best_len:
                break
            for rot in rots:
                l = 0
                m = min(len(w) - pos, len(rot))
                while l < m and w[pos + l] == rot[l]:
                    l += 1
                if l > best_len:
                    best_pos, best_len, best_rot = pos, l, rot
        if best_rot is None:
            return w
        complement = invert_letters(best_rot[best_len:])
        w = free_reduce(w[:best_pos] + complement + w[best_pos + best_len:])


def _chunks(pres, letters):
    """Single letters mixed with stretches of relator rotations (either
    sign), so that generated words hold long matches, sometimes several."""
    stretch = st.tuples(st.sampled_from(pres.rotations()),
                        st.integers(2, 4 * pres.genus)).map(
        lambda rk: rk[0][:rk[1]])
    return st.one_of(st.sampled_from(letters).map(lambda l: (l,)), stretch)


def _words(pres, letters):
    return st.lists(_chunks(pres, letters), max_size=24).map(
        lambda cs: tuple(l for c in cs for l in c)[:80])


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(st.just(PRES2), _words(PRES2, LETTERS2)),
                 st.tuples(st.just(PRES3), _words(PRES3, LETTERS3)),
                 st.tuples(st.just(PRES2),
                           st.lists(st.sampled_from(LETTERS2), max_size=80)),
                 st.tuples(st.just(PRES3),
                           st.lists(st.sampled_from(LETTERS3), max_size=80))))
# two majority matches of equal length: the leftmost must be replaced first
@example((PRES2, parse_group_word(
    "y2 x2^-1 y2^-1 x1 y1 x1^-1 y1^-1 x2 y2^-1 x2^-1 y1 x1 y1^-1 "
    "x2 y2 x2^-1 y2^-1")))
@example((PRES2, parse_group_word(
    "y2^-1 y1^-1 y1^-1 y1^-1 y1 x1 y1^-1 x1^-1 y2 x2 y2 x2^-1 y2^-1 x1")))
def test_dehn_reduce_matches_the_reference_scan(case):
    pres, w = case
    w = tuple(w)
    assert dehn_reduce(w, pres) == reference_dehn_reduce(w, pres)


def test_dehn_reduce_matches_the_reference_scan_on_conjugate_products():
    for pres, letters, seed in ((PRES2, LETTERS2, 31), (PRES3, LETTERS3, 37)):
        rng = random.Random(seed)
        inverse = invert_letters(pres.relator)
        for i in range(300):
            w = []
            for _ in range(2):
                u = tuple(rng.choice(letters) for _ in range(rng.randrange(7)))
                core = pres.relator if rng.random() < 0.5 else inverse
                w.extend(u + core + invert_letters(u))
            w = tuple(w)
            if i % 3 == 1:  # drop a letter: a nontrivial near-product
                cut = rng.randrange(len(w))
                w = w[:cut] + w[cut + 1:]
            want = reference_dehn_reduce(w, pres)
            assert dehn_reduce(w, pres) == want
            assert want == () or i % 3 == 1


# -- the induced surface-group action ----------------------------------------------


def test_phi_action_from_config(phi_star):
    assert phi_star.order == 2
    assert set(phi_star.mapping) == set(PRES2.generators)
    assert phi_star.apply("x1") == (("x2", 1),)
    assert phi_star.apply("y1") == (("y2", 1),)
    for g in PRES2.generators:
        sq = phi_star.apply(phi_star.apply(((g, 1),)))
        assert dehn_reduce(sq + ((g, -1),), PRES2) == ()
    # phi^-1 is phi^(order-1)
    assert phi_star.apply("x2", -1) == phi_star.apply("x2", 1)
    assert isinstance(phi_star.relator_conjugate, bool)


def test_phi_action_schematic_swap():
    swap = PhiAction(PRES2, {"x1": "x2", "y1": "y2", "x2": "x1", "y2": "y1"}, 2)
    assert swap.apply("x1 y1^-1") == parse_group_word("x2 y2^-1")
    # the relator image is a literal rotation here, not just group-trivial
    assert swap.relator_conjugate


def test_phi_action_rejects_non_action():
    # swapping only the x pair does not preserve the relator
    with pytest.raises(ValueError, match="relator"):
        PhiAction(PRES2, {"x1": "x2", "x2": "x1", "y1": "y1", "y2": "y2"}, 2)


def test_phi_action_rejects_wrong_order():
    with pytest.raises(ValueError, match="does not fix"):
        PhiAction(PRES2, {"x1": "x2", "y1": "y2", "x2": "x1", "y2": "y1"}, 3)


def test_phi_action_validation_errors():
    good = {"x1": "x2", "y1": "y2", "x2": "x1", "y2": "y1"}
    with pytest.raises(ValueError, match="missing"):
        PhiAction(PRES2, {"x1": "x2"}, 2)
    with pytest.raises(ValueError, match="unknown"):
        PhiAction(PRES2, dict(good, z9="x1"), 2)
    with pytest.raises(ValueError, match="unknown"):
        PhiAction(PRES2, dict(good, x1="z9"), 2)
    with pytest.raises(ValueError, match="order"):
        PhiAction(PRES2, good, 0)


def phi_action_to_json(phi: PhiAction) -> dict:
    return {
        "genus": phi.pres.genus,
        "order": phi.order,
        "phi_star": {g: render_group_word(w) for g, w in phi.mapping.items()},
    }


def test_phi_action_json_round_trip(phi_star):
    blob = phi_action_to_json(phi_star)
    again = phi_action_from_json(blob)
    assert again.mapping == phi_star.mapping
    assert again.order == phi_star.order


# -- semidirect elements -----------------------------------------------------------


def test_semidirect_element_normal_form():
    x = SemidirectElement(parse_group_word("x1 x2 x2^-1"), 1)
    assert x.word == (("x1", 1),) and x.k == 1
    assert str(SemidirectElement((), -1)) == "([1], -1)"


def test_semidirect_translation_powers(phi_star):
    t = SemidirectElement((), -1)
    assert semidirect_multiply(t, t, phi_star) == SemidirectElement((), -2)


def test_semidirect_twisted_product():
    swap = PhiAction(PRES2, {"x1": "x2", "y1": "y2", "x2": "x1", "y2": "y1"}, 2)
    x = SemidirectElement((("x1", 1),), 1)
    y = SemidirectElement((("x1", 1),), 0)
    assert semidirect_multiply(x, y, swap) == SemidirectElement(
        parse_group_word("x1 x2"), 1)


def test_semidirect_inverse_round_trip(phi_star):
    rng = random.Random(5)
    one = SemidirectElement((), 0)
    for _ in range(15):
        x = SemidirectElement(random_reduced(rng, LETTERS2, rng.randrange(7)),
                              rng.randrange(-2, 3))
        inv = semidirect_inverse(x, phi_star)
        assert semidirect_multiply(x, inv, phi_star) == one
        assert semidirect_multiply(inv, x, phi_star) == one
        assert semidirect_equal(semidirect_inverse(inv, phi_star), x, phi_star)


def test_semidirect_normalize(phi_star):
    x = SemidirectElement(PRES2.relator, 4)
    assert semidirect_normalize(x, phi_star) == SemidirectElement((), 4)


def test_semidirect_centrality_of_full_twist(phi_star):
    # (g, 0) commutes with ([1], order) but in general not with ([1], 1)
    swap = PhiAction(PRES2, {"x1": "x2", "y1": "y2", "x2": "x1", "y2": "y1"}, 2)
    g = SemidirectElement((("x1", 1),), 0)
    full = SemidirectElement((), swap.order)
    assert semidirect_equal(semidirect_multiply(g, full, swap),
                            semidirect_multiply(full, g, swap), swap)
    single = SemidirectElement((), 1)
    assert not semidirect_equal(semidirect_multiply(g, single, swap),
                                semidirect_multiply(single, g, swap), swap)
    # the configured action fixes generators only up to conjugation, so the
    # commuting products differ literally but agree in the group
    lhs = semidirect_multiply(g, SemidirectElement((), phi_star.order), phi_star)
    rhs = semidirect_multiply(SemidirectElement((), phi_star.order), g, phi_star)
    assert semidirect_equal(lhs, rhs, phi_star)


def matrix_unit_multiply(x: MatrixUnitElement, y: MatrixUnitElement,
                         phi: PhiAction) -> MatrixUnitElement:
    """Matrix-unit product over the semidirect group algebra."""
    if x.col != y.row:
        raise NonComposable(
            f"E_[{x.row},{x.col}] cannot multiply E_[{y.row},{y.col}]")
    return MatrixUnitElement(x.row, y.col,
                             semidirect_multiply(x.elem, y.elem, phi),
                             x.coeff * y.coeff)


def test_matrix_unit_multiply(phi_star):
    x = MatrixUnitElement(1, 2, SemidirectElement((("x1", 1),), 1), 2)
    y = MatrixUnitElement(2, 1, SemidirectElement((("y1", 1),), 0), Fraction(1, 2))
    z = matrix_unit_multiply(x, y, phi_star)
    assert (z.row, z.col) == (1, 1)
    assert z.coeff == 1
    assert z.elem == semidirect_multiply(x.elem, y.elem, phi_star)
    with pytest.raises(NonComposable):
        matrix_unit_multiply(x, x, phi_star)


# -- the matrix-unit evaluation map ------------------------------------------------


def test_basepoint_and_default_tree(ctx):
    assert basepoint(ctx) == 1
    assert default_tree(ctx) == ("c",)
    tctx, _ = torus_setup()
    assert basepoint(tctx) == 1
    assert default_tree(tctx) == ()


def test_psi_eval_generator_images(ctx, base_w):
    tree = ("e",)
    pa = psi_eval("a", ctx, tree=tree, base_potential=base_w)
    assert (pa.row, pa.col) == (1, 1)
    assert pa.elem == SemidirectElement((("a", 1),), 0)

    pc = psi_eval("c", ctx, tree=tree, base_potential=base_w)
    assert (pc.row, pc.col) == (2, 1)
    assert pc.elem == SemidirectElement((("e", -1), ("c", 1)), 0)

    pr = psi_eval("r", ctx, tree=tree, base_potential=base_w)
    assert (pr.row, pr.col) == (1, 2)
    assert pr.elem == SemidirectElement((), -1)

    pe = psi_eval("e", ctx, tree=tree, base_potential=base_w)
    assert (pe.row, pe.col) == (2, 1)
    assert pe.elem == SemidirectElement((), 0)


def test_psi_eval_literal_residue_is_a_face(ctx, base_w):
    # without erasure the isomorphism arrow shows its correction residue,
    # which is exactly a face boundary of the base potential
    pr = psi_eval("r", ctx, tree=("e",))
    assert pr.elem.word == (("f", 1), ("e", 1))
    face_rots = {cyc[i:] + cyc[:i]
                 for _, cyc in base_w.terms() for i in range(len(cyc))}
    assert pr.elem.word in face_rots


def test_psi_eval_default_tree(ctx, base_w):
    # with the default tree the degree-0 generator on the tree collapses
    pc = psi_eval("c", ctx, base_potential=base_w)
    assert pc.elem == SemidirectElement((), 0)
    pr = psi_eval("r", ctx)
    assert pr.elem.k == -1 and (pr.row, pr.col) == (1, 2)


def test_psi_eval_constants_and_errors(ctx):
    for v in (1, 2):
        unit = psi_eval(normalize(ctx.quiver, (), at=v), ctx, tree=("e",))
        assert (unit.row, unit.col) == (v, v)
        assert unit.elem == SemidirectElement((), 0)
    with pytest.raises(TypeError):
        psi_eval(17, ctx)
    with pytest.raises(UnknownArrow):
        psi_eval("zz", ctx, tree=("e",))


def test_psi_eval_face_power(ctx, base_w):
    # the doubled cycle r e r e folds to a pure translation once the face
    # boundaries are erased
    out = psi_eval("r e r e", ctx, tree=("e",), base_potential=base_w)
    assert (out.row, out.col) == (1, 1)
    assert out.elem == SemidirectElement((), -2)
    raw = psi_eval("r e r e", ctx, tree=("e",))
    assert raw.elem.k == -2 and raw.elem.word


def test_psi_eval_tree_validation(ctx):
    with pytest.raises(NotInTreeClosure):
        psi_eval("c", ctx, tree=())
    assert psi_eval("a", ctx, tree=()).elem.word == (("a", 1),)
    with pytest.raises(ValueError, match="degree"):
        psi_eval("a", ctx, tree=("f",))
    with pytest.raises(ValueError, match="cycle"):
        psi_eval("a", ctx, tree=("c", "d"))
    with pytest.raises(UnknownArrow):
        psi_eval("a", ctx, tree=("zz",))


def _paths_up_to(quiver, n):
    level = [normalize(quiver, ((a, 1),)) for a in quiver.arrow_ids()]
    out = list(level)
    for _ in range(n - 1):
        nxt = [normalize(quiver, ((b, 1),) + w.letters)
               for w in level
               for b in quiver.arrow_ids() if quiver.source(b) == w.target]
        out.extend(nxt)
        level = nxt
    return out


def test_psi_integer_part_is_minus_degree(ctx):
    for w in _paths_up_to(ctx.quiver, 5):
        out = psi_eval(w, ctx, tree=("e",))
        assert out.elem.k == -ctx.word_degree(w)
        assert (out.row, out.col) == (w.target, w.source)


def test_psi_multiplicativity(ctx):
    words = _paths_up_to(ctx.quiver, 4)
    rng = random.Random(13)
    pairs = [(w1, w2) for w1 in words for w2 in words
             if w1.source == w2.target]
    for w1, w2 in rng.sample(pairs, 60):
        x = psi_eval(w1, ctx, tree=("e",))
        y = psi_eval(w2, ctx, tree=("e",))
        prod = psi_eval(word_product(ctx.quiver, w1, w2), ctx, tree=("e",))
        assert psi_multiply(x, y, ctx, tree=("e",)) == prod
    with pytest.raises(NonComposable):
        psi_multiply(psi_eval("r", ctx, tree=("e",)),
                     psi_eval("r", ctx, tree=("e",)), ctx, tree=("e",))


# -- relation verification ---------------------------------------------------------


def test_transport_matches_frozen_orbit_potential(wprime, wp):
    assert wprime == wp


def test_verify_certificate_running_example(ctx, wprime):
    report = verify_psi_relations(ctx, wprime)
    assert report.mode == "certificate" and report.ok
    assert [c.arrow for c in report.checks] == ["a", "b", "c", "d", "e"]
    assert all(c.method in ("free-cancellation", "face-boundary",
                            "face-boundary-pair") for c in report.checks)
    blob = report.to_json()
    assert blob["ok"] and len(blob["checks"]) == 5


def test_certificate_mode_trusts_the_letters_it_builds(ctx, wprime, capsys,
                                                       monkeypatch):
    """Every word certificate mode handles comes from the letter kernel, so
    no letter is validated again, in the library or through the CLI."""
    from tessella import cli, presentation

    report = verify_psi_relations(ctx, wprime)
    assert cli.main(["psi-verify"]) == 0
    printed = capsys.readouterr().out

    def refuse(w):
        raise AssertionError(f"letters of {w!r} validated again")
    monkeypatch.setattr(presentation, "as_group_letters", refuse)
    assert verify_psi_relations(ctx, wprime) == report
    assert cli.main(["psi-verify"]) == 0
    assert capsys.readouterr().out == printed


def test_verify_certificate_torus():
    tctx, tw = torus_setup()
    report = verify_psi_relations(tctx, tw)
    assert report.ok and len(report.checks) == 3


def transported_covers():
    """(orbit quiver, transported potential) of the covers of the two-square
    torus (n = 2, 3) and of the bundled torus (n = 2..6) that reach the
    transport stage, as the pipeline builds them."""
    covers = [(tiling, taut) for n in (2, 3)
              for _, tiling, taut in square_torus_covers(n)]
    covers += [cyclic_cover(load_data("torus_tiling.json"), n, (1, 0, 2), 0)
               for n in range(2, 7)]
    for tiling, taut in covers:
        try:
            tiling, taut, matching = equivariant_dimer(
                *refine_tiling(tiling, taut))
            _, choice = ChoiceSearch(tiling, taut).canonical(matching)
        except (MatchingStuck, NoChoiceFound):
            continue
        quiver, W = dual_quiver(tiling)
        phi = induced_quiver_automorphism(tiling, taut, quiver)
        octx = build_orbit_quiver(quiver, phi, choice)
        yield octx, transport_potential(W, octx).potential


def test_certificates_need_no_conjugator(ctx, wprime, monkeypatch):
    """Certificate mode checks the binomial shape and the degrees; the loop
    itself is always settled by the empty conjugator.  For a binomial
    derivative p - q of W by a, p.a and q.a are rotations of W's cycles, so
    p q^-1 is a product of two face boundaries with no conjugation.  So the
    search over conjugators never passes its first entry, and only Dehn
    mode decides the loop on the surface."""
    from tessella import presentation

    calls = []

    def recorded(loop, rots):
        method = face_certificate(loop, rots)
        calls.append((loop, rots, method))
        return method

    face_certificate = presentation._face_certificate
    monkeypatch.setattr(presentation, "_face_certificate", recorded)
    reports = [verify_psi_relations(ctx, wprime)]
    reports += [verify_psi_relations(octx, Wp)
                for octx, Wp in transported_covers()]
    assert len(reports) > 10 and all(r.ok for r in reports)
    assert len(calls) > 50
    for loop, rots, method in calls:
        loop = _cancel(loop)
        assert method is not None
        assert not loop or _wrap_reduce(loop) in rots or any(
            not beta or _wrap_reduce(beta) in rots
            for beta in (_cancel(rot + loop) for rot in rots)), loop


def test_verify_degree_failure_is_reported(ctx):
    V = Potential.build(ctx.quiver, [(1, "arc"), (-1, "ab")])
    report = verify_psi_relations(ctx, V)
    assert not report.ok
    by_arrow = {c.arrow: c for c in report.checks}
    assert by_arrow["a"].method == "degree" and not by_arrow["a"].degree_ok
    assert "deg" in by_arrow["a"].witness
    assert by_arrow["b"].method == "not-binomial"
    assert by_arrow["c"].method == "not-binomial"
    assert by_arrow["d"].ok and by_arrow["d"].method == "zero-derivative"
    assert by_arrow["e"].ok


def test_verify_dehn_mode_running_example(ctx, wprime, phi_star):
    assignment = psi_assignment_from_json(
        load_data("genus2_phi_star.json")["psi_assignment"])
    report = verify_psi_relations(ctx, wprime, mode="dehn", phi=phi_star,
                                  assignment=assignment)
    assert report.mode == "dehn" and report.ok
    assert [c.method for c in report.checks] == ["dehn"] * 5


def test_verify_dehn_needs_phi(ctx, wprime):
    with pytest.raises(MissingPhiAction):
        verify_psi_relations(ctx, wprime, mode="dehn")


def test_verify_assignment_validation(ctx, wprime, phi_star):
    good = psi_assignment_from_json(
        load_data("genus2_phi_star.json")["psi_assignment"])
    incomplete = {k: v for k, v in good.items() if k != "b"}
    with pytest.raises(ValueError, match="missing"):
        verify_psi_relations(ctx, wprime, mode="dehn", phi=phi_star,
                             assignment=incomplete)
    wrong_k = dict(good, r=(good["r"][0], 0))
    with pytest.raises(ValueError, match="integer part"):
        verify_psi_relations(ctx, wprime, mode="dehn", phi=phi_star,
                             assignment=wrong_k)
    extra = dict(good, zz=((), 0))
    with pytest.raises(ValueError, match="unknown arrows"):
        verify_psi_relations(ctx, wprime, mode="dehn", phi=phi_star,
                             assignment=extra)
    bad_word = dict(good, a=(parse_group_word("q7"), 0))
    with pytest.raises(ValueError, match="unknown generators"):
        verify_psi_relations(ctx, wprime, mode="dehn", phi=phi_star,
                             assignment=bad_word)
    with pytest.raises(ValueError, match="mode"):
        verify_psi_relations(ctx, wprime, mode="telepathy")


def test_verify_dehn_catches_wrong_assignment(ctx, wprime, phi_star):
    good = psi_assignment_from_json(
        load_data("genus2_phi_star.json")["psi_assignment"])
    bad = dict(good, c=(parse_group_word("y1 x1"), 0))
    report = verify_psi_relations(ctx, wprime, mode="dehn", phi=phi_star,
                                  assignment=bad)
    assert not report.ok
    assert any(c.witness for c in report.checks if not c.ok)


# -- derivation scripts ------------------------------------------------------------


def test_contracted_relations_shape(ctx, wprime):
    q2, rels = contracted_relations(ctx.quiver, wprime, contract=("e",))
    assert q2.vertices == (1,)
    assert set(q2.arrow_ids()) == {"a", "b", "c", "d", "r"}
    assert all(q2.is_localized(a) for a in q2.arrow_ids())
    assert len(rels) == 5
    for rel in rels:
        words = rel.words()
        assert len(words) == 2
        assert sum(rel.coeffs[w] for w in words) == 0
    assert {str(w) for w in rels[4].words()} == {"abrabr", "rr"}
    assert {str(w) for w in rels[0].words()} == {"brabr", "rdbrc"}


def test_bundled_script_verifies(ctx, wprime):
    blob = load_data("genus2_derivation.json")
    q2, rels = contracted_relations(ctx.quiver, wprime,
                                    contract=blob["contract"])
    report = check_derivation_script(rels, blob, q2)
    assert report.ok, report.reason
    assert report.steps_checked == report.steps_total == 39
    assert report.failed_step is None and report.reason is None
    assert report.established == (
        "d-elimination", "b-elimination", "square-identity",
        "square-root-identity", "central-square-a", "central-square-c",
        "mapping-relator")
    assert report.equations["central-square-c"] == ("c r r", "r r c")
    assert report.equations["mapping-relator"] == (
        "", "a^-1 c a c^-1 r^-1 a^-1 c a c^-1 r")
    assert report.to_json()["ok"]


def _translate(word_str):
    sub = {"a": (("x", -1),), "c": (("y", 1),), "r": (("z", 1),)}
    out = []
    for s, e in parse_group_word(word_str):
        out.extend(sub[s] if e == 1 else invert_letters(sub[s]))
    return free_reduce(out)


def _cyclic_match(u, v):
    u, v = cyclic_core(u), cyclic_core(v)
    if len(u) != len(v):
        return False
    variants = set()
    for base in (u, invert_letters(u)):
        variants.update(base[i:] + base[:i] for i in range(len(base) or 1))
    return v in variants or (not u and not v)


def test_script_equations_present_the_mapping_torus_group(ctx, wprime):
    blob = load_data("genus2_derivation.json")
    q2, rels = contracted_relations(ctx.quiver, wprime,
                                    contract=blob["contract"])
    report = check_derivation_script(rels, blob, q2)
    targets = [
        parse_group_word("x z z x^-1 z^-1 z^-1"),
        parse_group_word("y z z y^-1 z^-1 z^-1"),
        parse_group_word("x y x^-1 y^-1 z^-1 x y x^-1 y^-1 z"),
    ]
    final = ["central-square-a", "central-square-c", "mapping-relator"]
    for name in final:
        lhs, rhs = report.equations[name]
        relator = free_reduce(_translate(lhs) + invert_letters(_translate(rhs)))
        assert any(_cyclic_match(relator, t) for t in targets), name
    # and each target is hit by exactly one established identity
    hits = {name: [i for i, t in enumerate(targets)
                   if _cyclic_match(
                       free_reduce(_translate(report.equations[name][0])
                                   + invert_letters(
                                       _translate(report.equations[name][1]))),
                       t)]
            for name in final}
    assert sorted(sum(hits.values(), [])) == [0, 1, 2]


def test_empty_script_is_vacuously_valid(ctx, wprime):
    q2, rels = contracted_relations(ctx.quiver, wprime, contract=("e",))
    report = check_derivation_script(rels, [], q2)
    assert report.ok and report.steps_total == 0
    assert report.established == ()


def test_script_failure_stops_at_first_bad_step(ctx, wprime):
    blob = load_data("genus2_derivation.json")
    q2, rels = contracted_relations(ctx.quiver, wprime,
                                    contract=blob["contract"])
    steps = [dict(s) for s in blob["steps"]]
    steps[4] = dict(steps[4], target=["r", "d r r"])
    report = check_derivation_script(rels, steps, q2)
    assert not report.ok
    assert report.failed_step == 5 and report.steps_checked == 4
    assert "target" in report.reason
    assert report.established == ()
    assert report.to_json()["failed_step"] == 5


def test_script_move_validation(ctx, wprime):
    q2, rels = contracted_relations(ctx.quiver, wprime, contract=("e",))

    def run(step):
        return check_derivation_script(rels, [step], q2)

    base = {"from": "rel:1", "move": {"kind": "cancel"},
            "target": ["b r a b r", "r d b r c"]}
    assert run(base).ok

    r = run(dict(base, **{"from": "rel:9"}))
    assert not r.ok and "out of range" in r.reason
    r = run(dict(base, **{"from": "step:1"}))
    assert not r.ok and "out of range" in r.reason
    r = run(dict(base, **{"from": "nonsense"}))
    assert not r.ok and "malformed" in r.reason
    r = run(dict(base, move={"kind": "levitate"}))
    assert not r.ok and "unknown move" in r.reason
    r = run(dict(base, move={"kind": "multiply", "word": "a", "side": "up"}))
    assert not r.ok and "side" in r.reason
    r = run(dict(base, move={"kind": "substitute", "relation": 2,
                             "pattern": "lhs"}))
    assert not r.ok and "occurs nowhere" in r.reason
    r = run(dict(base, move={"kind": "rewrite", "step": 1, "pattern": "lhs"}))
    assert not r.ok and "earlier" in r.reason
    r = run(dict(base, target=["b r a b r", "r d b r"]))
    assert not r.ok and "does not produce" in r.reason


def test_script_multiplier_must_be_a_unit():
    q = Quiver((1,), [("u", 1, 1), ("v", 1, 1)], localized=["u"])
    relations = [("u v", "v u")]
    script = [{"from": "rel:1",
               "move": {"kind": "multiply", "word": "v", "side": "left"},
               "target": ["v u v", "v v u"]}]
    report = check_derivation_script(relations, script, quiver=q)
    assert not report.ok and "unit" in report.reason
    ok_script = [{"from": "rel:1",
                  "move": {"kind": "multiply", "word": "u^-1", "side": "left"},
                  "target": ["v", "u^-1 v u"]}]
    assert check_derivation_script(relations, ok_script, quiver=q).ok


def test_script_substitution_on_a_two_vertex_quiver():
    q = Quiver((1, 2), [("x", 1, 2), ("y", 1, 2), ("z", 2, 1)],
               localized=["x", "y", "z"])
    relations = [("x", "y"), ("x z x", "y")]

    def run(target):
        step = {"from": "rel:2", "target": target,
                "move": {"kind": "substitute", "relation": 1,
                         "pattern": "lhs"}}
        return check_derivation_script(relations, [step], q)

    assert run(["y z x", "y"]).ok
    assert run(["x z y", "y"]).ok
    assert not run(["y z y", "y"]).ok


def test_derivation_script_field_validation():
    q = Quiver((1,), [("u", 1, 1), ("v", 1, 1)], localized=["u", "v"])
    with pytest.raises(ValueError, match="derivation script field 'steps' "
                                         "must be a list of step objects"):
        check_derivation_script([("u v", "v u")],
                                [{"from": "rel:1", "move": {"kind": "cancel"}}],
                                q)
    report = check_derivation_script([("u v", "v u")], {"steps": []}, q)
    assert report.ok and report.steps_total == 0
