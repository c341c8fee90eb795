"""Tests for tiling/quiver symmetries, orbit quivers, and the path embedding."""

import json
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SQUARE_TORUS, cyclic_cover, default_choice,
                      genus2_potential, genus2_quiver, orbit_potential,
                      orbit_quiver)
from tessella.datafiles import load_data
from tessella.equivariant import (
    BadChoice,
    InvalidAutomorphism,
    MalformedWord,
    MatchingStuck,
    MixedInverseViolation,
    NoChoiceFound,
    OrbitChoice,
    OrbitSizeViolation,
    QuiverAutomorphism,
    SemidirectQuiver,
    TilingAutomorphism,
    all_dimers,
    build_orbit_quiver,
    choose_homogeneous_xi,
    equivariant_dimer,
    factor_word,
    induced_quiver_automorphism,
    orbit_choice_from_json,
    orbit_choice_to_json,
    orbit_sizes,
    refine_tiling,
    tiling_automorphism_from_json,
    tiling_automorphism_to_json,
    transport_potential,
    verify_transport_identity,
    xi_embed,
)
from tessella.pathalg import (
    NonComposable,
    Potential,
    Quiver,
    UnknownArrow,
    Word,
    parse_letters,
    word_product,
)
from tessella.surfacemap import (
    BraneTiling,
    CombinatorialMap,
    dual_quiver,
    genus,
    tiling_from_json,
    validate_tiling,
)


# -- shared instances ----------------------------------------------------------


@lru_cache(maxsize=None)
def paper_setup():
    """Genus-2 tiling, its order-2 symmetry, dual data, and the book choice."""
    tiling = tiling_from_json(load_data("genus2_tiling.json"))
    taut = tiling_automorphism_from_json(tiling, load_data("genus2_automorphism.json"))
    quiver, W = dual_quiver(tiling)
    phi = induced_quiver_automorphism(tiling, taut, quiver)
    ctx = build_orbit_quiver(quiver, phi, OrbitChoice("abcde", {1: 2}))
    return tiling, taut, quiver, W, phi, ctx


@pytest.fixture(scope="module")
def paper():
    return paper_setup()


@pytest.fixture()
def torus():
    return tiling_from_json(load_data("torus_tiling.json"))


def square_torus():
    """Two square tiles on the torus; the 180-degree rotation fixes both."""
    involution = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6}
    rotation = {0: 2, 2: 4, 4: 6, 6: 0, 1: 3, 3: 5, 5: 7, 7: 1}
    t = BraneTiling(CombinatorialMap(range(8), involution, rotation),
                    {0: "w", 1: "b"})
    return t, TilingAutomorphism(t, {h: (h + 4) % 8 for h in range(8)})


def two_squares():
    """Sphere with two square tiles sharing an edge, plus two pendant white
    vertices inside one square and two pendant black inside the other.

    Balanced but greedy-unfriendly: the free white and free black pendants
    share no face, so a matching needs new co-facial edges.
    """
    edges = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13),
             (14, 15), (16, 17), (18, 19), (20, 21)]
    involution = {}
    for (h, k) in edges:
        involution[h] = k
        involution[k] = h
    cycles = [(0, 7, 14, 16), (1, 2), (3, 4, 8), (5, 6, 13), (9, 18, 20, 10),
              (11, 12), (15,), (17,), (19,), (21,)]
    rotation = {}
    for cyc in cycles:
        for i, h in enumerate(cyc):
            rotation[h] = cyc[(i + 1) % len(cyc)]
    coloring = {0: "b", 1: "w", 3: "b", 5: "w", 9: "w",
                11: "b", 15: "w", 17: "w", 19: "b", 21: "b"}
    t = BraneTiling(CombinatorialMap(range(22), involution, rotation), coloring)
    return t, TilingAutomorphism.identity(t)


def star3():
    """A black vertex with three white neighbours (sphere, one face)."""
    involution = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
    rotation = {0: 2, 2: 4, 4: 0, 1: 1, 3: 3, 5: 5}
    t = BraneTiling(CombinatorialMap(range(6), involution, rotation),
                    {0: "b", 1: "w", 3: "w", 5: "w"})
    return t, TilingAutomorphism.identity(t)


def white_path():
    """Path w-b-w with the order-2 symmetry swapping the two white ends."""
    involution = {0: 1, 1: 0, 2: 3, 3: 2}
    rotation = {0: 0, 2: 2, 1: 3, 3: 1}
    t = BraneTiling(CombinatorialMap(range(4), involution, rotation),
                    {0: "w", 1: "b", 2: "w"})
    return t, TilingAutomorphism(t, {0: 2, 2: 0, 1: 3, 3: 1})


def _assert_dimer(tiling, edges):
    """A dimer covers every vertex once and meets every W-term exactly once."""
    handles = [cyc[0] for cyc in tiling.map.vertex_cycles()]
    covered = []
    for (h, k) in edges:
        covered.append(tiling.map.vertex_of(h)[0])
        covered.append(tiling.map.vertex_of(k)[0])
    assert sorted(covered) == sorted(handles)
    _, W = dual_quiver(tiling)
    duals = {tiling.arrow_name(min(h, k)) for (h, k) in edges}
    terms = W.terms()
    assert len(terms) == len(handles)
    for _, cyc in terms:
        assert sum(1 for a, _ in cyc if a in duals) == 1


def base_paths(quiver, max_len):
    """All nonempty paths (letter tuples, written order) up to a length."""
    levels = [[(((a, 1),), quiver.target(a)) for a in quiver.arrow_ids()]]
    for _ in range(max_len - 1):
        nxt = [(((b, 1),) + letters, quiver.target(b))
               for letters, tgt in levels[-1]
               for b in quiver.arrow_ids() if quiver.source(b) == tgt]
        levels.append(nxt)
    return [letters for level in levels for letters, _ in level]


# -- automorphism validation -----------------------------------------------------


def test_tiling_automorphism_order_and_apply(paper):
    tiling, taut = paper[0], paper[1]
    assert taut.order == 2
    assert taut.apply(0) == 18
    assert taut.apply(0, 2) == 0
    ident = TilingAutomorphism.identity(tiling)
    assert ident.order == 1


def test_tiling_automorphism_rejects_color_swap(torus):
    swap = {1: 4, 2: 5, 3: 6, 4: 1, 5: 2, 6: 3}
    with pytest.raises(InvalidAutomorphism, match="colour"):
        TilingAutomorphism(torus, swap)


def test_tiling_automorphism_rejects_non_commuting(torus):
    perm = {1: 1, 2: 3, 3: 2, 4: 4, 5: 5, 6: 6}
    with pytest.raises(InvalidAutomorphism):
        TilingAutomorphism(torus, perm)


def test_tiling_automorphism_rejects_non_permutation(torus):
    with pytest.raises(InvalidAutomorphism, match="permutation"):
        TilingAutomorphism(torus, {h: 1 for h in range(1, 7)})


def test_quiver_automorphism_validation(paper):
    quiver, phi = paper[2], paper[4]
    assert phi.order == 2
    assert phi.vertex_perm == {1: 2, 2: 1}
    assert phi.arrow_perm == {"a": "j", "b": "i", "c": "h", "d": "g", "e": "f",
                              "f": "e", "g": "d", "h": "c", "i": "b", "j": "a"}
    assert phi.apply_vertex(1) == 2
    assert phi.apply_arrow("a", 3) == "j"
    assert phi.vertex_orbits() == [(1, 2)]
    assert phi.arrow_orbits() == [("a", "j"), ("b", "i"), ("c", "h"),
                                  ("d", "g"), ("e", "f")]

    ident = {v: v for v in quiver.vertices}
    bad = dict(phi.arrow_perm)
    with pytest.raises(InvalidAutomorphism, match="equivariant"):
        QuiverAutomorphism(quiver, ident, bad)


def test_quiver_automorphism_localization_status():
    q = Quiver((1,), [("u", 1, 1), ("v", 1, 1)], localized=["v"])
    with pytest.raises(InvalidAutomorphism, match="localization"):
        QuiverAutomorphism(q, {1: 1}, {"u": "v", "v": "u"})


def test_induced_quiver_automorphism(paper):
    tiling, taut, quiver = paper[0], paper[1], paper[2]
    phi = induced_quiver_automorphism(tiling, taut)
    assert phi.quiver == quiver
    assert phi.vertex_perm == {1: 2, 2: 1}
    assert phi.arrow_perm["a"] == "j" and phi.arrow_perm["f"] == "e"


def test_orbit_sizes(paper):
    quiver, phi = paper[2], paper[4]
    sizes, free = orbit_sizes(quiver, phi)
    assert sizes == {1: 2, 2: 2} and free

    q3 = Quiver((1, 2, 3), [("x", 1, 2), ("y", 2, 1), ("z", 3, 3)])
    rho = QuiverAutomorphism(q3, {1: 2, 2: 1, 3: 3}, {"x": "y", "y": "x", "z": "z"})
    sizes, free = orbit_sizes(q3, rho)
    assert sizes == {1: 2, 2: 2, 3: 1} and not free


# -- refinement ------------------------------------------------------------------


def test_refine_square_torus():
    t, taut = square_torus()
    m = t.map
    assert [len(f) for f in m.face_cycles()] == [4, 4]
    for face in m.face_cycles():
        assert {taut.apply(h) for h in face} == set(face)  # both tiles fixed

    out, ext = refine_tiling(t, taut)
    assert out.map.half_edges == tuple(range(16))
    assert out.map.vertex_cycles() == [(0, 12, 2, 10, 4, 14, 6, 8),
                                       (1, 3, 5, 7), (9, 11), (13, 15)]
    assert out.coloring == {0: "w", 1: "b", 9: "b", 13: "b"}
    assert out.map.face_cycles() == [(0, 3, 10, 9), (1, 12, 15, 6),
                                     (2, 5, 14, 13), (4, 7, 8, 11)]
    assert genus(out.map) == 1
    assert ext.order == 2
    for h in range(8):
        assert ext.half_edge_perm[h] == (h + 4) % 8
    assert ext.half_edge_perm[8] == 10 and ext.half_edge_perm[9] == 11
    assert ext.half_edge_perm[12] == 14 and ext.half_edge_perm[13] == 15

    dq = induced_quiver_automorphism(out, ext)
    _, free = orbit_sizes(dq.quiver, dq)
    assert free

    again = refine_tiling(out, ext)
    assert again[0] is out and again[1] is ext


def test_refine_leaves_good_tilings_alone(paper, torus):
    tiling, taut = paper[0], paper[1]
    out, ext = refine_tiling(tiling, taut)
    assert out is tiling and ext is taut

    ident = TilingAutomorphism.identity(torus)
    out, ext = refine_tiling(torus, ident)
    assert out is torus and ext is ident


def test_refine_rejects_color_swap(torus):
    swap = {1: 4, 2: 5, 3: 6, 4: 1, 5: 2, 6: 3}
    with pytest.raises(InvalidAutomorphism):
        refine_tiling(torus, TilingAutomorphism(torus, swap))


# -- dimers ----------------------------------------------------------------------


def test_genus2_dimer_no_extension(paper):
    tiling, taut = paper[0], paper[1]
    out, ext, edges = equivariant_dimer(tiling, taut)
    assert out is tiling and ext is taut
    assert edges == frozenset({(4, 5), (6, 7), (8, 9)})
    _assert_dimer(out, edges)


def test_genus2_all_dimers(paper):
    tiling = paper[0]
    dimers = all_dimers(tiling)
    assert len(dimers) == 8
    fgh = frozenset({(10, 11), (12, 13), (14, 15)})
    assert fgh in dimers
    for d in dimers:
        _assert_dimer(tiling, d)
    # cross-check by brute force over all 3-subsets of the ten edges
    from itertools import combinations
    found = []
    for triple in combinations(tiling.map.edges(), 3):
        ends = [tiling.map.vertex_of(h)[0] for e in triple for h in e]
        if sorted(ends) == [0, 1, 3, 4, 6, 9]:
            found.append(frozenset(triple))
    assert sorted(map(sorted, found)) == sorted(map(sorted, dimers))


def test_torus_single_edge_dimer(torus):
    ident = TilingAutomorphism.identity(torus)
    out, ext, edges = equivariant_dimer(torus, ident)
    assert out is torus and ext is ident
    assert edges == frozenset({(1, 4)})
    _assert_dimer(out, edges)


def test_refined_torus_dimer_adds_pendants_and_edge():
    t, taut = square_torus()
    ref, ext = refine_tiling(t, taut)
    out, ext2, edges = equivariant_dimer(ref, ext)
    # one white against three black vertices: a pendant orbit rebalances,
    # then one co-facial edge orbit unlocks the matching
    assert len(out.map.edges()) == 12
    assert edges == frozenset({(8, 9), (18, 19), (20, 21)})
    assert genus(out.map) == 1
    assert ext2.order == 2
    assert ext2.half_edge_perm[16] == 18 and ext2.half_edge_perm[21] == 23
    for h in ref.map.half_edges:
        assert ext2.half_edge_perm[h] == ext.half_edge_perm[h]
    _assert_dimer(out, edges)


def test_augmenting_dimer_two_squares():
    t, taut = two_squares()
    assert validate_tiling(t)["valid"]
    out, ext, edges = equivariant_dimer(t, taut)
    assert len(out.map.edges()) == 14  # three co-facial edges added
    assert edges == frozenset({(16, 17), (20, 21), (22, 23), (24, 25), (26, 27)})
    assert genus(out.map) == 0
    assert ext.order == 1
    _assert_dimer(out, edges)


def test_dimer_balances_colors_with_pendants():
    t, taut = star3()
    out, ext, edges = equivariant_dimer(t, taut)
    assert len(out.map.edges()) == 6  # two pendant blacks, one new edge
    assert len(edges) == 3
    assert genus(out.map) == 0
    _assert_dimer(out, edges)


def test_dimer_imbalance_not_multiple_of_order():
    t, taut = white_path()
    with pytest.raises(MatchingStuck, match="imbalance"):
        equivariant_dimer(t, taut)


# -- the orbit quiver ------------------------------------------------------------


def test_build_orbit_quiver_matches_reference(paper):
    ctx = paper[5]
    assert ctx.quiver == orbit_quiver()
    degrees = {a: ctx.word_degree(ctx.quiver.word([(a, 1)]))
               for a in ctx.quiver.arrow_ids()}
    assert degrees == {"a": 0, "b": 0, "c": 0, "d": 0, "e": 0, "r": 1}
    assert ctx.iso_chain == {1: ["r"]}
    assert ctx.chain_pos == {2: (1, 0), 1: (1, 1)}
    assert ctx.gen_of["a"] == ("a", 0)
    assert ctx.gen_of["j"] == ("a", 1)
    assert ctx.iso_arrows() == ["r"]
    assert ctx.quiver.is_localized("r")


def test_build_orbit_quiver_identity(paper):
    quiver = paper[2]
    phi = QuiverAutomorphism.identity(quiver)
    ctx = build_orbit_quiver(quiver, phi, default_choice(quiver, phi))
    assert ctx.quiver == quiver
    assert ctx.iso_arrows() == []
    assert all(ctx.word_degree(ctx.quiver.word([(a, 1)])) == 0
               for a in ctx.quiver.arrow_ids())


def test_build_orbit_quiver_errors(paper):
    quiver, phi = paper[2], paper[4]
    with pytest.raises(BadChoice, match="exactly one generator"):
        build_orbit_quiver(quiver, phi, OrbitChoice("ajbcde", {1: 2}))
    with pytest.raises(BadChoice, match="unknown generators"):
        build_orbit_quiver(quiver, phi, OrbitChoice(("a", "b", "c", "d", "e", "zz"),
                                                    {1: 2}))
    with pytest.raises(BadChoice, match="representative"):
        build_orbit_quiver(quiver, phi, OrbitChoice("abcde", {2: 1}))
    with pytest.raises(BadChoice, match="orbit"):
        build_orbit_quiver(quiver, phi, OrbitChoice("abcde", {1: 3}))
    with pytest.raises(BadChoice, match="differing sources"):
        build_orbit_quiver(quiver, phi,
                           OrbitChoice("abcdf", {1: 2}, require_common_source=True))

    q3 = Quiver((1, 2, 3), [("x", 1, 2), ("y", 2, 1), ("z", 3, 3)])
    rho = QuiverAutomorphism(q3, {1: 2, 2: 1, 3: 3}, {"x": "y", "y": "x", "z": "z"})
    with pytest.raises(OrbitSizeViolation):
        build_orbit_quiver(q3, rho, default_choice(q3, rho))


def test_default_choice(paper):
    quiver, phi = paper[2], paper[4]
    choice = default_choice(quiver, phi)
    assert choice.generators == ("a", "b", "c", "d", "e")
    assert choice.bases == {1: 1}
    choice = default_choice(quiver, phi, {1: 2})
    assert choice.generators == ("f", "g", "h", "i", "j")


# -- the embedding ---------------------------------------------------------------


def test_xi_on_arrows(paper):
    ctx = paper[5]
    images = {a: xi_embed(a, ctx) for a in ctx.base.arrow_ids()}
    qp = ctx.quiver
    assert images["a"] == qp.word(parse_letters("a"))
    assert images["f"] == qp.word(parse_letters("rer"))
    assert images["g"] == qp.word(parse_letters("rdr"))
    assert images["h"] == qp.word(parse_letters("rcr"))
    assert images["i"] == qp.word(parse_letters("r^-1 b r"))
    assert images["j"] == qp.word(parse_letters("r^-1 a r"))
    for a in "abcde":
        assert images[a].letters == ((a, 1),)


def test_xi_on_paths_and_constants(paper):
    quiver, ctx = paper[2], paper[5]
    w = xi_embed("abfjie", ctx)
    assert w == ctx.quiver.word(parse_letters("abreabre"))
    const = quiver.word((), at=1)
    assert xi_embed(const, ctx).is_constant()
    with pytest.raises(NonComposable):
        xi_embed("cd", ctx)
    with pytest.raises(UnknownArrow):
        xi_embed(["zz"], ctx)
    with pytest.raises(NonComposable):
        xi_embed([], ctx)
    with pytest.raises(NonComposable, match="inverse-free"):
        xi_embed(Word(1, 1, (("a", -1),)), ctx)
    with pytest.raises(UnknownArrow):  # every letter is checked before a seam
        xi_embed(["c", "d", "zz"], ctx)


def test_xi_identity_automorphism(paper):
    quiver = paper[2]
    phi = QuiverAutomorphism.identity(quiver)
    ctx = build_orbit_quiver(quiver, phi, default_choice(quiver, phi))
    w = quiver.word(parse_letters("agic"))
    assert xi_embed(w, ctx) == w
    q, p = factor_word(w, ctx)
    assert q.is_constant() and p == w


def test_word_degree(paper):
    ctx = paper[5]
    qp = ctx.quiver
    assert ctx.word_degree(qp.word(parse_letters("rer"))) == 2
    assert ctx.word_degree(qp.word(parse_letters("r^-1 a r"))) == 0
    assert ctx.word_degree(qp.word((), at=1)) == 0
    assert ctx.word_degree(qp.word(parse_letters("r"))) == 1


def test_arrow_degree_trichotomy_over_all_choices(paper):
    quiver, phi = paper[2], paper[4]
    from itertools import product
    arrow_orbits = phi.arrow_orbits()
    n_seen = set()
    for gens in product(*arrow_orbits):
        for base in (1, 2):
            ctx = build_orbit_quiver(quiver, phi, OrbitChoice(gens, {1: base}))
            for a in quiver.arrow_ids():
                deg = ctx.arrow_degree(a)
                assert deg in (-2, 0, 2)
                assert deg == ctx.word_degree(ctx.xi_table.image[a])
                n_seen.add(deg)
    assert n_seen == {-2, 0, 2}


def test_iso_words_unique_and_closed_constant(paper):
    ctx = paper[5]
    qp = ctx.quiver
    from itertools import product
    forms = {}
    for length in range(1, 5):
        for signs in product((1, -1), repeat=length):
            try:
                w = qp.word(tuple(("r", e) for e in signs))
            except NonComposable:
                continue
            forms.setdefault((w.source, w.target), set()).add(w.letters)
    assert forms[(2, 1)] == {(("r", 1),)}
    assert forms[(1, 2)] == {(("r", -1),)}
    assert forms[(1, 1)] == {()}
    assert forms[(2, 2)] == {()}


def test_factor_word_examples(paper):
    quiver, ctx = paper[2], paper[5]
    qp = ctx.quiver
    q, p = factor_word(qp.word(parse_letters("rer")), ctx)
    assert q.is_constant() and q.source == 1
    assert p == quiver.word(parse_letters("f"))

    q, p = factor_word(qp.word(parse_letters("r")), ctx)
    assert q == qp.word(parse_letters("r"))
    assert p.is_constant() and p.source == 2

    q, p = factor_word(qp.word(parse_letters("rc")), ctx)
    assert q == qp.word(parse_letters("r"))
    assert p == quiver.word(parse_letters("c"))


def test_factor_word_malformed(paper):
    ctx = paper[5]
    with pytest.raises(MalformedWord):
        factor_word(Word(1, 1, (("a", -1),)), ctx)
    with pytest.raises(MalformedWord):
        factor_word(Word(1, 2, (("zz", 1),)), ctx)
    # a hand-built word whose iso tail cannot come from any embedded arrow
    with pytest.raises(MalformedWord, match="tail"):
        factor_word(Word(2, 2, (("e", 1), ("r", -1))), ctx)
    with pytest.raises(MalformedWord, match="source orbit"):
        factor_word(Word(7, 1, (("a", 1),)), ctx)
    # a word wrong in two ways fails the check the walk reaches first
    with pytest.raises(MalformedWord, match="not a generating arrow"):
        factor_word(Word(7, 1, (("a", -1), ("r", -1))), ctx)
    with pytest.raises(MalformedWord, match="source orbit"):
        factor_word(Word(7, 2, (("e", 1), ("r", -1))), ctx)
    broken = SemidirectQuiver(ctx.quiver, ctx.base, ctx.phi, ctx.choice,
                              ctx.iso_chain, ctx.chain_pos, ctx.gen_of)
    del broken.xi_table.member[("a", 1)]
    with pytest.raises(MalformedWord, match="no orbit member"):
        factor_word(ctx.quiver.word([("a", 1)]), broken)
    assert ("a", 1) in ctx.xi_table.member  # the copy built its own table


def test_factor_word_refuses_iso_runs_off_their_piece(paper):
    """Each iso run has one allowed value, so a word whose run is anything
    else is malformed: an iso-only word that is not the iso word between its
    ends (r runs 2 -> 1), and a run left of the last generator that is not
    in normal form.  Both raise after the generator checks."""
    ctx = paper[5]
    with pytest.raises(MalformedWord,
                       match=r"iso run \(\('r', 1\),\) does not join 1 to 1"):
        factor_word(Word(1, 1, (("r", 1),)), ctx)
    with pytest.raises(MalformedWord, match="iso run"):
        factor_word(Word(1, 1, (("r", 1), ("r", -1), ("a", 1))), ctx)
    with pytest.raises(MalformedWord, match="not a generating arrow"):
        factor_word(Word(1, 1, (("r", 1), ("r", -1), ("a", -1))), ctx)
    with pytest.raises(MalformedWord, match="does not join 1 to 7"):
        factor_word(Word(1, 7, (("a", 1),)), ctx)
    q, p = factor_word(Word(1, 2, (("r", -1), ("a", 1))), ctx)
    assert q == Word(1, 2, (("r", -1),)) and p.letters == (("a", 1),)


def test_xi_multiplicative_injective_and_factorable(paper):
    quiver, ctx = paper[2], paper[5]
    paths = base_paths(quiver, 6)
    image = {}
    for letters in paths:
        image[letters] = xi_embed([a for a, _ in letters], ctx)

    seen = {}
    for letters in paths:
        if len(letters) > 5:
            continue
        w = image[letters]
        assert seen.setdefault(w, letters) == letters  # injective up to 5

    for letters in paths:
        for cut in range(1, len(letters)):
            left, right = letters[:cut], letters[cut:]
            assert word_product(ctx.quiver, image[left], image[right]) \
                == image[letters]
        q, p = factor_word(image[letters], ctx)
        assert q.is_constant()
        assert p.letters == letters
        assert ctx.word_degree(image[letters]) % 2 == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 12))
def test_xi_multiplicative_on_random_walks(seed, length):
    quiver, ctx = paper_setup()[2], paper_setup()[5]
    rng = random.Random(seed)
    arrows = quiver.arrow_ids()
    letters = [(rng.choice(arrows), 1)]
    for _ in range(length - 1):
        tgt = quiver.target(letters[0][0])
        outs = [a for a in arrows if quiver.source(a) == tgt]
        letters.insert(0, (rng.choice(outs), 1))
    letters = tuple(letters)
    w = xi_embed([a for a, _ in letters], ctx)
    cut = rng.randrange(1, len(letters))
    lw = xi_embed([a for a, _ in letters[:cut]], ctx)
    rw = xi_embed([a for a, _ in letters[cut:]], ctx)
    assert word_product(ctx.quiver, lw, rw) == w
    q, p = factor_word(w, ctx)
    assert q.is_constant() and p.letters == letters


# -- transport -------------------------------------------------------------------


def test_transport_running_example(paper):
    W, ctx = paper[3], paper[5]
    Wp, homogeneous, deg = transport_potential(W, ctx)
    assert Wp == orbit_potential(ctx.quiver)
    assert homogeneous and deg == 2


def test_transport_identity_automorphism(paper):
    quiver, W = paper[2], paper[3]
    phi = QuiverAutomorphism.identity(quiver)
    ctx = build_orbit_quiver(quiver, phi, default_choice(quiver, phi))
    res = transport_potential(W, ctx)
    assert res.potential == W
    assert res.homogeneous and res.degree == 0


def test_transport_mixed_signs_rejected(paper):
    quiver, W, phi = paper[2], paper[3], paper[4]
    ctx = build_orbit_quiver(quiver, phi, OrbitChoice("abcdf", {1: 2}))
    with pytest.raises(MixedInverseViolation, match="r"):
        transport_potential(W, ctx)


# -- choosing the grading --------------------------------------------------------


def test_choose_homogeneous_xi_running_example(paper):
    tiling, taut = paper[0], paper[1]
    choice = choose_homogeneous_xi(tiling, taut,
                                   frozenset({(10, 11), (12, 13), (14, 15)}))
    assert choice.generators == ("a", "b", "c", "d", "e")
    assert choice.bases == {1: 2}
    quiver, W = dual_quiver(tiling)
    phi = induced_quiver_automorphism(tiling, taut, quiver)
    ctx = build_orbit_quiver(quiver, phi, choice)
    degs = {a: ctx.arrow_degree(a) for a in quiver.arrow_ids()}
    assert degs == {"a": 0, "b": 0, "c": 0, "d": 0, "e": 0,
                    "f": 2, "g": 2, "h": 2, "i": 0, "j": 0}


def test_choose_homogeneous_xi_mirror_dimer(paper):
    tiling, taut = paper[0], paper[1]
    choice = choose_homogeneous_xi(tiling, taut,
                                   frozenset({(4, 5), (6, 7), (8, 9)}))
    assert choice.generators == ("f", "g", "h", "i", "j")
    assert choice.bases == {1: 1}


def test_choose_homogeneous_xi_identity(torus):
    ident = TilingAutomorphism.identity(torus)
    _, _, edges = equivariant_dimer(torus, ident)
    choice = choose_homogeneous_xi(torus, ident, edges)
    assert choice.generators == ("x", "y", "z")
    quiver, W = dual_quiver(torus)
    phi = induced_quiver_automorphism(torus, ident, quiver)
    res = transport_potential(W, build_orbit_quiver(quiver, phi, choice))
    assert res.potential == W and res.degree == 0


def test_choose_homogeneous_xi_exhausted(paper):
    tiling, taut = paper[0], paper[1]
    bad = frozenset({(8, 9), (12, 13), (14, 15)})  # a perfectly good dimer
    _assert_dimer(tiling, bad)
    with pytest.raises(NoChoiceFound, match="4 candidates"):
        choose_homogeneous_xi(tiling, taut, bad)


# -- the derivative identity -----------------------------------------------------


def test_transport_identity_all_generators(paper):
    W, ctx = paper[3], paper[5]
    Wp = orbit_potential(ctx.quiver)
    for a in "abcde":
        res = verify_transport_identity(ctx, W, Wp, a)
        assert res.passed, f"witness for {a}: {res.witness}"
        assert res.lhs == res.rhs
        assert res.witness.is_zero()


def test_transport_identity_rhs_content(paper):
    W, ctx = paper[3], paper[5]
    Wp = orbit_potential(ctx.quiver)
    res = verify_transport_identity(ctx, W, Wp, "c")
    # c's cycles are +gc and -agic: 2*xi(cg) - 2*xi(cagi)
    expected = {ctx.quiver.word(parse_letters("crdr")): 2,
                ctx.quiver.word(parse_letters("cardbr")): -2}
    assert {w: int(c) for w, c in res.rhs.coeffs.items()} == expected


def test_transport_identity_planted_failure(paper):
    W, ctx = paper[3], paper[5]
    Wp = orbit_potential(ctx.quiver)
    broken = Wp - Potential.build(ctx.quiver, [(2, "rdrc")])
    res = verify_transport_identity(ctx, W, broken, "c")
    assert not res.passed
    assert not res.witness.is_zero()


def test_transport_identity_input_checks(paper):
    W, ctx = paper[3], paper[5]
    Wp = orbit_potential(ctx.quiver)
    with pytest.raises(BadChoice):
        verify_transport_identity(ctx, W, Wp, "f")
    pruned = W - Potential.build(ctx.base, [(1, "gc")])
    with pytest.raises(ValueError, match="exactly one"):
        verify_transport_identity(ctx, pruned, Wp, "c")


# -- serialization ---------------------------------------------------------------


def automorphism_to_json(phi: QuiverAutomorphism) -> dict:
    return {
        "vertex_perm": {str(v): w for v, w in sorted(phi.vertex_perm.items(),
                                                     key=lambda kv: str(kv[0]))},
        "arrow_perm": {str(a): b for a, b in sorted(phi.arrow_perm.items(),
                                                    key=lambda kv: str(kv[0]))},
        "order": phi.order,
    }


def _match_keys(perm, pool) -> dict:
    """Map JSON string keys back onto actual vertex/arrow ids."""
    by_str = {str(x): x for x in pool}
    out = {}
    for k, v in perm.items():
        if str(k) not in by_str or str(v) not in by_str:
            raise InvalidAutomorphism(f"unknown id in permutation: {k!r} -> {v!r}")
        out[by_str[str(k)]] = by_str[str(v)]
    return out


def quiver_automorphism_from_json(quiver: Quiver, obj: dict) -> QuiverAutomorphism:
    phi = QuiverAutomorphism(
        quiver,
        _match_keys(obj["vertex_perm"], quiver.vertices),
        _match_keys(obj["arrow_perm"], quiver.arrow_ids()),
    )
    if "order" in obj and int(obj["order"]) != phi.order:
        raise InvalidAutomorphism(
            f"declared order {obj['order']} but actual order is {phi.order}")
    return phi


def test_quiver_automorphism_json_round_trip(paper):
    quiver, phi = paper[2], paper[4]
    obj = automorphism_to_json(phi)
    assert obj["order"] == 2
    back = quiver_automorphism_from_json(quiver, obj)
    assert back.vertex_perm == phi.vertex_perm
    assert back.arrow_perm == phi.arrow_perm
    with pytest.raises(InvalidAutomorphism, match="order"):
        quiver_automorphism_from_json(quiver, {**obj, "order": 3})
    with pytest.raises(InvalidAutomorphism, match="unknown id"):
        quiver_automorphism_from_json(quiver, {**obj, "vertex_perm": {"9": "1"}})


def assert_automorphism_round_trips(tiling, taut) -> dict:
    """The written file, through JSON text, reads back as the same
    symmetry and writes the same object again."""
    obj = tiling_automorphism_to_json(taut)
    back = tiling_automorphism_from_json(tiling, json.loads(json.dumps(obj)))
    assert (back.half_edge_perm, back.order) == (taut.half_edge_perm,
                                                 taut.order)
    assert tiling_automorphism_to_json(back) == obj
    return obj


def test_tiling_automorphism_json_forms(paper):
    tiling = paper[0]
    obj = load_data("genus2_automorphism.json")
    taut = tiling_automorphism_from_json(tiling, obj)
    bare = tiling_automorphism_from_json(tiling, obj["half_edge_perm"])
    assert taut.half_edge_perm == bare.half_edge_perm
    assert assert_automorphism_round_trips(tiling, taut) == obj
    with pytest.raises(InvalidAutomorphism, match="order"):
        tiling_automorphism_from_json(tiling, {**obj, "order": 4})


@pytest.mark.parametrize("base, n, voltages", [
    ("torus", 2, (1, 0, 2)), ("torus", 4, (1, 0, 2)),
    ("square", 2, (0, 1, 0, 1)), ("square", 3, (1, 2, 1, 0)),
])
def test_refined_and_matched_automorphisms_round_trip(base, n, voltages):
    """The symmetry of a cover, of its refinement and of its equivariant
    dimer extension, as the refine and dimer stages write them."""
    base = load_data("torus_tiling.json") if base == "torus" else SQUARE_TORUS
    tiling, taut = cyclic_cover(base, n, voltages, n)
    assert_automorphism_round_trips(tiling, taut)
    tiling, taut = refine_tiling(tiling, taut)
    assert_automorphism_round_trips(tiling, taut)
    tiling, taut, _ = equivariant_dimer(tiling, taut)
    assert_automorphism_round_trips(tiling, taut)


def test_orbit_choice_json_round_trip(paper):
    quiver, ctx = paper[2], paper[5]
    obj = orbit_choice_to_json(ctx.choice)
    assert obj == {"generators": ["a", "b", "c", "d", "e"],
                   "bases": {"1": 2},
                   "require_common_source": False}
    back = orbit_choice_from_json(quiver, obj)
    assert back.generators == ctx.choice.generators
    assert back.bases == ctx.choice.bases
