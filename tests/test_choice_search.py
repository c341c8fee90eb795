"""The one-pass choice search against the per-matching loop it replaced.

``reference_choose`` and ``reference_canonical`` below are test-only copies
of the slow route: a fresh search per matching that builds an orbit quiver
for every candidate.  The shared ``ChoiceSearch`` must return the same
(matching, generators, bases) and the same ``NoChoiceFound`` text on the
bundled genus-2 tiling, the identity symmetry of the torus, seeded double
covers of the genus-2 tiling (which exhaust the search) and relabelled
cyclic covers of the torus.  A counting guard checks that the shared search
builds and transports each candidate at most once across all matchings.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SQUARE_TORUS, cyclic_cover
from tessella import cli, equivariant
from tessella.datafiles import load_data
from tessella.equivariant import (
    ChoiceSearch,
    MixedInverseViolation,
    NoChoiceFound,
    OrbitChoice,
    OrbitSizeViolation,
    TilingAutomorphism,
    all_dimers,
    build_orbit_quiver,
    choose_homogeneous_xi,
    equivariant_dimer,
    induced_quiver_automorphism,
    orbit_sizes,
    refine_tiling,
    tiling_automorphism_from_json,
    transport_potential,
)
from tessella.pathalg import _idkey
from tessella.surfacemap import dual_quiver, tiling_from_json

TORUS_VOLTAGES = (1, 0, 2)


# -- the slow route ------------------------------------------------------------


def reference_choose(tiling, taut, dimer):
    """The search for one matching, building every candidate's orbit quiver."""
    quiver, W = dual_quiver(tiling)
    phi = induced_quiver_automorphism(tiling, taut, quiver)
    n = phi.order
    sizes, free = orbit_sizes(quiver, phi)
    if not free:
        raise OrbitSizeViolation(f"orbit sizes {sizes} (order {n})")
    dimer_duals = {tiling.arrow_name(min(h, k)) for (h, k) in dimer}

    vertex_orbits = phi.vertex_orbits()
    arrow_orbits = phi.arrow_orbits()
    orbit_rep = {}
    for orb in vertex_orbits:
        for v in orb:
            orbit_rep[v] = orb[0]

    want_hit = n if n > 1 else 0
    tried = 0
    option_space = [sorted(orb, key=_idkey) for orb in vertex_orbits]
    for sources in product(*option_space):
        src_of = {orb[0]: sv for orb, sv in zip(vertex_orbits, sources)}
        generators = []
        ok = True
        for orb in arrow_orbits:
            want = src_of[orbit_rep[quiver.source(orb[0])]]
            picked = [a for a in orb if quiver.source(a) == want]
            if len(picked) != 1:
                ok = False
                break
            generators.append(picked[0])
        if not ok:
            continue
        for bases in product(*option_space):
            tried += 1
            base_of = {orb[0]: b for orb, b in zip(vertex_orbits, bases)}
            choice = OrbitChoice(generators, base_of, require_common_source=True)
            ctx = build_orbit_quiver(quiver, phi, choice)
            degs = {a: ctx.arrow_degree(a) for a in quiver.arrow_ids()}
            if any(degs[a] != want_hit for a in dimer_duals):
                continue
            if any(deg != 0 for a, deg in degs.items() if a not in dimer_duals):
                continue
            try:
                res = transport_potential(W, ctx)
            except MixedInverseViolation:
                continue
            if res.homogeneous and res.degree == want_hit:
                return choice
    raise NoChoiceFound(
        f"no admissible choice after {tried} candidates "
        f"(order {n}, {len(vertex_orbits)} vertex orbits, "
        f"{len(arrow_orbits)} arrow orbits, dimer duals {sorted(dimer_duals)})")


def matchings_in_order(tiling, matching):
    """The given matching, then every other one sorted by dual arrows."""
    seen = {frozenset(frozenset(e) for e in matching)}
    out = [matching]
    for m in sorted(all_dimers(tiling),
                    key=lambda m: sorted(tiling.arrow_name(min(e)) for e in m)):
        key = frozenset(frozenset(e) for e in m)
        if key not in seen:
            seen.add(key)
            out.append(m)
    return out


def reference_canonical(tiling, taut, matching, outcomes):
    """The smallest-letters (matching, choice), one fresh search per
    matching; each matching's outcome is appended to ``outcomes``."""
    best = None
    failure = None
    for m in matchings_in_order(tiling, matching):
        try:
            choice = reference_choose(tiling, taut, m)
        except NoChoiceFound as exc:
            outcomes.append(("NoChoiceFound", str(exc)))
            failure = exc
            continue
        outcomes.append(("choice", choice.generators, choice.bases))
        letters = tuple(str(g) for g in choice.generators)
        if best is None or letters < best[0]:
            best = (letters, m, choice)
    if best is None:
        raise failure if failure is not None else NoChoiceFound(
            "the tiling has no perfect matching")
    return best[1], best[2]


def outcome(fn, *args):
    """("choice", generators, bases), or ("NoChoiceFound", message)."""
    try:
        choice = fn(*args)
    except NoChoiceFound as exc:
        return "NoChoiceFound", str(exc)
    return "choice", choice.generators, choice.bases


def canonical_outcome(fn, tiling, taut, matching, *extra):
    try:
        m, choice = fn(tiling, taut, matching, *extra)
    except NoChoiceFound as exc:
        return "NoChoiceFound", str(exc)
    return "choice", sorted(sorted(e) for e in m), choice.generators, \
        choice.bases


# -- inputs --------------------------------------------------------------------


def bundled():
    tiling = tiling_from_json(load_data("genus2_tiling.json"))
    taut = tiling_automorphism_from_json(
        tiling, load_data("genus2_automorphism.json"))
    return tiling, taut


def prepared(tiling, taut):
    """Refine and extend to a matching, as the pipeline does."""
    tiling, taut = refine_tiling(tiling, taut)
    return equivariant_dimer(tiling, taut)


def torus_cover(n: int, seed: int):
    return prepared(*cyclic_cover(load_data("torus_tiling.json"), n,
                                  TORUS_VOLTAGES, seed))


def assert_search_matches_reference(tiling, taut, matching):
    """Canonical result and each matching's outcome, from one shared search
    (queried in canonical order and, fresh, in reverse), equal the slow
    route's."""
    expected = []
    want = canonical_outcome(reference_canonical, tiling, taut, matching,
                             expected)
    assert canonical_outcome(cli._canonical_choice, tiling, taut,
                             matching) == want
    order = matchings_in_order(tiling, matching)
    search = ChoiceSearch(tiling, taut)
    assert [outcome(search.choose, m) for m in order] == expected
    search = ChoiceSearch(tiling, taut)
    got = [outcome(search.choose, m) for m in reversed(order)]
    assert got == expected[::-1]
    return want, expected


# -- agreement -----------------------------------------------------------------


def test_bundled_canonical_and_every_matching_agree():
    want, per_matching = assert_search_matches_reference(*prepared(*bundled()))
    assert want[0] == "choice"
    assert want[2] == ("a", "b", "c", "d", "e") and want[3] == {1: 2}
    assert {o[0] for o in per_matching} == {"choice", "NoChoiceFound"}


@pytest.mark.parametrize("dimer, letters", [
    (frozenset({(10, 11), (12, 13), (14, 15)}), ("a", "b", "c", "d", "e")),
    (frozenset({(4, 5), (6, 7), (8, 9)}), ("f", "g", "h", "i", "j")),
    (frozenset({(8, 9), (12, 13), (14, 15)}), None),
])
def test_bundled_single_matchings_agree(dimer, letters):
    tiling, taut = bundled()
    got = outcome(choose_homogeneous_xi, tiling, taut, dimer)
    assert got == outcome(reference_choose, tiling, taut, dimer)
    if letters is None:  # the exhausted case
        assert got[0] == "NoChoiceFound" and "after 4 candidates" in got[1]
    else:
        assert got[1] == letters


def test_identity_torus_agrees():
    torus = tiling_from_json(load_data("torus_tiling.json"))
    ident = TilingAutomorphism.identity(torus)
    _, _, edges = equivariant_dimer(torus, ident)
    got = outcome(choose_homogeneous_xi, torus, ident, edges)
    assert got == outcome(reference_choose, torus, ident, edges)
    assert got[1] == ("x", "y", "z")
    assert_search_matches_reference(torus, ident, edges)


@pytest.mark.parametrize("seed", range(3))
def test_exhausted_genus2_double_covers_agree(seed):
    """Double covers with seeded Z/2 voltages: several vertex orbits after
    refinement, and no matching admits a choice, so the last failure's text
    is compared."""
    base = load_data("genus2_tiling.json")
    rng = random.Random(seed)
    volts = [rng.randrange(2) for _ in base["involution"]]
    want, _ = assert_search_matches_reference(
        *prepared(*cyclic_cover(base, 2, volts, seed)))
    assert want[0] == "NoChoiceFound"


@pytest.mark.parametrize("n, voltages", [
    (2, (0, 1, 0, 1)), (2, (1, 1, 0, 0)), (3, (0, 0, 1, 1)), (3, (1, 2, 1, 0)),
])
def test_square_torus_covers_agree(n, voltages):
    """Covers of a two-square torus: two vertex orbits, and matchings that
    several candidates admit, so the order of the sources shows."""
    want, _ = assert_search_matches_reference(
        *prepared(*cyclic_cover(SQUARE_TORUS, n, voltages, n)))
    assert want[0] == "choice" and len(want[3]) == 2


@pytest.mark.parametrize("name", ["genus2-double-cover", "torus3"])
def test_every_degree_pattern_as_a_query_agrees(name):
    """Query each candidate's degree-n arrow set, read off its orbit quiver,
    as an edge set.  On the double cover these sets are not perfect
    matchings, so they pass the degree filter and fail the transport
    certificate; on the torus cover two candidates share each set."""
    if name == "torus3":
        tiling, taut, _ = torus_cover(3, 11)
    else:
        base = load_data("genus2_tiling.json")
        rng = random.Random(0)
        volts = [rng.randrange(2) for _ in base["involution"]]
        tiling, taut, _ = prepared(*cyclic_cover(base, 2, volts, 0))
    search = ChoiceSearch(tiling, taut)
    empty = outcome(search.choose, frozenset())  # exhausts the candidates
    assert empty == outcome(reference_choose, tiling, taut, frozenset())
    edge_of = {tiling.arrow_name(min(e)): e for e in tiling.map.edges()}
    n = search.phi.order
    patterns = set()
    for choice in search.choices:
        ctx = build_orbit_quiver(search.quiver, search.phi, choice)
        degrees = {a: ctx.arrow_degree(a) for a in search.quiver.arrow_ids()}
        if set(degrees.values()) <= {0, n}:
            patterns.add(frozenset(edge_of[a] for a, d in degrees.items() if d))
    assert patterns
    for edges in sorted(patterns, key=sorted):
        assert outcome(search.choose, edges) == \
            outcome(reference_choose, tiling, taut, edges)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_relabelled_torus_covers_agree(n, seed):
    want, _ = assert_search_matches_reference(*torus_cover(n, seed))
    assert want[0] == "choice"


# -- work done once --------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 8])
def test_each_candidate_is_built_and_transported_at_most_once(monkeypatch, n):
    """On the 8-fold cover each matching asks for its own degree-n set; with
    the identity symmetry every matching asks for all degrees 0, so the
    matchings share the candidates and their certificates."""
    if n == 1:
        torus = tiling_from_json(load_data("torus_tiling.json"))
        tiling, taut, matching = equivariant_dimer(
            torus, TilingAutomorphism.identity(torus))
    else:
        tiling, taut, matching = torus_cover(n, 5)
    built, transported = [], []

    def key(choice):
        return choice.generators, tuple(sorted(choice.bases.items()))

    def counting_build(quiver, phi, choice):
        built.append(key(choice))
        return build_orbit_quiver(quiver, phi, choice)

    def counting_transport(W, ctx):
        transported.append(key(ctx.choice))
        return transport_potential(W, ctx)

    monkeypatch.setattr(equivariant, "build_orbit_quiver", counting_build)
    monkeypatch.setattr(equivariant, "transport_potential", counting_transport)
    matchings = matchings_in_order(tiling, matching)
    assert len(matchings) > 1
    cli._canonical_choice(tiling, taut, matching)
    assert built and transported
    assert len(set(built)) == len(built) <= n * n
    assert len(set(transported)) == len(transported)
