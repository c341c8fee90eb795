"""The one-pass choice search against the per-matching loops it replaced.

``reference_choose`` below is a test-only copy of the slow route: a fresh
search per matching that builds an orbit quiver for every candidate and
certifies by transport.  ``checked_candidates`` holds each candidate's
degree-n arrows (or ``None``) to the degrees ``arrow_degree`` reads off its
orbit quiver, and those degrees to a test-side copy of the closed form
n([ps + k >= n] - [pt + k >= n]).  ``transport_certificate`` is the
certificate the search once computed per candidate; it must agree with the
perfect-matching test that replaced it on every candidate whose degrees are
all 0 or n.
``reference_canonical`` is the loop over every perfect matching that
``ChoiceSearch.canonical`` replaced: ``all_dimers`` in sorted dual order,
one query per matching, raising the given matching's failure when none
admits a choice.  ``ChoiceSearch`` must return the same (matching,
generators, bases) and the same ``NoChoiceFound`` text on the bundled
genus-2 tiling, the identity symmetry of the torus, seeded double covers of
the genus-2 tiling (which exhaust the search), relabelled cyclic covers of
the torus and the small connected covers of the two-square torus.  A
counting guard checks that the search builds no orbit quiver and transports
nothing, and a guard with ``all_dimers`` disabled checks that the program
never enumerates the matchings.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SQUARE_TORUS, cyclic_cover, square_torus_covers
from tessella import cli, equivariant
from tessella.datafiles import load_data
from tessella.equivariant import (
    ChoiceSearch,
    MatchingStuck,
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
    tiling_automorphism_to_json,
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


def transport_certificate(search, generators, bases):
    """The candidate's transport is homogeneous of degree ``n`` (0 when
    ``n = 1``), with no isomorphism arrow of both signs."""
    choice = OrbitChoice(generators, bases, require_common_source=True)
    ctx = build_orbit_quiver(search.quiver, search.phi, choice)
    try:
        res = transport_potential(search.W, ctx)
    except MixedInverseViolation:
        return False
    n = search.phi.order
    return res.homogeneous and res.degree == (n if n > 1 else 0)


def closed_form_degree(ctx, a):
    """n([ps + k >= n] - [pt + k >= n]) for a = phi^k(g), with g's source
    and target at chain positions ps and pt."""
    n = ctx.phi.order
    g, k = ctx.gen_of[a]
    _, ps = ctx.chain_pos[ctx.base.source(g)]
    _, pt = ctx.chain_pos[ctx.base.target(g)]
    return n * ((ps + k >= n) - (pt + k >= n))


def checked_candidates(search):
    """``search._candidates()``, each checked against its orbit quiver: every
    arrow's ``arrow_degree`` equals the closed form, invalid candidates
    included; the arrows are ``None`` exactly when some degree is neither 0
    nor n, and otherwise are the degree-n arrows, each once."""
    n = search.phi.order
    for generators, bases, arrows in search._candidates():
        choice = OrbitChoice(generators, bases, require_common_source=True)
        ctx = build_orbit_quiver(search.quiver, search.phi, choice)
        degrees = {a: ctx.arrow_degree(a) for a in search.quiver.arrow_ids()}
        assert degrees == {a: closed_form_degree(ctx, a) for a in degrees}
        if set(degrees.values()) <= {0, n}:
            assert arrows is not None and len(set(arrows)) == len(arrows)
            assert set(arrows) == {a for a, d in degrees.items() if d}
        else:
            assert arrows is None, (generators, bases)
        yield generators, bases, arrows


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


def reference_canonical(tiling, choose, matching, outcomes):
    """The smallest-letters (matching, choice) over the matchings in order,
    the first on a tie, with ``choose`` queried once per matching; each
    matching's outcome is appended to ``outcomes``.  When no matching
    admits a choice, the first failure (the given matching's) is raised."""
    best = None
    failure = None
    for m in matchings_in_order(tiling, matching):
        try:
            choice = choose(m)
        except NoChoiceFound as exc:
            outcomes.append(("NoChoiceFound", str(exc)))
            failure = failure or exc
            continue
        outcomes.append(("choice", choice.generators, choice.bases))
        letters = tuple(str(g) for g in choice.generators)
        if best is None or letters < best[0]:
            best = (letters, m, choice)
    if best is None:
        raise failure
    return best[1], best[2]


def outcome(fn, *args):
    """("choice", generators, bases), or ("NoChoiceFound", message)."""
    try:
        choice = fn(*args)
    except NoChoiceFound as exc:
        return "NoChoiceFound", str(exc)
    return "choice", choice.generators, choice.bases


def canonical_outcome(pick):
    """("choice", sorted matching, generators, bases) from ``pick()``, or
    ("NoChoiceFound", message)."""
    try:
        m, choice = pick()
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


def genus2_double_cover(seed: int):
    """A double cover of the genus-2 tiling with seeded Z/2 voltages."""
    base = load_data("genus2_tiling.json")
    rng = random.Random(seed)
    volts = [rng.randrange(2) for _ in base["involution"]]
    return prepared(*cyclic_cover(base, 2, volts, seed))


def assert_search_matches_reference(tiling, taut, matching):
    """Canonical result and each matching's outcome, from one shared search
    (queried in canonical order and, fresh, in reverse), equal the slow
    route's."""
    expected = []
    want = canonical_outcome(lambda: reference_canonical(
        tiling, lambda m: reference_choose(tiling, taut, m), matching,
        expected))
    assert canonical_outcome(
        lambda: ChoiceSearch(tiling, taut).canonical(matching)) == want
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
    refinement, and no matching admits a choice, so the given matching's
    failure text is compared."""
    want, _ = assert_search_matches_reference(*genus2_double_cover(seed))
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


def reaching_the_choice_stage(covers):
    """(tiling, symmetry, matching) of each cover whose refinement and
    equivariant dimer succeed, as the pipeline has them when it chooses."""
    for _, tiling, taut in covers:
        try:
            yield prepared(tiling, taut)
        except MatchingStuck:
            continue


@pytest.mark.parametrize("n, sample, reached, exhausted", [
    (2, None, 14, 8), (3, None, 24, 0), (4, 32, 17, 13),
])
def test_canonical_equals_the_matching_loop_on_square_torus_covers(
        n, sample, reached, exhausted):
    """Every connected n-fold cover of the two-square torus for n = 2, 3,
    and a seeded sample of the n = 4 covers: ``canonical`` equals the loop
    over ``all_dimers`` that queries ``ChoiceSearch.choose`` per matching,
    failure text included.  Only covers that reach the choice stage count."""
    covers = list(square_torus_covers(n))
    if sample is not None:
        covers = random.Random(n).sample(covers, sample)
    got = []
    for tiling, taut, matching in reaching_the_choice_stage(covers):
        loop = canonical_outcome(lambda: reference_canonical(
            tiling, ChoiceSearch(tiling, taut).choose, matching, []))
        assert canonical_outcome(
            lambda: ChoiceSearch(tiling, taut).canonical(matching)) == loop
        got.append(loop[0])
    assert (len(got), got.count("NoChoiceFound")) == (reached, exhausted)


# What the loop over ``all_dimers`` picked on the 16-fold torus cover with
# seed 1, before ``canonical`` replaced it: (sorted matching, generators,
# bases).  The winner is not the matching the dimer stage returned.
PINNED_16 = ([[4, 80], [9, 22], [10, 75], [14, 78], [16, 79], [18, 30],
              [24, 28], [31, 56], [33, 43], [35, 52], [45, 88], [47, 67],
              [49, 58], [51, 87], [53, 70], [90, 93]],
             ("e0", "e6", "e64"), {1: 12})


def test_sixteen_fold_torus_cover_keeps_its_pinned_choice():
    tiling, taut, matching = torus_cover(16, 1)
    assert canonical_outcome(
        lambda: ChoiceSearch(tiling, taut).canonical(matching)) == \
        ("choice", *PINNED_16)
    assert sorted(sorted(e) for e in matching) != PINNED_16[0]


@pytest.mark.parametrize("seed", range(3))
def test_only_the_given_and_perfect_matchings_compete(seed):
    """The search keeps degree-n sets of the genus-2 double covers that are
    dual to no perfect matching, and one would win if it competed;
    ``canonical`` must still agree with the loop over ``all_dimers``."""
    tiling, taut, matching = genus2_double_cover(seed)
    search = ChoiceSearch(tiling, taut)
    perfect = {frozenset(tiling.arrow_name(min(e)) for e in m)
               for m in all_dimers(tiling)}
    assert set(search.first) - perfect
    want = canonical_outcome(lambda: reference_canonical(
        tiling, search.choose, matching, []))
    assert canonical_outcome(
        lambda: ChoiceSearch(tiling, taut).canonical(matching)) == want


@pytest.mark.parametrize("extra", [False, True])
def test_a_set_covering_a_vertex_twice_does_not_compete(extra):
    """A kept candidate with the smallest letters wins when its degree-n
    set is dual to a perfect matching other than the given one, and that
    matching is returned; with one more arrow its set still covers every
    tiling vertex, two of them twice, and it loses."""
    tiling, taut, matching = prepared(*bundled())
    search = ChoiceSearch(tiling, taut)
    given = {frozenset(e) for e in matching}
    other = next(m for m in sorted(all_dimers(tiling), key=sorted)
                 if {frozenset(e) for e in m} != given)
    hits = {tiling.arrow_name(min(e)) for e in other}
    if extra:
        hits.add(next(a for a in search.quiver.arrow_ids() if a not in hits))
    search.first[frozenset(hits)] = OrbitChoice(["0"], {})
    m, choice = search.canonical(matching)
    assert (choice.generators == ("0",)) is not extra
    if not extra:
        assert m == other


@pytest.mark.parametrize("name", ["genus2-double-cover", "torus3"])
def test_every_degree_pattern_as_a_query_agrees(name):
    """Every candidate's degree-n arrows, or ``None``, agree with the
    degrees read off its orbit quiver.  Query each degree-n arrow set as an
    edge set.  On the double cover these sets are not perfect matchings, so
    they serve no matching; on the torus cover two candidates share each
    set."""
    if name == "torus3":
        tiling, taut, _ = torus_cover(3, 11)
    else:
        tiling, taut, _ = genus2_double_cover(0)
    search = ChoiceSearch(tiling, taut)
    empty = outcome(search.choose, frozenset())  # exhausts the candidates
    assert empty == outcome(reference_choose, tiling, taut, frozenset())
    edge_of = {tiling.arrow_name(min(e)): e for e in tiling.map.edges()}
    patterns = {frozenset(edge_of[a] for a in arrows)
                for _, _, arrows in checked_candidates(search)
                if arrows is not None}
    assert patterns
    for edges in sorted(patterns, key=sorted):
        assert outcome(search.choose, edges) == \
            outcome(reference_choose, tiling, taut, edges)


def certificate_inputs():
    yield prepared(*bundled())
    for n in range(2, 9):
        for seed in (0, 1):
            yield torus_cover(n, seed)
    for n in (2, 3):
        yield from reaching_the_choice_stage(square_torus_covers(n))
    for seed in range(3):
        yield genus2_double_cover(seed)


def test_the_transport_certificate_is_the_perfect_matching_test():
    """On every candidate whose degrees are all 0 or n, the transport
    certificate holds exactly when the degree-n arrows are dual to a perfect
    matching, the test the search applies instead."""
    seen = {True: 0, False: 0}
    for tiling, taut, _ in certificate_inputs():
        search = ChoiceSearch(tiling, taut)
        for generators, bases, arrows in checked_candidates(search):
            if arrows is not None:
                perfect = search._perfect(search._hits(arrows))
                assert transport_certificate(search, generators, bases) \
                    == perfect, (generators, bases)
                seen[perfect] += 1
    assert seen[True] and seen[False]


@settings(max_examples=20, deadline=None)
@given(cover=st.one_of(
    st.tuples(st.integers(2, 6), st.integers(0, 2**32 - 1)).map(
        lambda ns: torus_cover(*ns)),
    st.sampled_from(range(3)).map(genus2_double_cover)))
def test_the_closed_form_degrees_are_the_orbit_quiver_degrees(cover):
    """On relabelled torus covers (n = 2..6) and the genus-2 double covers,
    every candidate's degrees follow n([ps + k >= n] - [pt + k >= n]), and
    its degree-n arrows are exactly the degree-n arrows of its orbit
    quiver."""
    tiling, taut, _ = cover
    search = ChoiceSearch(tiling, taut)
    assert sum(1 for _ in checked_candidates(search)) == search.size


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_relabelled_torus_covers_agree(n, seed):
    want, _ = assert_search_matches_reference(*torus_cover(n, seed))
    assert want[0] == "choice"


# -- work done once --------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 8])
def test_canonical_builds_and_transports_nothing(monkeypatch, n):
    """The degrees decide: on the 8-fold cover, where each matching asks
    for its own degree-n set, and with the identity symmetry, where every
    matching asks for all degrees 0, ``canonical`` builds no orbit quiver
    and transports nothing."""
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
    ChoiceSearch(tiling, taut).canonical(matching)
    assert built == [] and transported == []


# -- all_dimers is a test oracle -----------------------------------------------


GOLDEN = Path(__file__).resolve().parents[1] / "benchmarks" / "golden"

# sha256 of the pipeline artifacts (report and timings aside) for the
# 6-fold torus cover with seed 4, recorded from the loop over ``all_dimers``;
# there too a matching other than the dimer stage's wins.
COVER6_ARTIFACTS = {
    "base_qpot.json":
        "fd319a1c01a7fbd2cc6ae9e97fc72a2e1f1637e3ab232c3b148bb85266b9bd43",
    "choice.json":
        "5d406ab28585ff60c7509b8b33c89819a0bb438454877163d76046bf42eb2682",
    "counts.json":
        "5518415a6b56ec12f999418824e812ca8dc3ca8ac1a7a4555941646e73289a1d",
    "dimer.json":
        "6b965bf79414a0cbf7f80ac1408ab5348e4f6e3e669c76eca06baec7832f645f",
    "orbit_qpot.json":
        "62ab21a18bd693bcfb64a699ca68fbbb9afb9d226b0d37f6112f9545961f690c",
    "refined_automorphism.json":
        "cdf56ee726d56dd28ccc9fbd6ab802d6e06575198dd09eb9ca4575a6f257a78d",
    "refined_tiling.json":
        "09f84610037686eca285f0a7661df89e422855f282f258013395a911f777ec7c",
    "verify.json":
        "7f58cc450f82910c5c9ce46a8c5213d5aec6bb7d2c8123fa9ffaf4a226706147",
}


def test_the_program_never_enumerates_the_matchings(monkeypatch, tmp_path):
    """With ``all_dimers`` made to raise wherever a tessella module holds
    it, ``choose-xi`` and a torus-cover pipeline still exit 0 with the
    bytes the matching loop gave."""
    def refuse(tiling):
        raise AssertionError("all_dimers is a test oracle")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tessella" and hasattr(module, "all_dimers"):
            monkeypatch.setattr(module, "all_dimers", refuse)

    def main(argv):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = cli.main(argv)
        return rc, out.getvalue()

    assert main(["choose-xi"]) == \
        (0, (GOLDEN / "choose-xi.out").read_text())
    tiling, taut = cyclic_cover(load_data("torus_tiling.json"), 6,
                                TORUS_VOLTAGES, 4)
    (tmp_path / "tiling.json").write_text(
        json.dumps(cli.tiling_to_json(tiling)))
    (tmp_path / "automorphism.json").write_text(
        json.dumps(tiling_automorphism_to_json(taut)))
    (tmp_path / "config.json").write_text(json.dumps({
        "tiling": "tiling.json", "automorphism": "automorphism.json",
        "field_sizes": [2], "dimension": 1, "output_dir": "out"}))
    rc, report = main(["pipeline", "--config", str(tmp_path / "config.json")])
    assert rc == 0
    assert {s["status"] for s in json.loads(report)["stages"]} == {"ok"}
    out = tmp_path / "out"
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in COVER6_ARTIFACTS} == COVER6_ARTIFACTS
