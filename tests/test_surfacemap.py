import random
from fractions import Fraction

import pytest

from conftest import square_torus_covers
from tessella.datafiles import load_data
from tessella.equivariant import (
    MatchingStuck,
    equivariant_dimer,
    refine_tiling,
    tiling_automorphism_from_json,
)
from tessella.pathalg import Potential
from tessella.surfacemap import (
    BraneTiling,
    CombinatorialMap,
    InvalidTiling,
    NonOrientableOrInvalid,
    UnknownVertex,
    dual_quiver,
    genus,
    minimal_cycle,
    tiling_from_json,
    tiling_to_json,
    validate_tiling,
)


def torus_tiling():
    return tiling_from_json(load_data("torus_tiling.json"))


def genus2_tiling():
    return tiling_from_json(load_data("genus2_tiling.json"))


def theta_map():
    # two trivalent vertices, three parallel edges, drawn in the plane
    inv = {1: 4, 4: 1, 2: 5, 5: 2, 3: 6, 6: 3}
    rot = {1: 2, 2: 3, 3: 1, 4: 6, 6: 5, 5: 4}
    return CombinatorialMap([1, 2, 3, 4, 5, 6], inv, rot)


# -- genus --------------------------------------------------------------------


def test_genus_of_bundled_examples():
    assert genus(genus2_tiling().map) == 2
    assert genus(torus_tiling().map) == 1


def test_theta_graph_is_planar():
    m = theta_map()
    assert len(m.face_cycles()) == 3
    assert genus(m) == 0


def test_one_loop_on_sphere():
    m = CombinatorialMap([1, 2], {1: 2, 2: 1}, {1: 2, 2: 1})
    assert genus(m) == 0


def test_genus_rejects_fixed_point_involution():
    m = CombinatorialMap([1, 2], {1: 1, 2: 2}, {1: 2, 2: 1})
    with pytest.raises(NonOrientableOrInvalid, match="fixed point"):
        genus(m)


def test_genus_rejects_non_permutation_rotation():
    m = CombinatorialMap([1, 2], {1: 2, 2: 1}, {1: 1, 2: 1})
    with pytest.raises(NonOrientableOrInvalid):
        genus(m)


def test_genus_rejects_disconnected_map():
    m = CombinatorialMap(
        [1, 2, 3, 4],
        {1: 2, 2: 1, 3: 4, 4: 3},
        {1: 2, 2: 1, 3: 4, 4: 3},
    )
    with pytest.raises(NonOrientableOrInvalid, match="connected"):
        genus(m)


# -- validate_tiling ----------------------------------------------------------


def test_validate_accepts_bundled_tiling():
    rep = validate_tiling(genus2_tiling())
    assert rep["valid"]
    assert rep["problems"] == []
    assert (rep["vertices"], rep["edges"], rep["faces"]) == (6, 10, 2)
    assert rep["genus"] == 2


def test_validate_flags_monochrome_edge():
    t = torus_tiling()
    t.coloring[4] = "w"
    rep = validate_tiling(t)
    assert not rep["valid"]
    assert any("joins two w" in p for p in rep["problems"])


def test_validate_flags_missing_colour():
    t = torus_tiling()
    del t.coloring[4]
    rep = validate_tiling(t)
    assert not rep["valid"]
    assert any("no w/b colour" in p for p in rep["problems"])


def test_validate_reports_structural_defects_without_counts():
    m = CombinatorialMap([1, 2], {1: 1, 2: 2}, {1: 2, 2: 1})
    rep = validate_tiling(BraneTiling(m, {1: "w"}))
    assert not rep["valid"]
    assert "vertices" not in rep


# -- dual quiver --------------------------------------------------------------


def test_dual_quiver_of_genus2_tiling(q2, w2):
    quiver, pot = dual_quiver(genus2_tiling())
    assert quiver.vertices == (1, 2)
    ends = {a: (s, t) for a, s, t in quiver.arrows}
    assert ends == {a: (s, t) for a, s, t in q2.arrows}
    assert pot == w2


def test_dual_quiver_of_torus():
    quiver, pot = dual_quiver(torus_tiling())
    assert quiver.vertices == (1,)
    assert {a for a, _, _ in quiver.arrows} == {"x", "y", "z"}
    assert all(s == t == 1 for _, s, t in quiver.arrows)
    expect = Potential.build(quiver, [(1, "xyz"), (-1, "xzy")])
    assert pot == expect


def test_dual_quiver_rejects_invalid_tiling():
    t = torus_tiling()
    t.coloring[4] = "w"
    with pytest.raises(InvalidTiling):
        dual_quiver(t)


def test_unlabelled_edges_get_stable_names():
    t = torus_tiling()
    t.labels = {}
    quiver, _ = dual_quiver(t)
    assert {a for a, _, _ in quiver.arrows} == {"e1", "e2", "e3"}


# -- minimal cycles -----------------------------------------------------------


def test_minimal_cycle_white_vertex():
    assert minimal_cycle(genus2_tiling(), 0) == ("a", "b", "f", "j", "i", "e")


def test_minimal_cycle_black_vertex():
    assert minimal_cycle(genus2_tiling(), 1) == ("a", "g", "i", "c")


def test_minimal_cycle_unknown_handle():
    with pytest.raises(UnknownVertex):
        minimal_cycle(genus2_tiling(), 2)  # half-edge 2 is not a cycle minimum


def test_vertex_of_is_the_rotation_cycle_from_its_handle():
    m = genus2_tiling().map
    for cyc in m.vertex_cycles():
        for h in cyc:
            assert m.vertex_of(h) == cyc
    with pytest.raises(UnknownVertex):
        m.vertex_of(max(m.half_edges) + 1)


def test_minimal_cycles_are_the_potential_terms():
    t = genus2_tiling()
    _, pot = dual_quiver(t)
    for handle in t.vertex_handles():
        word = minimal_cycle(t, handle)
        sign = 1 if t.coloring[handle] == "w" else -1
        matches = [c for c, cyc in pot.terms()
                   if {a for a, _ in cyc} == set(word) and len(cyc) == len(word)]
        assert matches == [Fraction(sign)]


# -- potential invariants -----------------------------------------------------


def _random_tilings(count, max_edges=6, max_seed=500):
    """Small connected bipartite maps found by seeded rejection sampling.
    Ten take 56 seeds; when ``validate_tiling`` rejects too many maps, the
    seed bound turns a loop that never ends into a failure."""
    found = []
    for seed in range(1, max_seed + 1):
        if len(found) == count:
            break
        rng = random.Random(seed)
        n = rng.randrange(2, max_edges + 1)
        halves = list(range(2 * n))
        rng.shuffle(halves)
        rotation = {}
        i = 0
        while i < len(halves):
            k = min(rng.randrange(1, 5), len(halves) - i)
            cyc = halves[i:i + k]
            for j, h in enumerate(cyc):
                rotation[h] = cyc[(j + 1) % k]
            i += k
        inv = {}
        for e in range(n):
            inv[2 * e] = 2 * e + 1
            inv[2 * e + 1] = 2 * e
        m = CombinatorialMap(range(2 * n), inv, rotation)
        if m.structural_problems():
            continue
        # greedy 2-colouring of the vertex adjacency graph
        handles = [c[0] for c in m.vertex_cycles()]
        vert_of = {h: c[0] for c in m.vertex_cycles() for h in c}
        colors = {handles[0]: "w"}
        queue = [handles[0]]
        ok = True
        while queue and ok:
            v = queue.pop()
            cyc = next(c for c in m.vertex_cycles() if c[0] == v)
            for h in cyc:
                u = vert_of[inv[h]]
                want = "b" if colors[v] == "w" else "w"
                if u not in colors:
                    colors[u] = want
                    queue.append(u)
                elif colors[u] != want:
                    ok = False
                    break
        if not ok or len(colors) != len(handles):
            continue
        tiling = BraneTiling(m, colors)
        if validate_tiling(tiling)["valid"]:
            found.append(tiling)
    assert len(found) == count, f"{len(found)} tilings in {max_seed} seeds"
    return found


def test_each_arrow_meets_one_white_and_one_black_cycle():
    for tiling in [genus2_tiling(), torus_tiling()] + _random_tilings(10):
        quiver, _ = dual_quiver(tiling)
        counts = {"w": {}, "b": {}}
        lengths = {"w": 0, "b": 0}
        for handle in tiling.vertex_handles():
            word = minimal_cycle(tiling, handle)
            side = counts[tiling.coloring[handle]]
            lengths[tiling.coloring[handle]] += len(word)
            for a in word:
                side[a] = side.get(a, 0) + 1
        names = set(quiver.arrow_ids())
        assert counts["w"] == {a: 1 for a in names}
        assert counts["b"] == {a: 1 for a in names}
        assert lengths["w"] == lengths["b"] == len(tiling.map.edges())


# -- the cell index -----------------------------------------------------------


def assert_cell_index(tiling):
    """The index agrees half-edge by half-edge with the per-half-edge
    lookups and with the face order the dual quiver uses."""
    m = tiling.map
    vertex_of, face_of = m.vertex_index(), m.face_index()
    assert set(vertex_of) == set(face_of) == set(m.half_edges)
    for i, cyc in enumerate(m.face_cycles(), start=1):
        assert [face_of[h] for h in cyc] == [i] * len(cyc)
    for h in m.half_edges:
        assert vertex_of[h] == m.vertex_of(h)[0]
        assert tiling.dual_arrow(h) == tiling.dual_arrow(m.involution[h])
        assert tiling.color_of(h) == tiling.coloring[vertex_of[h]]


def _index_inputs(family):
    """The bundled and random tilings, or each two-square-torus cover of
    order 2 and 3 with its refinement and its equivariant dimer's tiling
    (when the dimer exists).  Lazily, so an input is checked before the
    code that reads its index builds the next one."""
    if family == "random":
        yield genus2_tiling()
        yield torus_tiling()
        yield from _random_tilings(10)
        return
    for n in (2, 3):
        for _, tiling, taut in square_torus_covers(n):
            yield tiling
            refined = refine_tiling(tiling, taut)
            yield refined[0]
            try:
                yield equivariant_dimer(*refined)[0]
            except MatchingStuck:
                pass


@pytest.mark.parametrize("family", ["random", "covers"])
def test_cell_index_agrees_with_the_per_half_edge_lookups(family):
    checked = 0
    for tiling in _index_inputs(family):
        assert_cell_index(tiling)
        checked += 1
    assert checked >= 12


def test_recoloured_torus_reverses_arrows():
    t = torus_tiling()
    flipped = BraneTiling(t.map, {h: ("b" if c == "w" else "w") for h, c in t.coloring.items()},
                          t.labels)
    q1, _ = dual_quiver(t)
    q2_, _ = dual_quiver(flipped)
    assert {(a, s, t_) for a, s, t_ in q2_.arrows} == {(a, t_, s) for a, s, t_ in q1.arrows}


# -- symmetry data ------------------------------------------------------------


def test_bundled_automorphism_preserves_the_tiling():
    t = genus2_tiling()
    # reading the file checks that the permutation commutes with the pairing
    # and the rotation and keeps colours
    taut = tiling_automorphism_from_json(t, load_data("genus2_automorphism.json"))
    perm = taut.half_edge_perm
    assert taut.order == 2
    for h in t.map.half_edges:
        assert perm[perm[h]] == h
        assert t.color_of(perm[h]) == t.color_of(h)
    assert any(perm[h] != h for h in t.map.half_edges)


# -- serialization ------------------------------------------------------------


def test_tiling_json_round_trip_is_canonical():
    for name in ("genus2_tiling.json", "torus_tiling.json"):
        obj = load_data(name)
        assert tiling_to_json(tiling_from_json(obj)) == obj


def test_round_trip_preserves_dual(q2, w2):
    t = tiling_from_json(tiling_to_json(genus2_tiling()))
    quiver, pot = dual_quiver(t)
    assert {a: (s, t_) for a, s, t_ in quiver.arrows} == \
           {a: (s, t_) for a, s, t_ in q2.arrows}
    assert pot == w2
