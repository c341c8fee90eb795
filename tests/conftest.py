"""Shared fixtures: the genus-2 running example at each level, and cyclic
voltage covers of small tilings."""

from __future__ import annotations

import random
from itertools import product
from math import gcd

import pytest

from tessella.equivariant import OrbitChoice, tiling_automorphism_from_json
from tessella.pathalg import Potential, Quiver, _idkey, parse_letters
from tessella.surfacemap import tiling_from_json

# Two square tiles on the torus: one white and one black 4-valent vertex
# joined by four edges.
SQUARE_TORUS = {"half_edges": list(range(8)),
                "involution": [[0, 1], [2, 3], [4, 5], [6, 7]],
                "rotation": [[0, 2, 4, 6], [1, 3, 5, 7]],
                "coloring": {"0": "w", "1": "b"}}


def genus2_quiver() -> Quiver:
    """Dual quiver of the bundled genus-2 tiling: a,b loops at 1; c,d,e: 1->2;
    f,g,h: 2->1; i,j loops at 2."""
    arrows = [("a", 1, 1), ("b", 1, 1),
              ("c", 1, 2), ("d", 1, 2), ("e", 1, 2),
              ("f", 2, 1), ("g", 2, 1), ("h", 2, 1),
              ("i", 2, 2), ("j", 2, 2)]
    return Quiver([1, 2], arrows)


def genus2_potential(q: Quiver) -> Potential:
    terms = [(1, "abfjie"), (1, "gc"), (1, "hd"),
             (-1, "agic"), (-1, "bhjd"), (-1, "fe")]
    return Potential.build(q, [(c, [a for a, _ in parse_letters(w)])
                               for c, w in terms])


def orbit_quiver() -> Quiver:
    """The order-2 orbit quiver: generators a,b (loops at 1), c,d,e: 1->2,
    and the localized isomorphism arrow r: 2->1."""
    arrows = [("a", 1, 1), ("b", 1, 1),
              ("c", 1, 2), ("d", 1, 2), ("e", 1, 2),
              ("r", 2, 1)]
    return Quiver([1, 2], arrows, localized=["r"])


def orbit_potential(q: Quiver) -> Potential:
    terms = [(1, "abreabre"), (2, "rdrc"), (-2, "ardbrc"), (-1, "rere")]
    return Potential.build(q, [(c, [a for a, _ in parse_letters(w)])
                               for c, w in terms])


def default_choice(quiver: Quiver, phi, bases=None) -> OrbitChoice:
    """A canonical choice: per arrow orbit, prefer the arrow whose source is
    the base of its source-vertex orbit, then the lowest id."""
    reps = {}
    for orb in phi.vertex_orbits():
        for v in orb:
            reps[v] = orb[0]
    if bases is None:
        bases = {orb[0]: orb[0] for orb in phi.vertex_orbits()}
    generators = []
    for orb in phi.arrow_orbits():
        base = bases[reps[quiver.source(orb[0])]]
        at_base = sorted((a for a in orb if quiver.source(a) == base), key=_idkey)
        generators.append(at_base[0] if at_base else min(orb, key=_idkey))
    return OrbitChoice(generators, bases)


def cyclic_cover(base: dict, n: int, voltages, seed: int):
    """The n-fold voltage cover of ``base`` (one voltage per edge, in the
    order of its involution list) with half-edge ids shuffled by ``seed``,
    and its deck shift: sigma'(h, i) = (sigma h, i), alpha'(h, i) =
    (alpha h, i + v(h))."""
    halves = [int(h) for h in base["half_edges"]]
    alpha, volt = {}, {}
    for (h, k), v in zip(base["involution"], voltages):
        alpha[h], alpha[k] = k, h
        volt[h], volt[k] = v % n, -v % n
    ids = list(range(len(halves) * n))
    random.Random(seed).shuffle(ids)
    slot = {h: j for j, h in enumerate(halves)}

    def lift(h, i):
        return ids[slot[h] * n + i % n]

    edges = sorted({tuple(sorted((lift(h, i), lift(alpha[h], i + volt[h]))))
                    for h in halves for i in range(n)})
    rotation, coloring = [], {}
    for i in range(n):
        for c, cycle in enumerate(base["rotation"]):
            coloring[str(len(rotation))] = base["coloring"][str(c)]
            rotation.append([lift(int(h), i) for h in cycle])
    tiling = tiling_from_json({
        "half_edges": sorted(ids), "involution": [list(e) for e in edges],
        "rotation": rotation, "coloring": coloring})
    taut = tiling_automorphism_from_json(tiling, {
        "half_edge_perm": {str(lift(h, i)): lift(h, i + 1)
                           for h in halves for i in range(n)},
        "order": n})
    return tiling, taut


def square_torus_covers(n: int, seed: int = 0):
    """(voltages, tiling, symmetry) for every connected n-fold cyclic cover
    of the two-square torus.  Both vertices are joined by all four edges, so
    the cover is connected exactly when the voltage differences generate
    Z/n."""
    for voltages in product(range(n), repeat=4):
        if gcd(n, *(v - voltages[0] for v in voltages)) == 1:
            yield (voltages, *cyclic_cover(SQUARE_TORUS, n, voltages, seed))


@pytest.fixture
def q2():
    return genus2_quiver()


@pytest.fixture
def w2(q2):
    return genus2_potential(q2)


@pytest.fixture
def qp():
    return orbit_quiver()


@pytest.fixture
def wp(qp):
    return orbit_potential(qp)
