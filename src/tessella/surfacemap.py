"""Combinatorial maps on oriented surfaces and bipartite tilings.

A combinatorial map is a finite set of half-edges together with a
fixed-point-free involution ``alpha`` (pairing the two halves of each edge)
and a permutation ``rotation`` whose cycles list the half-edges around each
vertex in counterclockwise order.  Faces are the cycles of
``rotation o alpha``; the Euler characteristic then pins down the genus of
the oriented surface the map lives on.

A tiling here is a map whose vertices are 2-coloured black/white so that
every edge joins the two colours and whose faces are discs (automatic in
this encoding).  Dualizing such a tiling produces a quiver with potential:

* quiver vertices  <->  faces of the tiling (numbered 1.. in order of their
  smallest half-edge),
* arrows  <->  edges, oriented so the white endpoint sits to the *left* of
  the arrow: for an edge with white half ``h`` and black half ``h~`` the
  arrow runs  face(h~) -> face(h),
* potential  = sum over white vertices of the minimal cycle taken in
  rotation order, minus the sum over black vertices of the minimal cycle
  taken in reverse rotation order.

Minimal cycles compose in the right-to-left word convention of
:mod:`tessella.pathalg`; see that module for the bookkeeping.

Vertices and faces are referred to by *handles*: the smallest half-edge in
the corresponding cycle.  All orderings used for output (faces, edges,
potential terms) are by handle, so every construction is deterministic.

* The cell index: ``CombinatorialMap.vertex_index`` (half-edge -> vertex
  handle), ``CombinatorialMap.face_index`` (half-edge -> face number, as
  the dual quiver numbers faces) and ``BraneTiling.dual_arrow`` (half-edge
  -> name of the arrow dual to its edge) answer every per-half-edge
  question of this module and of :mod:`tessella.equivariant`.  The two
  indexes are fresh dicts on every call, never cached, because tiling
  surgery edits a map in place; a loop takes one snapshot and reads it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .datafiles import (InputError, check_object, is_id, is_int, list_of,
                        object_of)
from .pathalg import Potential, Quiver


class NonOrientableOrInvalid(InputError):
    """The data do not describe a map on a closed oriented surface."""


class InvalidTiling(InputError):
    """The map is not a valid black/white tiling (see ``validate_tiling``)."""


class UnknownVertex(InputError, KeyError):
    """No tiling vertex with the requested handle."""


def _cycles_of(perm: Mapping, domain: Iterable, key=None) -> list[tuple]:
    """Cycles of a permutation through ``domain``, each starting at its first
    element in ``sorted(domain, key=key)`` order, listed in that order."""
    seen: set = set()
    cycles = []
    for start in sorted(domain, key=key):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        h = perm[start]
        while h != start:
            cyc.append(h)
            seen.add(h)
            h = perm[h]
        cycles.append(tuple(cyc))
    return cycles


class CombinatorialMap:
    """Half-edge encoding of a graph embedded in a closed oriented surface."""

    def __init__(self, half_edges: Iterable[int],
                 involution: Mapping[int, int],
                 rotation: Mapping[int, int]):
        self.half_edges = tuple(sorted(half_edges))
        self.involution = dict(involution)
        self.rotation = dict(rotation)

    # -- structural checks -------------------------------------------------

    def structural_problems(self) -> list[str]:
        """Human-readable list of defects; empty iff the raw data are sane."""
        problems = []
        hset = set(self.half_edges)
        if len(hset) != len(self.half_edges):
            problems.append("duplicate half-edge ids")
        if not hset:
            problems.append("empty half-edge set")
        for name, perm in (("involution", self.involution), ("rotation", self.rotation)):
            if set(perm) != hset or set(perm.values()) != hset:
                problems.append(f"{name} is not a permutation of the half-edges")
        if any(self.involution.get(h) == h for h in hset):
            problems.append("involution has a fixed point")
        if not problems:
            if any(self.involution[self.involution[h]] != h for h in hset):
                problems.append("involution is not an involution")
        if not problems and not self.is_connected():
            problems.append("map is not connected")
        return problems

    def check(self) -> None:
        problems = self.structural_problems()
        if problems:
            raise NonOrientableOrInvalid("; ".join(problems))

    def is_connected(self) -> bool:
        hset = set(self.half_edges)
        if not hset:
            return True
        todo = [self.half_edges[0]]
        seen = {self.half_edges[0]}
        while todo:
            h = todo.pop()
            for nxt in (self.involution[h], self.rotation[h]):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen == hset

    # -- cells --------------------------------------------------------------

    def vertex_cycles(self) -> list[tuple[int, ...]]:
        """Rotation cycles, ordered by their smallest half-edge."""
        return _cycles_of(self.rotation, self.half_edges)

    def face_cycles(self) -> list[tuple[int, ...]]:
        """Cycles of rotation o involution, ordered by smallest half-edge."""
        face_perm = {h: self.rotation[self.involution[h]] for h in self.half_edges}
        return _cycles_of(face_perm, self.half_edges)

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (min, max) half-edge pairs, ordered by the min."""
        out = []
        for h in self.half_edges:
            k = self.involution[h]
            if h < k:
                out.append((h, k))
        return out

    def vertex_index(self) -> dict[int, int]:
        """half-edge -> handle of its vertex (a fresh dict on every call)."""
        return {h: cyc[0] for cyc in self.vertex_cycles() for h in cyc}

    def face_index(self) -> dict[int, int]:
        """half-edge -> 1-based face number, faces in ``face_cycles`` order
        (a fresh dict on every call)."""
        return {h: i for i, cyc in enumerate(self.face_cycles(), start=1)
                for h in cyc}

    def vertex_of(self, h: int) -> tuple[int, ...]:
        """The rotation cycle through ``h``, from its smallest half-edge."""
        if h not in self.rotation:
            raise UnknownVertex(h)
        cyc = _cycles_of(self.rotation, (h,))[0]
        i = cyc.index(min(cyc))
        return cyc[i:] + cyc[:i]


def genus(m: CombinatorialMap) -> int:
    """Genus of the closed oriented surface carrying the map.

    Raises ``NonOrientableOrInvalid`` when the data are not a valid map or
    the Euler count does not come from an oriented closed surface.
    """
    m.check()
    v = len(m.vertex_cycles())
    e = len(m.edges())
    f = len(m.face_cycles())
    chi = v - e + f
    if chi % 2 != 0:
        raise NonOrientableOrInvalid(f"odd Euler characteristic {chi}")
    g = (2 - chi) // 2
    if g < 0:
        raise NonOrientableOrInvalid(f"negative genus from Euler characteristic {chi}")
    return g


class BraneTiling:
    """A 2-coloured combinatorial map.

    ``coloring`` maps each vertex handle (smallest half-edge of the rotation
    cycle) to ``"w"`` or ``"b"``.  ``labels`` optionally names the arrow dual
    to each edge, keyed by the edge's smaller half-edge; unlabelled edges
    get the name ``e<k>``.
    """

    def __init__(self, map: CombinatorialMap,
                 coloring: Mapping[int, str],
                 labels: Optional[Mapping[int, str]] = None):
        self.map = map
        self.coloring = dict(coloring)
        self.labels = dict(labels) if labels else {}

    # -- naming -------------------------------------------------------------

    def vertex_handles(self) -> list[int]:
        return [cyc[0] for cyc in self.map.vertex_cycles()]

    def color_of(self, h: int) -> str:
        """Colour of the vertex containing half-edge ``h``."""
        return self.coloring[self.map.vertex_of(h)[0]]

    def arrow_name(self, edge_min: int) -> str:
        return self.labels.get(edge_min, f"e{edge_min}")

    def dual_arrow(self, h: int) -> str:
        """Name of the arrow dual to the edge through half-edge ``h``."""
        edge_min = min(h, self.map.involution[h])
        return self.arrow_name(edge_min)


def validate_tiling(tiling: BraneTiling) -> dict:
    """Check tiling axioms and return a report (never raises).

    The report has keys ``valid`` (bool), ``problems`` (list of strings) and,
    when the underlying map is structurally sound, the cell counts
    ``vertices``/``edges``/``faces`` and ``genus`` (``None`` if undefined).
    """
    m = tiling.map
    problems = m.structural_problems()
    report: dict = {"valid": False, "problems": problems}
    if problems:
        return report

    vertex_of = m.vertex_index()
    handles = sorted(set(vertex_of.values()))
    color = dict(tiling.coloring)
    for h in handles:
        if color.get(h) not in ("w", "b"):
            problems.append(f"vertex {h} has no w/b colour")
    for k in color:
        if k not in handles:
            problems.append(f"colour assigned to non-vertex handle {k}")
    if not problems:
        for (h, k) in m.edges():
            cw, cb = color[vertex_of[h]], color[vertex_of[k]]
            if cw == cb:
                problems.append(f"edge ({h},{k}) joins two {cw} vertices")

    report["vertices"] = len(handles)
    report["edges"] = len(m.edges())
    report["faces"] = len(m.face_cycles())
    chi = report["vertices"] - report["edges"] + report["faces"]
    report["genus"] = (2 - chi) // 2 if chi % 2 == 0 and chi <= 2 else None
    if report["genus"] is None:
        problems.append(f"Euler characteristic {chi} is not that of an oriented closed surface")
    report["valid"] = not problems
    return report


def dual_quiver(tiling: BraneTiling) -> tuple[Quiver, Potential]:
    """Dual quiver with potential of a tiling.

    Raises ``InvalidTiling`` when ``validate_tiling`` finds problems.
    """
    report = validate_tiling(tiling)
    if not report["valid"]:
        raise InvalidTiling("; ".join(report["problems"]))

    m = tiling.map
    face_of = m.face_index()
    vertex_of = m.vertex_index()
    arrows = []
    for (h, k) in m.edges():
        hw, hb = (h, k) if tiling.coloring[vertex_of[h]] == "w" else (k, h)
        arrows.append((tiling.dual_arrow(h), face_of[hb], face_of[hw]))
    quiver = Quiver(list(range(1, max(face_of.values()) + 1)), arrows)

    terms = []
    for handle in tiling.vertex_handles():
        word = minimal_cycle(tiling, handle)
        sign = 1 if tiling.coloring[handle] == "w" else -1
        terms.append((Fraction(sign), word))
    return quiver, Potential.build(quiver, terms)


def minimal_cycle(tiling: BraneTiling, v: int) -> tuple[str, ...]:
    """Cyclic word of dual arrows around tiling vertex with handle ``v``.

    White vertices are read in rotation order, black vertices in reverse
    rotation order; either way the letters compose right-to-left into a
    cycle in the dual quiver.  The word is returned as a plain tuple of
    arrow names, starting from the vertex's smallest half-edge (callers
    needing a specific rotation can rotate it).
    """
    m = tiling.map
    cyc = m.vertex_of(v)
    if cyc[0] != v:
        raise UnknownVertex(v)
    color = tiling.coloring.get(v)
    halves = list(cyc) if color == "w" else [cyc[0]] + list(reversed(cyc[1:]))
    return tuple(tiling.dual_arrow(h) for h in halves)


# -- serialization -----------------------------------------------------------


def tiling_to_json(tiling: BraneTiling) -> dict:
    m = tiling.map
    cycles = m.vertex_cycles()
    return {
        "half_edges": list(m.half_edges),
        "involution": [list(e) for e in m.edges()],
        "rotation": [list(c) for c in cycles],
        "coloring": {str(i): tiling.coloring[c[0]] for i, c in enumerate(cycles)},
        "labels": {str(k): v for k, v in sorted(tiling.labels.items())},
    }


_TILING_FIELDS = (
    ("half_edges", "a list of integers", list_of(is_int)),
    ("involution", "a list of integer pairs", list_of(
        lambda p: isinstance(p, list) and len(p) == 2 and all(map(is_int, p)))),
    ("rotation", "a list of nonempty integer lists", list_of(
        lambda c: isinstance(c, list) and bool(c) and all(map(is_int, c)))),
    ("labels", "an object of string or integer names keyed by half-edge "
     "numbers", lambda d: object_of(is_id)(d) and all(map(str.isdecimal, d))),
)


def tiling_from_json(obj: dict) -> BraneTiling:
    """A tiling, after a check of the file's shape: a malformed file is an
    input error that names the bad field.  Whether the map is a valid
    tiling is :func:`validate_tiling`'s question."""
    check_object(obj, "tiling", _TILING_FIELDS, optional=("labels",))
    coloring = obj.get("coloring", {})
    if not (isinstance(coloring, dict) and all(
            k.isdecimal() and int(k) < len(obj["rotation"]) for k in coloring)):
        raise InputError("tiling field 'coloring' must be keyed by rotation "
                         f"cycle indices 0..{len(obj['rotation']) - 1}")
    involution: dict[int, int] = {}
    for a, b in obj["involution"]:
        involution[a] = b
        involution[b] = a
    rotation: dict[int, int] = {}
    cycles = obj["rotation"]
    for cyc in cycles:
        for i, h in enumerate(cyc):
            rotation[h] = cyc[(i + 1) % len(cyc)]
    m = CombinatorialMap(obj["half_edges"], involution, rotation)
    coloring = {min(cycles[int(i)]): c for i, c in coloring.items()}
    labels = {int(k): v for k, v in obj.get("labels", {}).items()}
    return BraneTiling(m, coloring, labels)
