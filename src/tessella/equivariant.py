"""Finite-order symmetries of tilings and their dual quivers.

Given a colour-preserving symmetry of a tiling of order ``n``, this module
builds the machinery relating the dual quiver ``Q`` to its orbit quiver
``Q'``:

* ``refine_tiling`` subdivides symmetric tiles until every face orbit has
  size ``n`` (so the induced action on dual-quiver vertices is free),
* ``equivariant_dimer`` extends the tiling (in whole symmetry orbits) until
  a perfect matching of the tiling vertices exists,
* ``build_orbit_quiver`` constructs ``Q'``: the original vertices, one
  generating arrow per arrow orbit, and a chain of localized isomorphism
  arrows through each vertex orbit,
* ``xi_embed`` realizes every path of ``Q`` as a word in ``Q'`` from tabled
  pieces (the arrow ``a = phi^k(gen)`` maps to ``p_a . gen . q_a``, with the
  unique iso words ``p_a``, ``q_a``), and ``factor_word`` matches them back,
* ``transport_potential`` pushes the tiling potential to ``Q'``, and
  ``ChoiceSearch`` picks a choice making the transported potential
  homogeneous of degree ``n`` in the isomorphism arrows, from arrow
  degrees alone: its degree-n arrows must be dual to a perfect matching,
  the others of degree 0.  It answers for one matching (``choose``, or
  ``choose_homogeneous_xi``), or takes the smallest-lettered over every
  perfect matching (``canonical``), building no orbit quiver.  ``all_dimers``
  enumerates the perfect matchings by brute force; it is the oracle the
  search is tested against, not a step of it.

The isomorphism arrows are the orbit quiver's localized arrows; they carry
degree +1 (inverses -1) and all other arrows degree 0.
The common-source rule (all generators whose sources share a vertex orbit
use the same source vertex) is the sufficient condition ensuring no
isomorphism arrow appears in the transported potential with both signs.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Optional

from .datafiles import InputError, check_object, is_id, is_int, list_of
from .pathalg import (
    Element,
    NonComposable,
    Potential,
    Quiver,
    UnknownArrow,
    UnknownVertexError,
    Word,
    _idkey,
    _invert,
    _seam,
    cyclic_derivative,
    multiply,
    normalize,
)
from .surfacemap import (
    BraneTiling,
    CombinatorialMap,
    _cycles_of,
    dual_quiver,
    validate_tiling,
)


class InvalidAutomorphism(InputError):
    """The permutation data do not define a symmetry of the object."""


class OrbitSizeViolation(InputError):
    """A vertex orbit is smaller than the automorphism order."""


class BadChoice(InputError):
    """An orbit choice breaks the one-generator-per-orbit/base-point rules."""


class MixedInverseViolation(InputError):
    """An isomorphism arrow occurs with both signs in a transported potential."""


class MalformedWord(InputError):
    """The word cannot be factored over the chosen embedding."""


class MatchingStuck(InputError):
    """No co-facial edge insertion can complete the vertex matching."""


class NoChoiceFound(RuntimeError):
    """Exhaustive search found no admissible homogeneous choice."""

    exit_code = 3


def _perm_order(perms: Iterable[Mapping]) -> int:
    return lcm(*(len(cyc) for perm in perms
                 for cyc in _cycles_of(perm, perm, key=_idkey)))


def _perm_power(perm: Mapping, x, k: int, order: int):
    """``perm`` applied ``k`` mod ``order`` times to ``x``."""
    for _ in range(k % order):
        x = perm[x]
    return x


class QuiverAutomorphism:
    """A quiver symmetry: compatible permutations of vertices and arrows."""

    def __init__(self, quiver: Quiver, vertex_perm: Mapping, arrow_perm: Mapping):
        self.quiver = quiver
        self.vertex_perm = dict(vertex_perm)
        self.arrow_perm = dict(arrow_perm)
        vset = set(quiver.vertices)
        if set(self.vertex_perm) != vset or set(self.vertex_perm.values()) != vset:
            raise InvalidAutomorphism("vertex_perm is not a permutation of the vertices")
        aset = set(quiver.arrow_ids())
        if set(self.arrow_perm) != aset or set(self.arrow_perm.values()) != aset:
            raise InvalidAutomorphism("arrow_perm is not a permutation of the arrows")
        for a in aset:
            img = self.arrow_perm[a]
            if quiver.source(img) != self.vertex_perm[quiver.source(a)] \
                    or quiver.target(img) != self.vertex_perm[quiver.target(a)]:
                raise InvalidAutomorphism(f"arrow {a!r} is not mapped equivariantly")
            if quiver.is_localized(a) != quiver.is_localized(img):
                raise InvalidAutomorphism(f"arrow {a!r} changes localization status")
        self.order = _perm_order([self.vertex_perm, self.arrow_perm])

    def apply_vertex(self, v, k: int = 1):
        return _perm_power(self.vertex_perm, v, k, self.order)

    def apply_arrow(self, a, k: int = 1):
        return _perm_power(self.arrow_perm, a, k, self.order)

    def vertex_orbits(self) -> list[tuple]:
        return _cycles_of(self.vertex_perm, self.quiver.vertices, key=_idkey)

    def arrow_orbits(self) -> list[tuple]:
        return _cycles_of(self.arrow_perm, self.quiver.arrow_ids(), key=_idkey)

    @staticmethod
    def identity(quiver: Quiver) -> "QuiverAutomorphism":
        return QuiverAutomorphism(quiver,
                                  {v: v for v in quiver.vertices},
                                  {a: a for a in quiver.arrow_ids()})


class TilingAutomorphism:
    """A colour-preserving symmetry of a tiling, given on half-edges."""

    def __init__(self, tiling: BraneTiling, half_edge_perm: Mapping[int, int]):
        self.tiling = tiling
        self.half_edge_perm = {int(k): int(v) for k, v in half_edge_perm.items()}
        m = tiling.map
        hset = set(m.half_edges)
        perm = self.half_edge_perm
        if set(perm) != hset or set(perm.values()) != hset:
            raise InvalidAutomorphism("half_edge_perm is not a permutation of the half-edges")
        for h in hset:
            if perm[m.involution[h]] != m.involution[perm[h]]:
                raise InvalidAutomorphism(f"half-edge {h} breaks commutation with the pairing")
            if perm[m.rotation[h]] != m.rotation[perm[h]]:
                raise InvalidAutomorphism(f"half-edge {h} breaks commutation with the rotation")
        color = {h: tiling.coloring[v] for h, v in m.vertex_index().items()}
        for h in hset:
            if color[perm[h]] != color[h]:
                raise InvalidAutomorphism("automorphism swaps vertex colours")
        self.order = _perm_order([perm])

    def apply(self, h: int, k: int = 1) -> int:
        return _perm_power(self.half_edge_perm, h, k, self.order)

    @staticmethod
    def identity(tiling: BraneTiling) -> "TilingAutomorphism":
        return TilingAutomorphism(tiling, {h: h for h in tiling.map.half_edges})


def induced_quiver_automorphism(tiling: BraneTiling, taut: TilingAutomorphism,
                                quiver: Optional[Quiver] = None) -> QuiverAutomorphism:
    """Push a tiling symmetry to the dual quiver (faces and edge-duals)."""
    if quiver is None:
        quiver, _ = dual_quiver(tiling)
    m = tiling.map
    perm = taut.half_edge_perm
    face_no = m.face_index()
    vertex_perm = {face_no[h]: face_no[perm[h]] for h in m.half_edges}
    arrow_perm = {tiling.dual_arrow(h): tiling.dual_arrow(perm[h])
                  for h, _ in m.edges()}
    return QuiverAutomorphism(quiver, vertex_perm, arrow_perm)


def orbit_sizes(quiver: Quiver, phi: QuiverAutomorphism) -> tuple[dict, bool]:
    """Vertex orbit sizes and whether they all equal the automorphism order."""
    sizes = {}
    for orb in phi.vertex_orbits():
        for v in orb:
            sizes[v] = len(orb)
    return sizes, all(s == phi.order for s in sizes.values())


# -- tiling surgery ------------------------------------------------------------


class _Surgeon:
    """Mutable tiling-with-symmetry state for orbit-equivariant insertions."""

    def __init__(self, tiling: BraneTiling, taut: TilingAutomorphism):
        if taut.tiling is not tiling:
            taut = TilingAutomorphism(tiling, taut.half_edge_perm)
        self.source = tiling, taut
        m = tiling.map
        self.map = CombinatorialMap(m.half_edges, m.involution, m.rotation)
        self.coloring = dict(tiling.coloring)
        self.labels = dict(tiling.labels)
        self.perm = dict(taut.half_edge_perm)
        self.order = taut.order
        self.next_id = max(m.half_edges) + 1
        self.changed = False

    def finish(self, error: type, what: str
               ) -> tuple[BraneTiling, TilingAutomorphism]:
        """The tiling and symmetry after surgery (the inputs if nothing
        changed); raises ``error`` when the result is not a valid tiling."""
        if not self.changed:
            return self.source
        out = BraneTiling(self.map, self.coloring, self.labels)
        report = validate_tiling(out)
        if not report["valid"]:
            raise error(f"{what} produced an invalid tiling: "
                        + "; ".join(report["problems"]))
        return out, TilingAutomorphism(out, self.perm)

    def apply(self, h: int, k: int) -> int:
        return _perm_power(self.perm, h, k, self.order)

    def vertex_cycle_of(self, h: int) -> tuple[int, ...]:
        """The rotation cycle through ``h``, starting at ``h``."""
        return _cycles_of(self.map.rotation, (h,))[0]

    def insert_before(self, pending: dict[int, int]) -> None:
        """Insert new half-edges into rotations, each directly before its key."""
        for corner, new in pending.items():
            self.map.rotation[self.vertex_cycle_of(corner)[-1]] = new
            self.map.rotation[new] = corner
        self.changed = True

    def new_edge_orbit(self) -> tuple[list[int], list[int]]:
        """Fresh edges (u_m, v_m) for m < n that the symmetry cycles, u_m to
        u_{m+1} and v_m to v_{m+1}; ids are taken in the order u_0, v_0,
        u_1, v_1, ...  The caller places them in rotations."""
        n = self.order
        ids = range(self.next_id, self.next_id + 2 * n)
        self.next_id += 2 * n
        self.map.half_edges += tuple(ids)
        us, vs = list(ids[0::2]), list(ids[1::2])
        for m_ in range(n):
            u, v = us[m_], vs[m_]
            self.map.involution[u], self.map.involution[v] = v, u
            self.perm[u], self.perm[v] = us[(m_ + 1) % n], vs[(m_ + 1) % n]
        return us, vs

    def add_edge_orbit(self, corner_u: int, corner_v: int) -> None:
        """Add an edge between the vertices at two co-facial corners, plus
        all symmetry images.  The face orbit must be free."""
        us, vs = self.new_edge_orbit()
        pending: dict[int, int] = {}
        for m_ in range(self.order):
            pending[self.apply(corner_u, m_)] = us[m_]
            pending[self.apply(corner_v, m_)] = vs[m_]
        self.insert_before(pending)

    def add_pendant_orbit(self, corner: int, color: str) -> None:
        """Hang a new valence-one vertex of the given colour at a corner's
        vertex, plus all symmetry images."""
        stubs, tips = self.new_edge_orbit()
        for tip in tips:
            self.map.rotation[tip] = tip
            self.coloring[tip] = color
        self.insert_before({self.apply(corner, m_): stub
                            for m_, stub in enumerate(stubs)})


def refine_tiling(tiling: BraneTiling, taut: TilingAutomorphism
                  ) -> tuple[BraneTiling, TilingAutomorphism]:
    """Subdivide symmetric tiles until every face orbit is free.

    Each tile fixed by a proper power of the symmetry gets a new centre
    vertex joined to the orbit of a boundary corner, splitting it into
    tiles the symmetry permutes freely.  The boundary vertex is the
    lowest-id vertex on the tile (the centre takes the opposite colour).
    The centre's rotation lists its spokes in the reverse of the order in
    which the tile's boundary walk meets their corners, so each insertion
    into an orbit of d tiles with stabiliser order k = n/d must raise the
    face count by exactly (k - 1) * d; otherwise ``InvalidAutomorphism``
    names the tile.  Returns the refined tiling and the extended symmetry;
    the inputs are returned as-is when no tile needs splitting.
    """
    s = _Surgeon(tiling, taut)
    n = s.order
    while True:
        # one snapshot of the cells per pass, taken before the pass edits
        faces = s.map.face_cycles()
        face_of = s.map.face_index()
        for face in faces:
            # the face's orbit size: the first power of the symmetry taking
            # a half-edge of it back into it (at most n, which fixes all)
            d, img = 1, s.perm[face[0]]
            while face_of[img] != face_of[face[0]]:
                d, img = d + 1, s.perm[img]
            if d < n:
                break
        else:
            break
        k = n // d
        vertex_of = s.map.vertex_index()
        v = min(vertex_of[h] for h in face)
        c0 = min(h for h in face if vertex_of[h] == v)
        corners = [s.apply(c0, j * d) for j in range(k)]
        if len(set(corners)) != k:
            raise InvalidAutomorphism(
                f"symmetry fixes a face but moves its boundary in an "
                f"unexpected pattern at corner {c0}")
        centre_color = "b" if s.coloring[v] == "w" else "w"
        boundary_half, centre_half = s.new_edge_orbit()
        s.insert_before({s.apply(c0, m_): boundary_half[m_] for m_ in range(n)})
        # one centre per face in the orbit; its rotation lists the spokes in
        # the reverse of the boundary-walk order of their corners, so that
        # consecutive spokes bound a tile with the boundary arc between them
        for l in range(d):
            ms = [m_ for m_ in range(n) if m_ % d == l]
            target_face = faces[face_of[s.apply(c0, l)] - 1]
            order = sorted(ms, key=lambda m_: target_face.index(s.apply(c0, m_)),
                           reverse=True)
            cyc = [centre_half[m_] for m_ in order]
            for i, h in enumerate(cyc):
                s.map.rotation[h] = cyc[(i + 1) % len(cyc)]
            s.coloring[min(cyc)] = centre_color
        split = len(s.map.face_cycles()) - len(faces)
        if split != (k - 1) * d:
            raise InvalidAutomorphism(
                f"spokes in the face at half-edge {face[0]} (stabiliser order "
                f"{k}) added {split} faces instead of {(k - 1) * d}")
    return s.finish(InvalidAutomorphism, "refinement")


# -- dimers --------------------------------------------------------------------


def _adjacency(pairs: Iterable[tuple]) -> tuple[dict, dict]:
    """White->black adjacency lists from (white, black, witness) triples,
    each list in first-seen order, and the first witness of each pair."""
    adj: dict[int, list[int]] = {}
    first: dict[tuple[int, int], tuple[int, int]] = {}
    for u, v, witness in pairs:
        if (u, v) not in first:
            first[u, v] = witness
            adj.setdefault(u, []).append(v)
    return adj, first


def _matching_data(s: _Surgeon) -> tuple[dict, dict]:
    """White->black adjacency and a representative edge per vertex pair."""
    vertex_of = s.map.vertex_index()
    ends = ((vertex_of[h], vertex_of[k], (h, k)) for h, k in s.map.edges())
    return _adjacency((u, v, e) if s.coloring[u] == "w" else (v, u, e)
                      for u, v, e in ends)


def _augmenting_path(w, adj: dict, match_b: dict, seen: set
                     ) -> Optional[list[tuple]]:
    """Depth-first search, in ``adj`` order and past the blacks in ``seen``,
    for an augmenting path from ``w``: its (white, black) pairs, or None."""
    for b in adj.get(w, []):
        if b in seen:
            continue
        seen.add(b)
        if b not in match_b:
            return [(w, b)]
        rest = _augmenting_path(match_b[b], adj, match_b, seen)
        if rest is not None:
            return [(w, b)] + rest
    return None


def _max_matching(whites: list[int], adj: dict[int, list[int]]) -> dict[int, int]:
    """Kuhn's augmenting-path matching; returns white -> black."""
    match_w: dict[int, int] = {}
    match_b: dict[int, int] = {}
    for w in sorted(whites):
        for w_, b in _augmenting_path(w, adj, match_b, set()) or ():
            match_w[w_] = b
            match_b[b] = w_
    return match_w


def all_dimers(tiling: BraneTiling) -> list[frozenset]:
    """Every perfect matching of the tiling vertices, as edge sets."""
    m = tiling.map
    edges = m.edges()
    vert = m.vertex_index()
    out = []

    def extend(chosen: list, remaining: set):
        if not remaining:
            out.append(frozenset(chosen))
            return
        v = min(remaining)
        for (h, k) in edges:
            ends = {vert[h], vert[k]}
            if v in ends and ends <= remaining and len(ends) == 2:
                extend(chosen + [(h, k)], remaining - ends)

    extend([], set(vert.values()))
    return out


def _cofacial(s: _Surgeon) -> tuple[dict, dict]:
    """White->black co-facial adjacency and a corner pair per vertex pair."""
    vertex_of = s.map.vertex_index()

    def pairs():
        for face in s.map.face_cycles():
            at: dict[int, int] = {}
            for h in face:
                at.setdefault(vertex_of[h], h)
            handles = sorted(at)
            for u in handles:
                if s.coloring[u] == "w":
                    yield from ((u, v, (at[u], at[v])) for v in handles
                                if s.coloring[v] == "b")

    return _adjacency(pairs())


def equivariant_dimer(tiling: BraneTiling, taut: TilingAutomorphism
                      ) -> tuple[BraneTiling, TilingAutomorphism, frozenset]:
    """A perfect matching on the tiling, extending it in orbits if needed.

    Requires the free-face-orbit property (run ``refine_tiling`` first).
    Colour counts are balanced by pendant-vertex orbits; then, while the
    maximum matching on actual edges is not perfect, an augmenting path is
    taken through the co-facial pair graph and its first missing edge is
    added to the tiling with its whole symmetry orbit.  Returns the
    possibly extended tiling, the extended symmetry, and the matching as a
    set of (half, half) edges.
    """
    s = _Surgeon(tiling, taut)
    n = s.order

    whites = sorted(h for h, c in s.coloring.items() if c == "w")
    blacks = sorted(h for h, c in s.coloring.items() if c == "b")
    if len(whites) != len(blacks):
        excess = len(whites) - len(blacks)
        if excess % n:
            raise MatchingStuck(
                f"colour imbalance {excess} is not a multiple of the "
                f"symmetry order {n}")
        minority = "b" if excess > 0 else "w"
        majority = "w" if excess > 0 else "b"
        vertex_of = s.map.vertex_index()
        corner = min(h for h in s.map.half_edges
                     if s.coloring[vertex_of[h]] == majority)
        for _ in range(abs(excess) // n):
            s.add_pendant_orbit(corner, minority)
        whites = sorted(h for h, c in s.coloring.items() if c == "w")
        blacks = sorted(h for h, c in s.coloring.items() if c == "b")

    while True:
        adj, edge_for = _matching_data(s)
        match_w = _max_matching(whites, adj)
        if len(match_w) == len(whites):
            edges = frozenset(edge_for[w, b] for w, b in match_w.items())
            return (*s.finish(MatchingStuck, "extension"), edges)

        # stuck on actual edges: find an augmenting path allowed to step
        # through co-facial (not yet adjacent) pairs, and realize its first
        # missing edge in the tiling
        adj_plus, corner = _cofacial(s)
        match_b = {b: w for w, b in match_w.items()}
        path = None
        for w in sorted(set(whites) - set(match_w)):
            path = _augmenting_path(w, adj_plus, match_b, set())
            if path is not None:
                break
        if path is None:
            raise MatchingStuck(
                "no augmenting path exists even through co-facial pairs")
        missing = [(w, b) for (w, b) in path if b not in adj.get(w, [])]
        cw, cb = corner[missing[0]]
        s.add_edge_orbit(cw, cb)


# -- the orbit quiver ----------------------------------------------------------


class OrbitChoice:
    """Per-orbit generator arrows plus a base point for each vertex orbit.

    ``generators`` holds exactly one arrow id per arrow orbit.  ``bases``
    maps each vertex-orbit representative (its minimal vertex) to the orbit
    member where the isomorphism-arrow chain starts.  With
    ``require_common_source`` set, generators whose sources share a vertex
    orbit must share the actual source vertex.
    """

    def __init__(self, generators: Iterable, bases: Mapping,
                 require_common_source: bool = False):
        self.generators = tuple(sorted(set(generators), key=_idkey))
        self.bases = dict(bases)
        self.require_common_source = require_common_source

    def __repr__(self):
        return f"OrbitChoice(generators={list(self.generators)}, bases={self.bases})"


class XiTable(NamedTuple):
    """The embedding's pieces, computed once per orbit quiver.

    ``image[a]`` is xi(a) = p_a . gen . q_a, ``head[a]`` its letters up to
    ``(gen, 1)`` and ``tail[a]`` those of q_a.  The iso arrows of a vertex
    orbit form a chain, a path graph, so reduced iso words are unique
    (``iso[(u, v)]``): for a composable pair (source(a) = target(b)) the
    seam q_a . p_b reduces to ``join[(a, b)]``, the letters of
    ``iso_word(target(gen_b), source(gen_a))``, and ``step[(a, b)]`` adds
    ``(gen_b, 1)``: xi(a b c) is ``head[a] + step[(a, b)] + step[(b, c)] +
    tail[c]``.  ``member[(g, v)]`` is ``(b, target(b))`` for g's orbit
    member ``b`` with source ``v``: one lookup per generator moves the
    factorization to b's target.
    """

    image: dict
    member: dict
    head: dict
    tail: dict
    join: dict
    iso: dict
    step: dict


class SemidirectQuiver:
    """The orbit quiver with its provenance.

    ``quiver`` has the original vertices, the chosen generators, and the
    isomorphism arrows, which are exactly its localized arrows.  That
    localization is the grading: iso arrows have degree +1, their inverses
    -1 and everything else 0.  The embedding reads :attr:`xi_table`, which
    is built on first use: an orbit quiver read only for its grading, such
    as ``arrow_degree``, needs none of it.
    """

    def __init__(self, quiver: Quiver, base: Quiver, phi: QuiverAutomorphism,
                 choice: OrbitChoice, iso_chain: dict, chain_pos: dict,
                 gen_of: dict):
        self.quiver, self.base, self.phi, self.choice = quiver, base, phi, choice
        self.iso_chain = iso_chain  # orbit rep -> iso arrow ids along the chain
        self.chain_pos = chain_pos  # vertex -> (orbit rep, position from the base)
        self.gen_of = gen_of  # arrow of base quiver -> (generator, k), a = phi^k(gen)

    def iso_arrows(self) -> list:
        return [r for chain in self.iso_chain.values() for r in chain]

    def iso_word(self, u, v) -> Word:
        """The unique word of isomorphism arrows (or inverses) from u to v."""
        if u not in self.chain_pos or v not in self.chain_pos:
            raise UnknownVertexError(u if u not in self.chain_pos else v)
        ru, pu = self.chain_pos[u]
        rv, pv = self.chain_pos[v]
        if ru != rv:
            raise NonComposable(f"{u!r} and {v!r} lie in different vertex orbits")
        chain = self.iso_chain[ru]
        if pu <= pv:
            letters = tuple((chain[t], 1) for t in range(pv - 1, pu - 1, -1))
        else:
            letters = tuple((chain[t], -1) for t in range(pv, pu))
        # consecutive chain arrows compose, and one sign cannot cancel
        return Word(u, v, letters)

    @cached_property
    def xi_table(self) -> XiTable:
        """Fill the table from ``iso_word``."""
        base = self.base
        iso = {(u, v): self.iso_word(u, v) for orbit in self.phi.vertex_orbits()
               for u in orbit for v in orbit}
        image, member, head, tail, arrows_into = {}, {}, {}, {}, {}
        for a, (gen, _) in self.gen_of.items():
            q = iso[base.source(a), base.source(gen)]
            p = iso[base.target(gen), base.target(a)]
            head[a], tail[a] = p.letters + ((gen, 1),), q.letters
            image[a] = Word(q.source, p.target, head[a] + tail[a])
            arrows_into.setdefault(base.target(a), []).append(a)
        join = {(a, b): iso[base.target(self.gen_of[b][0]), base.source(gen)].letters
                for a, (gen, _) in self.gen_of.items()
                for b in arrows_into.get(base.source(a), ())}
        step = {(a, b): seam + head[b][-1:] for (a, b), seam in join.items()}
        for g, j in product(self.choice.generators, range(self.phi.order)):
            b = self.phi.apply_arrow(g, j)
            member.setdefault((g, base.source(b)), (b, base.target(b)))
        return XiTable(image, member, head, tail, join, iso, step)

    def word_degree(self, w: Word) -> int:
        return sum(e for a, e in w.letters if a in self.quiver.localized)

    def arrow_degree(self, a) -> int:
        """Degree of the embedded image of a base-quiver arrow."""
        gen, _ = self.gen_of[a]
        _, ps_a = self.chain_pos[self.base.source(a)]
        _, ps_g = self.chain_pos[self.base.source(gen)]
        _, pt_a = self.chain_pos[self.base.target(a)]
        _, pt_g = self.chain_pos[self.base.target(gen)]
        return (pt_a - pt_g) + (ps_g - ps_a)


def _iso_name(base_vertex, t: int, single: bool) -> str:
    return "r" if single else f"r_{base_vertex}_{t}"


def build_orbit_quiver(quiver: Quiver, phi: QuiverAutomorphism,
                       choice: OrbitChoice) -> SemidirectQuiver:
    """Assemble the orbit quiver for a free vertex action and a valid choice."""
    n = phi.order
    sizes, free = orbit_sizes(quiver, phi)
    if not free:
        bad = sorted((v for v, sz in sizes.items() if sz != n), key=_idkey)
        raise OrbitSizeViolation(f"vertex orbits of size < {n}: {bad}")

    arrow_orbits = phi.arrow_orbits()
    gen_set = set(choice.generators)
    gen_of: dict = {}
    for orb in arrow_orbits:
        picked = [a for a in orb if a in gen_set]
        if len(picked) != 1:
            raise BadChoice(f"arrow orbit {orb} needs exactly one generator, "
                            f"got {picked}")
        gen = picked[0]
        base_idx = orb.index(gen)
        for i, a in enumerate(orb):
            gen_of[a] = (gen, (i - base_idx) % n)
    if gen_set - set(gen_of):
        raise BadChoice(f"unknown generators: "
                        f"{sorted(gen_set - set(gen_of), key=_idkey)}")

    vertex_orbits = phi.vertex_orbits()
    bases = dict(choice.bases)
    if set(bases) != {orb[0] for orb in vertex_orbits}:
        raise BadChoice("bases must be keyed by each vertex-orbit representative")
    chain_pos: dict = {}
    iso_chain: dict = {}
    single = (n - 1) * len(vertex_orbits) == 1
    iso_arrows = []
    for orb in vertex_orbits:
        rep = orb[0]
        b = bases[rep]
        if b not in orb:
            raise BadChoice(f"base {b!r} is not in the orbit of {rep!r}")
        chain = []
        v = b
        for t in range(n):
            chain_pos[v] = (rep, t)
            if t < n - 1:
                name = _iso_name(b, t, single)
                w = phi.apply_vertex(v)
                iso_arrows.append((name, v, w))
                chain.append(name)
                v = w
        iso_chain[rep] = chain

    if choice.require_common_source:
        by_orbit: dict = {}
        for g in choice.generators:
            rep, _ = chain_pos[quiver.source(g)]
            by_orbit.setdefault(rep, set()).add(quiver.source(g))
        offenders = {rep: srcs for rep, srcs in by_orbit.items() if len(srcs) > 1}
        if offenders:
            raise BadChoice(f"generators with differing sources in a vertex "
                            f"orbit: {offenders}")

    arrows = [(g, quiver.source(g), quiver.target(g)) for g in choice.generators]
    arrows += iso_arrows
    q = Quiver(quiver.vertices, arrows, localized=[a for a, _, _ in iso_arrows])
    return SemidirectQuiver(q, quiver, phi, choice, iso_chain, chain_pos, gen_of)


def xi_embed(p, ctx: SemidirectQuiver) -> Word:
    """Embed a path of the base quiver into the orbit quiver.

    ``p`` may be a Word of the base quiver or a sequence of arrow ids in
    written (right-to-left acting) order.  Every letter is checked before
    the tabled pieces are laid end to end (see :class:`XiTable`); a pair of
    arrows that does not compose raises ``NonComposable``.
    """
    if isinstance(p, Word):
        letters = p.letters
        if not letters:  # the base and orbit quivers share their vertices
            if p.source not in ctx.chain_pos:
                raise UnknownVertexError(p.source)
            return p
    else:
        letters = tuple((a, 1) for a in p)
        if not letters:
            raise NonComposable("an empty path needs a Word carrying its vertex")
    image, _, head, tail, _, _, step = ctx.xi_table  # named reads cost more
    for a, e in letters:
        if e != 1 or a not in head:
            raise UnknownArrow(a) if e == 1 else NonComposable(
                f"paths are inverse-free, got {a!r}^{e}")
    first = last = letters[0][0]
    out = list(head[first])
    for a, _ in letters[1:]:
        piece = step.get((last, a))
        if piece is None:
            raise NonComposable(f"{image[last]!r} after {image[a]!r}")
        out += piece
        last = a
    out += tail[last]
    return Word(image[last].source, image[first].target, tuple(out))


def factor_word(w: Word, ctx: SemidirectQuiver) -> tuple[Word, Word]:
    """Split a normal word of the orbit quiver as ``q . xi(p)``.

    ``q`` is a word in isomorphism arrows only and ``p`` a path of the base
    quiver; when the word's degree vanishes mod the symmetry order, ``q``
    is a constant path and ``w`` lies in the image of the embedding.

    One right-to-left pass over the generators, each naming the orbit
    member ``b`` that starts where the path so far ends.  As reduced iso
    words are unique (see :class:`XiTable`), each iso run has one allowed
    value: ``tail[b]`` right of the first generator, ``join[(b, b')]``
    between members, ``iso_word(target(g), w.target)`` left of the last
    ``g``.  Other runs raise ``MalformedWord``: at once if b's iso tail is
    no suffix of q_b, else after the pass, whose checks come first.
    """
    image, member, head, tail, join, iso_words, _ = ctx.xi_table
    iso, letters, p_letters = ctx.quiver.localized, w.letters, []
    v0, end, prev, misfit = w.source, len(letters), None, None
    for i in range(len(letters) - 1, -1, -1):
        g, e = letters[i]
        if g in iso:
            continue
        hop = member.get((g, v0)) if e == 1 else None
        if hop is None:  # not a generator, or no member of it starts at v0
            if e != 1 or g not in ctx.choice.generators:
                raise MalformedWord(f"letter {g!r}^{e} is not a generating arrow")
            if v0 not in ctx.chain_pos or \
                    ctx.chain_pos[v0][0] != ctx.chain_pos[ctx.quiver.source(g)][0]:
                raise MalformedWord(
                    f"word source {v0!r} is not in the source orbit of {g!r}")
            raise MalformedWord(f"no orbit member of {g!r} has source {v0!r}")
        b, target = hop
        run = letters[i + 1:end]
        piece = tail[b] if prev is None else join[b, prev]
        if run != piece:  # b's iso tail: the run times p_prev^-1
            unwind = () if prev is None else _invert(head[prev][:-1])
            k = _seam(run, unwind)
            iso_tail = run[:len(run) - k] + unwind[k:]
            if iso_tail and image[b].letters[-len(iso_tail):] != iso_tail:
                raise MalformedWord(f"the iso tail {iso_tail!r} does not "
                                    f"match the embedding of {b!r}")
            misfit = misfit or f"the iso run {run!r} right of {g!r} is not {piece!r}"
        p_letters.append((b, 1))
        prev, end, v0 = b, i, target
    u = ctx.quiver.target(letters[end][0]) if p_letters else w.source
    piece = iso_words.get((u, w.target))
    if piece is None or letters[:end] != piece.letters:
        misfit = misfit or (f"the iso run {letters[:end]!r} does not join "
                            f"{u!r} to {w.target!r}")
    if misfit:
        raise MalformedWord(misfit)
    return iso_words[v0, w.target], Word(w.source, v0, tuple(reversed(p_letters)))


class TransportResult(NamedTuple):
    potential: Potential
    homogeneous: bool
    degree: Optional[int]


def transport_potential(W: Potential, ctx: SemidirectQuiver) -> TransportResult:
    """Push a base-quiver potential through the embedding.

    Raises ``MixedInverseViolation`` when some isomorphism arrow appears in
    the image with both signs (the common-source condition rules this out).
    Reports whether the image is homogeneous in the iso grading.
    """
    out = Potential.build(ctx.quiver, ((c, xi_embed([a for a, _ in cyc], ctx))
                                       for c, cyc in W.terms()))
    used, degs = set(), set()  # iso letters, and the degree of each cycle
    for cyc in out.coeffs:
        iso = [(a, e) for a, e in cyc if a in ctx.quiver.localized]
        used.update(iso)
        degs.add(sum(e for _, e in iso))
    mixed = sorted(a for a, e in used if e == 1 and (a, -1) in used)
    if mixed:
        raise MixedInverseViolation(
            f"isomorphism arrows occurring with both signs: {mixed}")
    homogeneous = len(degs) <= 1
    degree = degs.pop() if len(degs) == 1 else (0 if not degs else None)
    return TransportResult(out, homogeneous, degree)


class ChoiceSearch:
    """The search for a homogeneous choice on one tiling and symmetry.

    Candidates range over one source vertex per vertex orbit (determining
    the generators, hence satisfying the common-source condition) and one
    chain base per vertex orbit, in ``product`` order.  With a generator
    g's source and target at chain positions ps and pt, the arrow
    phi^k(g) has degree n([ps + k >= n] - [pt + k >= n]), which is what
    :meth:`SemidirectQuiver.arrow_degree` reads off the orbit quiver.  So
    every degree is 0 or ``n`` exactly when pt <= ps for every generator
    (inequalities between residues, not a linear system mod n), and the
    degree-n arrows are the run phi^k(g), n - ps <= k < n - pt, of each
    arrow orbit.  Such a candidate can serve a matching only when its
    degree-n arrows (``hits``, ``None`` when ``n = 1``, where every
    matching asks for all degrees 0) are the matching's duals.  The search
    keeps the first candidate of each such set, in search order.

    No candidate is transported: the degrees decide.  Each term of W is the
    boundary cycle of one tiling vertex, so its transported degree is ``n``
    times the number of ``hits`` edges at that vertex.  W is homogeneous of
    degree ``n`` exactly when those edges meet every tiling vertex once,
    that is, form a perfect matching (for ``n = 1`` every term has degree
    0).  The common-source condition keeps any isomorphism arrow from
    occurring with both signs, so the transport raises nothing either.
    """

    def __init__(self, tiling: BraneTiling, taut: TilingAutomorphism):
        self.tiling = tiling
        self.quiver, self.W = dual_quiver(tiling)
        self.phi = induced_quiver_automorphism(tiling, taut, self.quiver)
        n = self.phi.order
        sizes, free = orbit_sizes(self.quiver, self.phi)
        if not free:
            raise OrbitSizeViolation(f"orbit sizes {sizes} (order {n})")
        self.vertex_orbits = self.phi.vertex_orbits()
        self.arrow_orbits = self.phi.arrow_orbits()
        self.size = 0  # the candidates, counting those that serve no matching
        # hits -> the first candidate with those degree-n arrows
        self.first: dict[Optional[frozenset], OrbitChoice] = {}
        for generators, bases, arrows in self._candidates():
            self.size += 1
            if arrows is not None:
                hits = self._hits(arrows)
                if hits not in self.first:
                    self.first[hits] = OrbitChoice(
                        generators, bases, require_common_source=True)
        m = tiling.map
        self._edge_of = {tiling.dual_arrow(h): (h, k) for h, k in m.edges()}
        self._vertex_of = m.vertex_index()
        self._handles = sorted(set(self._vertex_of.values()))

    def _candidates(self):
        """Yield (generators, bases, degree-n arrows) for every candidate,
        in order; the arrows are ``None`` when some generator has pt > ps."""
        quiver, n = self.quiver, self.phi.order
        where = {v: (j, k) for j, orb in enumerate(self.vertex_orbits)
                 for k, v in enumerate(orb)}  # vertex -> (orbit, index in it)
        reps = [orb[0] for orb in self.vertex_orbits]
        option_space = [sorted(orb, key=_idkey) for orb in self.vertex_orbits]
        for sources in product(*option_space):
            runs = []  # (orbit from its generator g, where s(g), where t(g))
            for orb in self.arrow_orbits:
                j, k = where[quiver.source(orb[0])]
                i = (where[sources[j]][1] - k) % n  # orb[i] leaves sources[j]
                run = orb[i:] + orb[:i]
                runs.append((run, where[sources[j]],
                             where[quiver.target(run[0])]))
            generators = [run[0] for run, _, _ in runs]
            for bases in product(*option_space):
                start = [where[b][1] for b in bases]
                arrows = []
                for run, (js, s), (jt, t) in runs:
                    ps, pt = (s - start[js]) % n, (t - start[jt]) % n
                    if pt > ps:
                        arrows = None
                        break
                    arrows += run[n - ps:n - pt]
                yield generators, dict(zip(reps, bases)), arrows

    def _hits(self, arrows) -> Optional[frozenset]:
        # for n = 1 every arrow must have degree 0, whatever the matching
        return frozenset(arrows) if self.phi.order > 1 else None

    def _perfect(self, hits: Optional[frozenset]) -> bool:
        """Whether the edges dual to ``hits`` meet every tiling vertex once,
        so that the candidates with these degree-n arrows transport W
        homogeneously of degree ``n``; always, when ``n = 1``."""
        return hits is None or self._handles == sorted(
            self._vertex_of[h] for a in hits for h in self._edge_of[a])

    def choose(self, dimer: frozenset) -> OrbitChoice:
        """The first candidate whose degree-n arrows are exactly the
        matching's dual arrows and whose other arrows have degree 0, when
        those duals form a perfect matching.  Raises ``NoChoiceFound`` with
        a search report when there is none."""
        dimer_duals = {self.tiling.dual_arrow(h) for h, _ in dimer}
        want = self._hits(dimer_duals)
        if want in self.first and self._perfect(want):
            return self.first[want]
        raise NoChoiceFound(
            f"no admissible choice after {self.size} candidates "
            f"(order {self.phi.order}, {len(self.vertex_orbits)} vertex "
            f"orbits, {len(self.arrow_orbits)} arrow orbits, dimer duals "
            f"{sorted(dimer_duals)})")

    def canonical(self, matching: frozenset) -> tuple[frozenset, OrbitChoice]:
        """The admissible (matching, choice) with the smallest generator
        letters, over the given matching and every perfect matching.

        Distinct matchings can admit differently-lettered sections of the
        same arrow orbits; the smallest makes the emitted presentation
        deterministic and lines companion data such as derivation scripts
        up with it.  One pass over the kept candidates takes those whose
        ``hits`` are dual to a perfect matching: what :meth:`choose` returns
        for that matching.  Ties go to the given matching, then to the
        smallest sorted dual names.  When no matching admits a choice,
        raises what ``choose(matching)`` raises.
        """
        given = self._hits(self.tiling.dual_arrow(h) for h, _ in matching)
        won = {hits: choice for hits, choice in self.first.items()
               if self._perfect(hits)}
        if not won:  # not even for the given matching
            return self.choose(matching)  # raises its NoChoiceFound
        best = min(won, key=lambda hits: (
            tuple(str(g) for g in won[hits].generators), hits != given,
            sorted(hits or ())))
        if best == given:
            return matching, won[best]
        return frozenset(self._edge_of[a] for a in best), won[best]


def choose_homogeneous_xi(tiling: BraneTiling, taut: TilingAutomorphism,
                          dimer: frozenset) -> OrbitChoice:
    """Search for a choice making the transported potential homogeneous.

    ``ChoiceSearch(tiling, taut).choose(dimer)``: the first candidate, in
    search order, under which every dimer-dual arrow embeds with degree
    equal to the symmetry order and every other arrow with degree 0, when
    the dimer is a perfect matching (which makes the transported potential
    homogeneous of that degree).  The pipeline's pick over every perfect
    matching is :meth:`ChoiceSearch.canonical`.  Raises ``NoChoiceFound``
    with a search report when no candidate qualifies.
    """
    return ChoiceSearch(tiling, taut).choose(dimer)


class TransportIdentity(NamedTuple):
    passed: bool
    witness: Element
    lhs: Element
    rhs: Element


def verify_transport_identity(ctx: SemidirectQuiver, W: Potential,
                              Wp: Potential, a) -> TransportIdentity:
    """Check  a . dWp/da  =  n (xi(c_v) - xi(c_u))  for a generating arrow.

    ``c_v`` and ``c_u`` are the positive/negative cycles of the base
    potential containing ``a``, rotated so that ``a`` is written leftmost.
    The comparison is exact on normalized elements; the witness is the
    difference (zero on success).
    """
    if a not in ctx.choice.generators:
        raise BadChoice(f"{a!r} is not a chosen generating arrow")
    n = ctx.phi.order
    pos = [cyc for coeff, cyc in W.terms() if coeff == 1 and (a, 1) in cyc]
    neg = [cyc for coeff, cyc in W.terms() if coeff == -1 and (a, 1) in cyc]
    if len(pos) != 1 or len(neg) != 1:
        raise ValueError(
            f"{a!r} must lie in exactly one positive and one negative cycle; "
            f"found {len(pos)} and {len(neg)}")

    def a_leftmost(cyc):
        i = cyc.index((a, 1))
        return cyc[i:] + cyc[:i]

    rhs = Element((xi_embed([x for x, _ in a_leftmost(cyc)], ctx), sign * n)
                  for sign, cyc in ((1, pos[0]), (-1, neg[0])))
    da = cyclic_derivative(ctx.quiver, Wp, a)
    a_word = normalize(ctx.quiver, [(a, 1)])
    lhs = multiply(ctx.quiver, Element.from_word(a_word), da)
    witness = lhs - rhs
    return TransportIdentity(witness.is_zero(), witness, lhs, rhs)


# -- serialization --------------------------------------------------------------


def tiling_automorphism_from_json(tiling: BraneTiling, obj: dict) -> TilingAutomorphism:
    """A symmetry of ``tiling``, after a check of the file's shape: an
    object whose ``half_edge_perm`` (or the object itself) maps integer
    keys to integers, and whose optional ``order`` is an integer."""
    if not isinstance(obj, dict):
        raise InputError(f"an automorphism file holds a JSON object, "
                         f"not {type(obj).__name__}")
    perm = obj.get("half_edge_perm", obj)
    if not isinstance(perm, dict):
        raise InputError(f"automorphism field 'half_edge_perm' must be an "
                         f"object, not {type(perm).__name__}")
    if not all(k.removeprefix("-").isdecimal() and is_int(v)
               for k, v in perm.items()):
        raise InputError("automorphism field 'half_edge_perm' must map "
                         "integer keys to integers")
    if "order" in obj and not is_int(obj["order"]):
        raise InputError("automorphism field 'order' must be an integer")
    taut = TilingAutomorphism(tiling, {int(k): v for k, v in perm.items()})
    if "order" in obj and obj["order"] != taut.order:
        raise InvalidAutomorphism(
            f"declared order {obj['order']} but actual order is {taut.order}")
    return taut


def tiling_automorphism_to_json(taut: TilingAutomorphism) -> dict:
    """The file :func:`tiling_automorphism_from_json` reads back."""
    return {"half_edge_perm": {str(h): k for h, k in
                               sorted(taut.half_edge_perm.items())},
            "order": taut.order}


def orbit_choice_to_json(choice: OrbitChoice) -> dict:
    return {
        "generators": list(choice.generators),
        "bases": {str(k): v for k, v in sorted(choice.bases.items(),
                                               key=lambda kv: _idkey(kv[0]))},
        "require_common_source": choice.require_common_source,
    }


_CHOICE_FIELDS = (
    ("generators", "a list of arrow ids", list_of(is_id)),
    ("bases", "an object", lambda b: isinstance(b, dict)),
    ("require_common_source", "a boolean", lambda b: isinstance(b, bool)),
)


def orbit_choice_from_json(quiver: Quiver, obj: dict) -> OrbitChoice:
    """An embedding choice, after a check of the file's shape."""
    check_object(obj, "choice", _CHOICE_FIELDS,
                 optional=("require_common_source",))
    by_str = {str(v): v for v in quiver.vertices}
    for x in (x for pair in obj["bases"].items() for x in pair):
        if str(x) not in by_str:
            raise InputError(f"choice field 'bases' names no vertex: {x!r}")
    bases = {by_str[k]: by_str[str(v)] for k, v in obj["bases"].items()}
    return OrbitChoice(obj["generators"], bases,
                       obj.get("require_common_source", False))
