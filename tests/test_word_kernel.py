"""The table-driven embedding and the one-pass factorization against the slow
route: iso words built by ``SemidirectQuiver.iso_word`` and joined by
``normalize``, with ``iso_word`` itself held to chain letters passed through
``normalize``.  Contexts: the bundled genus-2 example, each admissible choice
of acceptance criterion 05, and order-3 and order-4 cyclic covers of the
bundled torus, whose iso chains are long enough for inverse iso letters to
cancel across seams."""

import itertools
import random
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import default_choice, genus2_quiver
from tessella import equivariant, pathalg
from tessella.datafiles import load_data
from tessella.equivariant import (
    OrbitChoice,
    QuiverAutomorphism,
    build_orbit_quiver,
    factor_word,
    induced_quiver_automorphism,
    tiling_automorphism_from_json,
    transport_potential,
    xi_embed,
)
from tessella.pathalg import Word, normalize
from tessella.surfacemap import dual_quiver, tiling_from_json

ARROW_SWAP = {"a": "j", "b": "i", "c": "h", "d": "g", "e": "f",
              "f": "e", "g": "d", "h": "c", "i": "b", "j": "a"}
TORUS_VOLTAGES = (1, 0, 2)


# -- contexts ------------------------------------------------------------------


def bundled_context():
    tiling = tiling_from_json(load_data("genus2_tiling.json"))
    taut = tiling_automorphism_from_json(
        tiling, load_data("genus2_automorphism.json"))
    quiver, _ = dual_quiver(tiling)
    phi = induced_quiver_automorphism(tiling, taut, quiver)
    return build_orbit_quiver(quiver, phi, OrbitChoice("abcde", {1: 2}))


@lru_cache(maxsize=None)
def admissible_contexts() -> tuple:
    """The four admissible common-source choices of criterion 05."""
    q2 = genus2_quiver()
    phi = QuiverAutomorphism(q2, {1: 2, 2: 1}, dict(ARROW_SWAP))
    orbits = [("a", "j"), ("b", "i"), ("c", "h"), ("d", "g"), ("e", "f")]
    out = []
    for gens in itertools.product(*orbits):
        for base in (1, 2):
            try:
                out.append(build_orbit_quiver(
                    q2, phi, OrbitChoice("".join(gens), {1: base},
                                         require_common_source=True)))
            except ValueError:
                continue
    return tuple(out)


def admissible_context(i: int):
    return admissible_contexts()[i]


def torus_cover_context(n: int, base_vertex_index: int = 0):
    """The n-fold cyclic cover of the bundled torus by the voltage lift
    sigma'(h, i) = (sigma h, i), alpha'(h, i) = (alpha h, i + v(h)), with its
    deck shift as the symmetry; the chain base is the given orbit member."""
    torus = load_data("torus_tiling.json")
    halves = torus["half_edges"]
    alpha, volt = {}, {}
    for (h, k), v in zip(torus["involution"], TORUS_VOLTAGES):
        alpha[h], alpha[k] = k, h
        volt[h], volt[k] = v % n, -v % n

    def lift(h, i):
        return halves.index(h) * n + i % n

    edges = sorted({tuple(sorted((lift(h, i), lift(alpha[h], i + volt[h]))))
                    for h in halves for i in range(n)})
    rotation, coloring = [], {}
    for i in range(n):
        for c, cycle in enumerate(torus["rotation"]):
            coloring[str(len(rotation))] = torus["coloring"][str(c)]
            rotation.append([lift(h, i) for h in cycle])
    tiling = tiling_from_json({
        "half_edges": list(range(len(halves) * n)),
        "involution": [list(e) for e in edges],
        "rotation": rotation, "coloring": coloring})
    taut = tiling_automorphism_from_json(tiling, {
        "half_edge_perm": {str(lift(h, i)): lift(h, i + 1)
                           for h in halves for i in range(n)},
        "order": n})
    quiver, _ = dual_quiver(tiling)
    phi = induced_quiver_automorphism(tiling, taut, quiver)
    (orbit,) = phi.vertex_orbits()
    bases = {orbit[0]: orbit[base_vertex_index]}
    return build_orbit_quiver(quiver, phi, default_choice(quiver, phi, bases))


BUILDERS = {
    "bundled": bundled_context,
    **{f"admissible{i}": partial(admissible_context, i) for i in range(4)},
    **{f"torus{n}_base{b}": partial(torus_cover_context, n, b)
       for n in (3, 4) for b in (0, n - 1)},
}
CONTEXT_NAMES = sorted(BUILDERS)


@lru_cache(maxsize=None)
def context(name):
    return BUILDERS[name]()


# -- the slow route ------------------------------------------------------------


def slow_iso_word(ctx, u, v) -> Word:
    """The chain letters from ``u`` to ``v``, checked and cancelled by
    ``normalize``."""
    (rep, pu), (_, pv) = ctx.chain_pos[u], ctx.chain_pos[v]
    chain = ctx.iso_chain[rep]
    if pu <= pv:
        letters = [(chain[t], 1) for t in range(pv - 1, pu - 1, -1)]
    else:
        letters = [(chain[t], -1) for t in range(pv, pu)]
    return normalize(ctx.quiver, letters, at=u if not letters else None)


def slow_xi_letters(ctx, a) -> tuple:
    gen, _ = ctx.gen_of[a]
    q = ctx.iso_word(ctx.base.source(a), ctx.base.source(gen))
    p = ctx.iso_word(ctx.base.target(gen), ctx.base.target(a))
    return p.letters + ((gen, 1),) + q.letters


def slow_xi(ctx, path: tuple) -> Word:
    return normalize(ctx.quiver,
                     [l for a in path for l in slow_xi_letters(ctx, a)])


def random_walk(quiver, rng, length) -> tuple:
    """A random path of the given length, in written order."""
    arrows = quiver.arrow_ids()
    walk = [rng.choice(arrows)]
    for _ in range(length - 1):
        outs = [a for a in arrows if quiver.source(a) == quiver.target(walk[0])]
        walk.insert(0, rng.choice(outs))
    return tuple(walk)


# -- properties ----------------------------------------------------------------


def test_contexts_cover_the_cases():
    assert len(admissible_contexts()) == 4
    for n in (3, 4):
        ctx = context(f"torus{n}_base0")
        assert ctx.phi.order == n and len(ctx.iso_arrows()) == n - 1


def test_some_cover_seams_cancel():
    """The covers really exercise cancellation: some image is shorter than
    its letters' images laid end to end."""
    ctx = context("torus4_base0")
    rng = random.Random(4)
    shorter = 0
    for _ in range(50):
        path = random_walk(ctx.base, rng, 4)
        joined = sum(len(slow_xi_letters(ctx, a)) for a in path)
        shorter += len(xi_embed(path, ctx).letters) < joined
    assert shorter > 0


@pytest.mark.parametrize("name", ["bundled", "torus4_base3"])
def test_iso_word_matches_the_normalize_route(name):
    ctx = context(name)
    for orbit in ctx.phi.vertex_orbits():
        for u, v in itertools.product(orbit, repeat=2):
            assert ctx.iso_word(u, v) == slow_iso_word(ctx, u, v)


@pytest.mark.parametrize("name", CONTEXT_NAMES)
def test_xi_table_matches_slow_route_on_arrows(name):
    ctx = context(name)
    for a in ctx.base.arrow_ids():
        assert ctx.xi_table.image[a] == normalize(ctx.quiver, slow_xi_letters(ctx, a))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(CONTEXT_NAMES), seed=st.integers(0, 2**32 - 1),
       length=st.integers(1, 10), iso_target=st.integers(0, 3))
def test_fast_paths_match_slow_route(name, seed, length, iso_target):
    ctx = context(name)
    rng = random.Random(seed)
    path = random_walk(ctx.base, rng, length)
    expected = slow_xi(ctx, path)
    assert xi_embed(path, ctx) == expected
    p = ctx.base.word([(a, 1) for a in path])
    assert xi_embed(p, ctx) == expected
    assert factor_word(expected, ctx) == (
        ctx.quiver.word((), at=p.target), p)
    # prefixed by an iso word, the word factors as that iso word times xi(p)
    orbit = ctx.chain_pos[p.target][0]
    members = [v for v, (rep, _) in ctx.chain_pos.items() if rep == orbit]
    u = members[iso_target % len(members)]
    iso = ctx.iso_word(p.target, u)
    prefixed = normalize(ctx.quiver, iso.letters + expected.letters)
    assert factor_word(prefixed, ctx) == (iso, p)


# -- laziness ------------------------------------------------------------------


def test_xi_table_is_built_on_first_use_and_reused():
    ctx = bundled_context()
    assert "xi_table" not in vars(ctx)
    for a in ctx.base.arrow_ids():
        ctx.arrow_degree(a)  # the grading alone
    assert "xi_table" not in vars(ctx)
    xi_embed("ab", ctx)
    table = vars(ctx)["xi_table"]
    xi_embed("fe", ctx)
    factor_word(xi_embed("fe", ctx), ctx)
    assert ctx.xi_table is table


# -- no revalidation -----------------------------------------------------------


def test_transport_on_a_fresh_context_normalizes_nothing(monkeypatch):
    """The embedding's words are normal by construction and ``build`` takes
    them as they are: transport, its table build included, calls no
    ``normalize``."""
    _, W = dual_quiver(tiling_from_json(load_data("genus2_tiling.json")))
    ctx = bundled_context()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return normalize(*args, **kwargs)

    monkeypatch.setattr(pathalg, "normalize", counted)
    monkeypatch.setattr(equivariant, "normalize", counted)
    assert "xi_table" not in vars(ctx)
    result = transport_potential(W, ctx)
    assert calls == []
    assert str(result.potential) == "2crdr - erer - 2ardbrc + abreabre"
    assert result.homogeneous and result.degree == 2
