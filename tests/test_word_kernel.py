"""The table-driven embedding and the one-pass factorization against two
slow routes: iso words built by ``SemidirectQuiver.iso_word`` and joined by
``normalize``, with ``iso_word`` itself held to chain letters passed through
``normalize``; and the seam-walking ``xi_embed`` / ``factor_word`` the
closed form replaced, kept here as reference copies, on valid words and on
mutated ones; and the closed-form ``factor_word`` that the one-hop walk
replaced, which must agree with it exactly, value or exception.  Contexts:
the bundled genus-2 example, each admissible choice of acceptance criterion
05, and order-3 and order-4 cyclic covers of the bundled torus, whose iso
chains are long enough for inverse iso letters to cancel across seams."""

import dataclasses
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
    MalformedWord,
    OrbitChoice,
    QuiverAutomorphism,
    build_orbit_quiver,
    factor_word,
    induced_quiver_automorphism,
    tiling_automorphism_from_json,
    transport_potential,
    xi_embed,
)
from tessella.pathalg import (
    NonComposable,
    UnknownArrow,
    UnknownVertexError,
    Word,
    _invert,
    _seam,
    normalize,
    word_product,
)
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


# -- the seam-walking route the closed form replaced ---------------------------


@lru_cache(maxsize=None)
def reference_table(name) -> tuple:
    """(image, member, unwind) as the seam walk tabled them: xi(a) joined by
    ``word_product``, and p_a^-1 for each base arrow ``a``."""
    ctx = context(name)
    image, member, unwind = {}, {}, {}
    for a, (gen, _) in ctx.gen_of.items():
        q = ctx.iso_word(ctx.base.source(a), ctx.base.source(gen))
        p = ctx.iso_word(ctx.base.target(gen), ctx.base.target(a))
        g = Word(q.target, p.source, ((gen, 1),))
        image[a] = word_product(ctx.quiver, p, g, q)
        unwind[a] = _invert(p.letters)
    for g in ctx.choice.generators:
        for j in range(ctx.phi.order):
            b = ctx.phi.apply_arrow(g, j)
            member.setdefault((g, ctx.base.source(b)), b)
    return image, member, unwind


def reference_xi_embed(p, name) -> Word:
    if isinstance(p, Word):
        letters = p.letters
        if not letters:
            return p
    else:
        letters = tuple((a, 1) for a in p)
        if not letters:
            raise NonComposable("an empty path needs a Word carrying its vertex")
    image = reference_table(name)[0]
    for a, e in letters:
        if e != 1:
            raise NonComposable(f"paths are inverse-free, got {a!r}^{e}")
        if a not in image:
            raise UnknownArrow(a)
    return word_product(context(name).quiver, *(image[a] for a, _ in letters))


def reference_factor_word(w: Word, name) -> tuple:
    ctx = context(name)
    image, member, unwinds = reference_table(name)
    iso = ctx.quiver.localized
    stack = list(w.letters)
    p_letters: list = []
    v0 = w.source
    while True:
        gen_idx = len(stack) - 1
        while gen_idx >= 0 and stack[gen_idx][0] in iso:
            gen_idx -= 1
        if gen_idx < 0:
            break
        g, e = stack[gen_idx]
        if e != 1 or g not in ctx.choice.generators:
            raise MalformedWord(f"letter {g!r}^{e} is not a generating arrow")
        b = member.get((g, v0))
        if b is None:
            if v0 not in ctx.chain_pos or \
                    ctx.chain_pos[v0][0] != ctx.chain_pos[ctx.quiver.source(g)][0]:
                raise MalformedWord(
                    f"word source {v0!r} is not in the source orbit of {g!r}")
            raise MalformedWord(f"no orbit member of {g!r} has source {v0!r}")
        tail = tuple(stack[gen_idx + 1:])
        if tail and image[b].letters[-len(tail):] != tail:
            raise MalformedWord(
                f"the iso tail {tail!r} does not match the embedding of {b!r}")
        del stack[gen_idx:]
        unwind = unwinds[b]
        if unwind:
            k = _seam(stack, unwind)
            del stack[len(stack) - k:]
            stack.extend(unwind[k:])
        p_letters.append((b, 1))
        v0 = ctx.base.target(b)
    if not p_letters:
        return w, Word(w.source, w.source, ())
    p_letters.reverse()
    return Word(v0, w.target, tuple(stack)), Word(w.source, v0, tuple(p_letters))


# -- the closed-form walk the one-hop walk replaced ----------------------------


def reference_closed_form_factor_word(w: Word, name) -> tuple:
    """``factor_word`` before each generator took one hop: a scan of the
    generators, a member lookup (here the seam walk's ``member``, which
    holds the arrow alone) and a target lookup per generator."""
    ctx = context(name)
    table, iso = ctx.xi_table, ctx.quiver.localized
    member = reference_table(name)[1]
    letters, p_letters = w.letters, []
    v0, end, prev, misfit = w.source, len(letters), None, None
    for i in [i for i, (a, _) in enumerate(letters) if a not in iso][::-1]:
        g, e = letters[i]
        if e != 1 or g not in ctx.choice.generators:
            raise MalformedWord(f"letter {g!r}^{e} is not a generating arrow")
        b = member.get((g, v0))
        if b is None:  # a member exists only for sources in g's source orbit
            if v0 not in ctx.chain_pos or \
                    ctx.chain_pos[v0][0] != ctx.chain_pos[ctx.quiver.source(g)][0]:
                raise MalformedWord(
                    f"word source {v0!r} is not in the source orbit of {g!r}")
            raise MalformedWord(f"no orbit member of {g!r} has source {v0!r}")
        run = letters[i + 1:end]
        piece = table.tail[b] if prev is None else table.join[b, prev]
        if run != piece:  # b's iso tail: the run times p_prev^-1
            unwind = () if prev is None else _invert(table.head[prev][:-1])
            k = _seam(run, unwind)
            tail = run[:len(run) - k] + unwind[k:]
            if tail and table.image[b].letters[-len(tail):] != tail:
                raise MalformedWord(
                    f"the iso tail {tail!r} does not match the embedding of {b!r}")
            misfit = misfit or f"the iso run {run!r} right of {g!r} is not {piece!r}"
        p_letters.append((b, 1))
        prev, end, v0 = b, i, ctx.base.target(b)
    u = ctx.quiver.target(letters[end][0]) if p_letters else w.source
    piece = table.iso.get((u, w.target))
    if piece is None or letters[:end] != piece.letters:
        misfit = misfit or (f"the iso run {letters[:end]!r} does not join "
                            f"{u!r} to {w.target!r}")
    if misfit:
        raise MalformedWord(misfit)
    return table.iso[v0, w.target], Word(w.source, v0, tuple(reversed(p_letters)))


def outcome(f, *args):
    """A call's value, or the type and message of what it raised."""
    try:
        return "value", f(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return "raised", type(exc), str(exc)


def prefixed_image(ctx, path, iso_target) -> tuple:
    """xi(path) with an iso word in front, and that iso word: the target
    moves to another member of its vertex orbit."""
    w = xi_embed(path, ctx)
    orbit = ctx.chain_pos[w.target][0]
    members = [v for v, (rep, _) in ctx.chain_pos.items() if rep == orbit]
    iso = ctx.iso_word(w.target, members[iso_target % len(members)])
    return normalize(ctx.quiver, iso.letters + w.letters), iso


def mutate(ctx, w: Word, rng) -> Word:
    """One fault: a flipped exponent, an iso letter dropped or inserted
    where an iso run meets a generator or an end of the word, an unknown
    arrow, or a source outside every generator's source orbit."""
    letters = list(w.letters)
    iso = ctx.quiver.localized
    seams = [i for i in range(len(letters) + 1)
             if i in (0, len(letters))
             or (letters[i - 1][0] in iso) != (letters[i][0] in iso)]
    kind = rng.choice(["flip", "drop", "insert", "unknown", "source"])
    if kind == "flip" and letters:
        i = rng.randrange(len(letters))
        letters[i] = (letters[i][0], -letters[i][1])
    elif kind == "drop":
        spots = [j for i in seams for j in (i - 1, i)
                 if 0 <= j < len(letters) and letters[j][0] in iso]
        if spots:
            del letters[rng.choice(spots)]
    elif kind == "insert":
        r = rng.choice(sorted(iso))
        letters.insert(rng.choice(seams), (r, rng.choice((1, -1))))
    elif kind == "unknown":
        letters.insert(rng.randrange(len(letters) + 1), ("zz", 1))
    else:
        return Word("nowhere", w.target, tuple(letters))
    return Word(w.source, w.target, tuple(letters))


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


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(CONTEXT_NAMES), seed=st.integers(0, 2**32 - 1),
       length=st.integers(1, 10), iso_target=st.integers(0, 3))
def test_closed_form_matches_the_seam_walk(name, seed, length, iso_target):
    ctx = context(name)
    path = random_walk(ctx.base, random.Random(seed), length)
    p = ctx.base.word([(a, 1) for a in path])
    for given_path in (path, p):
        assert xi_embed(given_path, ctx) == reference_xi_embed(given_path, name)
    w = xi_embed(path, ctx)
    prefixed, _ = prefixed_image(ctx, path, iso_target)
    for word in (w, prefixed):
        assert factor_word(word, ctx) == reference_factor_word(word, name)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(CONTEXT_NAMES), seed=st.integers(0, 2**32 - 1),
       length=st.integers(1, 6), iso_target=st.integers(0, 3),
       faults=st.integers(1, 2))
def test_mutated_words_fail_as_the_seam_walk_does(name, seed, length,
                                                  iso_target, faults):
    """A mutated word raises what the seam walk raised, type and message.
    Where the seam walk returned a value, the closed form either returns the
    same value or raises ``MalformedWord``: the seam walk accepted an iso
    run shorter than its piece and never checked the run left of the last
    generator, nor an iso-only word."""
    ctx = context(name)
    rng = random.Random(seed)
    w, _ = prefixed_image(ctx, random_walk(ctx.base, rng, length), iso_target)
    for _ in range(faults):
        w = mutate(ctx, w, rng)
    want, got = (outcome(reference_factor_word, w, name),
                 outcome(factor_word, w, ctx))
    if want[0] == "raised" or got[0] == "value":
        assert got == want, w
    else:
        assert got[1] is MalformedWord, w


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(CONTEXT_NAMES), seed=st.integers(0, 2**32 - 1),
       length=st.integers(1, 8), iso_target=st.integers(0, 3),
       faults=st.integers(0, 2))
def test_one_hop_walk_matches_the_closed_form_walk(name, seed, length,
                                                   iso_target, faults):
    """On valid, iso-prefixed and mutated words alike, ``factor_word``
    returns the closed-form walk's value or raises its exception, type and
    message."""
    ctx = context(name)
    rng = random.Random(seed)
    path = random_walk(ctx.base, rng, length)
    prefixed, _ = prefixed_image(ctx, path, iso_target)
    words = [xi_embed(path, ctx), prefixed]
    for _ in range(faults):
        words.append(mutate(ctx, words[-1], rng))
    for w in words:
        assert outcome(factor_word, w, ctx) == \
            outcome(reference_closed_form_factor_word, w, name), w


@pytest.mark.parametrize("name", ["admissible0", "torus4_base0"])
def test_one_hop_walk_meets_two_faults_as_the_closed_form_walk_did(name):
    """Every word made from an image by dropping two letters, or by
    inserting two iso letters anywhere: where two runs are off their
    pieces, both walks name the same one."""
    ctx = context(name)
    signed = [(r, e) for r in sorted(ctx.quiver.localized) for e in (1, -1)]
    rng = random.Random(5)
    for _ in range(4):
        image = xi_embed(random_walk(ctx.base, rng, 3), ctx)
        letters, bent = image.letters, []
        for i, j in itertools.combinations(range(len(letters)), 2):
            bent.append(letters[:i] + letters[i + 1:j] + letters[j + 1:])
        for i, j in itertools.combinations_with_replacement(
                range(len(letters) + 1), 2):
            bent += [letters[:i] + (x,) + letters[i:j] + (y,) + letters[j:]
                     for x, y in itertools.product(signed, repeat=2)]
        for w in (Word(image.source, image.target, b) for b in bent):
            assert outcome(factor_word, w, ctx) == \
                outcome(reference_closed_form_factor_word, w, name), w


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(CONTEXT_NAMES), seed=st.integers(0, 2**32 - 1),
       length=st.integers(1, 6))
def test_mutated_paths_fail_as_the_seam_walk_does(name, seed, length):
    """Inverse, unknown and non-composable letters raise what the seam walk
    raised, type and message."""
    ctx = context(name)
    rng = random.Random(seed)
    letters = [(a, 1) for a in random_walk(ctx.base, rng, length)]
    i = rng.randrange(len(letters))
    kind = rng.choice(["flip", "unknown", "drop", "swap"])
    if kind == "flip":
        letters[i] = (letters[i][0], -1)
    elif kind == "unknown":
        letters[i] = ("zz", 1)
    elif kind == "drop" and len(letters) > 2:
        del letters[1]
    else:
        letters.reverse()
    p = Word(0, 0, tuple(letters))  # the embedding reads only the letters
    assert outcome(xi_embed, p, ctx) == outcome(reference_xi_embed, p, name)
    if all(e == 1 for _, e in letters):
        arrows = [a for a, _ in letters]
        assert outcome(xi_embed, arrows, ctx) == \
            outcome(reference_xi_embed, arrows, name)


def test_words_the_seam_walk_accepted_are_refused():
    """Three kinds of malformed word the seam walk split into garbage: an
    iso-only word that is not the iso word between its ends, a run left of
    the last generator that is not the seam of q with p_b, and a run
    shorter than its piece.  Each now raises ``MalformedWord`` naming the
    run."""
    ctx = context("torus4_base0")
    r0, r1, r2 = ctx.iso_chain[ctx.phi.vertex_orbits()[0][0]]
    u, v = ctx.quiver.source(r0), ctx.quiver.target(r1)
    bad_iso = Word(u, v, ((r1, 1),))
    assert reference_factor_word(bad_iso, "torus4_base0")[0] == bad_iso
    with pytest.raises(MalformedWord, match="iso run"):
        factor_word(bad_iso, ctx)
    w = xi_embed(random_walk(ctx.base, random.Random(2), 3), ctx)
    for extra in ((r0, 1), (r2, -1)):
        bent = Word(w.source, w.target, (extra,) + w.letters)
        assert outcome(reference_factor_word, bent, "torus4_base0")[0] == "value"
        with pytest.raises(MalformedWord, match="iso run"):
            factor_word(bent, ctx)
    rng, short = random.Random(3), 0
    for _ in range(40):
        w = xi_embed(random_walk(ctx.base, rng, 3), ctx)
        for i in range(len(w.letters) - 1):
            if w.letters[i][0] in ctx.iso_arrows() \
                    or w.letters[i + 1][0] not in ctx.iso_arrows():
                continue  # drop the first letter right of a generator
            cut = Word(w.source, w.target, w.letters[:i + 1] + w.letters[i + 2:])
            if outcome(reference_factor_word, cut, "torus4_base0")[0] == "value":
                short += 1
                with pytest.raises(MalformedWord, match="iso run"):
                    factor_word(cut, ctx)
    assert short


# -- the table -----------------------------------------------------------------


@pytest.mark.parametrize("name", CONTEXT_NAMES)
def test_table_pieces_are_the_seams(name):
    """``head`` and ``tail`` split each image around its generator, every
    ``join`` entry is q_a . p_b in normal form, keyed by exactly the
    composable pairs, and ``step`` follows each seam with b's generator."""
    ctx = context(name)
    base, table = ctx.base, ctx.xi_table
    arrows = base.arrow_ids()
    for a in arrows:
        gen, _ = ctx.gen_of[a]
        assert table.head[a][-1] == (gen, 1)
        assert table.tail[a] == slow_iso_word(
            ctx, base.source(a), base.source(gen)).letters
        assert table.head[a] + table.tail[a] == table.image[a].letters
    assert set(table.join) == set(table.step) == {
        (a, b) for a in arrows for b in arrows
        if base.source(a) == base.target(b)}
    for (a, b), seam in table.join.items():
        gen_a, gen_b = ctx.gen_of[a][0], ctx.gen_of[b][0]
        q_a = slow_iso_word(ctx, base.source(a), base.source(gen_a))
        p_b = slow_iso_word(ctx, base.target(gen_b), base.target(b))
        assert seam == normalize(ctx.quiver, q_a.letters + p_b.letters,
                                 at=p_b.source).letters
        assert table.step[a, b] == seam + ((gen_b, 1),)
    for (u, v), word in table.iso.items():
        assert word == slow_iso_word(ctx, u, v)


def test_the_kernel_joins_no_seams(monkeypatch):
    """On valid input, ``xi_embed`` and ``factor_word`` lay tabled pieces
    end to end: no ``word_product`` and no ``_seam`` call, once the table is
    built."""
    calls = []

    def counting(f):
        def counted(*args, **kwargs):
            calls.append(f.__name__)
            return f(*args, **kwargs)
        return counted

    rng = random.Random(7)
    for name in CONTEXT_NAMES:
        ctx = context(name)
        ctx.xi_table  # built before anything is counted
        for module in (pathalg, equivariant):
            for f in (word_product, _seam):
                if hasattr(module, f.__name__):
                    monkeypatch.setattr(module, f.__name__, counting(f))
        for length in range(1, 8):
            path = random_walk(ctx.base, rng, length)
            for w in (xi_embed(path, ctx), prefixed_image(ctx, path, length)[0]):
                factor_word(w, ctx)
        monkeypatch.undo()
    assert calls == []


def test_unknown_vertices_are_refused():
    ctx = bundled_context()
    with pytest.raises(UnknownVertexError):
        ctx.iso_word(9, 1)
    with pytest.raises(UnknownVertexError):
        ctx.iso_word(1, 9)
    with pytest.raises(KeyError):  # still a KeyError for old callers
        ctx.iso_word(9, 1)
    assert reference_xi_embed(Word(9, 9, ()), "bundled") == Word(9, 9, ())
    with pytest.raises(UnknownVertexError):
        xi_embed(Word(9, 9, ()), ctx)
    assert xi_embed(Word(2, 2, ()), ctx) == Word(2, 2, ())


# -- laziness ------------------------------------------------------------------


def test_xi_table_is_built_on_first_use_and_reused():
    ctx = bundled_context()
    assert "xi_table" not in vars(ctx)
    for a in ctx.base.arrow_ids():
        ctx.arrow_degree(a)  # the grading alone
    assert "xi_table" not in vars(ctx)
    xi_embed("ab", ctx)
    table = vars(ctx)["xi_table"]
    names = [f.name for f in dataclasses.fields(table)]
    assert names == ["image", "member", "head", "tail", "join", "iso", "step"]
    before = {n: dict(getattr(table, n)) for n in names}
    xi_embed("fe", ctx)
    factor_word(xi_embed("fe", ctx), ctx)
    assert ctx.xi_table is table
    assert {n: getattr(table, n) for n in names} == before and all(before.values())


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
