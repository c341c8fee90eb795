"""Exact symbolic arithmetic in (localized) path algebras.

Conventions, fixed once and used everywhere:

* Paths compose right to left.  A word is written ``b_m ... b_2 b_1`` and
  stored left to right in that written order; the *rightmost* letter acts
  first, so ``source(word) = source(b_1)`` and ``target(word) = target(b_m)``.
  Adjacent letters must satisfy ``source(left) == target(right)``.
* ``multiply(x, y)`` is literal concatenation of written forms: the result of
  ``x * y`` applies ``y`` first.  This is the same order as matrix
  multiplication, which is what makes the matrix-unit homomorphism in
  :mod:`tessella.presentation` a homomorphism.
* A potential is a rational combination of *cyclic* words (exponent-free).
  Cycles enter only through ``Potential.build``, which checks each once and
  keys it by its lexicographically minimal rotation; keys are canonical.
* The cyclic derivative with respect to ``a`` rotates each occurrence of
  ``a`` to the front of its cycle and deletes it, keeping the remaining
  letters in written order.  For a cycle written ``t_0 t_1 ... t_{k-1}`` and
  an occurrence ``t_i == a`` the contribution is the linear word
  ``t_{i+1} ... t_{k-1} t_0 ... t_{i-1}``, a path target(a) -> source(a).
  :func:`derivatives` builds every arrow's derivative in one pass over W
  and is memoized per (quiver, W); every reader of a derivative, from
  :func:`cyclic_derivative` to :func:`ginzburg_dga`, looks it up there.
* Letters are ``(symbol, exp)`` tuples, ``exp`` in ``{+1, -1}``, here and
  in the group words of :mod:`tessella.presentation`.  Both layers share
  one letter kernel that trusts its input: :func:`_cancel`, :func:`_invert`,
  :func:`_rotations`, :func:`_seam` and :func:`_wrap_reduce`.  Letters are
  checked once, where they enter: :func:`normalize` (and ``Quiver.word``)
  checks every adjacency, then cancels, so every :class:`Word` is normal
  (composable, no letter next to its inverse).  :func:`word_product` joins
  normal words, checking only the seams ``left.source == right.target``
  and cancelling only the letters meeting there.
* :class:`Element` (words) and :class:`Potential` (cycles) share one core,
  ``_Combination``, and are built from ``(key, coeff)`` pairs whose repeated
  keys add up, so every sum of many terms is built in one pass.

Coefficients are exact rationals throughout.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .datafiles import (InputError, check_object, is_id, is_int, is_letter,
                        list_of)

Letter = tuple  # (arrow id, exponent in {+1, -1})


class NonComposable(ValueError):
    """Adjacent letters (or factors) do not concatenate."""


class InverseOfNonLocalized(ValueError):
    """Exponent -1 used on an arrow outside the localized set."""


class UnknownArrow(KeyError):
    """Arrow id not present in the quiver."""


class UnknownVertexError(KeyError):
    """Vertex id not present in the quiver."""


class LocalizedQuiverUnsupported(ValueError):
    """Operation defined only on quivers without localized arrows."""


# The counting layer's guard error and field-size test live here, free of
# numpy, so that the CLI can check count options and catch the guard
# without importing :mod:`tessella.repcount`, which re-exports both.


class StateSpaceTooLarge(RuntimeError):
    """An exhaustive walk was requested over more points than the guard allows."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _idkey(x) -> str:
    """Stable sort key for mixed-type ids."""
    return str(x)


class Quiver:
    """Directed multigraph with a set of formally invertible arrows."""

    def __init__(self, vertices: Iterable, arrows: Iterable[tuple],
                 localized: Iterable = ()):
        self.vertices = tuple(vertices)
        self._vset = set(self.vertices)
        self.arrows = tuple((a, s, t) for a, s, t in arrows)
        self.localized = frozenset(localized)
        self._src = {}
        self._tgt = {}
        for a, s, t in self.arrows:
            if a in self._src:
                raise ValueError(f"duplicate arrow id {a!r}")
            if s not in self._vset or t not in self._vset:
                raise ValueError(f"arrow {a!r} references unknown vertex")
            self._src[a] = s
            self._tgt[a] = t
        for a in self.localized:
            if a not in self._src:
                raise UnknownArrow(a)

    def source(self, a):
        try:
            return self._src[a]
        except KeyError:
            raise UnknownArrow(a) from None

    def target(self, a):
        try:
            return self._tgt[a]
        except KeyError:
            raise UnknownArrow(a) from None

    def has_arrow(self, a) -> bool:
        return a in self._src

    def arrow_ids(self) -> list:
        return sorted(self._src, key=_idkey)

    def is_localized(self, a) -> bool:
        return a in self.localized

    def __repr__(self):
        return (f"Quiver({len(self.vertices)} vertices, "
                f"{len(self.arrows)} arrows, "
                f"{len(self.localized)} localized)")

    def __hash__(self):
        return hash((frozenset(self.vertices), frozenset(self.arrows),
                     self.localized))

    def __eq__(self, other):
        return (isinstance(other, Quiver)
                and sorted(self.vertices, key=_idkey) == sorted(other.vertices, key=_idkey)
                and sorted(self.arrows, key=lambda x: _idkey(x[0]))
                == sorted(other.arrows, key=lambda x: _idkey(x[0]))
                and self.localized == other.localized)

    # -- word construction -------------------------------------------------

    def letter_ends(self, letter: Letter) -> tuple:
        """(source, target) of a single signed letter."""
        a, e = letter
        if e == 1:
            return self.source(a), self.target(a)
        if e == -1:
            if a not in self.localized:
                raise InverseOfNonLocalized(a)
            return self.target(a), self.source(a)
        raise ValueError(f"exponent must be +-1, got {e!r}")

    def word(self, letters: Sequence[Letter] = (), at=None) -> "Word":
        """Build and normalize a word; ``at`` fixes the vertex of a constant."""
        return normalize(self, letters, at=at)


class _Forest:
    """Union-find over a quiver's vertices, grown one arrow at a time (with
    path halving): the one spanning-forest helper, used by the tree
    choices of :mod:`tessella.presentation` and the gauge tree of
    :mod:`tessella.repcount`."""

    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        self.parent = {v: v for v in quiver.vertices}

    def find(self, v):
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def join(self, a) -> bool:
        """Adds arrow ``a``; False (and no change) when it closes a cycle."""
        ru = self.find(self.quiver.source(a))
        rv = self.find(self.quiver.target(a))
        if ru == rv:
            return False
        self.parent[ru] = rv
        return True


class Word(namedtuple("Word", "source target letters", defaults=((),))):
    """Normalized composable word with its endpoints.

    ``letters`` is the written (left-to-right) form; the rightmost letter is
    applied first.  Construct through :func:`normalize` / ``Quiver.word``.

    An immutable tuple ``(source, target, letters)``, so it builds at tuple
    speed and ``isinstance(w, tuple)`` holds; but a Word equals only a Word,
    never a plain tuple with the same entries, and Words do not order
    (``<`` raises ``TypeError``).  Its hash is ``hash((source, target,
    letters))``.
    """

    __slots__ = ()

    def __eq__(self, other):
        # False, not NotImplemented: the reflected tuple.__eq__ would say True
        return other.__class__ is Word and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__
    __lt__ = __le__ = __gt__ = __ge__ = None

    def is_constant(self) -> bool:
        return not self.letters

    def sort_key(self):
        return (len(self.letters),
                tuple((_idkey(a), e) for a, e in self.letters),
                _idkey(self.source))

    def __str__(self):
        return render_letters(self.letters, constant_at=self.source)

    def __repr__(self):
        return f"<{self}: {self.source}->{self.target}>"


def render_letters(letters: Sequence[Letter], constant_at=None) -> str:
    if not letters:
        return f"e_{constant_at}" if constant_at is not None else "1"
    plain = all(isinstance(a, str) and len(a) == 1 for a, _ in letters)
    return ("" if plain else ".").join(
        f"{a}^-1" if e == -1 else f"{a}" for a, e in letters)


def normalize(quiver: Quiver, letters: Sequence[Letter] | "Word", at=None) -> Word:
    """Cancellation-free normal form of a composable letter sequence.

    Composability is checked on the raw sequence before cancellation;
    ``x x^-1`` and ``x^-1 x`` pairs are then removed.  Idempotent.
    """
    if isinstance(letters, Word):
        if at is None:
            at = letters.source
        letters = letters.letters
    letters = [(a, int(e)) for a, e in letters]
    if not letters:
        if at is None:
            raise NonComposable("constant word needs a vertex")
        if at not in quiver._vset:
            raise UnknownVertexError(at)
        return Word(at, at, ())
    ends = [quiver.letter_ends(l) for l in letters]
    for i in range(len(letters) - 1):
        # left letter i must start where the right letter i+1 ends
        if ends[i][0] != ends[i + 1][1]:
            raise NonComposable(
                f"{letters[i]!r} after {letters[i + 1]!r}: "
                f"{ends[i][0]!r} != {ends[i + 1][1]!r}")
    return Word(ends[-1][0], ends[0][1], _cancel(letters))


def _cancel(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Free cancellation: drop ``x x^-1`` and ``x^-1 x`` pairs in one stack
    pass, until none remain.  Idempotent; the letters are not checked."""
    stack: list[Letter] = []
    for l in letters:
        if stack and stack[-1][0] == l[0] and stack[-1][1] == -l[1]:
            stack.pop()
        else:
            stack.append(l)
    return tuple(stack)


def _invert(letters: Sequence[Letter]) -> tuple[Letter, ...]:
    """The inverse word: letters reversed, every exponent flipped."""
    return tuple((a, -e) for a, e in reversed(letters))


def _rotations(cycle: tuple) -> list[tuple]:
    """Every rotation of a cyclic word, starting with the word itself."""
    return [cycle[i:] + cycle[:i] for i in range(len(cycle))]


def _seam(left: Sequence[Letter], right: Sequence[Letter]) -> int:
    """How many letters cancel where the normal runs ``left . right`` meet.

    This is the stack walk of :func:`_cancel` restricted to the junction:
    the last ``k`` letters of ``left`` are the inverses of the first ``k``
    of ``right``, read outward.
    """
    k = 0
    for (a, e), (b, f) in zip(right, reversed(left)):
        if a != b or e != -f:
            break
        k += 1
    return k


class _Combination:
    """Finite rational combination of keys, from a mapping or from
    ``(key, coeff)`` pairs; repeated keys add up and zeros are dropped.  Keys
    are taken as given.  A subclass says how a key is ordered (``_order``)
    and printed (``_render``); neither subclass is an instance of the other.
    """

    __slots__ = ("coeffs",)

    def __init__(self, terms: Mapping | Iterable[tuple] | None = None):
        if isinstance(terms, Mapping):
            terms = terms.items()
        clean: dict = {}
        for k, c in terms or ():
            if type(c) is not Fraction:
                c = Fraction(c)
            if k in clean:
                c += clean[k]
                if not c:
                    del clean[k]
                    continue
            if c:
                clean[k] = c
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def _sorted(self) -> list:
        return sorted(self.coeffs, key=self._order)

    def __add__(self, other):
        return type(self)(chain(self.coeffs.items(), other.coeffs.items()))

    def __sub__(self, other):
        return type(self)(chain(self.coeffs.items(),
                                ((k, -c) for k, c in other.coeffs.items())))

    def scale(self, c):
        c = Fraction(c)
        return type(self)((k, v * c) for k, v in self.coeffs.items())

    def __eq__(self, other):
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self):
        parts = []
        for k in self._sorted():
            c = self.coeffs[k]
            mag = "" if abs(c) == 1 else abs(c)
            parts.append(f"{'-' if c < 0 else '+'} {mag}{self._render(k)}")
        if not parts:
            return "0"
        text = " ".join(parts)
        return ("" if text[0] == "+" else "-") + text[2:]

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class Element(_Combination):
    """Finite rational combination of normalized words."""

    __slots__ = ()
    _order = staticmethod(Word.sort_key)
    _render = staticmethod(str)

    @staticmethod
    def from_word(word: Word, coeff=1) -> "Element":
        return Element({word: coeff})

    def words(self) -> list[Word]:
        return self._sorted()


def multiply(quiver: Quiver, x: Element, y: Element) -> Element:
    """Bilinear product; ``y`` acts first. Non-composable pairs contribute 0."""
    return Element((word_product(quiver, wx, wy), cx * cy)
                   for wx, cx in x.coeffs.items()
                   for wy, cy in y.coeffs.items() if wx.source == wy.target)


def word_product(quiver: Quiver, *words: Word) -> Word:
    """Product of normal words (rightmost applied first); raises NonComposable.

    Every seam is checked before any letter is joined, and letters cancel
    only across seams; the result equals ``normalize`` of the concatenated
    letters.
    """
    if not words:
        raise NonComposable("constant word needs a vertex")
    for left, right in zip(words, words[1:]):
        if left.source != right.target:
            raise NonComposable(f"{left!r} after {right!r}")
    letters: list[Letter] = []
    for w in words:
        k = _seam(letters, w.letters)
        del letters[len(letters) - k:]
        letters.extend(w.letters[k:])
    return Word(words[-1].source, words[0].target, tuple(letters))


# -- potentials --------------------------------------------------------------


def _as_letters(cycle: Iterable) -> tuple[Letter, ...]:
    """Coerce a nonempty cycle given as arrow ids and/or (arrow, exp) pairs
    to letters."""
    out = []
    for entry in cycle:
        if isinstance(entry, tuple) and len(entry) == 2 \
                and isinstance(entry[1], int):
            a, e = entry
            if e == 0:
                raise NonComposable("zero exponent in cycle")
            out.append((a, int(e)))
        else:
            out.append((entry, 1))
    if not out:
        raise NonComposable("empty cycle in potential")
    return tuple(out)


def _wrap_reduce(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Cancel inverse pairs across the rotation seam of a cyclic word."""
    while len(letters) >= 2 and letters[0] == (letters[-1][0], -letters[-1][1]):
        letters = letters[1:-1]
    return letters


def _letterkey(letter: Letter):
    return (_idkey(letter[0]), letter[1])


def canonical_rotation(cycle: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Lexicographically minimal rotation of a cyclic letter word (the
    first one, among rotations with equal keys)."""
    keys = [_letterkey(l) for l in cycle]
    i = min(range(len(keys)), default=0, key=lambda i: keys[i:] + keys[:i])
    return cycle[i:] + cycle[:i]


class Potential(_Combination):
    """Rational combination of cyclic words, stored rotation-canonically.

    Cycles are letter tuples ``((arrow, exp), ...)``; inverse letters are
    meaningful only for localized arrows and arise e.g. when a potential is
    pushed through an algebra embedding.  Cycles enter only through
    :meth:`build`; the constructor, ``+``, ``-`` and ``scale`` trust keys
    that are already canonical.
    """

    __slots__ = ()
    _render = staticmethod(render_letters)

    @staticmethod
    def _order(cycle):
        return (len(cycle), tuple(_letterkey(l) for l in cycle))

    @staticmethod
    def build(quiver: Quiver, terms: Iterable[tuple]) -> "Potential":
        """From (coeff, cycle) pairs; a cycle is a normal :class:`Word`, or
        arrow ids and/or (arrow, exp) pairs to normalize.  Each is checked
        closed, cancelled across its seam and rotated once."""
        pairs = []
        for coeff, cyc in terms:
            w = (cyc if isinstance(cyc, Word)
                 else normalize(quiver, _as_letters(cyc)))
            if w.source != w.target:
                raise NonComposable(f"cycle {cyc!r} is not closed")
            letters = _wrap_reduce(w.letters)
            if not letters:
                raise NonComposable(f"cycle {cyc!r} reduces to a constant path")
            pairs.append((canonical_rotation(letters), coeff))
        return Potential(pairs)

    def terms(self) -> list[tuple]:
        """(coeff, letter-tuple cycle) pairs in canonical order."""
        return [(self.coeffs[c], c) for c in self._sorted()]

    def arrows_used(self) -> set:
        return {a for cyc in self.coeffs for a, _ in cyc}


class Derivatives(dict):
    """Arrow -> cyclic derivative, for each arrow that has one.  Reading an
    arrow without one raises its fault; reading an arrow not in the quiver
    raises UnknownArrow.  Tables are shared through the cache: read only."""

    __slots__ = ("_faults",)

    def __init__(self, values: dict, faults: dict):
        super().__init__(values)
        self._faults = faults

    def __missing__(self, a):
        if a in self._faults:
            self._faults[a]()
        raise UnknownArrow(a)


def _derivative_fault(quiver: Quiver, cyc: tuple, a):
    """Raises the fault that differentiating ``cyc`` by ``a`` meets: an
    inverse occurrence, or the closure check from the first ``a`` on."""
    if any(x == a and e != 1 for x, e in cyc):
        raise InverseOfNonLocalized(
            f"cannot differentiate through an inverse occurrence of {a!r}")
    first = cyc.index((a, 1))
    normalize(quiver, cyc[first + 1:] + cyc[:first + 1])
    raise NonComposable(f"cycle {cyc!r} is not closed")


@lru_cache(maxsize=16)
def derivatives(quiver: Quiver, W: Potential) -> Derivatives:
    """The cyclic derivative by every arrow of ``quiver``, from one pass over
    ``W``, memoized per (quiver, W).

    Localized arrows are allowed (the derivative is then taken on the
    un-localized view), but only exponent-1 occurrences are differentiable:
    a cycle containing ``a`` inverted leaves ``a`` without a derivative.
    Each cycle's closure is checked once.  An arrow's fault is the first,
    in the order of W's cycles, among the cycles that hold it.
    """
    pairs: dict = {a: [] for a in quiver.arrow_ids()}
    faults: dict = {}
    for cyc, c in W.coeffs.items():
        held = {x for x, _ in cyc if x in pairs and x not in faults}
        inverted = {x for x, e in cyc if e != 1}
        try:
            w = normalize(quiver, cyc)
            closed = w.source == w.target
        except (ValueError, KeyError):  # replayed per arrow when read
            closed = False
        for x in held:
            if not closed or x in inverted:
                faults[x] = partial(_derivative_fault, quiver, cyc, x)
        for i, (x, _) in enumerate(cyc):
            if x in held and x not in faults:
                pairs[x].append((Word(quiver.target(x), quiver.source(x),
                                      cyc[i + 1:] + cyc[:i]), c))
    return Derivatives({a: Element(p) for a, p in pairs.items()
                        if a not in faults}, faults)


def cyclic_derivative(quiver: Quiver, W: Potential, a) -> Element:
    """The derivative of ``W`` by ``a``: a lookup into :func:`derivatives`."""
    return derivatives(quiver, W)[a]


def jacobi_relations(quiver: Quiver, W: Potential) -> list[Element]:
    """Cyclic derivatives by every non-localized arrow, in canonical order."""
    derivs = derivatives(quiver, W)
    return [derivs[a] for a in quiver.arrow_ids() if not quiver.is_localized(a)]


# -- bounded ideal-membership evidence ---------------------------------------


@dataclass(frozen=True)
class ReduceResult:
    zero: bool
    residual: Element
    rounds: int


def _leading_word(rel: Element) -> Word | None:
    """Longest word of the relation; ties broken lexicographically."""
    if rel.is_zero():
        return None
    return min(rel.coeffs, key=lambda w: (-len(w.letters), w.sort_key()))


def _find_subword(haystack: tuple, needle: tuple) -> int:
    n = len(needle)
    for i in range(len(haystack) - n + 1):
        if haystack[i:i + n] == needle:
            return i
    return -1


def ideal_reduce(quiver: Quiver, x: Element, relations: Sequence[Element],
                 step_bound: int = 50) -> ReduceResult:
    """Directed rewriting toward 0 modulo the two-sided ideal of ``relations``.

    Each relation is oriented leading-word -> remainder (leading = longest
    word, ties lexicographic).  Per round, every word of the current element
    gets its leftmost (then longest, then first-listed) leading-word
    occurrence replaced; rounds repeat up to ``step_bound`` or until the
    element stalls.  Sound, not complete: Unknown is evidence of nothing.
    """
    if step_bound < 0:
        raise ValueError("step_bound must be >= 0")
    oriented = []
    for rel in relations:
        lead = _leading_word(rel)
        if lead is None:
            continue
        c = rel.coeffs[lead]
        oriented.append((lead, Element((w, -k / c) for w, k in rel.coeffs.items()
                                       if w != lead)))

    current = x
    rounds = 0
    while rounds < step_bound and not current.is_zero():
        pairs = []
        changed = False
        for w in current.words():
            c = current.coeffs[w]
            best = None
            for idx, (lead, rem) in enumerate(oriented):
                pos = _find_subword(w.letters, lead.letters)
                if pos < 0:
                    continue
                key = (pos, -len(lead.letters), idx)
                if best is None or key < best[0]:
                    best = (key, pos, lead, rem)
            if best is None:
                pairs.append((w, c))
                continue
            _, pos, lead, rem = best
            changed = True
            # the letters around the occurrence are normal words that end
            # where the leading word does
            prefix = Word(lead.target, w.target, w.letters[:pos])
            suffix = Word(w.source, lead.source,
                          w.letters[pos + len(lead.letters):])
            pairs += ((word_product(quiver, prefix, rw, suffix), c * rc)
                      for rw, rc in rem.coeffs.items())
        current = Element(pairs)
        rounds += 1
        if not changed:
            break
    return ReduceResult(current.is_zero(), current, rounds)


# -- Ginzburg-style differential graded structure ----------------------------


@dataclass
class GinzburgDga:
    """Doubled quiver with vertex loops and the potential differential.

    Degrees: original arrows 0, starred arrows -1, vertex loops -2.  The
    differential raises degree by 1 and is a graded derivation.
    """

    quiver: Quiver            # doubled quiver: arrows + stars + loops
    base: Quiver              # the original quiver
    degree: dict = field(default_factory=dict)
    differential: dict = field(default_factory=dict)  # generator -> Element
    star: dict = field(default_factory=dict)          # arrow -> star id
    loop: dict = field(default_factory=dict)          # vertex -> loop id

    def d_word(self, w: Word) -> Element:
        """Graded Leibniz extension of the generator differential.

        Substitutions multiply through the surrounding factors, so a
        replacement word whose endpoints fail to match the hole contributes 0
        (same composability semantics as :func:`multiply`).
        """
        pairs = []
        sign = 1
        for i, (a, e) in enumerate(w.letters):
            if e != 1:
                raise InverseOfNonLocalized(a)
            da = self.differential[a]
            if not da.is_zero():
                piece = da
                # slices of a normal word are normal
                if i > 0:
                    pre = Word(self.quiver.target(a), w.target, w.letters[:i])
                    piece = multiply(self.quiver, Element.from_word(pre), piece)
                if i + 1 < len(w.letters):
                    post = Word(w.source, self.quiver.source(a),
                                w.letters[i + 1:])
                    piece = multiply(self.quiver, piece, Element.from_word(post))
                pairs += ((pw, sign * pc) for pw, pc in piece.coeffs.items())
            sign *= (-1) ** self.degree[a]
        return Element(pairs)

    def d(self, x: Element) -> Element:
        return Element((dw, c * k) for w, c in x.coeffs.items()
                       for dw, k in self.d_word(w).coeffs.items())


def ginzburg_dga(quiver: Quiver, W: Potential) -> GinzburgDga:
    """The doubled quiver with d(a)=0, d(a*)=dW/da, d(t_i)=e_i sum[a,a*] e_i."""
    if quiver.localized:
        raise LocalizedQuiverUnsupported(sorted(quiver.localized, key=_idkey))
    star = {a: f"{a}*" for a in quiver._src}
    loop = {v: f"t_{v}" for v in quiver.vertices}
    names = (set(map(_idkey, quiver._src)) | set(map(_idkey, star.values()))
             | set(map(_idkey, loop.values())))
    if len(names) != len(quiver._src) * 2 + len(quiver.vertices):
        raise ValueError("arrow ids collide with generated star/loop names")
    arrows = list(quiver.arrows)
    arrows += [(star[a], quiver.target(a), quiver.source(a)) for a, _, _ in quiver.arrows]
    arrows += [(loop[v], v, v) for v in quiver.vertices]
    doubled = Quiver(quiver.vertices, arrows)

    degree = {a: 0 for a in quiver._src}
    degree.update({star[a]: -1 for a in quiver._src})
    degree.update({loop[v]: -2 for v in quiver.vertices})

    diff: dict = {a: Element() for a in quiver._src}
    derivs = derivatives(quiver, W)
    for a in quiver._src:
        diff[star[a]] = derivs[a]
    for v in quiver.vertices:
        pairs = []
        for a in sorted(quiver._src, key=_idkey):
            if quiver.target(a) == v:
                pairs.append((doubled.word([(a, 1), (star[a], 1)]), 1))
            if quiver.source(a) == v:
                pairs.append((doubled.word([(star[a], 1), (a, 1)]), -1))
        diff[loop[v]] = Element(pairs)
    return GinzburgDga(doubled, quiver, degree, diff, star, loop)


def check_d_squared(dga: GinzburgDga) -> tuple[bool, dict]:
    """Verify d(d(g)) = 0 for every generator; witnesses on failure."""
    witnesses = {}
    for g in sorted(dga.differential, key=_idkey):
        dd = dga.d(dga.differential[g])
        if not dd.is_zero():
            witnesses[g] = dd
    return (not witnesses), witnesses


def commutator_sum(quiver: Quiver, W: Potential) -> Element:
    """sum over arrows of (a dW/da - dW/da a); identically 0 for any W."""
    pairs = []
    derivs = derivatives(quiver, W)
    for a in quiver.arrow_ids():
        da = derivs[a]
        aw = Element.from_word(quiver.word([(a, 1)]))
        pairs += multiply(quiver, aw, da).coeffs.items()
        pairs += ((w, -c) for w, c in multiply(quiver, da, aw).coeffs.items())
    return Element(pairs)


# -- compact text forms and JSON -------------------------------------------


def parse_tokens(s: str) -> tuple[Letter, ...]:
    """Whitespace-separated tokens; ``tok^-1`` inverts and ``tok^1`` is
    ``tok``.  ``""`` is empty; an empty name raises ``ValueError``."""
    out = []
    for tok in s.split():
        if tok.endswith("^-1"):
            name, exp = tok[:-3], -1
        else:
            name, exp = tok.removesuffix("^1"), 1
        if not name:
            raise ValueError(f"empty generator name in token {tok!r}")
        out.append((name, exp))
    return tuple(out)


def parse_letters(s: str) -> list[Letter]:
    """'ardbr' -> single-char letters; 'e^-1 c' -> :func:`parse_tokens`."""
    if " " in s:
        return list(parse_tokens(s))
    return [(ch, 1) for ch in s]


def _coeff_to_json(c: Fraction):
    return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def quiver_to_json(quiver: Quiver) -> dict:
    return {
        "vertices": sorted(quiver.vertices, key=_idkey),
        "arrows": [{"id": a, "src": s, "tgt": t,
                    "localized": a in quiver.localized}
                   for a, s, t in sorted(quiver.arrows, key=lambda x: _idkey(x[0]))],
    }


_QPOT_FIELDS = (
    ("vertices", "a list of integers or strings", list_of(is_id)),
    ("arrows", "a list of objects with integer or string 'id', 'src' and "
               "'tgt' and an optional boolean 'localized'", list_of(
        lambda a: isinstance(a, dict)
        and all(is_id(a.get(k)) for k in ("id", "src", "tgt"))
        and isinstance(a.get("localized", False), bool))),
)


def _fraction(c):
    """A term's coefficient: an integer, or a string that parses to a
    fraction with a nonzero denominator; None for anything else."""
    if not (is_int(c) or isinstance(c, str)):
        return None
    try:
        return Fraction(c)
    except (ValueError, ZeroDivisionError):
        return None


def _terms_from_json(items, name: str) -> list:
    """(coeff, letters, at) of each term of an element or a potential, after
    a check of their shape: a list of objects, each with a ``coeff`` (see
    :func:`_fraction`), a ``word`` of [arrow id, exponent] pairs and an
    optional vertex id ``at``.  ``name`` says where the terms were read, for
    the message."""
    if not isinstance(items, list):
        raise InputError(f"{name} must be a list of terms, "
                         f"not {type(items).__name__}")
    terms = []
    for i, term in enumerate(items):
        if not (isinstance(term, dict) and "word" in term and "coeff" in term):
            raise InputError(f"{name} term {i} must be an object with fields "
                             f"'coeff' and 'word'")
        if not list_of(is_letter)(term["word"]):
            raise InputError(f"{name} term {i} field 'word' must be a list "
                             f"of [arrow, exponent] pairs")
        coeff = _fraction(term["coeff"])
        if coeff is None:
            raise InputError(f"{name} term {i} field 'coeff' must be an "
                             f"integer or a fraction string")
        at = term.get("at")
        if not (at is None or is_id(at)):
            raise InputError(f"{name} term {i} field 'at' must be an "
                             f"integer or a string")
        terms.append((coeff, [tuple(x) for x in term["word"]], at))
    return terms


def quiver_from_json(obj: dict) -> Quiver:
    arrows = [(d["id"], d["src"], d["tgt"]) for d in obj["arrows"]]
    localized = [d["id"] for d in obj["arrows"] if d.get("localized")]
    return Quiver(obj["vertices"], arrows, localized)


def potential_to_json(W: Potential) -> list:
    return [{"coeff": _coeff_to_json(c), "word": [[a, e] for a, e in cyc]}
            for c, cyc in W.terms()]


def potential_from_json(quiver: Quiver, items: list) -> Potential:
    terms = _terms_from_json(items, "potential")
    return Potential.build(quiver, [(c, w) for c, w, _ in terms])


def qpot_to_json(quiver: Quiver, W: Potential) -> dict:
    out = quiver_to_json(quiver)
    out["potential"] = potential_to_json(W)
    return out


def qpot_from_json(obj: dict) -> tuple[Quiver, Potential]:
    """A quiver with potential, after a check of the file's shape."""
    check_object(obj, "qpot", _QPOT_FIELDS)
    terms = _terms_from_json(obj.get("potential", []),
                             "qpot field 'potential'")
    q = quiver_from_json(obj)  # after the terms, as a file's faults are read
    return q, Potential.build(q, [(c, w) for c, w, _ in terms])


def element_to_json(x: Element) -> list:
    out = []
    for w in x.words():
        d = {"coeff": _coeff_to_json(x.coeffs[w]),
             "word": [[a, e] for a, e in w.letters]}
        if not w.letters:
            d["at"] = w.source
        out.append(d)
    return out


def element_from_json(quiver: Quiver, items: list,
                      name: str = "element") -> Element:
    """An element, after :func:`_terms_from_json` under the label
    ``name``."""
    return Element((normalize(quiver, w, at=None if w else at), c)
                   for c, w, at in _terms_from_json(items, name))
