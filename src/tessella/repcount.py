"""Finite-field representation counting for quivers with potential.

A point of the representation space over F_q assigns a d x d matrix to every
arrow (invertible for localized arrows); every vertex carries the same
dimension d.  A word acts by the matrix product of its letters in written
order, so the rightmost letter is applied first, matching path composition.

On that space the potential induces the trace function f = Tr W.  This
module tallies exhaustive or sampled counts of it: fibre sizes of f and
critical points (every cyclic derivative vanishing), and at d = 1 the
weighted probe split by whether a chosen algebra element vanishes.

All counts are raw integer point counts over the prime field.  The usual
normalizations (the half power of the ambient dimension, and the order of
the gauge group GL_d per vertex) are reported symbolically alongside the
tallies and never folded into them.

The code sits in three modules, and a count compiles only the route that
:func:`_tallies`, the one function that guards and routes every count and
probe, picks for it:

* this one holds the space (:class:`_RepSpace`: pool sizes, strides and
  the gauge tree, no matrices), the guards, the reports, :func:`_tallies`
  and the monomial route (:func:`_monomial_route`) of an exhaustive d = 1
  count: on the torus of nonzero arrows each word of W (and of omega) is a
  monomial, so the route sums over the image group of that map, stratum by
  stratum, in place of the points, on Python ints.
* :mod:`tessella.sweep` holds the numpy batch sweep of every other count:
  sample mode, d >= 2, and a d = 1 count past the route's budget.  It is
  imported with numpy only then, never for a count that a guard refuses.
  Both routes give the same tallies and raise the same errors.
* :mod:`tessella.matrixrep` holds the per-point oracle of both routes,
  :class:`MatrixRep` with :func:`trace_potential`, :func:`trace_gradient`,
  :func:`crit_check`, :func:`nth_rep` and :func:`iter_reps`, which no count
  calls.  This module serves those names (a module ``__getattr__``), so
  ``from tessella.repcount import crit_check`` works and imports
  :mod:`tessella.matrixrep` on first use.

Exhaustive sweeps count modulo gauge.  The group prod_v GL_d acts on the
space by M_a -> g_t(a) M_a g_s(a)^-1, and these quantities are invariant:

* Tr W, since every term is a closed cycle (inverse letters included);
* the critical locus, since each cyclic derivative transforms equivariantly;
* the probe's weights and its omega strata, when every word of omega is
  closed (the probe runs at d = 1).

:func:`_gauge_tree` picks a spanning forest of localized, non-loop arrows
(the lowest ids first).  Fixing those arrows to the identity leaves a slice
that meets each orbit of the non-root vertices' gauge group exactly once, so
every tally is the slice's tally times |GL_d(F_q)|^|tree|.  The tree is empty
when omega's words fail the condition above.  ``total`` and ``state_space``
in the reports are always those of the full space.  Sample mode, the
monomial route and the per-point oracle keep the full space.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction
from typing import Mapping

from .datafiles import InputError, is_int
from .pathalg import (
    Element,
    InverseOfNonLocalized,
    Potential,
    Quiver,
    _Forest,
    _idkey,
    _is_prime,
    derivatives,
)

_STATE_GUARD = 10 ** 8
# below sweep._DRAW_LIMIT, so that a sample draw reads one 32-bit word a try
_POOL_GUARD = 4 * 10 ** 6
# the work _monomial_route takes on before it leaves an exhaustive d = 1 count
# to the numpy sweep, in image-group elements (4-6 us each in Python): the
# elements of every stratum's group, plus _STRATUM_COST per stratum for its
# columns, group closure and equations (about 39 us)
_MONOMIAL_BUDGET = 1 << 16
_STRATUM_COST = 8


class ShapeMismatch(InputError):
    """Representation data does not fit the quiver/dimension it claims."""


class StateSpaceTooLarge(InputError):
    """An exhaustive walk was requested over more points than the guard allows."""


# -- prime-field scalars ------------------------------------------------------


def _require_prime(q: int) -> None:
    if not isinstance(q, int) or not _is_prime(q):
        raise InputError(f"q must be a prime (entries live in F_q), got {q!r}")


def _require_dimension(d: int) -> None:
    if not is_int(d) or d < 1:  # a bool is not a dimension
        raise InputError(f"dimension must be a positive integer, got {d!r}")


def _coeff_mod(c: Fraction, q: int) -> int:
    """A rational coefficient as an element of F_q (denominator inverted)."""
    if type(c) is not Fraction:
        c = Fraction(c)
    den = c.denominator % q
    if den == 0:
        raise InputError(f"coefficient {c} is not defined in F_{q}")
    return c.numerator * pow(den, -1, q) % q


def gl_order(d: int, q: int) -> int:
    """Order of GL_d(F_q)."""
    return math.prod(q ** d - q ** i for i in range(d))


# -- the representation space -------------------------------------------------


def _size_text(powers: Mapping) -> str:
    """The product of ``base ** exp`` over ``powers``: its digits while it
    fits in int64, and beyond that the powers themselves, such as
    ``3^10000``, since a number past 4300 digits cannot even be printed."""
    n = math.prod(b ** k for b, k in powers.items())
    if n < 1 << 63:
        return str(n)
    return " * ".join(f"{b}^{k}" if k > 1 else str(b)
                      for b, k in sorted(powers.items()) if b > 1 and k)


def _arrow_sizes(quiver: Quiver, d: int, q: int) -> dict:
    """Each arrow's number of d x d matrices over F_q: |GL_d(F_q)| for a
    localized arrow, q^(d^2) for another."""
    free, inv = q ** (d * d), gl_order(d, q)
    return {a: inv if quiver.is_localized(a) else free
            for a in quiver.arrow_ids()}


class _RepSpace:
    """Lexicographic indexing of every representation at fixed (d, q).

    Arrows are ordered by id and the last arrow varies fastest, so index k
    unpacks as mixed-radix digits over the per-arrow pool sizes, at the
    arrows' ``strides``.  Chunked and per-point traversals therefore agree
    on the order.

    Each localized arrow in ``fixed`` (a gauge tree) has the identity as its
    only matrix: ``total`` counts the points of that slice, and each of them
    stands for ``gauge`` points of the ``state_space``.  The sizes come from
    :func:`_arrow_sizes`; no matrix is built here.  The per-point oracle
    reads its matrices from :func:`tessella.matrixrep._pool`, and the numpy
    sweep its letters' from :class:`tessella.sweep._Batches`.
    """

    def __init__(self, quiver: Quiver, d: int, q: int, fixed=()) -> None:
        _require_prime(q)
        _require_dimension(d)
        self.quiver = quiver
        self.d = d
        self.q = q
        self.arrows = quiver.arrow_ids()
        self.fixed = frozenset(fixed)
        if q ** (d * d) > _POOL_GUARD and set(self.arrows) - self.fixed:
            raise StateSpaceTooLarge(
                f"a single arrow already has {_size_text({q: d * d})} "
                f"matrices; the per-arrow pool guard is {_POOL_GUARD}")
        self.sizes = {a: 1 if a in self.fixed else n
                      for a, n in _arrow_sizes(quiver, d, q).items()}
        self.total = math.prod(self.sizes.values())
        self.gauge = gl_order(d, q) ** len(self.fixed)
        self.state_space = self.total * self.gauge
        self.strides, acc = {}, 1
        for a in reversed(self.arrows):
            self.strides[a], acc = acc, acc * self.sizes[a]

    def check_letters(self, letters) -> tuple:
        """The letters, if each arrow has matrices here and only localized
        arrows are inverted; else the first bad letter's error."""
        for a, e in letters:
            if a not in self.sizes:
                raise ShapeMismatch(f"no matrices for arrow {a!r}")
            if e != 1 and not self.quiver.is_localized(a):
                raise InverseOfNonLocalized(a)
        return letters


def _gauge_tree(quiver: Quiver, omega: Element | None = None) -> tuple:
    """The arrows an exhaustive sweep fixes to the identity: the lowest-id
    spanning forest of the localized arrows (a loop never joins it).  Empty
    when ``omega`` is given and a word of it is open, since the probe's
    omega strata are then not gauge invariant."""
    if omega is not None and any(w.source != w.target for w in omega.words()):
        return ()
    forest = _Forest(quiver)
    return tuple(a for a in quiver.arrow_ids()
                 if quiver.is_localized(a) and forest.join(a))


def state_space_size(quiver: Quiver, d: int, q: int) -> int:
    """Number of representations at dimension d over F_q."""
    _require_prime(q)
    _require_dimension(d)
    return math.prod(_arrow_sizes(quiver, d, q).values())


def _check_guard(space: _RepSpace) -> None:
    """Refuse an exhaustive count whose gauge slice exceeds the guard."""
    if space.total > _STATE_GUARD:
        tree = len(space.fixed)
        pools = Counter(space.sizes.values())
        gauge = Counter({gl_order(space.d, space.q): tree})
        raise StateSpaceTooLarge(
            f"{_size_text(pools)} points to sweep (state space "
            f"{_size_text(pools + gauge)} "
            f"modulo a gauge tree of {tree} arrow{'' if tree == 1 else 's'}) "
            f"exceed the exhaustive guard {_STATE_GUARD}")


def _check_int64(d: int, q: int, terms=0, occurrences=0) -> None:
    """Refuse sizes at which a kernel's int64 sums could overflow.

    Batches are reduced mod q lazily: an operand is reduced only when the
    next product, sum or scaling would otherwise reach 2^63
    (:meth:`tessella.sweep._Batches.mul`), and every trace, histogram and zero test reads
    reduced entries.  The worst case is an operation on two reduced
    operands: one d x d product stays below d(q-1)^2, one arrow's gradient
    sum below occurrences(q-1)^2 and the trace sum below terms*d*(q-1)^2."""
    bound = max(d, occurrences, terms * d) * (q - 1) ** 2
    if bound >= 1 << 63:
        raise StateSpaceTooLarge(
            f"int64 sums could reach {bound} (d={d}, q={q}, {terms} terms, "
            f"{occurrences} occurrences of one arrow)")


def _coefficients(W: Potential, d: int, q: int) -> list:
    """(coefficient mod q, cycle) per term of W, behind the int64 guard."""
    terms = [(_coeff_mod(c, q), cyc) for c, cyc in W.terms()]
    uses = Counter(a for _, cyc in terms for a, _ in cyc)
    _check_int64(d, q, len(terms), max(uses.values(), default=0))
    return terms


def _exponents(letters) -> dict:
    """Each arrow's exponent in the monomial a word is at d = 1."""
    exps: dict = {}
    for a, e in letters:
        exps[a] = exps.get(a, 0) + e
    return exps


def _generator(q: int) -> int:
    """The least g whose powers g^e, e in Z/(q-1), run through F_q^*."""
    m, rest, primes, p = q - 1, q - 1, [], 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    primes += [rest] if rest > 1 else []
    return next(g for g in range(1, q)
                if all(pow(g, m // p, q) != 1 for p in primes))


def _span(columns: list, size: int, m: int, room: int) -> list | None:
    """The subgroup of (Z/m)^size that ``columns`` generate, listed, or None
    if it has more than ``room`` elements (found once it outgrows them).
    Each generator g extends the group H by the cosets H + g, H + 2g, ...
    up to the first that is H."""
    group = [(0,) * size]
    seen = set(group)
    for g in columns:
        coset = group
        while len(group) <= room:
            coset = [tuple([(a + b) % m for a, b in zip(h, g)]) for h in coset]
            if coset[0] in seen:
                break
            group += coset
            seen.update(coset)
    return group if len(group) <= room else None


def _monomial_route(space: _RepSpace, terms: list,
                    om_terms: list | None) -> list | None:
    """The tallies of :func:`_tallies` for an exhaustive d = 1 count or,
    with omega's terms ``om_terms``, probe, counted through the monomial
    map without visiting a point.  None when the elements of the image
    groups below, plus ``_STRATUM_COST`` for each stratum, come to more
    than ``_MONOMIAL_BUDGET``.

    At d = 1 a word is a monomial in the arrows' scalars (an inverse letter
    adds -1 to its arrow's exponent).  The space splits into strata by which
    free arrows are zero.  In a stratum a word with a zero letter is 0, and
    the other words y = (x^e_j)_j are a homomorphism of the torus of the K
    nonzero arrows onto a subgroup H of (Z/(q-1))^T, whose fibres all hold
    (q-1)^K / |H| points.  Every verdict is a function of y: Tr W and omega
    sum words; a nonzero arrow a is critical iff x_a dW/da =
    sum_i c_i m_ia y_i vanishes (m_ia the occurrences of a in term i), and
    a zero arrow's derivative sums c_i times term i without a over the
    terms whose one zero letter is a.  So each y of H adds its verdicts
    once, times its fibre.

    A term with two zero letters (count), or a word with one (probe), is
    dead: it is 0, and so is every derivative through it.  A free arrow
    that occurs only in dead words is summed out, a factor q, not split on.
    The route declines at once when the free arrows that must split, each
    with a word that no earlier free arrow can kill, make so many strata
    that their cost alone (at least ``_STRATUM_COST`` + 1 each) passes the
    budget, and otherwise the split stops once its strata alone cost more
    than the budget.

    The gauge tree plays no part: the tallies are those of the full space,
    and no pool of matrices is read."""
    q, m = space.q, space.q - 1
    words = [(c, _exponents(cyc)) for c, cyc in [*terms, *(om_terms or ())]]
    free = [a for a in space.arrows if not space.quiver.is_localized(a)]
    holders = [[i for i, (_, exps) in enumerate(words) if a in exps]
               for a in free]
    dead = 2 if om_terms is None else 1  # zero letters that kill a word
    # a free arrow with a holder that the earlier free arrows can never kill
    # splits every stratum it meets, so there are at least 2^splits strata
    kills, splits = [0] * len(words), 0
    for a, held in zip(free, holders):
        splits += any(kills[i] < dead for i in held)
        for i in held:
            kills[i] += words[i][1][a]
    if (_STRATUM_COST + 1) << splits > _MONOMIAL_BUDGET:
        return None
    strata = []  # (zero arrows, arrows summed out, zero letters per word)

    def split(k: int, zeros: tuple, summed: int, hits: list) -> None:
        if len(strata) * _STRATUM_COST > _MONOMIAL_BUDGET:
            return
        if k == len(free):
            strata.append((zeros, summed, hits))
        elif all(hits[i] >= dead for i in holders[k]):
            split(k + 1, zeros, summed + 1, hits)
        else:
            split(k + 1, zeros, summed, hits)
            hits = hits[:]
            for i in holders[k]:
                hits[i] += words[i][1][free[k]]
            split(k + 1, zeros + (free[k],), summed, hits)

    split(0, (), 0, [0] * len(words))
    room, groups = _MONOMIAL_BUDGET - len(strata) * _STRATUM_COST, []
    for zeros, summed, hits in strata:
        live = [i for i, h in enumerate(hits) if h < dead]
        torus = [a for a in space.arrows if a not in zeros]
        columns = [tuple([words[i][1].get(a, 0) % m for i in live])
                   for a in torus]
        group = _span([g for g in columns if any(g)], len(live), m, room)
        if group is None:
            return None
        room -= len(group)
        groups.append((group, zeros, summed, hits, live, torus))
    g = _generator(q)
    power = {e: pow(g, e, q) for group, *_ in groups for h in group for e in h}
    out = [0] * (q + 1 if om_terms is None else 3)
    for group, zeros, summed, hits, live, torus in groups:
        weight = q ** summed * m ** (len(torus) - summed) // len(group)
        whole = [(j, i) for j, i in enumerate(live) if hits[i] == 0]
        trace = [(words[i][0], j) for j, i in whole if i < len(terms)]
        if om_terms is None:  # x_a dW/da for each torus arrow, then each zero
            eqs = [[(words[i][0] * words[i][1][a] % q, j) for j, i in whole
                    if a in words[i][1]] for a in torus]
            eqs += [[(words[i][0], j) for j, i in enumerate(live)
                     if hits[i] == 1 and a in words[i][1]] for a in zeros]
            eqs = [eq for eq in eqs if any(c for c, _ in eq)]
        else:
            om = [(words[i][0], j) for j, i in whole if i >= len(terms)]
        for h in group:
            y = [power[e] for e in h]
            f = sum([c * y[j] for c, j in trace]) % q
            if om_terms is None:
                out[f] += weight
                if all(sum([c * y[j] for c, j in eq]) % q == 0 for eq in eqs):
                    out[q] += weight
            elif f < 2:
                sign = weight if f == 0 else -weight
                nilpotent = sum([c * y[j] for c, j in om]) % q == 0
                out[0] += sign
                out[1 if nilpotent else 2] += sign
    return out


def _tallies(space: _RepSpace, terms: list, omega: Element | None = None,
             live=frozenset(), draws=None, seed=None) -> list:
    """The tallies of a count (the fibre count of each residue of Tr W, then
    the critical points) or, with ``omega``, of the probe (the weight of the
    whole space, of the omega-nilpotent and of the omega-invertible points),
    over the space or over ``draws`` seeded points.

    The one place that picks how a count runs, and so the order of its
    errors.  An exhaustive count meets :func:`_check_guard` first, whatever
    route would count it.  The probe then reads W's letters, then omega's
    word by word, each word's letters before its coefficient (a count's W
    has passed :func:`derivatives`).  An exhaustive count at d = 1 takes the
    monomial route; what it declines, every sample and every count at
    d >= 2 go to the numpy sweep, imported with numpy only then.  So a
    refused count loads no numpy, and both routes raise the same errors."""
    if draws is None:
        _check_guard(space)
    om_terms = None
    if omega is not None:
        for _, cyc in terms:
            space.check_letters(cyc)
        om_terms = []
        for w in omega.words():
            letters = space.check_letters(w.letters)
            om_terms.append((_coeff_mod(omega.coeffs[w], space.q), letters))
    if draws is None and space.d == 1:
        tally = _monomial_route(space, terms, om_terms)
        if tally is not None:
            return tally
    from .sweep import tallies  # loaded, with numpy, only to sweep

    return tallies(space, terms, om_terms, live, draws, seed)


def _normalization(quiver: Quiver, d: int, q: int) -> dict:
    ambient = len(quiver.arrows) * d * d
    return {"L_exponent": Fraction(-ambient, 2),
            "GL_exponent": -len(quiver.vertices),
            "GL_order": gl_order(d, q)}


# -- count reports ------------------------------------------------------------


class CountReport(namedtuple(
        "CountReport", "q d mode total state_space zeros ones critical "
        "histogram normalization seed", defaults=(None,))):
    """Tallies of the trace function over a representation space.

    ``total`` is the size of the full space in exhaustive mode (which sweeps
    one gauge slice of it) and the number of draws in sample mode;
    ``state_space`` is always the size of the full space.  ``histogram``
    maps every residue of F_q to its fibre count; ``zeros`` and ``ones``
    repeat the 0- and 1-fibre for convenience.  ``critical`` counts the
    points where every partial derivative of Tr W vanishes.
    ``normalization`` carries the symbolic prefactors (L exponent, GL
    exponent and order); they are never folded into the integer counts.

    The three count reports are immutable tuples of their fields, with the
    tuple's ``==``, ``<`` and ``hash``.  The constructor checks the counts;
    ``_make`` and ``_replace`` skip the checks.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if sum(self.histogram.values()) != self.total:
            raise ValueError("histogram does not sum to total")
        if (self.histogram.get(0, 0) != self.zeros
                or self.histogram.get(1, 0) != self.ones):
            raise ValueError("zeros/ones disagree with the histogram")
        if not 0 <= self.critical <= self.total:
            raise ValueError("critical count out of range")
        return self

    def to_json(self) -> dict:
        out = self._asdict()
        out["histogram"] = {str(v): c for v, c in self.histogram.items()}
        out["normalization"] = {**self.normalization, "L_exponent": str(
            self.normalization["L_exponent"])}
        if self.seed is None:
            del out["seed"]
        return out


def enumerate_reps(quiver: Quiver, W: Potential, d: int, q: int,
                   mode: str = "exhaustive", sample_size: int | None = None,
                   seed: int | None = None) -> CountReport:
    """Count trace-function fibres and critical points over F_q.

    Exhaustive mode counts the whole space by sweeping its gauge slice
    (guarded at 10^8 swept points); sample mode draws ``sample_size``
    uniform points of the full space with the given seed and is
    deterministic for a fixed seed.
    """
    missing = W.arrows_used() - set(quiver.arrow_ids())
    if missing:
        raise ShapeMismatch(
            f"potential uses arrows not in the quiver: "
            f"{sorted(missing, key=_idkey)}")
    space = _RepSpace(quiver, d, q, _gauge_tree(quiver)
                      if mode == "exhaustive" else ())
    terms = _coefficients(W, d, q)
    derivs = derivatives(quiver, W)
    # the arrows whose derivative is not 0 over F_q; reading derivs[a], in
    # id order, refuses inverse occurrences of a
    live = frozenset(a for a in quiver.arrow_ids() if any(
        _coeff_mod(c, q) for c in derivs[a].coeffs.values()))
    if mode == "sample":
        if not is_int(sample_size) or sample_size < 1:
            raise InputError("sample mode needs an integer sample_size >= 1")
        if not is_int(seed):
            raise InputError("sample mode needs an explicit integer seed")
    elif mode == "exhaustive":
        sample_size = seed = None
    else:
        raise InputError(f"unknown mode {mode!r}")
    tally = _tallies(space, terms, None, live, sample_size, seed)
    histogram = {v: int(tally[v]) for v in range(q)}
    return CountReport(
        q=q, d=d, mode=mode, total=sample_size or space.state_space,
        state_space=space.state_space, zeros=histogram[0], ones=histogram[1],
        critical=int(tally[q]), histogram=histogram,
        normalization=_normalization(quiver, d, q), seed=seed)


# -- the degree-one probe -----------------------------------------------------


class ProbeReport(namedtuple(
        "ProbeReport", "q weight_total weight_nilpotent weight_invertible "
        "nilpotent_times_q nilpotent_times_qminus1 total_matches "
        "invertible_matches")):
    """Both sides of the degree-one coefficient comparison at d = 1.

    The weight of a point set is |f^{-1}(0)| - |f^{-1}(1)| inside it.  The
    report records the weighted counts of the whole space and of the
    nilpotent/invertible strata, the scaled nilpotent weights the two
    identities predict for them, and whether the numbers match.  Whether
    this point-count weight is the right specialization is a modeling
    heuristic; the probe reports and never asserts.  A tuple of its fields,
    as :class:`CountReport` is.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.weight_total != self.weight_nilpotent + self.weight_invertible:
            raise ValueError("weights do not partition at d = 1")
        return self

    def to_json(self) -> dict:
        return {**self._asdict(),
                "note": "point-count weights are a heuristic specialization"}


def conjecture_probe_d1(quiver: Quiver, W: Potential, omega: Element,
                        q: int) -> ProbeReport:
    """Compare weighted d = 1 counts against the q-scaled nilpotent stratum.

    Weighted count = |f^{-1}(0)| - |f^{-1}(1)|.  The whole space is compared
    with q times the omega-nilpotent stratum, and the omega-invertible
    stratum with (q - 1) times it.  Requires an odd prime: in characteristic
    2 the even coefficients of the potential collapse and the probe reads 0.
    """
    if q == 2:
        raise InputError("the degree-one probe needs an odd prime q; "
                         "characteristic 2 collapses the even coefficients")
    space = _RepSpace(quiver, 1, q, _gauge_tree(quiver, omega))
    terms = _coefficients(W, 1, q)
    _check_int64(1, q, len(omega.coeffs))  # omega's trace sum, as W's
    w_total, w_nilp, w_inv = map(int, _tallies(space, terms, omega))
    return ProbeReport(
        q=q, weight_total=w_total, weight_nilpotent=w_nilp,
        weight_invertible=w_inv, nilpotent_times_q=q * w_nilp,
        nilpotent_times_qminus1=(q - 1) * w_nilp,
        total_matches=(w_total == q * w_nilp),
        invertible_matches=(w_inv == (q - 1) * w_nilp))


# -- the per-point oracle, served from tessella.matrixrep ---------------------

_ORACLE = frozenset({"MatrixRep", "crit_check", "iter_reps", "nth_rep",
                     "trace_gradient", "trace_potential"})


def __getattr__(name: str):
    """The per-point oracle's public names (PEP 562): the first read of one
    imports :mod:`tessella.matrixrep`, which no count imports, and binds the
    name here, so that later reads cost a plain attribute lookup."""
    if name in _ORACLE:
        from . import matrixrep

        value = globals()[name] = getattr(matrixrep, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
