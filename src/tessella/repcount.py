"""Finite-field representation counting for quivers with potential.

A point of the representation space over F_q assigns a d x d matrix to every
arrow (invertible for localized arrows); every vertex carries the same
dimension d.  A word acts by the matrix product of its letters in written
order, so the rightmost letter is applied first, matching path composition.

On that space the potential induces the trace function f = Tr W.  This
module evaluates f, checks the critical-point equations (every cyclic
derivative vanishing, cross-validated against the entrywise gradient of the
trace polynomial), and tallies exhaustive or sampled counts: fibre sizes of
f and critical points, and at d = 1 the weighted probe split by whether a
chosen algebra element vanishes.

All counts are raw integer point counts over the prime field.  The usual
normalizations (the half power of the ambient dimension, and the order of
the gauge group GL_d per vertex) are reported symbolically alongside the
tallies and never folded into them.

A batch count takes one of two routes.  :func:`enumerate_reps` and
:func:`conjecture_probe_d1` send an exhaustive count at d = 1 through the
monomial map (:func:`_monomial_route`): on the torus of nonzero arrows each
word of W (and of omega) is a monomial, so the route sums over the image
group of that map, stratum by stratum, in place of the points, on Python
ints and without numpy.  When those groups' elements, plus
``_STRATUM_COST`` for each stratum, come to more than ``_MONOMIAL_BUDGET``,
and for every other count (sample mode and d >= 2), the numpy sweep below
runs, which imports numpy when it starts; both routes give the same tallies
and raise the same errors.  Only the numpy sweep reads an arrow's pool of
matrices, as d^2 numpy entry arrays built the first time it is read: the
route and the guards need only the pool sizes.

The numpy sweep runs over blocks of ``_CHUNK`` points: ranges of the
lexicographic order (arrows by id, last arrow fastest) or seeded draws, one
block after another on the calling thread.  A kernel sees at most ``_SLICE``
points at a time, which bounds its working set, and returns exact integer
tallies that merge by addition, so outputs do not depend on block size or
slice size.  A batch of n matrices is entry-major: d^2 int64 arrays of
length n, one per entry in row-major order, so a product is the explicit
sum of entry products and d = 1 is the case of one entry.  The count kernel
differentiates only the live arrows, those whose cyclic derivative has a
coefficient that is nonzero mod q (any other derivative is 0 at every
point).  It reads each term of W once per slice: through shared suffix and
prefix products, which give its trace and the cyclic derivative at each
occurrence of a live arrow, or, for a term with no live arrow, through its
product alone.  Batches carry an upper bound on their int64 entries (q - 1
for a letter, d b_1 b_2 for a product, the sum for a sum, c b for a
coefficient c < q) and are reduced mod q only when the next operation's
bound would reach 2^63; every trace, histogram and zero test is taken mod
q.  The per-point :class:`MatrixRep` route (:func:`trace_potential`,
:func:`crit_check`) is the oracle of both sweeps, and neither sweep calls
it.  Its two halves share no product: :func:`crit_check` evaluates the
derivative table of :func:`tessella.pathalg.derivatives` (built once per
quiver and potential) at the point, and :func:`trace_gradient` recomputes
the same partials from W through shared prefix and suffix products of each
term.  Each half adds c times the last product of every word or occurrence
into a flat integer accumulator per arrow and reduces it mod q once per sum;
nothing computed at a point outlives the call.

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
monomial route, :func:`iter_reps`, :func:`nth_rep` and the :class:`MatrixRep`
oracle keep the full space.
"""

from __future__ import annotations

import math
import random
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, product as _iproduct
from operator import add, mul
from typing import Iterator, Mapping

from .datafiles import is_int
from .pathalg import (
    Element,
    InverseOfNonLocalized,
    Potential,
    Quiver,
    StateSpaceTooLarge,  # defined in pathalg, which imports no numpy
    Word,
    _Forest,
    _idkey,
    _is_prime,
    derivatives,
)

_CHUNK = 1 << 16  # points per block: the unit of index decoding and of draws
_SLICE = 1 << 12  # points per kernel call: bounds the prefix/suffix arrays
_STATE_GUARD = 10 ** 8
_POOL_GUARD = 4 * 10 ** 6
# a sample draw reads one 32-bit Mersenne Twister word per try (_Draws), which
# is exact only for pools below 2^32; _POOL_GUARD keeps every pool under it
_DRAW_LIMIT = 1 << 32
_INT64 = 1 << 63  # a batch's bound stays below this (see _RepSpace.mul)
# the work _monomial_route takes on before it leaves an exhaustive d = 1 count
# to the numpy sweep, in image-group elements (4-6 us each in Python): the
# elements of every stratum's group, plus _STRATUM_COST per stratum for its
# columns, group closure and equations (about 39 us)
_MONOMIAL_BUDGET = 1 << 16
_STRATUM_COST = 8

np = None  # numpy, bound by _numpy() when a batch sweep starts


def _numpy() -> None:
    """Import numpy as this module's ``np``.  Only the batch sweep
    (:func:`_sweep`, and :class:`_Draws` within it) reads ``np``, so a
    process whose counts all take :func:`_monomial_route` never loads
    numpy."""
    global np
    import numpy as np


def _mod(values: np.ndarray, m: int) -> np.ndarray:
    """A non-negative int64 array mod m, as values - (values // m) m: numpy
    divides an array by a scalar several times faster than it takes a
    remainder."""
    out = values // m
    out *= -m
    out += values
    return out


class ShapeMismatch(ValueError):
    """Representation data does not fit the quiver/dimension it claims."""


# -- prime-field scalars ------------------------------------------------------


def _require_prime(q: int) -> None:
    if not isinstance(q, int) or not _is_prime(q):
        raise ValueError(f"q must be a prime (entries live in F_q), got {q!r}")


def _require_dimension(d: int) -> None:
    if not is_int(d) or d < 1:  # a bool is not a dimension
        raise ValueError(f"dimension must be a positive integer, got {d!r}")


def _coeff_mod(c: Fraction, q: int) -> int:
    """A rational coefficient as an element of F_q (denominator inverted)."""
    if type(c) is not Fraction:
        c = Fraction(c)
    den = c.denominator % q
    if den == 0:
        raise ValueError(f"coefficient {c} is not defined in F_{q}")
    return c.numerator * pow(den, -1, q) % q


# -- small exact matrices (tuple-of-tuples, entries reduced mod q) ------------


def _as_matrix(m, d: int, q: int) -> tuple:
    try:
        rows = tuple(tuple(int(x) % q for x in row) for row in m)
    except TypeError:
        raise ShapeMismatch(f"not a matrix: {m!r}") from None
    if len(rows) != d or any(len(r) != d for r in rows):
        raise ShapeMismatch(f"expected a {d}x{d} matrix, got {m!r}")
    return rows


def _eye(d: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def _mat_mul(a, b, q: int) -> tuple:
    cols = [*zip(*b)]
    return tuple([tuple([sum(map(mul, row, col)) % q for col in cols])
                  for row in a])


def _add_product(acc: list, c: int, rows, cols) -> list:
    """``acc`` plus c times the product of the given rows and columns, as a
    flat unreduced list: entry i*d + j gains c (row i . column j)."""
    return list(map(add, acc, [c * sum(map(mul, r, k))
                               for r in rows for k in cols]))


def _unflat(acc: list, d: int, q: int) -> tuple:
    """A flat accumulator as a d x d matrix reduced mod q."""
    return tuple(zip(*[iter([x % q for x in acc])] * d))


def _mat_trace(a, q: int) -> int:
    return sum(a[i][i] for i in range(len(a))) % q


def _transpose(a) -> tuple:
    return tuple(zip(*a))


def _is_zero_mat(a) -> bool:
    return all(x == 0 for row in a for x in row)


def _mat_det(a, q: int) -> int:
    """Determinant mod q by fraction-free Gaussian elimination."""
    d = len(a)
    m = [list(row) for row in a]
    det = 1
    for col in range(d):
        piv = next((r for r in range(col, d) if m[r][col] % q), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = det * m[col][col] % q
        inv = pow(m[col][col], -1, q)
        for r in range(col + 1, d):
            f = m[r][col] * inv % q
            if f:
                m[r] = [(x - f * y) % q for x, y in zip(m[r], m[col])]
    return det % q


def _mat_inv(a, q: int) -> tuple:
    """Inverse mod q by Gauss-Jordan; raises ZeroDivisionError if singular."""
    d = len(a)
    m = [list(row) + [int(i == j) for j in range(d)]
         for i, row in enumerate(a)]
    for col in range(d):
        piv = next((r for r in range(col, d) if m[r][col] % q), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular mod %d" % q)
        m[col], m[piv] = m[piv], m[col]
        inv = pow(m[col][col], -1, q)
        m[col] = [x * inv % q for x in m[col]]
        for r in range(d):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % q for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[d:]) for row in m)


def gl_order(d: int, q: int) -> int:
    """Order of GL_d(F_q)."""
    return math.prod(q ** d - q ** i for i in range(d))


# -- single representations ---------------------------------------------------


class MatrixRep:
    """One representation: a d x d matrix over F_q for every arrow.

    The dimension vector is constant (every vertex carries F_q^d), so words
    with any endpoints evaluate to plain d x d matrices.  Localized arrows
    must act invertibly; their inverses are computed on demand.
    """

    def __init__(self, quiver: Quiver, d: int, q: int,
                 matrices: Mapping) -> None:
        _require_prime(q)
        _require_dimension(d)
        arrows = set(quiver.arrow_ids())
        extra = set(matrices) - arrows
        missing = arrows - set(matrices)
        if extra or missing:
            raise ShapeMismatch(
                f"matrices must cover the arrows exactly "
                f"(missing {sorted(missing, key=_idkey)}, "
                f"extra {sorted(extra, key=_idkey)})")
        self.quiver = quiver
        self.d = d
        self.q = q
        self.matrices = {a: _as_matrix(m, d, q) for a, m in matrices.items()}
        self._inverses: dict = {}
        for a in sorted(quiver.localized, key=_idkey):
            if _mat_det(self.matrices[a], q) == 0:
                raise ShapeMismatch(
                    f"localized arrow {a!r} must act invertibly")

    @staticmethod
    def scalar(quiver: Quiver, q: int, values: Mapping) -> "MatrixRep":
        """Convenience constructor for d = 1 from plain scalars."""
        return MatrixRep(quiver, 1, q,
                         {a: ((v,),) for a, v in values.items()})

    def matrix(self, a) -> tuple:
        try:
            return self.matrices[a]
        except KeyError:
            raise ShapeMismatch(f"no matrix for arrow {a!r}") from None

    def _inverse(self, a) -> tuple:
        if a not in self._inverses:
            if not self.quiver.is_localized(a):
                raise InverseOfNonLocalized(a)
            self._inverses[a] = _mat_inv(self.matrices[a], self.q)
        return self._inverses[a]

    def _word_matrix(self, letters) -> tuple:
        out = None
        for a, e in letters:
            if a not in self.matrices:
                raise ShapeMismatch(f"no matrix for arrow {a!r}")
            m = self.matrices[a] if e == 1 else self._inverse(a)
            out = m if out is None else _mat_mul(out, m, self.q)
        return out or _eye(self.d)

    def evaluate(self, x) -> tuple:
        """Matrix of a Word, or the coefficient-weighted sum for an Element.

        A sum adds each word's last product, times its coefficient, into
        one flat accumulator and reduces mod q once at the end."""
        if isinstance(x, Word):
            return self._word_matrix(x.letters)
        if isinstance(x, Element):
            acc = [0] * (self.d * self.d)
            for w, c in x.coeffs.items():  # a sum mod q: any order will do
                c = _coeff_mod(c, self.q)
                head = self._word_matrix(w.letters[:-1])
                last = self._word_matrix(w.letters[-1:])
                acc = _add_product(acc, c, head, [*zip(*last)])
            return _unflat(acc, self.d, self.q)
        raise TypeError(f"cannot evaluate {type(x).__name__}")

    def __repr__(self) -> str:
        return f"MatrixRep(d={self.d}, q={self.q}, {len(self.matrices)} arrows)"


def _require_matrices(rep: MatrixRep, W: Potential) -> None:
    missing = W.arrows_used() - set(rep.matrices)
    if missing:
        raise ShapeMismatch(
            f"potential uses arrows without matrices: "
            f"{sorted(missing, key=_idkey)}")


def trace_potential(rep: MatrixRep, W: Potential) -> int:
    """Value of Tr W at the representation, as an element of F_q."""
    _require_matrices(rep, W)
    total = 0
    for c, cyc in W.terms():
        total += _coeff_mod(c, rep.q) * _mat_trace(rep._word_matrix(cyc),
                                                   rep.q)
    return total % rep.q


def trace_gradient(rep: MatrixRep, W: Potential) -> dict:
    """Entrywise gradient of the trace polynomial, one matrix per arrow.

    Entry (i, j) of the matrix for arrow ``a`` is the partial derivative of
    Tr W by the (i, j) entry of the matrix assigned to ``a``, computed
    directly from occurrences via d/dX_ij Tr(X M) = M_ji.  For a term
    l_0 ... l_{k-1}, occurrence i has M = l_{i+1} ... l_{k-1} l_0 ... l_{i-1},
    the product of a shared suffix and a shared prefix, so a term costs
    about 3k matrix products; the last one, c (suffix prefix)^T, goes
    straight into the arrow's flat accumulator, reduced mod q once at the
    end.  This is the independent cross-check route for :func:`crit_check`:
    it reads W, not the derivative table, and shares no product with it.
    """
    _require_matrices(rep, W)
    q, eye = rep.q, _eye(rep.d)
    acc = {a: [0] * (rep.d * rep.d) for a in rep.matrices}
    for c, cyc in W.terms():
        cm = _coeff_mod(c, q)
        for a, e in cyc:
            if e != 1:
                raise InverseOfNonLocalized(
                    f"cannot differentiate through an inverse of {a!r}")
        mats = [rep.matrices[a] for a, _ in cyc]
        # prefix[i] = l_0 ... l_{i-1}, suffix[i] = l_{i+1} ... l_{k-1}
        prefix = [eye, *accumulate(mats[:-1], lambda x, y: _mat_mul(x, y, q))]
        suffix = [*accumulate(mats[:0:-1], lambda x, y: _mat_mul(y, x, q))]
        suffix = suffix[::-1] + [eye]
        for (a, _), pre, suf in zip(cyc, prefix, suffix):
            # (suf pre)^T = pre^T suf^T: pre's columns times suf's rows
            acc[a] = _add_product(acc[a], cm, [*zip(*pre)], suf)
    return {a: _unflat(m, rep.d, q) for a, m in acc.items()}


def crit_check(rep: MatrixRep, quiver: Quiver, W: Potential) -> bool:
    """True iff every partial derivative of Tr W vanishes at ``rep``.

    The cyclic derivative by every arrow (localized ones included: on their
    open locus the coordinates are the same matrix entries) is evaluated at
    the representation; as a cross-check the entrywise gradient of the trace
    polynomial is recomputed independently and compared via
    grad(a) = (dW/da)(rep)^T.  Each route sums into flat accumulators
    reduced once per sum, and neither reuses a product of the other or of
    an earlier call.  A mismatch would indicate an evaluation bug, not a
    property of the input, hence RuntimeError.
    """
    grads = trace_gradient(rep, W)
    derivs = derivatives(quiver, W)
    flat = True
    for a in quiver.arrow_ids():
        d_val = rep.evaluate(derivs[a])
        if _transpose(d_val) != grads[a]:
            raise RuntimeError(
                f"gradient cross-check failed at arrow {a!r}")
        if not _is_zero_mat(d_val):
            flat = False
    return flat


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


@lru_cache(maxsize=None)
def _pool(d: int, q: int, invertible: bool) -> tuple:
    """All d x d matrices over F_q in lexicographic entry order.

    With ``invertible`` the singular ones are filtered out (order kept).
    """
    mats = []
    for entries in _iproduct(range(q), repeat=d * d):
        rows = tuple(entries[i * d:(i + 1) * d] for i in range(d))
        if invertible and _mat_det(rows, q) == 0:
            continue
        mats.append(rows)
    return tuple(mats)


def _det_entries(rows: list, q: int):
    """The determinants mod q of a batch of matrices given as rows of entry
    arrays, by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0] % q
    det = 0
    for j, x in enumerate(rows[0]):
        minor = x * _det_entries([r[:j] + r[j + 1:] for r in rows[1:]], q)
        det = det - minor if j % 2 else det + minor
    return det % q


def _entry_pool(d: int, q: int, invertible: bool) -> np.ndarray:
    """The matrices of :func:`_pool`, in its order, as a (d^2, size) int64
    array whose row e holds entry e (row-major) of each: the base-q digits
    of 0, 1, ..., q^(d^2) - 1, most significant first.  With ``invertible``
    only the columns of nonzero determinant are kept."""
    k = np.arange(q ** (d * d), dtype=np.int64)
    pool = np.empty((d * d, len(k)), dtype=np.int64)
    for e, row in enumerate(pool):
        np.floor_divide(k, q ** (d * d - 1 - e), out=row)
        row %= q
    if invertible:
        rows = [list(pool[i:i + d]) for i in range(0, d * d, d)]
        pool = pool[:, _det_entries(rows, q) != 0]
    return pool


class _RepSpace:
    """Lexicographic indexing of every representation at fixed (d, q).

    Arrows are ordered by id and the last arrow varies fastest, so index k
    unpacks as mixed-radix digits over the per-arrow pool sizes.  Chunked
    and per-point traversals therefore agree on the order.

    Each localized arrow in ``fixed`` (a gauge tree) has the identity as its
    only matrix: ``total`` counts the points of that slice, and each of them
    stands for ``gauge`` points of the ``state_space``.  The sizes come from
    :func:`_arrow_sizes`.  The per-point paths read an arrow's pool of
    matrices through :meth:`pool_of`, built the first time it is read; the
    sweep reads it through :meth:`letter_values`, as numpy entry arrays.

    A batch of n matrices is a pair (entries, bound): ``entries`` lists d^2
    int64 arrays of length n, entry (i, j) of every matrix at i*d + j, and
    every entry lies in [0, bound].  Every operation below works entry by
    entry, so d = 1 is the case of one entry array.
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
        self._np: dict = {}  # letter -> its pool as a (d^2, size) array
        self._pools: dict = {}  # localized or not -> that kind's pool

    def pool_of(self, letter) -> tuple:
        """The matrices a letter takes, in its arrow's pool order: the pool
        itself, or for an inverse letter the pool's inverses."""
        a, e = self.check_letter(letter)
        pool = ((_eye(self.d),) if a in self.fixed
                else _pool(self.d, self.q, self.quiver.is_localized(a)))
        return pool if e == 1 else tuple(_mat_inv(m, self.q) for m in pool)

    def check_letter(self, letter) -> tuple:
        """The letter, if its arrow has matrices here and it inverts only a
        localized arrow; else the error reading its matrices raises."""
        a, e = letter
        if a not in self.sizes:
            raise ShapeMismatch(f"no matrices for arrow {a!r}")
        if e != 1 and not self.quiver.is_localized(a):
            raise InverseOfNonLocalized(a)
        return letter

    def chunk_indices(self, lo: int, hi: int) -> dict:
        offs = np.arange(lo, hi, dtype=np.int64)
        return {a: _mod(offs // self.strides[a], self.sizes[a])
                for a in self.arrows}

    def sample_indices(self, source: _Draws, n: int) -> dict:
        return {a: source.below(self.sizes[a], n) for a in self.arrows}

    def _letter_pool(self, letter) -> np.ndarray:
        """A letter's matrices as a (d^2, size) array, row e holding entry e
        of each: an arrow's own pool from :func:`_entry_pool`, shared by the
        arrows of its kind, and else (a gauge-tree arrow or an inverse
        letter) :meth:`pool_of`'s tuples."""
        a, e = self.check_letter(letter)
        if e == 1 and a not in self.fixed:
            kind = self.quiver.is_localized(a)
            if kind not in self._pools:
                self._pools[kind] = _entry_pool(self.d, self.q, kind)
            return self._pools[kind]
        pool = np.array(self.pool_of(letter), dtype=np.int64)
        return np.ascontiguousarray(pool.reshape(-1, self.d * self.d).T)

    def letter_values(self, idx: dict, letter) -> tuple:
        """A letter's batch, each entry array gathered at its arrow's pool
        indices, and its bound q - 1."""
        if letter not in self._np:
            self._np[letter] = self._letter_pool(letter)
        return list(self._np[letter].take(idx[letter[0]], axis=1)), self.q - 1

    def identity(self, n: int) -> tuple:
        one, zero = np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        d = self.d
        return [one if i == j else zero for i in range(d) for j in range(d)], 1

    def reduced(self, x: tuple) -> tuple:
        """A batch with its entries taken mod q, copied only if needed."""
        values, bound = x
        if bound < self.q:
            return x
        return [_mod(v, self.q) for v in values], self.q - 1

    def _fit(self, x: tuple, y: tuple, size) -> tuple:
        """x and y, the one with the larger bound reduced first, then the
        other, until ``size(bound_x, bound_y)`` is below 2^63."""
        if x[1] >= y[1]:
            x = self.reduced(x)
        else:
            y = self.reduced(y)
        if size(x[1], y[1]) >= _INT64:
            x, y = self.reduced(x), self.reduced(y)
        return x, y

    def mul(self, x, y):
        """Pointwise product of two batches; None is the identity.

        Entry (i, j) of the product is the explicit sum over k of the entry
        products x_ik y_kj, so its bound is d * bound_x * bound_y.  The
        entries stay unreduced while that is below 2^63; past it, the
        operand with the larger bound is reduced mod q first.  With both
        reduced the bound is d (q-1)^2, which :func:`_check_int64` keeps
        below 2^63, so at large q the same code reduces every time.
        """
        if x is None or y is None:
            return y if x is None else x
        d = self.d
        if d * x[1] * y[1] >= _INT64:
            x, y = self._fit(x, y, lambda a, b: d * a * b)
        xs, ys, out = x[0], y[0], []
        for i in range(0, d * d, d):
            for j in range(d):
                entry = xs[i] * ys[j]  # a new array, summed into in place
                for k in range(1, d):
                    entry += xs[i + k] * ys[k * d + j]
                out.append(entry)
        return out, d * x[1] * y[1]

    def add(self, x: tuple, y: tuple) -> tuple:
        """Sum of two batches; the bounds add."""
        if x[1] + y[1] >= _INT64:
            x, y = self._fit(x, y, int.__add__)
        return list(map(add, x[0], y[0])), x[1] + y[1]

    def scale(self, c: int, x: tuple) -> tuple:
        """A batch times a coefficient 0 <= c < q; the bound is c times."""
        if c == 1:
            return x
        if c * x[1] >= _INT64:
            x = self.reduced(x)
        return [c * v for v in x[0]], c * x[1]

    def trace(self, x: tuple) -> np.ndarray:
        """Traces of a batch mod q: the sum of its diagonal entries, whose
        bound is d * bound (the entries are reduced first if that would
        reach 2^63), reduced."""
        d = self.d
        if d * x[1] >= _INT64:
            x = self.reduced(x)
        diagonal = reduce(add, x[0][::d + 1])
        return diagonal if d * x[1] < self.q else _mod(diagonal, self.q)

    def element_values(self, idx: dict, x: Element, n: int) -> tuple:
        out = [np.zeros(n, dtype=np.int64)] * (self.d * self.d), 0
        for w in x.words():
            mats = [self.letter_values(idx, letter) for letter in w.letters]
            word = reduce(self.mul, mats or [self.identity(n)])
            out = self.add(out, self.scale(_coeff_mod(x.coeffs[w], self.q),
                                           word))
        return out

    def rep_at(self, k: int) -> MatrixRep:
        if not 0 <= k < self.total:
            raise IndexError(k)
        mats = {a: self.pool_of((a, 1))[k // self.strides[a] % self.sizes[a]]
                for a in self.arrows}
        return MatrixRep(self.quiver, self.d, self.q, mats)


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


def nth_rep(quiver: Quiver, d: int, q: int, k: int) -> MatrixRep:
    """The k-th representation in the enumeration order (0-based)."""
    return _RepSpace(quiver, d, q).rep_at(k)


def iter_reps(quiver: Quiver, d: int, q: int,
              limit: int = 10 ** 7) -> Iterator[MatrixRep]:
    """Yield every representation in enumeration order (small spaces only)."""
    space = _RepSpace(quiver, d, q)
    if space.total > limit:
        raise StateSpaceTooLarge(
            f"{space.total} representations exceed the iteration limit "
            f"{limit}; raise limit= to insist")
    for k in range(space.total):
        yield space.rep_at(k)


class _Draws:
    """The values of ``random.Random(seed).randrange(size)``, read in bulk.

    CPython's ``randrange(size)`` takes ``getrandbits(k)``, k =
    ``size.bit_length()``, until the result is below ``size``, and for
    k <= 32 each try is the top k bits of one 32-bit MT19937 word.
    ``getrandbits(32 * m)`` returns the generator's next m words, the first
    one least significant.  So the first n accepted words give the next n
    draws; words read past the n-th accepted one wait in ``_words`` for the
    next call.
    """

    def __init__(self, seed) -> None:
        _numpy()
        self._rng = random.Random(seed)
        self._words = np.empty(0, dtype=np.uint32)

    def below(self, size: int, n: int) -> np.ndarray:
        """The next n values of ``randrange(size)``, as int64."""
        if size >= _DRAW_LIMIT:
            raise StateSpaceTooLarge(
                f"a pool of {size} matrices is too large to sample: draws "
                f"read one 32-bit word per try, exact below {_DRAW_LIMIT}")
        k = size.bit_length()
        out = []
        while n:
            if not len(self._words):  # enough tries for n draws on average
                m = n * (1 << k) // size + 64
                self._words = np.frombuffer(self._rng.getrandbits(32 * m)
                                            .to_bytes(4 * m, "little"), "<u4")
            tops = self._words >> (32 - k)
            hits = np.flatnonzero(tops < size)[:n]
            out.append(tops[hits])
            n -= len(hits)
            # spent: the words up to the n-th accepted one, or all of them
            used = len(self._words) if n else hits[-1] + 1
            self._words = self._words[used:]
        return np.concatenate(out).astype(np.int64)


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


def _sweep(space: _RepSpace, kernel, draws=None, seed=None):
    """Sum of ``kernel(idx, n)`` over the whole space, or over ``draws``
    seeded uniform points; ``idx`` holds each arrow's pool indices for one
    slice of ``n <= _SLICE`` points and the kernel returns integer tallies.
    Sample mode draws blocks of ``_CHUNK`` points in order, each arrow's
    indices in id order, as ``random.Random(seed).randrange`` of the pool
    size; :class:`_Draws` reads that stream in bulk from the same
    generator.  An exhaustive sweep walks the gauge slice and scales its
    sums, as Python integers, by ``space.gauge``."""
    _numpy()

    def tally(idx: dict, n: int):
        return sum(kernel({a: v[lo:lo + _SLICE] for a, v in idx.items()},
                          min(_SLICE, n - lo)) for lo in range(0, n, _SLICE))

    if draws is not None:
        source = _Draws(seed)
        sizes = [min(_CHUNK, draws - lo) for lo in range(0, draws, _CHUNK)]
        return sum(tally(space.sample_indices(source, n), n) for n in sizes)
    _check_guard(space)

    def block(lo: int):
        hi = min(lo + _CHUNK, space.total)
        return tally(space.chunk_indices(lo, hi), hi - lo)

    sums = sum(block(lo) for lo in range(0, space.total, _CHUNK))
    return [int(t) * space.gauge for t in sums]


def _check_int64(d: int, q: int, terms=0, occurrences=0) -> None:
    """Refuse sizes at which a kernel's int64 sums could overflow.

    Batches are reduced mod q lazily: an operand is reduced only when the
    next product, sum or scaling would otherwise reach 2^63
    (:meth:`_RepSpace.mul`), and every trace, histogram and zero test reads
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


def _evaluate(space: _RepSpace, terms: list, idx: dict, n: int,
              live=frozenset()) -> tuple:
    """Tr W mod q on a slice, and whether the cyclic derivative by each arrow
    of ``live`` vanishes there (everywhere, when ``live`` is empty).

    A term c l_0...l_{L-1} that holds a live arrow builds its suffix
    products l_{i+1}...l_{L-1} right to left, down to its first live
    occurrence; each live occurrence i adds suffix * prefix to its arrow's
    sum, where the running prefix c l_0...l_{i-1} (c alone at i = 0) ends
    as c times the full product.  A term with no live arrow is multiplied
    out for its trace alone, and a term whose coefficient is 0 mod q adds
    nothing, once its letters are read.  Every
    letter of a differentiated W has exponent 1 (``derivatives`` refuses the
    others).  Products and sums carry bounds and are reduced mod q only
    where a bound requires it (:meth:`_RepSpace.mul`)."""
    values: dict = {}
    for _, cyc in terms:
        for x in cyc:
            if x not in values:
                values[x] = space.letter_values(idx, x)
    vals = np.zeros(n, dtype=np.int64)
    grads: dict = {}
    for cm, cyc in terms:
        if not cm:
            continue
        mats = [values[x] for x in cyc]
        hot = [i for i, (a, _) in enumerate(cyc) if a in live]
        if not hot:
            vals += cm * space.trace(reduce(space.mul, mats))
            continue
        suffix = [None]  # suffix[i - hot[0]] = l_{i+1} ... l_{L-1}
        for m in reversed(mats[hot[0] + 1:]):
            suffix.append(space.mul(m, suffix[-1]))
        suffix.reverse()
        mats[0] = space.scale(cm, mats[0])  # so every prefix holds c
        prefix = None
        for i, (a, _) in enumerate(cyc):
            if a in live:
                rest = space.mul(suffix[i - hot[0]], prefix)
                if i == 0:  # the suffix alone, which does not hold c
                    rest = space.scale(cm, space.identity(n) if rest is None
                                       else rest)
                grads[a] = space.add(grads[a], rest) if a in grads else rest
            prefix = space.mul(prefix, mats[i])
        vals += space.trace(prefix)
    crit = np.ones(n, dtype=bool)
    for acc in grads.values():
        for entry in acc[0]:  # entry == 0 mod q, read as _mod does
            crit &= entry == entry // space.q * space.q
    return _mod(vals, space.q), crit


def _exponents(space: _RepSpace, letters) -> dict:
    """Each arrow's exponent in the monomial a word is at d = 1, its letters
    checked in order as :meth:`_RepSpace.check_letter` does."""
    exps: dict = {}
    for a, e in map(space.check_letter, letters):
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
                    omega: Element | None = None) -> list | None:
    """The tallies :func:`_sweep` returns for an exhaustive d = 1 count
    (the fibre count of each residue of Tr W, then the critical points) or,
    with ``omega``, probe (the weight of the whole space, of the
    omega-nilpotent and of the omega-invertible points), counted through
    the monomial map without visiting a point.  None when the elements of
    the image groups below, plus ``_STRATUM_COST`` for each stratum, come to
    more than ``_MONOMIAL_BUDGET``.

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
    and no pool of matrices is read.  The exhaustive guard still reads the
    gauge slice's pool sizes, as in :func:`_sweep`, and errors come in the
    numpy kernels' order: the guard, the letters of W, then omega's words,
    each word's letters before its coefficient."""
    _check_guard(space)
    q, m = space.q, space.q - 1
    words = [(c, _exponents(space, cyc)) for c, cyc in terms]
    for w in omega.words() if omega is not None else ():
        exps = _exponents(space, w.letters)
        words.append((_coeff_mod(omega.coeffs[w], q), exps))
    free = [a for a in space.arrows if not space.quiver.is_localized(a)]
    holders = [[i for i, (_, exps) in enumerate(words) if a in exps]
               for a in free]
    dead = 2 if omega is None else 1  # zero letters that kill a word
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
    out = [0] * (q + 1 if omega is None else 3)
    for group, zeros, summed, hits, live, torus in groups:
        weight = q ** summed * m ** (len(torus) - summed) // len(group)
        whole = [(j, i) for j, i in enumerate(live) if hits[i] == 0]
        trace = [(words[i][0], j) for j, i in whole if i < len(terms)]
        if omega is None:  # x_a dW/da for each a of the torus, then each zero
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
            if omega is None:
                out[f] += weight
                if all(sum([c * y[j] for c, j in eq]) % q == 0 for eq in eqs):
                    out[q] += weight
            elif f < 2:
                sign = weight if f == 0 else -weight
                nilpotent = sum([c * y[j] for c, j in om]) % q == 0
                out[0] += sign
                out[1 if nilpotent else 2] += sign
    return out


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
    points where every partial derivative of Tr W vanishes.  ``normalization`` carries the symbolic
    prefactors (L exponent, GL exponent and order); they are never folded
    into the integer counts.

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
            raise ValueError("sample mode needs an integer sample_size >= 1")
        if not is_int(seed):
            raise ValueError("sample mode needs an explicit integer seed")
    elif mode == "exhaustive":
        sample_size = seed = None
    else:
        raise ValueError(f"unknown mode {mode!r}")

    def kernel(idx: dict, n: int) -> np.ndarray:
        vals, crit = _evaluate(space, terms, idx, n, live)
        return np.append(np.bincount(vals, minlength=q), crit.sum())

    tally = (_monomial_route(space, terms)
             if mode == "exhaustive" and d == 1 else None)
    if tally is None:
        tally = _sweep(space, kernel, sample_size, seed)
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
        raise ValueError("the degree-one probe needs an odd prime q; "
                         "characteristic 2 collapses the even coefficients")
    space = _RepSpace(quiver, 1, q, _gauge_tree(quiver, omega))
    terms = _coefficients(W, 1, q)

    def kernel(idx: dict, n: int) -> np.ndarray:
        vals, _ = _evaluate(space, terms, idx, n)
        weights = (vals == 0).astype(np.int64) - (vals == 1).astype(np.int64)
        om = space.reduced(space.element_values(idx, omega, n))[0][0]  # d = 1
        return np.array([weights.sum(), weights[om == 0].sum(),
                         weights[om != 0].sum()])

    tally = _monomial_route(space, terms, omega)
    w_total, w_nilp, w_inv = map(int, tally if tally is not None
                                 else _sweep(space, kernel))
    return ProbeReport(
        q=q, weight_total=w_total, weight_nilpotent=w_nilp,
        weight_invertible=w_inv, nilpotent_times_q=q * w_nilp,
        nilpotent_times_qminus1=(q - 1) * w_nilp,
        total_matches=(w_total == q * w_nilp),
        invertible_matches=(w_inv == (q - 1) * w_nilp))
