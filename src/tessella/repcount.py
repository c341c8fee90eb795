"""Finite-field representation counting for quivers with potential.

A point of the representation space over F_q assigns a d x d matrix to every
arrow (invertible for localized arrows); every vertex carries the same
dimension d.  A word acts by the matrix product of its letters in written
order, so the rightmost letter is applied first, matching path composition.

On that space the potential induces the trace function f = Tr W.  This
module evaluates f, checks the critical-point equations (every cyclic
derivative vanishing, cross-validated against the entrywise gradient of the
trace polynomial), and tallies exhaustive or sampled counts: fibre sizes of
f, critical points, and strata cut out by nilpotency/invertibility of a
chosen algebra element.

All counts are raw integer point counts over the prime field.  The usual
normalizations (the half power of the ambient dimension, and the order of
the gauge group GL_d per vertex) are reported symbolically alongside the
tallies and never folded into them.

Every batch count (:func:`enumerate_reps`, :func:`stratify_by_omega`,
:func:`conjecture_probe_d1`) is one sweep over blocks of ``_CHUNK`` points:
ranges of the lexicographic order (arrows by id, last arrow fastest) on
``TESSELLA_THREADS`` threads (at most one per CPU the process may run on),
or seeded draws, one block after another.  A kernel sees at most
``_SLICE`` points at a time, which bounds its working set, and returns
exact integer tallies that merge by addition, so outputs do not depend on
block size, slice size or thread count.  The count kernel reads
each term of W once per slice through shared suffix and prefix products,
which give its trace and every occurrence's cyclic derivative (elementwise at
d = 1, batched matmuls otherwise).  Batches carry an upper bound on their
int64 entries (q - 1 for a letter, d b_1 b_2 for a product, the sum for a
sum, c b for a coefficient c < q) and are reduced mod q only when the next
operation's bound would reach 2^63; every trace, histogram and zero test
reads reduced entries.  The per-point :class:`MatrixRep` route
(:func:`trace_potential`, :func:`crit_check`) is the sweep's oracle.  Its
two halves share no product: :func:`crit_check` evaluates the derivative
table of :func:`tessella.pathalg.derivatives` (built once per quiver and
potential) at the point, and :func:`trace_gradient` recomputes the same
partials from W through shared prefix and suffix products of each term.
Each half adds c times the last product of every word or occurrence into a
flat integer accumulator per arrow and reduces it mod q once per sum;
nothing computed at a point outlives the call.

Exhaustive sweeps count modulo gauge.  The group prod_v GL_d acts on the
space by M_a -> g_t(a) M_a g_s(a)^-1, and these quantities are invariant:

* Tr W, since every term is a closed cycle (inverse letters included);
* the critical locus, since each cyclic derivative transforms equivariantly;
* the omega strata and probe weights, when at d = 1 every word of omega is
  closed, and at d >= 2 every word is closed at one common vertex.

:func:`_gauge_tree` picks a spanning forest of localized, non-loop arrows
(the lowest ids first).  Fixing those arrows to the identity leaves a slice
that meets each orbit of the non-root vertices' gauge group exactly once, so
every tally is the slice's tally times |GL_d(F_q)|^|tree|.  The tree is empty
when omega's words fail the condition above.  ``total`` and ``state_space``
in the reports are always those of the full space.  Sample mode,
:func:`iter_reps`, :func:`nth_rep` and the :class:`MatrixRep` oracle keep the
full space.
"""

from __future__ import annotations

import math
import os
import random
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, product as _iproduct
from operator import add, mul
from typing import Iterator, Mapping

import numpy as np

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
    ideal_reduce,
    jacobi_relations,
    multiply,
)

_CHUNK = 1 << 16  # points per block: the unit of threading and of sample draws
_SLICE = 1 << 12  # points per kernel call: bounds the prefix/suffix arrays
_STATE_GUARD = 10 ** 8
_POOL_GUARD = 4 * 10 ** 6
# a sample draw reads one 32-bit Mersenne Twister word per try (_Draws), which
# is exact only for pools below 2^32; _POOL_GUARD keeps every pool under it
_DRAW_LIMIT = 1 << 32
_INT64 = 1 << 63  # a batch's bound stays below this (see _RepSpace.mul)


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


@lru_cache(maxsize=None)
def _pool(d: int, q: int, invertible: bool) -> tuple:
    """All d x d matrices over F_q in lexicographic entry order.

    With ``invertible`` the singular ones are filtered out (order kept).
    """
    if q ** (d * d) > _POOL_GUARD:
        raise StateSpaceTooLarge(
            f"a single arrow already has {_size_text({q: d * d})} matrices; "
            f"the per-arrow pool guard is {_POOL_GUARD}")
    mats = []
    for entries in _iproduct(range(q), repeat=d * d):
        rows = tuple(entries[i * d:(i + 1) * d] for i in range(d))
        if invertible and _mat_det(rows, q) == 0:
            continue
        mats.append(rows)
    return tuple(mats)


class _RepSpace:
    """Lexicographic indexing of every representation at fixed (d, q).

    Arrows are ordered by id and the last arrow varies fastest, so index k
    unpacks as mixed-radix digits over the per-arrow pool sizes.  Chunked
    and per-point traversals therefore agree on the order.

    Each localized arrow in ``fixed`` (a gauge tree) has the identity as its
    only matrix: ``total`` counts the points of that slice, and each of them
    stands for ``gauge`` points of the ``state_space``.
    """

    def __init__(self, quiver: Quiver, d: int, q: int, fixed=()) -> None:
        _require_prime(q)
        _require_dimension(d)
        self.quiver = quiver
        self.d = d
        self.q = q
        self.arrows = quiver.arrow_ids()
        self.fixed = frozenset(fixed)
        self.pools = {a: (_eye(d),) if a in self.fixed
                      else _pool(d, q, quiver.is_localized(a))
                      for a in self.arrows}
        self.sizes = {a: len(self.pools[a]) for a in self.arrows}
        self.total = math.prod(self.sizes.values())
        self.gauge = gl_order(d, q) ** len(self.fixed)
        self.state_space = self.total * self.gauge
        self.strides, acc = {}, 1
        for a in reversed(self.arrows):
            self.strides[a], acc = acc, acc * self.sizes[a]
        # batch values: flat (size,) scalars at d = 1, (size, d, d) otherwise
        self._shape = () if d == 1 else (d, d)
        self._np = {a: np.array(self.pools[a], dtype=np.int64)
                    .reshape(-1, *self._shape) for a in self.arrows}
        self._np_inv: dict = {}

    def _inv_pool(self, a) -> np.ndarray:
        if a not in self._np_inv:
            if not self.quiver.is_localized(a):
                raise InverseOfNonLocalized(a)
            self._np_inv[a] = np.array(
                [_mat_inv(m, self.q) for m in self.pools[a]],
                dtype=np.int64).reshape(-1, *self._shape)
        return self._np_inv[a]

    def chunk_indices(self, lo: int, hi: int) -> dict:
        offs = np.arange(lo, hi, dtype=np.int64)
        return {a: (offs // self.strides[a]) % self.sizes[a]
                for a in self.arrows}

    def sample_indices(self, source: _Draws, n: int) -> dict:
        return {a: source.below(self.sizes[a], n) for a in self.arrows}

    def letter_values(self, idx: dict, letter) -> tuple:
        """A letter's batch and its bound q - 1."""
        a, e = letter
        if a not in self.pools:
            raise ShapeMismatch(f"no matrices for arrow {a!r}")
        pool = self._np[a] if e == 1 else self._inv_pool(a)
        return pool[idx[a]], self.q - 1

    def identity(self, n: int) -> tuple:
        eye = np.eye(self.d, dtype=np.int64).reshape(self._shape)
        return np.broadcast_to(eye, (n, *self._shape)), 1

    def reduced(self, x: tuple) -> tuple:
        """A batch with its entries taken mod q, copied only if needed."""
        values, bound = x
        if bound < self.q:
            return x
        return values % self.q, self.q - 1

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

        A batch is a pair (int64 values, bound): every entry lies in
        [0, bound].  The product's bound is d * bound_x * bound_y, and the
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
        out = x[0] * y[0] if d == 1 else np.matmul(x[0], y[0])
        return out, d * x[1] * y[1]

    def add(self, x: tuple, y: tuple) -> tuple:
        """Sum of two batches; the bounds add."""
        if x[1] + y[1] >= _INT64:
            x, y = self._fit(x, y, int.__add__)
        return x[0] + y[0], x[1] + y[1]

    def scale(self, c: int, x: tuple) -> tuple:
        """A batch times a coefficient 0 <= c < q; the bound is c times."""
        if c * x[1] >= _INT64:
            x = self.reduced(x)
        return c * x[0], c * x[1]

    def trace(self, x: tuple) -> np.ndarray:
        """Traces of a batch, its entries reduced mod q first."""
        values = self.reduced(x)[0]
        return values if self.d == 1 else np.trace(values, axis1=1, axis2=2)

    def element_values(self, idx: dict, x: Element, n: int) -> tuple:
        out = np.zeros((n, *self._shape), dtype=np.int64), 0
        for w in x.words():
            mats = [self.letter_values(idx, letter) for letter in w.letters]
            word = reduce(self.mul, mats or [self.identity(n)])
            out = self.add(out, self.scale(_coeff_mod(x.coeffs[w], self.q),
                                           word))
        return out

    def rep_at(self, k: int) -> MatrixRep:
        if not 0 <= k < self.total:
            raise IndexError(k)
        mats = {a: self.pools[a][(k // self.strides[a]) % self.sizes[a]]
                for a in self.arrows}
        return MatrixRep(self.quiver, self.d, self.q, mats)


def _gauge_tree(quiver: Quiver, d: int, omega: Element | None = None) -> tuple:
    """The arrows an exhaustive sweep fixes to the identity: the lowest-id
    spanning forest of the localized arrows (a loop never joins it).  Empty
    when ``omega`` is given and its strata are not gauge invariant: a word
    of omega is open, or at d >= 2 two words close at different vertices."""
    if omega is not None:
        ends = {(w.source, w.target) for w in omega.words()}
        if any(s != t for s, t in ends) or (d > 1 and len(ends) > 1):
            return ()
    forest = _Forest(quiver)
    return tuple(a for a in quiver.arrow_ids()
                 if quiver.is_localized(a) and forest.join(a))


def state_space_size(quiver: Quiver, d: int, q: int) -> int:
    """Number of representations at dimension d over F_q."""
    _require_prime(q)
    _require_dimension(d)
    free = q ** (d * d)
    inv = gl_order(d, q)
    return math.prod(inv if quiver.is_localized(a) else free
                     for a in quiver.arrow_ids())


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


def _sweep(space: _RepSpace, kernel, draws=None, seed=None):
    """Sum of ``kernel(idx, n)`` over the whole space, or over ``draws``
    seeded uniform points; ``idx`` holds each arrow's pool indices for one
    slice of ``n <= _SLICE`` points and the kernel returns integer tallies.
    Sample mode draws blocks of ``_CHUNK`` points in order, each arrow's
    indices in id order, as ``random.Random(seed).randrange`` of the pool
    size; :class:`_Draws` reads that stream in bulk from the same
    generator.  An exhaustive sweep walks the gauge slice and scales its
    sums, as Python integers, by ``space.gauge``."""
    def tally(idx: dict, n: int):
        return sum(kernel({a: v[lo:lo + _SLICE] for a, v in idx.items()},
                          min(_SLICE, n - lo)) for lo in range(0, n, _SLICE))

    if draws is not None:
        source = _Draws(seed)
        sizes = [min(_CHUNK, draws - lo) for lo in range(0, draws, _CHUNK)]
        return sum(tally(space.sample_indices(source, n), n) for n in sizes)
    if space.total > _STATE_GUARD:
        tree = len(space.fixed)
        pools = Counter(space.sizes.values())
        gauge = Counter({gl_order(space.d, space.q): tree})
        raise StateSpaceTooLarge(
            f"{_size_text(pools)} points to sweep (state space "
            f"{_size_text(pools + gauge)} "
            f"modulo a gauge tree of {tree} arrow{'' if tree == 1 else 's'}) "
            f"exceed the exhaustive guard {_STATE_GUARD}")

    def block(lo: int):
        hi = min(lo + _CHUNK, space.total)
        return tally(space.chunk_indices(lo, hi), hi - lo)

    try:
        workers = max(1, int(os.environ.get("TESSELLA_THREADS", "1")))
    except ValueError:
        workers = 1
    # at most one thread per CPU the process may run on: the pool starts a
    # thread per submitted block while none is idle
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=min(workers, cpus)) as pool:
        tally = sum(pool.map(block, range(0, space.total, _CHUNK)))
    return [int(t) * space.gauge for t in tally]


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
              gradient: bool) -> tuple:
    """Tr W mod q on a slice and, with ``gradient``, whether every cyclic
    derivative vanishes.  For the gradient, suffix products l_{i+1}...l_{L-1}
    of a term l_0...l_{L-1} are built right to left; occurrence i adds
    c * suffix * prefix to its arrow's sum, and the running prefix
    l_0...l_{i-1} ends as the full product.  Every letter of a differentiated
    W has exponent 1 (``derivatives`` refuses the others).  Products and
    sums carry bounds and are reduced mod q only where a bound requires it
    (:meth:`_RepSpace.mul`)."""
    values = {x: space.letter_values(idx, x) for _, cyc in terms for x in cyc}
    vals = np.zeros(n, dtype=np.int64)
    grads: dict = {}
    for cm, cyc in terms:
        mats = [values[x] for x in cyc]
        if not gradient:
            vals += cm * space.trace(reduce(space.mul, mats))
            continue
        suffix = [None]
        for m in reversed(mats[1:]):
            suffix.append(space.mul(m, suffix[-1]))
        suffix.reverse()
        prefix = None
        for i, (a, _) in enumerate(cyc):
            rest = space.mul(suffix[i], prefix)
            rest = space.scale(cm, space.identity(n) if rest is None else rest)
            grads[a] = space.add(grads[a], rest) if a in grads else rest
            prefix = space.mul(prefix, mats[i])
        vals += cm * space.trace(prefix)
    crit = np.ones(n, dtype=bool)
    for acc, _ in grads.values():
        crit &= (acc % space.q == 0).reshape(n, -1).all(axis=1)
    return vals % space.q, crit


def _normalization(quiver: Quiver, d: int, q: int) -> dict:
    ambient = len(quiver.arrows) * d * d
    return {"L_exponent": Fraction(-ambient, 2),
            "GL_exponent": -len(quiver.vertices),
            "GL_order": gl_order(d, q)}


# -- count reports ------------------------------------------------------------


@dataclass(frozen=True)
class CountReport:
    """Tallies of the trace function over a representation space.

    ``total`` is the size of the full space in exhaustive mode (which sweeps
    one gauge slice of it) and the number of draws in sample mode;
    ``state_space`` is always the size of the full space.  ``histogram``
    maps every residue of F_q to its fibre count; ``zeros`` and ``ones``
    repeat the 0- and 1-fibre for convenience.  ``critical`` counts the
    points where every partial derivative of Tr W vanishes.  ``normalization`` carries the symbolic
    prefactors (L exponent, GL exponent and order); they are never folded
    into the integer counts.
    """

    q: int
    d: int
    mode: str
    total: int
    state_space: int
    zeros: int
    ones: int
    critical: int
    histogram: dict
    normalization: dict
    seed: int | None = None

    def __post_init__(self) -> None:
        if sum(self.histogram.values()) != self.total:
            raise ValueError("histogram does not sum to total")
        if (self.histogram.get(0, 0) != self.zeros
                or self.histogram.get(1, 0) != self.ones):
            raise ValueError("zeros/ones disagree with the histogram")
        if not 0 <= self.critical <= self.total:
            raise ValueError("critical count out of range")

    def to_json(self) -> dict:
        out = {"q": self.q, "d": self.d, "mode": self.mode,
               "total": self.total, "state_space": self.state_space,
               "zeros": self.zeros, "ones": self.ones,
               "critical": self.critical,
               "histogram": {str(v): c for v, c in sorted(self.histogram.items())},
               "normalization": {
                   "L_exponent": str(self.normalization["L_exponent"]),
                   "GL_exponent": self.normalization["GL_exponent"],
                   "GL_order": self.normalization["GL_order"]}}
        if self.seed is not None:
            out["seed"] = self.seed
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
    space = _RepSpace(quiver, d, q, _gauge_tree(quiver, d)
                      if mode == "exhaustive" else ())
    terms = _coefficients(W, d, q)
    derivs = derivatives(quiver, W)
    for a in quiver.arrow_ids():  # refuses inverse occurrences of a
        derivs[a]
    if mode == "sample":
        if not isinstance(sample_size, int) or sample_size < 1:
            raise ValueError("sample mode needs sample_size >= 1")
        if seed is None:
            raise ValueError("sample mode needs an explicit seed")
    elif mode == "exhaustive":
        sample_size = seed = None
    else:
        raise ValueError(f"unknown mode {mode!r}")

    def kernel(idx: dict, n: int) -> np.ndarray:
        vals, crit = _evaluate(space, terms, idx, n, gradient=True)
        return np.append(np.bincount(vals, minlength=q), crit.sum())

    tally = _sweep(space, kernel, sample_size, seed)
    histogram = {v: int(tally[v]) for v in range(q)}
    return CountReport(
        q=q, d=d, mode=mode, total=sample_size or space.state_space,
        state_space=space.state_space, zeros=histogram[0], ones=histogram[1],
        critical=int(tally[q]), histogram=histogram,
        normalization=_normalization(quiver, d, q), seed=seed)


# -- strata of a chosen element -----------------------------------------------


@dataclass(frozen=True)
class StrataReport:
    """Counts of representations by how a chosen element acts.

    ``nilpotent`` counts points where the element's matrix is nilpotent
    (power d vanishes), ``invertible`` where its determinant is nonzero;
    ``mixed`` is the complement.  At d = 1 the mixed stratum is empty.
    ``central_certified`` records whether bounded rewriting proved the
    element central modulo the derivative ideal; a failed certificate only
    downgrades to a warning since bounded rewriting is evidence, not proof.
    """

    q: int
    d: int
    total: int
    nilpotent: int
    invertible: int
    mixed: int
    central_certified: bool

    def __post_init__(self) -> None:
        if self.nilpotent + self.invertible + self.mixed != self.total:
            raise ValueError("strata do not partition the space")
        if min(self.nilpotent, self.invertible, self.mixed) < 0:
            raise ValueError("negative stratum count")

    def to_json(self) -> dict:
        return {"q": self.q, "d": self.d, "total": self.total,
                "nilpotent": self.nilpotent, "invertible": self.invertible,
                "mixed": self.mixed,
                "central_certified": self.central_certified}


def _central_mod_derivatives(quiver: Quiver, W: Potential, omega: Element,
                             step_bound: int = 60) -> bool:
    """Bounded rewriting evidence that omega commutes with every arrow."""
    rels = jacobi_relations(quiver, W)
    for a in quiver.arrow_ids():
        gen = Element.from_word(quiver.word([(a, 1)]))
        comm = multiply(quiver, omega, gen) - multiply(quiver, gen, omega)
        if not ideal_reduce(quiver, comm, rels, step_bound=step_bound).zero:
            return False
    return True


def stratify_by_omega(quiver: Quiver, W: Potential, omega: Element,
                      d: int, q: int) -> StrataReport:
    """Split the representation space by nilpotency/invertibility of omega.

    Nilpotency is tested as omega(rep)^d = 0 (sufficient by
    Cayley-Hamilton); invertibility as det != 0.  The element is first
    checked for centrality modulo the derivative ideal by bounded rewriting;
    failure to certify emits a RuntimeWarning and the strata are reported
    anyway.
    """
    certified = _central_mod_derivatives(quiver, W, omega)
    if not certified:
        warnings.warn(
            "could not certify omega central modulo the derivative ideal "
            "(bounded rewriting stalled); strata reported anyway",
            RuntimeWarning, stacklevel=2)
    space = _RepSpace(quiver, d, q, _gauge_tree(quiver, d, omega))
    _check_int64(d, q)

    def kernel(idx: dict, n: int) -> np.ndarray:
        om = space.element_values(idx, omega, n)
        power = space.reduced(reduce(space.mul, [om] * d))[0]
        nilp = (power == 0).reshape(n, -1).all(axis=1)
        om = space.reduced(om)[0]
        inv = (om if d == 1 else _det_batch(om, q)) != 0
        return np.array([nilp.sum(), inv.sum()])

    nilp, inv = map(int, _sweep(space, kernel))
    return StrataReport(q=q, d=d, total=space.state_space, nilpotent=nilp,
                        invertible=inv, mixed=space.state_space - nilp - inv,
                        central_certified=certified)


def _det_batch(mats: np.ndarray, q: int) -> np.ndarray:
    if mats.shape[1] == 2:
        return (mats[:, 0, 0] * mats[:, 1, 1]
                - mats[:, 0, 1] * mats[:, 1, 0]) % q
    return np.array([_mat_det(tuple(map(tuple, m)), q) for m in mats],
                    dtype=np.int64)


# -- the degree-one probe -----------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    """Both sides of the degree-one coefficient comparison at d = 1.

    The weight of a point set is |f^{-1}(0)| - |f^{-1}(1)| inside it.  The
    report records the weighted counts of the whole space and of the
    nilpotent/invertible strata, the scaled nilpotent weights the two
    identities predict for them, and whether the numbers match.  Whether
    this point-count weight is the right specialization is a modeling
    heuristic; the probe reports and never asserts.
    """

    q: int
    weight_total: int
    weight_nilpotent: int
    weight_invertible: int
    nilpotent_times_q: int
    nilpotent_times_qminus1: int
    total_matches: bool
    invertible_matches: bool

    def __post_init__(self) -> None:
        if self.weight_total != self.weight_nilpotent + self.weight_invertible:
            raise ValueError("weights do not partition at d = 1")

    def to_json(self) -> dict:
        return {"q": self.q,
                "weight_total": self.weight_total,
                "weight_nilpotent": self.weight_nilpotent,
                "weight_invertible": self.weight_invertible,
                "nilpotent_times_q": self.nilpotent_times_q,
                "nilpotent_times_qminus1": self.nilpotent_times_qminus1,
                "total_matches": self.total_matches,
                "invertible_matches": self.invertible_matches,
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
    space = _RepSpace(quiver, 1, q, _gauge_tree(quiver, 1, omega))
    terms = _coefficients(W, 1, q)

    def kernel(idx: dict, n: int) -> np.ndarray:
        vals, _ = _evaluate(space, terms, idx, n, gradient=False)
        weights = (vals == 0).astype(np.int64) - (vals == 1).astype(np.int64)
        om = space.reduced(space.element_values(idx, omega, n))[0]
        return np.array([weights.sum(), weights[om == 0].sum(),
                         weights[om != 0].sum()])

    w_total, w_nilp, w_inv = map(int, _sweep(space, kernel))
    return ProbeReport(
        q=q, weight_total=w_total, weight_nilpotent=w_nilp,
        weight_invertible=w_inv, nilpotent_times_q=q * w_nilp,
        nilpotent_times_qminus1=(q - 1) * w_nilp,
        total_matches=(w_total == q * w_nilp),
        invertible_matches=(w_inv == (q - 1) * w_nilp))
