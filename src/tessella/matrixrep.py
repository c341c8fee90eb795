"""The per-point oracle of :mod:`tessella.repcount`: one representation at a
time, on tuple-of-tuples matrices with entries reduced mod q.

:class:`MatrixRep` holds one point of the representation space, the same
space and enumeration order (arrows by id, last arrow fastest, over the
pools of :func:`_pool`) that the counts use, and :func:`nth_rep` and
:func:`iter_reps` walk it point by point over the full space.
:func:`trace_potential` evaluates Tr W at a point and :func:`crit_check`
tests the critical-point equations there.  Neither batch route (the monomial
route of :mod:`tessella.repcount`, the numpy sweep of :mod:`tessella.sweep`)
calls this module; the tests hold both to it.  It imports no numpy.

The two halves of :func:`crit_check` share no product: it evaluates the
derivative table of :func:`tessella.pathalg.derivatives` (built once per
quiver and potential) at the point, and :func:`trace_gradient` recomputes
the same partials from W through shared prefix and suffix products of each
term.  Each half adds c times the last product of every word or occurrence
into a flat integer accumulator per arrow and reduces it mod q once per sum;
nothing computed at a point outlives the call.

:mod:`tessella.repcount` serves this module's public names, so
``from tessella.repcount import MatrixRep`` imports it on first use.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, product as _iproduct
from operator import add, mul
from typing import Iterator, Mapping

from .pathalg import (
    Element,
    InverseOfNonLocalized,
    Potential,
    Quiver,
    Word,
    _idkey,
    derivatives,
)
from .repcount import (
    ShapeMismatch,
    StateSpaceTooLarge,
    _RepSpace,
    _coeff_mod,
    _require_dimension,
    _require_prime,
)

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


# -- walking the space point by point -----------------------------------------


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


def rep_at(space: _RepSpace, k: int) -> MatrixRep:
    """Point k of ``space`` in its enumeration order: each arrow's matrix is
    the mixed-radix digit of k at the arrow's stride, read from
    :func:`_pool`."""
    if not 0 <= k < space.total:
        raise IndexError(k)
    mats = {a: _pool(space.d, space.q, space.quiver.is_localized(a))[
        k // space.strides[a] % space.sizes[a]] for a in space.arrows}
    return MatrixRep(space.quiver, space.d, space.q, mats)


def nth_rep(quiver: Quiver, d: int, q: int, k: int) -> MatrixRep:
    """The k-th representation in the enumeration order (0-based)."""
    return rep_at(_RepSpace(quiver, d, q), k)


def iter_reps(quiver: Quiver, d: int, q: int,
              limit: int = 10 ** 7) -> Iterator[MatrixRep]:
    """Yield every representation in enumeration order (small spaces only)."""
    space = _RepSpace(quiver, d, q)
    if space.total > limit:
        raise StateSpaceTooLarge(
            f"{space.total} representations exceed the iteration limit "
            f"{limit}; raise limit= to insist")
    for k in range(space.total):
        yield rep_at(space, k)
