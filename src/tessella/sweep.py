"""The numpy batch sweep of :mod:`tessella.repcount`.

Its one entry, :func:`tallies`, counts what
:func:`tessella.repcount._tallies` does not send through the monomial
route (sample mode, d >= 2, and an exhaustive d = 1 count past the route's
budget) and returns the tallies that route returns.  In the package only
``_tallies`` imports this module, and numpy with it, once every guard has
passed.

The sweep runs over blocks of ``_CHUNK`` points: ranges of the
lexicographic order (arrows by id, last arrow fastest) or seeded draws, one
block after another on the calling thread.  A kernel sees at most ``_SLICE``
points at a time, which bounds its working set, and returns exact integer
tallies that merge by addition, so outputs do not depend on block size or
slice size.  A batch of n matrices is entry-major: d^2 int64 arrays of
length n, one per entry in row-major order, so a product is the explicit
sum of entry products and d = 1 is the case of one entry.  Every letter,
inverse ones too, is read from a pool of d^2 entry arrays, built once per
kind of arrow and exponent.  The count kernel differentiates only the live
arrows, those whose cyclic derivative has a coefficient that is nonzero
mod q (any other derivative is 0 at every point).  It reads each term of W
once per slice: through shared suffix and prefix products, which give its
trace and the cyclic derivative at each occurrence of a live arrow, or, for
a term with no live arrow, through its product alone.  Batches carry an
upper bound on their int64 entries (q - 1 for a letter, d b_1 b_2 for a
product, the sum for a sum, c b for a coefficient c < q) and are reduced
mod q only when the next operation's bound would reach 2^63; every trace,
histogram and zero test is taken mod q.  The per-point oracle in
:mod:`tessella.matrixrep` checks this sweep, which never calls it.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import product as _iproduct
from operator import add

import numpy as np

from .repcount import StateSpaceTooLarge, _RepSpace

_CHUNK = 1 << 16  # points per block: the unit of index decoding and of draws
_SLICE = 1 << 12  # points per kernel call: bounds the prefix/suffix arrays
# a sample draw reads one 32-bit Mersenne Twister word per try (_Draws), which
# is exact only for pools below 2^32; repcount._POOL_GUARD keeps every pool
# under it
_DRAW_LIMIT = 1 << 32
_INT64 = 1 << 63  # a batch's bound stays below this (see _Batches.mul)


def _mod(values: np.ndarray, m: int) -> np.ndarray:
    """A non-negative int64 array mod m, as values - (values // m) m: numpy
    divides an array by a scalar several times faster than it takes a
    remainder."""
    out = values // m
    out *= -m
    out += values
    return out


def _det_entries(rows: list, q: int):
    """The determinants mod q of a batch of matrices given as rows of entry
    arrays, by cofactor expansion along the first row (1 for no rows)."""
    if len(rows) < 2:
        return rows[0][0] % q if rows else 1
    det = 0
    for j, x in enumerate(rows[0]):
        minor = x * _det_entries([r[:j] + r[j + 1:] for r in rows[1:]], q)
        det = det - minor if j % 2 else det + minor
    return det % q


def _entry_pool(d: int, q: int, invertible: bool) -> np.ndarray:
    """All d x d matrices over F_q in lexicographic entry order, the order
    of :func:`tessella.matrixrep._pool`, as a (d^2, size) int64 array whose
    row e holds entry e (row-major) of each: the base-q digits of 0, 1,
    ..., q^(d^2) - 1, most significant first.  With ``invertible`` only the
    columns of nonzero determinant are kept."""
    k = np.arange(q ** (d * d), dtype=np.int64)
    pool = np.empty((d * d, len(k)), dtype=np.int64)
    for e, row in enumerate(pool):
        np.floor_divide(k, q ** (d * d - 1 - e), out=row)
        row %= q
    if invertible:
        rows = [list(pool[i:i + d]) for i in range(0, d * d, d)]
        pool = pool[:, _det_entries(rows, q) != 0]
    return pool


def _inverse_entries(pool: np.ndarray, d: int, q: int) -> np.ndarray:
    """The inverses of a pool of invertible matrices, in its order: each
    adjugate, from :func:`_det_entries` cofactors, times det^(q-2) = det^-1
    (at d = 1, x^(q-2) alone; at q = 2 every det is 1)."""
    rows = [list(pool[i:i + d]) for i in range(0, d * d, d)]
    inv = base = _det_entries(rows, q)
    for bit in bin(q - 2)[3:]:  # det^(q-2), the bits after the leading 1
        inv = inv * inv % q * (base if bit == "1" else 1) % q
    return np.array([(-1) ** (i + j) * inv * _det_entries(  # cofactor C_ji
        [r[:i] + r[i + 1:] for r in rows[:j] + rows[j + 1:]], q) % q
        for i, j in _iproduct(range(d), repeat=2)])


class _Batches:
    """The batch arithmetic of one representation space.

    A batch of n matrices is a pair (entries, bound): ``entries`` lists d^2
    int64 arrays of length n, entry (i, j) of every matrix at i*d + j, and
    every entry lies in [0, bound].  Every operation below works entry by
    entry, so d = 1 is the case of one entry array.  A letter's batch is
    gathered from its pool (:meth:`_letter_pool`) at the pool indices the
    sweep hands a kernel.
    """

    def __init__(self, space: _RepSpace) -> None:
        self.space = space
        self.d = space.d
        self.q = space.q
        self._pools: dict = {}  # see _letter_pool

    def _letter_pool(self, letter) -> np.ndarray:
        """A letter's matrices as a (d^2, size) array, row e holding entry e
        of each, built once per kind of arrow and exponent: the identity
        alone for a gauge-tree arrow, :func:`_entry_pool` for an arrow's own
        letter, and those matrices' inverses for an inverse letter."""
        space, (a, e) = self.space, letter
        key = None if a in space.fixed else (space.quiver.is_localized(a), e)
        if key not in self._pools:
            self._pools[key] = (
                np.eye(self.d, dtype=np.int64).reshape(-1, 1) if key is None
                else _entry_pool(self.d, self.q, key[0]) if e == 1
                else _inverse_entries(self._letter_pool((a, 1)), self.d,
                                      self.q))
        return self._pools[key]

    def letter_values(self, idx: dict, letter) -> tuple:
        """A letter's batch, each entry array gathered at its arrow's pool
        indices, and its bound q - 1."""
        pool = self._letter_pool(letter)
        return list(pool.take(idx[letter[0]], axis=1)), self.q - 1

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
        reduced the bound is d (q-1)^2, which
        :func:`tessella.repcount._check_int64` keeps below 2^63, so at large
        q the same code reduces every time.
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
    generator.  An exhaustive sweep walks the gauge slice, each arrow's
    index the mixed-radix digit of the point's rank, and scales its sums,
    as Python integers, by ``space.gauge``."""

    def tally(idx: dict, n: int):
        return sum(kernel({a: v[lo:lo + _SLICE] for a, v in idx.items()},
                          min(_SLICE, n - lo)) for lo in range(0, n, _SLICE))

    if draws is not None:
        source = _Draws(seed)
        sizes = [min(_CHUNK, draws - lo) for lo in range(0, draws, _CHUNK)]
        return sum(tally({a: source.below(space.sizes[a], n)
                          for a in space.arrows}, n) for n in sizes)

    def block(lo: int):
        hi = min(lo + _CHUNK, space.total)
        offs = np.arange(lo, hi, dtype=np.int64)
        return tally({a: _mod(offs // space.strides[a], space.sizes[a])
                      for a in space.arrows}, hi - lo)

    sums = sum(block(lo) for lo in range(0, space.total, _CHUNK))
    return [int(t) * space.gauge for t in sums]


def _evaluate(batches: _Batches, terms: list, idx: dict, n: int,
              live=frozenset()) -> tuple:
    """Tr W mod q on a slice, and whether the cyclic derivative by each arrow
    of ``live`` vanishes there (everywhere, when ``live`` is empty).

    A term c l_0...l_{L-1} that holds a live arrow builds its suffix
    products l_{i+1}...l_{L-1} right to left, down to its first live
    occurrence; each live occurrence i adds suffix * prefix to its arrow's
    sum, where the running prefix c l_0...l_{i-1} (c alone at i = 0) ends
    as c times the full product.  A term with no live arrow is multiplied
    out for its trace alone (an empty word, a constant path of omega, is the
    identity), and a term whose coefficient is 0 mod q adds nothing, once
    its letters are read.  Omega's words may hold inverse letters; only a
    differentiated W has exponent 1 throughout (``derivatives`` refuses the
    others).  Products and sums carry bounds and are reduced mod q only
    where a bound requires it (:meth:`_Batches.mul`)."""
    values: dict = {}
    for _, cyc in terms:
        for x in cyc:
            if x not in values:
                values[x] = batches.letter_values(idx, x)
    vals = np.zeros(n, dtype=np.int64)
    grads: dict = {}
    for cm, cyc in terms:
        if not cm:
            continue
        mats = [values[x] for x in cyc]
        hot = [i for i, (a, _) in enumerate(cyc) if a in live]
        if not hot:
            vals += cm * batches.trace(reduce(batches.mul, mats or [
                batches.identity(n)]))
            continue
        suffix = [None]  # suffix[i - hot[0]] = l_{i+1} ... l_{L-1}
        for m in reversed(mats[hot[0] + 1:]):
            suffix.append(batches.mul(m, suffix[-1]))
        suffix.reverse()
        mats[0] = batches.scale(cm, mats[0])  # so every prefix holds c
        prefix = None
        for i, (a, _) in enumerate(cyc):
            if a in live:
                rest = batches.mul(suffix[i - hot[0]], prefix)
                if i == 0:  # the suffix alone, which does not hold c
                    rest = batches.scale(cm, batches.identity(n)
                                         if rest is None else rest)
                grads[a] = batches.add(grads[a], rest) if a in grads else rest
            prefix = batches.mul(prefix, mats[i])
        vals += batches.trace(prefix)
    crit = np.ones(n, dtype=bool)
    for acc in grads.values():
        for entry in acc[0]:  # entry == 0 mod q, read as _mod does
            crit &= entry == entry // batches.q * batches.q
    return _mod(vals, batches.q), crit


def tallies(space: _RepSpace, terms: list, om_terms: list | None,
            live: frozenset, draws=None, seed=None) -> list:
    """The tallies of :func:`tessella.repcount._tallies` on the sweep: the
    count's, differentiating the arrows of ``live``, or with omega's terms
    ``om_terms`` the probe's, omega's value read through :func:`_evaluate`
    (at d = 1 a trace is the value)."""
    batches = _Batches(space)

    def kernel(idx: dict, n: int) -> np.ndarray:
        vals, crit = _evaluate(batches, terms, idx, n, live)
        if om_terms is None:
            return np.append(np.bincount(vals, minlength=space.q), crit.sum())
        weights = (vals == 0).astype(np.int64) - (vals == 1).astype(np.int64)
        om, _ = _evaluate(batches, om_terms, idx, n)
        return np.array([weights.sum(), weights[om == 0].sum(),
                         weights[om != 0].sum()])

    return _sweep(space, kernel, draws, seed)
