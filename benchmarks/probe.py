"""A fixed machine-speed probe, interleaved with the timed operations.

On a shared host the speed of one core drifts by up to half over tens of
seconds, and the drift moves every timing of a run together.  The probe does
a fixed mix of pure-Python word handling and small numpy batch products (the
two kinds of work tessella does) and never calls tessella.  A run reports
its times scaled by ``REFERENCE_S / median(probe times of the run)``: seconds
on a machine where the probe takes ``REFERENCE_S``.  The raw seconds and the
scale are printed alongside.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.025

_LETTERS = [(c, e) for c in "abcdefgh" for e in (1, -1)]
_WORDS = [[_LETTERS[(i * 7 + j * 3) % 16] for j in range(12)]
          for i in range(400)]
_gen = np.random.default_rng(0)
_A = _gen.integers(0, 13, size=(20000, 2, 2))
_B = _gen.integers(0, 13, size=(20000, 2, 2))
_IDX = _gen.integers(0, 20000, size=20000)


class _End:
    __slots__ = ("src", "dst")

    def __init__(self, src, dst):
        self.src, self.dst = src, dst


def _python_part() -> None:
    for _ in range(3):
        for w in _WORDS:
            letters = [(a, int(e)) for a, e in w]
            ends = [_End(a, e) for a, e in letters]
            all(ends[i].src != ends[i + 1].dst for i in range(len(ends) - 1))
            stack = []
            for x in letters:
                if stack and stack[-1][0] == x[0] and stack[-1][1] == -x[1]:
                    stack.pop()
                else:
                    stack.append(x)
            tuple(stack)


def _numpy_part() -> None:
    for _ in range(3):
        m = np.matmul(_A[_IDX], _B) % 13
        m = np.matmul(m, _A) % 13
        np.bincount(np.trace(m, axis1=1, axis2=2) % 13, minlength=13)
        (m == 0).all(axis=(1, 2)).sum()


def machine_probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    _python_part()
    _numpy_part()
    return time.perf_counter() - t0
