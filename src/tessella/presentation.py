"""Surface-group words and Dehn's algorithm.

Conventions
-----------
* Group words are tuples of ``(symbol, exp)`` letters with ``exp`` in
  ``{+1, -1}``, read in written order like path-algebra words: index 0 acts
  last.  :func:`parse_group_word` takes whitespace-separated tokens
  (``"x1 y1^-1"``), never per-character splitting, so multi-character
  generator names are safe.
* Public entries (:func:`free_reduce`, :func:`invert_letters`,
  :func:`cyclic_core`, :func:`dehn_reduce`) check a word's letters once,
  with :func:`as_group_letters`, which refuses an exponent that is not the
  ``int`` 1 or -1; internal code trusts what the letter kernel of
  :mod:`tessella.pathalg` returns and calls that kernel directly.
* :class:`SurfacePresentation` is the one-relator genus-``g`` presentation
  with generators ``x1, y1, ..., xg, yg`` and relator ``R = [x1,y1]...[xg,yg]``.
  For ``g >= 2`` it satisfies the C'(1/6) small-cancellation condition,
  so Dehn's algorithm decides the word problem: :func:`dehn_reduce`
  returns the empty word exactly for trivial elements.  Construction
  indexes the 8g rotations of R^{+-1} by their first two letters; that no
  key repeats is the structural C'(1/6) check, and it leaves
  :func:`dehn_reduce` one candidate rotation, found by one lookup, at each
  position of a word.
* The surface action, semidirect normal forms, the matrix-unit map Psi and
  the derivation scripts live in :mod:`tessella.psi`, which only the
  verifying stages import.  This module serves their public names (a module
  ``__getattr__``), so ``from tessella.presentation import psi_eval`` works
  and imports :mod:`tessella.psi` on first use.
"""

from __future__ import annotations

from typing import Sequence

from .datafiles import InputError
from .pathalg import (Word, _cancel, _invert, _rotations, _seam, _wrap_reduce,
                      parse_tokens)

Letter = tuple


class GenusTooSmall(InputError):
    """Dehn's algorithm needs a hyperbolic surface group (genus >= 2)."""


class MissingPhiAction(InputError):
    """Dehn-mode verification was requested without the surface-group action."""


# ---------------------------------------------------------------------------
# group words


def parse_group_word(s: str) -> tuple[Letter, ...]:
    """:func:`tessella.pathalg.parse_tokens`: whitespace-separated tokens,
    ``tok^-1`` inverts.  ``""`` is empty."""
    return parse_tokens(s)


def render_group_word(letters: Sequence[Letter]) -> str:
    return " ".join(f"{a}^-1" if e == -1 else f"{a}" for a, e in letters)


def as_group_letters(w) -> tuple[Letter, ...]:
    """A Word, token string, or letter iterable as a letter tuple.  An
    exponent other than the ``int`` 1 or -1, a float or a bool included, is
    an input error that names its letter."""
    if isinstance(w, Word):
        return tuple(w.letters)
    if isinstance(w, str):
        return parse_group_word(w)
    out = []
    for a, e in w:
        if type(e) is not int or e not in (1, -1):
            raise InputError(f"exponent {e!r} on {a!r}; group letters carry "
                             "the integer 1 or -1")
        out.append((a, e))
    return tuple(out)


def free_reduce(w) -> tuple[Letter, ...]:
    """Cancel adjacent inverse pairs until none remain.  Idempotent."""
    return _cancel(as_group_letters(w))


def invert_letters(w) -> tuple[Letter, ...]:
    return _invert(as_group_letters(w))


def cyclic_core(w) -> tuple[Letter, ...]:
    """Freely and cyclically reduce: strip matching conjugation collars
    (the middle of a freely reduced word stays reduced)."""
    return _wrap_reduce(free_reduce(w))


# ---------------------------------------------------------------------------
# the surface group and Dehn's algorithm


class SurfacePresentation:
    """One-relator presentation of the closed orientable genus-g surface group."""

    def __init__(self, genus: int):
        if genus != int(genus) or int(genus) < 2:
            raise GenusTooSmall(
                f"genus {genus!r}: Dehn reduction needs genus >= 2")
        self.genus = int(genus)
        gens: list[str] = []
        rel: list[Letter] = []
        for i in range(1, self.genus + 1):
            x, y = f"x{i}", f"y{i}"
            gens.extend((x, y))
            rel.extend(((x, 1), (y, 1), (x, -1), (y, -1)))
        self.generators = tuple(gens)
        self.relator = tuple(rel)
        rots: list[tuple] = []
        for base in (self.relator, _invert(self.relator)):
            rots.extend(sorted(_rotations(base)))
        self._rotations = tuple(rots)
        # A piece is a subword occurring in two distinct ways among cyclic
        # rotations of R^{+-1}.  Indexing each rotation by its first two
        # letters (its cyclic 2-letter subwords, over all rotations) finds
        # no repeated key, so pieces have length <= 1 < (1/6) * 4g: the
        # presentation is C'(1/6) and Dehn's algorithm is a decision
        # procedure.  The index gives dehn_reduce its one candidate.
        self.pair_index: dict = {}
        for rot in rots:
            if self.pair_index.setdefault(rot[:2], rot) is not rot:
                raise ValueError("relator repeats a 2-letter cyclic subword; "
                                 "the small-cancellation bound fails")
        self.piece_bound = 1

    def rotations(self) -> tuple:
        """All 8g cyclic rotations of the relator and its inverse."""
        return self._rotations

    def __repr__(self):
        return f"SurfacePresentation(genus={self.genus})"


def dehn_reduce(w, pres: SurfacePresentation) -> tuple[Letter, ...]:
    """Dehn's algorithm: freely reduce, then replace any subword matching
    more than half of a rotation of R^{+-1} by the shorter complement.

    Matches are chosen longest-first with ties to the leftmost position.
    The output is empty iff the input is trivial in the surface group.

    Each position costs one lookup: a match that can be replaced is longer
    than half = 2g >= 4 letters, and its first two letters name exactly
    one rotation (``pres.pair_index``; no 2-letter cyclic subword of
    R^{+-1} repeats), so no other rotation can match there.  The input is
    validated and freely reduced once; a replacement cancels only across
    its two seams (:func:`~tessella.pathalg._seam`).
    """
    w = free_reduce(w)
    half = 2 * pres.genus  # replacements need a match longer than |R|/2 = 2g
    index = pres.pair_index
    while True:
        n = len(w)
        best_pos, best_len, best_rot = -1, half, None
        for pos in range(n - half):
            rot = index.get(w[pos:pos + 2])
            if rot is None:
                continue
            l, m = 2, min(n - pos, len(rot))
            while l < m and w[pos + l] == rot[l]:
                l += 1
            if l > best_len:
                best_pos, best_len, best_rot = pos, l, rot
        if best_rot is None:
            return w
        out = list(w[:best_pos])
        for part in (_invert(best_rot[best_len:]), w[best_pos + best_len:]):
            k = _seam(out, part)  # each part is reduced: only its head cancels
            del out[len(out) - k:]
            out.extend(part[k:])
        w = tuple(out)



# -- the verifying code, served from tessella.psi -----------------------------

_PSI = frozenset({
    "MatrixUnitElement", "NotInTreeClosure", "PhiAction", "PsiVerifyReport",
    "RelationCheck", "ScriptReport", "SemidirectElement", "basepoint",
    "check_derivation_script", "check_phi_star", "contracted_relations",
    "default_tree", "derivation_script_from_json", "phi_action_from_json",
    "psi_assignment_from_json", "psi_eval", "psi_multiply",
    "semidirect_equal", "semidirect_inverse", "semidirect_multiply",
    "semidirect_normalize", "verify_psi_relations"})


def __getattr__(name: str):
    """The public names of :mod:`tessella.psi` (PEP 562): the first read of
    one imports that module, which only the verifying stages import, and
    binds the name here, so that later reads cost a plain attribute lookup."""
    if name in _PSI:
        from . import psi

        value = globals()[name] = getattr(psi, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
