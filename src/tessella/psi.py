"""The surface action, the matrix-unit map Psi and derivation scripts: the
checks that the Jacobi algebra of the orbit quiver presents the group
algebra of the mapping torus's fundamental group.

Only the verifying stages import this module: in :mod:`tessella.cli`, the
``surface_action`` stage in Dehn mode, ``psi_relations`` and
``derivation_script`` (``psi-verify``, ``check-script`` and the
pipeline).  :mod:`tessella.presentation`, which holds the group words and
Dehn's algorithm that this module builds on, serves its public names, so
``from tessella.presentation import verify_psi_relations`` works and
imports this module on first use.

Conventions
-----------
* Public entries that take group words (``PhiAction``,
  :class:`SemidirectElement`) check their letters once, through
  :func:`~tessella.presentation.free_reduce`; internal code trusts what
  the letter kernel of :mod:`tessella.pathalg` returns.
* Semidirect elements ``(w, k)`` multiply by
  ``(a, l)(b, m) = (a phi^l(b), l + m)``; negative powers wrap through
  ``phi^(order-1)``, which validation guarantees to be the inverse up to
  group equality.  A power ``k`` is an ``int``; any other value is refused.
* :func:`psi_eval` sends a word ``p: i -> j`` of the orbit quiver to the
  matrix unit ``E_{j,i}((loop, -degree p))``.  Group parts are loops at the
  basepoint written in base-quiver arrows, obtained by conjugating with the
  tree paths ``t_i``; isomorphism-arrow images carry the correction path
  ``gamma = t_{phi(bp)}`` so that every group part stays based.  Correction
  residues are face boundaries in good cases; they are erased only when the
  base potential is supplied, otherwise they stay visible in the output.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

from .datafiles import (InputError, check_object, is_id, is_int, is_letter,
                        list_of, object_of)
from .pathalg import (
    Element,
    NonComposable,
    Potential,
    Quiver,
    UnknownArrow,
    Word,
    _Forest,
    _cancel,
    _idkey,
    _invert,
    _rotations,
    _wrap_reduce,
    derivatives,
    jacobi_relations,
    normalize,
    word_product,
)
from .presentation import (
    Letter,
    MissingPhiAction,
    SurfacePresentation,
    as_group_letters,
    dehn_reduce,
    free_reduce,
    parse_group_word,
    render_group_word,
)


class NotInTreeClosure(InputError, KeyError):
    """A tree path t_v was needed for a vertex the tree does not reach."""


# ---------------------------------------------------------------------------
# the surface action


class PhiAction:
    """The automorphism induced on the surface-group generators.

    ``mapping`` sends each generator to a word; validation refuses an
    ``order`` above 4g + 2 (Wiman's bound), then checks that the relator
    maps to a trivial word and that the ``order``-th power fixes every
    generator in the group.  ``relator_conjugate`` records whether
    the relator image is even a free-group conjugate of a relator rotation
    (a stronger certificate that holds for some configurations only).
    """

    def __init__(self, pres: SurfacePresentation, mapping: Mapping, order: int):
        self.pres = pres
        self.order = int(order)
        if self.order < 1:
            raise InputError(f"order must be a positive integer, got {order!r}")
        # Wiman: a periodic mapping class of genus g >= 2 has order at most
        # 4g + 2; refused before any power of phi_star is taken
        if self.order > 4 * pres.genus + 2:
            raise InputError(
                f"phi_star field 'order' must be at most 4g+2 = "
                f"{4 * pres.genus + 2} at genus {pres.genus}, got {self.order}")
        known = set(pres.generators)
        extra = sorted(set(mapping) - known)
        if extra:
            raise InputError(f"phi_star maps unknown generators {extra}")
        images = {}
        for g in pres.generators:
            if g not in mapping:
                raise InputError(f"phi_star must map every generator; {g!r} missing")
            img = free_reduce(mapping[g])
            bad = sorted({a for a, _ in img} - known)
            if bad:
                raise InputError(f"phi_star({g!r}) uses unknown generators {bad}")
            images[g] = img
        self.mapping = images
        image = self._apply_once(pres.relator)
        if dehn_reduce(image, pres):
            raise InputError("phi_star does not kill the surface relator")
        for g in pres.generators:
            w = self._power(((g, 1),), self.order)
            if dehn_reduce(w + ((g, -1),), pres):
                raise InputError(
                    f"phi^{self.order} does not fix {g!r} in the group")
        self.relator_conjugate = _wrap_reduce(image) in set(pres.rotations())

    def _apply_once(self, letters: tuple) -> tuple:
        out: list[Letter] = []
        for a, e in letters:
            img = self.mapping[a]
            out.extend(img if e == 1 else _invert(img))
        return _cancel(out)

    def _power(self, letters: tuple, k: int) -> tuple:
        """k applications of phi_star, each Dehn-reduced.  Once phi_star
        kills the relator it acts on the group, so reducing between
        applications is sound; free reduction alone lets the words grow
        exponentially."""
        for _ in range(k):
            letters = dehn_reduce(self._apply_once(letters), self.pres)
        return letters

    def apply(self, w, k: int = 1) -> tuple[Letter, ...]:
        """phi^k of a word, Dehn-reduced after each application.  Negative
        k wraps modulo the order: phi^order acts as the group identity, so
        phi^-1 may be computed as phi^(order-1)."""
        return self._power(free_reduce(w), k % self.order)

    def __repr__(self):
        return f"PhiAction(genus={self.pres.genus}, order={self.order})"


_PHI_STAR_FIELDS = (
    ("genus", "an integer", is_int),
    ("order", "an integer", is_int),
    ("phi_star", "an object of group-word strings",
     object_of(lambda w: isinstance(w, str))),
    ("psi_assignment", "an object of [group-word string, integer] pairs",
     object_of(lambda p: isinstance(p, list) and len(p) == 2
               and isinstance(p[0], str) and is_int(p[1]))),
)


def check_phi_star(obj) -> None:
    """Checks the shape of a surface-action file: {"genus", "order",
    "phi_star": {gen: word}} and an optional ``psi_assignment`` table
    ({arrow: [word, k]}, read by :func:`psi_assignment_from_json`)."""
    check_object(obj, "phi_star", _PHI_STAR_FIELDS,
                 optional=("psi_assignment",))


def phi_action_from_json(obj: Mapping) -> PhiAction:
    """Build from a surface-action file, after :func:`check_phi_star`."""
    check_phi_star(obj)
    pres = SurfacePresentation(obj["genus"])
    mapping = {g: parse_group_word(w) for g, w in obj["phi_star"].items()}
    return PhiAction(pres, mapping, obj["order"])


# ---------------------------------------------------------------------------
# semidirect normal forms


class SemidirectElement(namedtuple("SemidirectElement", "word k")):
    """A group element ``(w, k)`` of the semidirect product with the integers.

    ``word`` is stored freely reduced; the library operations additionally
    Dehn-reduce, so elements they return are in (one) reduced form.  Equality
    of group elements is decided by :func:`semidirect_equal`, not ``==``.

    An immutable tuple ``(word, k)``: ``==``, ``<`` and ``hash`` are the
    tuple's, so an element equals a plain tuple with the same entries.
    ``_make`` and ``_replace`` skip the normalisation and the checks of both
    fields.
    """

    __slots__ = ()

    def __new__(cls, word: tuple = (), k: int = 0):
        if not is_int(k):
            raise InputError(f"semidirect power {k!r} is not an integer")
        return super().__new__(cls, free_reduce(word), k)

    def __str__(self):
        return f"([{render_group_word(self.word) or '1'}], {self.k})"


def semidirect_normalize(x: SemidirectElement, phi: PhiAction) -> SemidirectElement:
    return SemidirectElement(dehn_reduce(x.word, phi.pres), x.k)


def semidirect_multiply(x: SemidirectElement, y: SemidirectElement,
                        phi: PhiAction) -> SemidirectElement:
    """(a, l) (b, m) = (a phi^l(b), l + m), Dehn-reduced."""
    word = dehn_reduce(x.word + phi.apply(y.word, x.k), phi.pres)
    return SemidirectElement(word, x.k + y.k)


def semidirect_inverse(x: SemidirectElement, phi: PhiAction) -> SemidirectElement:
    word = dehn_reduce(phi.apply(_invert(x.word), -x.k), phi.pres)
    return SemidirectElement(word, -x.k)


def semidirect_equal(x: SemidirectElement, y: SemidirectElement,
                     phi: PhiAction) -> bool:
    """Group equality: equal integer parts and a trivial word quotient."""
    return x.k == y.k and not dehn_reduce(
        x.word + _invert(y.word), phi.pres)


class MatrixUnitElement(namedtuple("MatrixUnitElement", "row col elem coeff")):
    """E_{row,col}(coeff * elem): one nonzero entry over the group algebra.

    An immutable tuple ``(row, col, elem, coeff)`` with the tuple's ``==``,
    ``<`` and ``hash``; ``_make`` and ``_replace`` skip the ``Fraction``
    conversion of ``coeff``.
    """

    __slots__ = ()

    def __new__(cls, row, col, elem: SemidirectElement, coeff=1):
        return super().__new__(cls, row, col, elem, Fraction(coeff))

    def __str__(self):
        c = "" if self.coeff == 1 else f"{self.coeff} * "
        return f"E_[{self.row},{self.col}]({c}{self.elem})"


# ---------------------------------------------------------------------------
# the matrix-unit evaluation map on the orbit quiver


def basepoint(ctx):
    """Lowest-id vertex incident to an isomorphism arrow; with no iso arrows
    (trivial action) the lowest-id vertex serves."""
    iso = ctx.iso_arrows()
    if iso:
        verts = {ctx.quiver.source(r) for r in iso}
        verts |= {ctx.quiver.target(r) for r in iso}
        return min(verts, key=_idkey)
    return min(ctx.base.vertices, key=_idkey)


def default_tree(ctx) -> tuple:
    """Greedy lowest-id maximal forest of degree-0 base arrows."""
    forest = _Forest(ctx.base)
    return tuple(a for a in ctx.base.arrow_ids()
                 if ctx.arrow_degree(a) == 0 and forest.join(a))


def _tree_paths(ctx, tree: tuple) -> dict:
    """t_v for every vertex the tree reaches from the basepoint.

    Paths are written-order base-arrow words from the basepoint to v;
    traversing a tree arrow against its orientation contributes an inverse
    letter.
    """
    forest = _Forest(ctx.base)
    for t in tree:
        if not ctx.base.has_arrow(t):
            raise UnknownArrow(t)
        if ctx.arrow_degree(t) != 0:
            raise InputError(
                f"tree arrow {t!r} has transport degree {ctx.arrow_degree(t)}; "
                "tree arrows must embed with degree 0")
        if not forest.join(t):
            raise InputError(f"tree arrows close a cycle at {t!r}")

    paths = {basepoint(ctx): ()}
    changed = True
    while changed:
        changed = False
        for t in tree:
            u, v = ctx.base.source(t), ctx.base.target(t)
            if u in paths and v not in paths:
                paths[v] = ((t, 1),) + paths[u]
                changed = True
            elif v in paths and u not in paths:
                paths[u] = ((t, -1),) + paths[v]
                changed = True
    return paths


def _tree_path(paths: dict, v):
    try:
        return paths[v]
    except KeyError:
        raise NotInTreeClosure(
            f"vertex {v!r} is not joined to the basepoint by the tree") from None


def _phi_letters(ctx, letters, k: int) -> tuple:
    """Letterwise base-automorphism power on arrow letters (no basing)."""
    k %= ctx.phi.order
    return tuple((ctx.phi.apply_arrow(a, k), e) for a, e in letters)


def _twist_factory(ctx, gamma):
    """The based action phi_*^k on loops: conjugate by the correction path
    gamma = t_{phi(bp)} (and its phi-preimage for negative powers).  gamma
    may be None when the tree does not reach phi(bp); only untwisted (k = 0)
    transport is possible then."""
    if gamma is not None:
        back = _phi_letters(ctx, gamma, -1)
        # step -> the letters written left and right of phi^step(loop)
        collars = {1: (_invert(gamma), gamma), -1: (back, _invert(back))}

    def act(letters, k: int) -> tuple:
        if k != 0 and gamma is None:
            raise NotInTreeClosure(
                "the tree does not reach the basepoint image, so twisted "
                "transport is undefined")
        step = 1 if k > 0 else -1
        for _ in range(abs(k)):
            left, right = collars[step]
            letters = _cancel(left + _phi_letters(ctx, letters, step) + right)
        return _cancel(letters)

    return act


def _face_rotations(W: Optional[Potential]) -> frozenset:
    if W is None:
        return frozenset()
    rots: set = set()
    for _, cyc in W.terms():
        rots.update(_rotations(cyc), _rotations(_invert(cyc)))
    return frozenset(rots)


def _erase_faces(letters: tuple, rots: frozenset) -> tuple:
    """Delete contiguous face-boundary occurrences (they bound disks, so the
    loop class is unchanged); repeat until stable."""
    w = _cancel(letters)
    if not rots:
        return w
    lens = sorted({len(r) for r in rots})
    while w:  # the shortest face first, then the leftmost occurrence
        hit = next(((i, L) for L in lens for i in range(len(w) - L + 1)
                    if w[i:i + L] in rots), None)
        if hit is None:
            break
        i, L = hit
        w = _cancel(w[:i] + w[i + L:])
    return w


def _letter_image(ctx, paths, gamma, act, a, e):
    """The matrix-unit image of one orbit-quiver letter: (group word, k)."""
    if not ctx.quiver.is_localized(a):
        src, tgt = ctx.quiver.source(a), ctx.quiver.target(a)
        loop = (_invert(_tree_path(paths, tgt)) + ((a, 1),)
                + _tree_path(paths, src))
        return _cancel(loop if e == 1 else _invert(loop)), 0
    # isomorphism arrow x -> phi(x): integer part -1; the phi-preimage of
    # gamma closes the correction path bp -> phi^-1(bp) into a based loop
    if gamma is None:
        raise NotInTreeClosure(
            "the tree does not reach the basepoint image, which the "
            "isomorphism-arrow image needs")
    src, tgt = ctx.quiver.source(a), ctx.quiver.target(a)
    loop = (_phi_letters(ctx, gamma, -1)
            + _phi_letters(ctx, _invert(_tree_path(paths, tgt)), -1)
            + _tree_path(paths, src))
    if e == 1:
        return _cancel(loop), -1
    return act(_invert(loop), 1), 1


def _psi_setup(ctx, tree, base_potential: Optional[Potential]):
    """Tree paths, the correction path gamma, the twist phi_*^k and the face
    rotations that psi_eval and psi_multiply share."""
    tree = default_tree(ctx) if tree is None else tuple(tree)
    paths = _tree_paths(ctx, tree)
    gamma = paths.get(ctx.phi.apply_vertex(basepoint(ctx)))
    return paths, gamma, _twist_factory(ctx, gamma), _face_rotations(base_potential)


def psi_eval(w, ctx, tree=None, base_potential: Optional[Potential] = None
             ) -> MatrixUnitElement:
    """Evaluate the matrix-unit map on a word of the orbit quiver.

    A word ``p: i -> j`` maps to ``E_{j,i}((loop, -degree p))``.  With
    ``base_potential`` supplied, face-boundary subwords of the group part
    (disk-bounding loops, e.g. the literal correction residues) are erased;
    without it they are surfaced verbatim.
    """
    if isinstance(w, str):
        w = normalize(ctx.quiver, parse_group_word(w))
    if not isinstance(w, Word):
        raise TypeError(f"psi_eval needs a Word of the orbit quiver, got {w!r}")
    paths, gamma, act, rots = _psi_setup(ctx, tree, base_potential)

    word: tuple = ()
    k = 0
    for a, e in w.letters:
        if not ctx.quiver.has_arrow(a):
            raise UnknownArrow(a)
        img_w, img_k = _letter_image(ctx, paths, gamma, act, a, e)
        word = _cancel(word + act(img_w, k))
        k += img_k
    word = _erase_faces(word, rots)
    return MatrixUnitElement(w.target, w.source, SemidirectElement(word, k))


def psi_multiply(x: MatrixUnitElement, y: MatrixUnitElement, ctx, tree=None,
                 base_potential: Optional[Potential] = None) -> MatrixUnitElement:
    """Matrix-unit product with the same quiver-level twist as psi_eval."""
    if x.col != y.row:
        raise NonComposable(
            f"E_[{x.row},{x.col}] cannot multiply E_[{y.row},{y.col}]")
    _, _, act, rots = _psi_setup(ctx, tree, base_potential)
    word = _erase_faces(x.elem.word + act(y.elem.word, x.elem.k), rots)
    return MatrixUnitElement(x.row, y.col,
                             SemidirectElement(word, x.elem.k + y.elem.k),
                             x.coeff * y.coeff)


# ---------------------------------------------------------------------------
# relation verification


class RelationCheck(NamedTuple):
    arrow: object
    ok: bool
    degree_ok: bool
    group_ok: bool
    method: str
    witness: Optional[str] = None


class PsiVerifyReport(NamedTuple):
    mode: str
    ok: bool
    checks: tuple

    def to_json(self) -> dict:
        return {**self._asdict(), "checks": [
            {**c._asdict(), "arrow": str(c.arrow)} for c in self.checks]}


def _binomial(el: Element):
    """Split c*p - c*q into (p, q); None when not of that shape."""
    words = el.words()
    if len(words) != 2:
        return None
    w0, w1 = words
    if el.coeffs[w0] + el.coeffs[w1] != 0:
        return None
    return (w0, w1) if el.coeffs[w0] > 0 else (w1, w0)


def _face_certificate(loop: tuple, rots: frozenset) -> Optional[str]:
    """Write a loop as a conjugate of a face boundary, or as a face boundary
    times such a conjugate (disk-bounding, hence trivial); None if neither.

    For a binomial derivative p - q of W by a, p.a and q.a are rotations of
    W's cycles, so p q^-1 is two face boundaries joined with no conjugator:
    the first factor needs none, and none is tried.
    """
    loop = _cancel(loop)
    if not loop:
        return "free-cancellation"
    if _wrap_reduce(loop) in rots:
        return "face-boundary"
    for rot in rots:
        # first factor rot^-1 (rots is inverse-closed); the rest must itself
        # be a conjugate of a face boundary
        beta = _cancel(rot + loop)
        if not beta:
            return "face-boundary"
        if _wrap_reduce(beta) in rots:
            return "face-boundary-pair"
    return None


def _psi_assignment_table(ctx, phi: PhiAction, assignment) -> dict:
    if assignment is None:
        raise InputError("Dehn mode needs an assignment mapping every orbit "
                         "arrow to its (loop word, integer part) image")
    table = {}
    known = set(phi.pres.generators)
    for a in ctx.quiver.arrow_ids():
        if a not in assignment:
            raise InputError(f"assignment is missing arrow {a!r}")
        word, k = assignment[a]
        el = SemidirectElement(word, k)
        expected = -1 if ctx.quiver.is_localized(a) else 0
        if el.k != expected:
            raise InputError(
                f"assignment for {a!r} has integer part {el.k}; the grading "
                f"forces {expected}")
        bad = sorted({s for s, _ in el.word} - known)
        if bad:
            raise InputError(f"assignment for {a!r} uses unknown generators {bad}")
        table[a] = semidirect_normalize(el, phi)
    extras = sorted(set(assignment) - set(ctx.quiver.arrow_ids()), key=_idkey)
    if extras:
        raise InputError(f"assignment names unknown arrows {extras}")
    return table


def _assigned_image(word: Word, table: dict, phi: PhiAction) -> SemidirectElement:
    acc = SemidirectElement((), 0)
    for a, e in word.letters:
        el = table[a] if e == 1 else semidirect_inverse(table[a], phi)
        acc = semidirect_multiply(acc, el, phi)
    return acc


def verify_psi_relations(ctx, W: Potential, mode: str = "certificate",
                         phi: Optional[PhiAction] = None, assignment=None
                         ) -> PsiVerifyReport:
    """Check that both sides of every derivative relation share a matrix-unit
    image.

    Each cyclic derivative by a generating arrow must be a difference
    ``p - q`` of parallel paths; the two sides agree iff (i) their transport
    degrees match and (ii) the loop ``p q^-1`` is trivial on the surface.
    Certificate mode, which needs no surface-group input, checks the shape
    and (i); on a binomial derivative ``p.a`` and ``q.a`` are rotations of
    W's cycles, so ``p q^-1`` is always two face boundaries with the empty
    conjugator.  Dehn mode decides (ii) on the surface, with Dehn's algorithm
    in the semidirect group, from an arrow assignment and a surface action.
    """
    if mode not in ("certificate", "dehn"):
        raise InputError(f"unknown mode {mode!r}")
    table = None
    rots: frozenset = frozenset()
    if mode == "dehn":
        if phi is None:
            raise MissingPhiAction(
                "Dehn-mode verification needs the induced surface-group "
                "action; pass phi (and an arrow assignment)")
        table = _psi_assignment_table(ctx, phi, assignment)
    else:
        rots = _face_rotations(W)
    checks = []
    derivs = derivatives(ctx.quiver, W)
    for a in ctx.quiver.arrow_ids():
        if ctx.quiver.is_localized(a):
            continue  # derivatives by iso arrows are not needed for the map
        el = derivs[a]
        if el.is_zero():
            checks.append(RelationCheck(a, True, True, True, "zero-derivative"))
            continue
        split = _binomial(el)
        if split is None:
            checks.append(RelationCheck(
                a, False, False, False, "not-binomial",
                witness=f"derivative has {len(el.words())} distinct paths"))
            continue
        p, q = split
        dp, dq = ctx.word_degree(p), ctx.word_degree(q)
        if dp != dq:
            checks.append(RelationCheck(
                a, False, False, False, "degree",
                witness=f"deg({p}) = {dp} but deg({q}) = {dq}"))
            continue
        if mode == "certificate":
            loop = _cancel(p.letters + _invert(q.letters))
            method = _face_certificate(loop, rots)
            if method is not None:
                checks.append(RelationCheck(a, True, True, True, method))
            else:
                checks.append(RelationCheck(
                    a, False, True, False, "no-certificate",
                    witness=f"residual loop [{render_group_word(loop)}] not "
                            "matched by <= 2 face-boundary conjugates"))
        else:
            xp = _assigned_image(p, table, phi)
            xq = _assigned_image(q, table, phi)
            if semidirect_equal(xp, xq, phi):
                checks.append(RelationCheck(a, True, True, True, "dehn"))
            else:
                checks.append(RelationCheck(
                    a, False, True, False, "dehn",
                    witness=f"{xp} != {xq}"))
    return PsiVerifyReport(mode, all(c.ok for c in checks), tuple(checks))


def psi_assignment_from_json(obj: Mapping) -> dict:
    """Config shape {arrow: [word, k]} -> {arrow: (letters, k)}."""
    return {a: (parse_group_word(w), k) for a, (w, k) in obj.items()}


# ---------------------------------------------------------------------------
# derivation scripts


def _contract_quiver(quiver: Quiver, arrows) -> tuple[Quiver, dict]:
    arrows = tuple(arrows)
    for t in arrows:
        if not quiver.has_arrow(t):
            raise UnknownArrow(t)
    forest = _Forest(quiver)
    for t in arrows:
        forest.join(t)
    named: dict = {}
    for v in sorted(quiver.vertices, key=_idkey):
        named.setdefault(forest.find(v), v)
    vmap = {v: named[forest.find(v)] for v in quiver.vertices}
    drop = set(arrows)
    kept = [(a, vmap[quiver.source(a)], vmap[quiver.target(a)])
            for a in quiver.arrow_ids() if a not in drop]
    out = Quiver(sorted(set(vmap.values()), key=_idkey), kept,
                 localized=[a for a, _, _ in kept])
    return out, vmap


def contracted_relations(quiver: Quiver, W: Potential,
                         contract=()) -> tuple[Quiver, list[Element]]:
    """Cyclic-derivative relations with the given unit arrows set to 1.

    The contracted arrows are removed and their endpoints merged; every
    surviving arrow is localized, because the derivation calculus multiplies
    both sides of equations by inverse letters freely.  Relation order is the
    cyclic-derivative order (sorted non-localized arrows).
    """
    q2, vmap = _contract_quiver(quiver, contract)
    drop = set(contract)
    out = []
    for el in jacobi_relations(quiver, W):
        pairs = []
        for word, c in el.coeffs.items():
            letters = tuple(l for l in word.letters if l[0] not in drop)
            at = vmap[word.source] if not letters else None
            pairs.append((normalize(q2, letters, at=at), c))
        out.append(Element(pairs))
    return q2, out


class ScriptReport(NamedTuple):
    ok: bool
    steps_total: int
    steps_checked: int
    failed_step: Optional[int]
    reason: Optional[str]
    established: tuple
    equations: dict

    def to_json(self) -> dict:
        return self._asdict()


def _script_word(quiver: Quiver, s) -> Word:
    if isinstance(s, Word):
        return s
    letters = parse_group_word(s) if isinstance(s, str) else as_group_letters(s)
    if letters:
        return normalize(quiver, letters)
    if len(quiver.vertices) == 1:
        return normalize(quiver, (), at=quiver.vertices[0])
    raise InputError("an empty word side needs a one-vertex quiver")


def _as_equation(rel, quiver: Quiver, label: str) -> tuple[Word, Word]:
    if isinstance(rel, Element):
        split = _binomial(rel)
        if split is None:
            raise InputError(f"{label} is not a difference of two paths")
        return split
    lhs, rhs = rel
    return _script_word(quiver, lhs), _script_word(quiver, rhs)


def _eq_key(eq: tuple[Word, Word]):
    a, b = sorted(eq, key=Word.sort_key)
    return (a.source, a.target, a.letters, b.source, b.target, b.letters)


def _is_script_word(w) -> bool:
    """A token string or a list of [arrow id, +-1] pairs."""
    return isinstance(w, str) or list_of(
        lambda x: is_letter(x) and x[1] in (1, -1))(w)


def _is_step(step) -> bool:
    if not isinstance(step, dict):
        return False
    move, target = step.get("move"), step.get("target")
    return ("from" in step and isinstance(move, dict)
            and all(is_int(move[k]) for k in ("relation", "step") if k in move)
            and _is_script_word(move.get("word", ""))
            and isinstance(target, list) and len(target) == 2
            and all(map(_is_script_word, target))
            and isinstance(step.get("establishes", ""), str))


_SCRIPT_FIELDS = (
    ("steps", "a list of step objects with a 'from', a 'move' object (integer "
              "'relation' and 'step', a word 'word', where given), a 'target' "
              "list of two words and an optional string 'establishes'",
     list_of(_is_step)),
    ("contract", "a list of arrow ids", list_of(is_id)),
)


def derivation_script_from_json(obj) -> dict:
    """A derivation script file, after a check of its shape: a list of
    steps, or an object holding them under ``steps`` and, optionally, the
    arrows to contract under ``contract``.  Returns the object form."""
    script = {"steps": obj} if isinstance(obj, list) else obj
    check_object(script, "derivation script", _SCRIPT_FIELDS,
                 optional=("contract",))
    return script


def check_derivation_script(relations, script, quiver: Quiver) -> ScriptReport:
    """Mechanically verify a derivation script against input relations.

    ``relations`` are binomial elements of the localized algebra over
    ``quiver``, or explicit word pairs.  ``script`` is a derivation script
    as :func:`derivation_script_from_json` reads it.  A step has keys
    ``from`` (``"rel:k"`` or ``"step:j"``, 1-based), ``move`` and ``target``
    (``[lhs, rhs]`` token strings), plus an optional ``establishes`` name.
    Moves:

    * ``{"kind": "cancel"}`` — restate the source equation (normal forms are
      cancellation-free already; this introduces relations into the chain);
    * ``{"kind": "multiply", "word": u, "side": "left"|"right"}`` — multiply
      both sides by the unit word ``u``;
    * ``{"kind": "substitute", "relation": k, "pattern": "lhs"|"rhs"}`` —
      replace one occurrence of the named side of input relation ``k`` by its
      other side;
    * ``{"kind": "rewrite", "step": j, "pattern": "lhs"|"rhs"}`` — the same
      with a previously derived identity.

    Each step's declared move must produce its target equation exactly, up
    to swapping the two sides; checking stops at the first unverifiable
    step.  The report lists the identities the verified steps establish.
    The checker verifies; it does not search for derivations.
    """
    steps = derivation_script_from_json(script)["steps"]
    rel_eqs = [_as_equation(rel, quiver, f"relation {i}")
               for i, rel in enumerate(relations, start=1)]

    derived: list[tuple[Word, Word]] = []
    established: list = []
    equations: dict = {}

    def fail(idx: int, reason: str) -> ScriptReport:
        return ScriptReport(False, len(steps), idx - 1, idx, reason,
                            tuple(established), dict(equations))

    for idx, raw in enumerate(steps, start=1):
        ref = str(raw["from"])
        kind, _, num = ref.partition(":")
        try:
            n = int(num)
        except ValueError:
            return fail(idx, f"malformed source reference {ref!r}")
        if kind == "rel" and 1 <= n <= len(rel_eqs):
            src = rel_eqs[n - 1]
        elif kind == "step" and 1 <= n < idx:
            src = derived[n - 1]
        else:
            return fail(idx, f"source reference {ref!r} is out of range")

        move = raw["move"]
        mk = move.get("kind")
        candidates: list[tuple[Word, Word]] = []
        if mk == "cancel":
            candidates = [src]
        elif mk == "multiply":
            side = move.get("side")
            if side not in ("left", "right"):
                return fail(idx, f"multiply needs side left/right, got {side!r}")
            try:
                u = _script_word(quiver, move["word"])
            except (KeyError, ValueError) as exc:
                return fail(idx, f"bad multiplier word: {exc}")
            bad = sorted({a for a, _ in u.letters
                          if not quiver.is_localized(a)}, key=_idkey)
            if bad:
                return fail(idx, f"multiplier is not a unit word: {bad}")
            try:
                candidates = [tuple(word_product(quiver, u, x) if side == "left"
                                    else word_product(quiver, x, u) for x in src)]
            except NonComposable as exc:
                return fail(idx, f"multiplication does not compose: {exc}")
        elif mk in ("substitute", "rewrite"):
            if mk == "substitute":
                k = int(move.get("relation", 0))
                if not 1 <= k <= len(rel_eqs):
                    return fail(idx, f"substitute cites relation {k}, "
                                     f"which does not exist")
                cited = rel_eqs[k - 1]
            else:
                j = int(move.get("step", 0))
                if not 1 <= j < idx:
                    return fail(idx, f"rewrite cites step {j}, which is not "
                                     "an earlier verified step")
                cited = derived[j - 1]
            pattern = move.get("pattern", "lhs")
            if pattern not in ("lhs", "rhs"):
                return fail(idx, f"pattern must be lhs or rhs, got {pattern!r}")
            P, O = cited if pattern == "lhs" else cited[::-1]
            if not P.letters:
                return fail(idx, "the cited pattern side is a constant word")
            width = len(P.letters)
            for side in (0, 1):
                w = src[side]
                for pos in range(len(w.letters) - width + 1):
                    if w.letters[pos:pos + width] != P.letters:
                        continue
                    prefix = Word(P.target, w.target, w.letters[:pos])
                    suffix = Word(w.source, P.source, w.letters[pos + width:])
                    try:
                        w_new = word_product(quiver, prefix, O, suffix)
                    except NonComposable:
                        continue
                    eq = list(src)
                    eq[side] = w_new
                    candidates.append((eq[0], eq[1]))
            if not candidates:
                return fail(idx, "the cited pattern occurs nowhere in the "
                                 "source equation")
        else:
            return fail(idx, f"unknown move kind {mk!r}")

        try:
            target = (_script_word(quiver, raw["target"][0]),
                      _script_word(quiver, raw["target"][1]))
        except (ValueError, IndexError) as exc:
            return fail(idx, f"malformed target: {exc}")
        if _eq_key(target) not in {_eq_key(c) for c in candidates}:
            return fail(idx, "the declared move does not produce the target "
                             "equation")
        derived.append(target)
        name = raw.get("establishes")
        if name:
            established.append(name)
            equations[name] = (render_group_word(target[0].letters),
                               render_group_word(target[1].letters))

    return ScriptReport(True, len(steps), len(steps), None, None,
                        tuple(established), dict(equations))
