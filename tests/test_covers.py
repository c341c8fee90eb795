"""Refinement and dimers over every small cyclic cover of the two-square torus.

A cover whose face voltage is nonzero has faces fixed by a power of the deck
shift, with stabiliser order k = n/d up to n; these are the inputs that make
``refine_tiling`` insert centres with three or more spokes.
"""

import pytest

from conftest import SQUARE_TORUS, cyclic_cover, square_torus_covers
from tessella.equivariant import (
    MatchingStuck,
    all_dimers,
    equivariant_dimer,
    induced_quiver_automorphism,
    orbit_sizes,
    refine_tiling,
)
from tessella.surfacemap import validate_tiling


def assert_refined(tiling, taut):
    """Refine, and check the genus, the tiling axioms and free face orbits."""
    out, ext = refine_tiling(tiling, taut)
    report = validate_tiling(out)
    assert report["valid"], report["problems"]
    assert report["genus"] == validate_tiling(tiling)["genus"]
    phi = induced_quiver_automorphism(out, ext)
    sizes, free = orbit_sizes(phi.quiver, phi)
    assert free and set(sizes.values()) == {taut.order}
    return out, ext


@pytest.mark.parametrize("n, covers, matched", [(2, 14, 14), (3, 78, 24),
                                                (4, 224, 96)])
def test_every_square_torus_cover_refines_and_matches(n, covers, matched):
    """Refine stops with free face orbits on every connected cover, and the
    equivariant dimer is a perfect matching of the extended tiling or a
    documented ``MatchingStuck``."""
    seen = found = 0
    for voltages, tiling, taut in square_torus_covers(n):
        seen += 1
        out, ext = assert_refined(tiling, taut)
        try:
            extended, _, dimer = equivariant_dimer(out, ext)
        except MatchingStuck:
            continue
        assert dimer in all_dimers(extended), voltages
        found += 1
    assert (seen, found) == (covers, matched)


def test_refine_splits_faces_fixed_by_an_order_3_symmetry():
    """Edge voltages (0, 0, 0, 1) at n = 3: both lifted faces have 12
    half-edges and are fixed by the deck shift, so each takes a centre with
    three spokes and splits into three tiles."""
    tiling, taut = cyclic_cover(SQUARE_TORUS, 3, (0, 0, 0, 1), 0)
    assert [len(f) for f in tiling.map.face_cycles()] == [12, 12]
    out, ext = assert_refined(tiling, taut)
    assert [len(f) for f in out.map.face_cycles()] == [6] * 6
    assert validate_tiling(out)["genus"] == 3
