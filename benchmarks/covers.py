"""Seeded n-fold cyclic covers of the bundled torus tiling.

A voltage assignment v on half-edges, with v(alpha h) = -v(h), lifts a map to
its n-fold cyclic cover (Gross-Tucker, *Topological Graph Theory*, 1987):

    sigma'(h, i) = (sigma h, i)        alpha'(h, i) = (alpha h, i + v(h))

The deck shift (h, i) -> (h, i + 1) is a free Z/n symmetry of the cover and
becomes its automorphism file.  The torus edge voltages x, y, z -> (1, 0, 2)
make the cover connected for every n; the face voltage of the one-face torus
is always 0, so every cover has genus 1.  The seed only draws the half-edge
relabelling, which changes the input bytes and arrow names, not the
difficulty of the instance.
"""

from __future__ import annotations

import random

from tessella.datafiles import load_data
from tessella.surfacemap import tiling_from_json, validate_tiling

TORUS_VOLTAGES = (1, 0, 2)


def cyclic_cover(n: int, seed: int, base: dict | None = None,
                 voltages=TORUS_VOLTAGES, genus: int | None = 1
                 ) -> tuple[dict, dict]:
    """(tiling JSON, automorphism JSON) of the n-fold cover of ``base``.

    ``base`` defaults to the bundled torus tiling.  ``voltages`` gives one
    voltage per edge of ``base``, in the order of its ``involution`` list,
    oriented from the first half-edge of each pair.  The cover is checked to
    be a connected valid tiling of the given genus (``None`` skips the genus
    check); the generator never redraws on the program's output.
    """
    base = base or load_data("torus_tiling.json")
    halves = [int(h) for h in base["half_edges"]]
    alpha, volt = {}, {}
    for (h, k), v in zip(base["involution"], voltages):
        alpha[h], alpha[k] = k, h
        volt[h], volt[k] = v % n, -v % n
    ids = list(range(len(halves) * n))
    random.Random(seed).shuffle(ids)
    slot = {h: j for j, h in enumerate(halves)}

    def lift(h: int, i: int) -> int:
        return ids[slot[h] * n + i % n]

    edges = sorted({tuple(sorted((lift(h, i), lift(alpha[h], i + volt[h]))))
                    for h in halves for i in range(n)})
    rotation, coloring = [], {}
    for i in range(n):
        for c, cycle in enumerate(base["rotation"]):
            coloring[str(len(rotation))] = base["coloring"][str(c)]
            rotation.append([lift(int(h), i) for h in cycle])
    tiling = {"half_edges": sorted(ids), "involution": [list(e) for e in edges],
              "rotation": rotation, "coloring": coloring}
    automorphism = {"half_edge_perm": {str(lift(h, i)): lift(h, i + 1)
                                       for h in halves for i in range(n)},
                    "order": n}
    cover = tiling_from_json(tiling)
    report = validate_tiling(cover)
    if not report["valid"]:
        raise ValueError(f"generated cover is invalid: {report['problems']}")
    if not cover.map.is_connected():
        raise ValueError("generated cover is disconnected")
    if genus is not None and report["genus"] != genus:
        raise ValueError(f"generated cover has genus {report['genus']}, "
                         f"expected {genus}")
    return tiling, automorphism
