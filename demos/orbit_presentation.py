"""From a symmetric tiling to a one-vertex algebra presentation.

The second half of the pipeline: take the order-2 symmetry of the bundled
genus-2 tiling, pick an equivariant dimer, certify a homogeneous grading,
transport the potential onto the orbit quiver, and then contract the
maximal tree to read off a three-relation group presentation, verified by
the bundled derivation script.

Run:  python3 demos/orbit_presentation.py
"""

from tessella.datafiles import load_data
from tessella.equivariant import (ChoiceSearch, all_dimers,
                                  build_orbit_quiver, equivariant_dimer,
                                  refine_tiling,
                                  tiling_automorphism_from_json,
                                  transport_potential,
                                  verify_transport_identity)
from tessella.pathalg import cyclic_derivative
from tessella.presentation import check_derivation_script, contracted_relations
from tessella.surfacemap import tiling_from_json, validate_tiling


def main() -> None:
    tiling = tiling_from_json(load_data("genus2_tiling.json"))
    taut = tiling_automorphism_from_json(
        tiling, load_data("genus2_automorphism.json"))
    tiling, taut = refine_tiling(tiling, taut)
    print(f"symmetry of order {taut.order} acting freely on "
          f"{validate_tiling(tiling)['faces']} tiles")

    tiling, taut, matching = equivariant_dimer(tiling, taut)
    duals = sorted(tiling.dual_arrow(h) for h, _ in matching)
    print(f"equivariant dimer found; dual arrows {duals} "
          f"(one of {len(all_dimers(tiling))} perfect matchings)")

    # Among the matchings that admit a homogeneous section, take the one
    # whose admissible generators come first alphabetically, so the output
    # lines up with the bundled derivation script.
    search = ChoiceSearch(tiling, taut)
    W = search.W
    _, choice = search.canonical(matching)
    print(f"homogeneous section: generators {choice.generators!r}, "
          f"base vertices {choice.bases}")

    ctx = build_orbit_quiver(search.quiver, search.phi, choice)
    tp = transport_potential(W, ctx)
    print(f"\norbit quiver: {len(ctx.quiver.arrows)} arrows "
          f"({', '.join(ctx.quiver.arrow_ids())}; r inverted)")
    print(f"transported potential W' = {tp.potential}")
    print(f"homogeneous: {tp.homogeneous}, degree {tp.degree}")

    print("\nderivatives and the boundary-transport identity:")
    for a in ctx.choice.generators:
        res = verify_transport_identity(ctx, W, tp.potential, a)
        print(f"  dW'/d{a} = {cyclic_derivative(ctx.quiver, tp.potential, a)}"
              f"   [identity: {'ok' if res.passed else 'FAIL'}]")

    script = load_data("genus2_derivation.json")
    contracted, relations = contracted_relations(
        ctx.quiver, tp.potential, script["contract"])
    print(f"\ncontracting {script['contract']} leaves "
          f"{len(contracted.vertices)} vertex, "
          f"{len(contracted.arrows)} arrows, {len(relations)} relations")
    report = check_derivation_script(relations, script, contracted)
    print(f"derivation script: {report.steps_checked}/{report.steps_total} "
          f"steps verified, ok={report.ok}")
    print("established identities (x = a^-1, y = c, z = r):")
    for name in report.established:
        lhs, rhs = report.equations[name]
        print(f"  {name}: {lhs or '1'} = {rhs or '1'}")


if __name__ == "__main__":
    main()
