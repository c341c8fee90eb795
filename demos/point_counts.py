"""Counting matrix solutions of the derivative relations over small fields.

Builds the counting model of the orbit presentation (generators invertible,
the degree arrow free), tabulates the fibres of the trace-of-potential
function and the size of its critical locus for one-dimensional
representations over F_2, F_3, F_5, shows a two-dimensional count, and
runs the stratified probe that compares weighted counts against the
q-scaled nilpotent stratum.

Run:  python3 demos/point_counts.py
"""

from tessella.pathalg import Element, Potential, Quiver, parse_letters
from tessella.repcount import conjecture_probe_d1, enumerate_reps


def counting_model() -> tuple:
    quiver = Quiver((1, 2),
                    [("a", 1, 1), ("b", 1, 1), ("c", 1, 2), ("d", 1, 2),
                     ("e", 1, 2), ("r", 2, 1)],
                    localized=("a", "b", "c", "d", "e"))
    W = Potential.build(quiver, [(1, "abreabre"), (2, "rdrc"),
                                 (-2, "ardbrc"), (-1, "rere")])
    return quiver, W


def main() -> None:
    quiver, W = counting_model()
    print(f"counting quiver: {len(quiver.arrows)} arrows, "
          f"localized {sorted(quiver.localized)}")
    print(f"W' = {W}\n")

    print("d = 1 (scalar representations):")
    print(f"  {'q':>3} {'points':>8} {'critical':>9}  fibres of Tr W'")
    for q in (2, 3, 5):
        rep = enumerate_reps(quiver, W, 1, q)
        hist = ", ".join(f"{v}:{n}" for v, n in sorted(rep.histogram.items()))
        print(f"  {q:>3} {rep.total:>8} {rep.critical:>9}  {hist}")

    rep = enumerate_reps(quiver, W, 2, 2)
    print(f"\nd = 2, q = 2: {rep.total} points, {rep.critical} critical "
          f"(every derivative has even coefficients, so all points are "
          f"critical mod 2)")

    omega = (Element.from_word(quiver.word(parse_letters("rere")))
             + Element.from_word(quiver.word(parse_letters("erer"))))
    probe = conjecture_probe_d1(quiver, W, omega, 3).to_json()
    print("\nstratified probe at q = 3 (weights |f^-1(0)| - |f^-1(1)|):")
    print(f"  whole space        {probe['weight_total']:>4}   vs  "
          f"q * nilpotent     {probe['nilpotent_times_q']:>4}   "
          f"match: {probe['total_matches']}")
    print(f"  invertible stratum {probe['weight_invertible']:>4}   vs  "
          f"(q-1) * nilpotent {probe['nilpotent_times_qminus1']:>4}   "
          f"match: {probe['invertible_matches']}")
    print(f"  note: {probe['note']}")


if __name__ == "__main__":
    main()
