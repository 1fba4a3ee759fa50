"""Gauge normalization of plane matrices to the generic shape.

Starts with the 2x2 case, where normalizing [[x, 1], [0, -x]] is the
classical reduction to a Riccati right-hand side, then normalizes a rank-3
matrix with polynomial entries and cross-checks the result against the
invariants of the full construction.
"""

from pvext import chevalley, construct, gauge, linalg
from pvext.diffpoly import DiffPoly, parse


def main():
    rep = chevalley.build_rep("A", 1)
    a = [[parse("n1"), parse("1")], [parse("0"), parse("0 - n1")]]
    print("2x2 plane matrix:")
    for row in a:
        print("   ", [x.text() for x in row])
    g, word, f = gauge.normalize_to_AG(rep, a)
    print("transforming element u:")
    for row in g:
        print("   ", [x.text() for x in row])
    print("normalized coefficient f_1 =", f[1].text(), " (the Riccati right-hand side)")
    print()

    rep3 = chevalley.build_rep("A", 3)
    a = [
        [x if isinstance(x, DiffPoly) else DiffPoly.rational(x) for x in row]
        for row in rep3.a0_plus()
    ]
    for i in range(3):
        a = linalg.mat_add(
            a, [[DiffPoly.eta(i + 1) * x for x in row] for row in rep3.H[i]]
        )
    print("rank-3 matrix A_0^+ + eta_1 H_1 + eta_2 H_2 + eta_3 H_3; normalizing...")
    g, word, f = gauge.normalize_to_AG(rep3, a)
    for j, fj in sorted(f.items()):
        print("  f[%d] = %s" % (j, fj.text()))

    result = construct.run_pipeline("A", 3)
    print("equal to the construction's invariants:", f == result.invariants.h)


if __name__ == "__main__":
    main()
