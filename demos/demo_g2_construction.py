"""The exceptional case: the construction for G2 in its 7-dimensional
representation.

The two invariants have orders one and five; the second one expands to 51
monomials.  The script prints the calibrated Weyl representatives, the
Liouvillian tower, both invariants, and checks the defining identity.
"""

from pvext import chevalley, construct, rootsys


def main():
    result = construct.run_pipeline("G2", 2)
    rep = result.rep
    rs = rep.rs
    print("negative roots:", [list(b.coeffs) for b in rs.neg_order])
    print("complementary indices:", list(rs.comp_roots))
    print()

    print("fixed representatives of the simple reflections:")
    for i in (1, 2):
        print("  n(w_%d):" % i)
        columns = chevalley.weyl_representative(rep, (i,))
        for r in range(rep.dim):
            print("     ", [s if row == r else 0 for row, s in columns])
    word = rootsys.longest_weyl_word(rs)
    print("longest word:", word, "(the alternating word of length 6)")
    print()

    print("solution tower (z exponentials, y nested integrals):")
    for i, z in enumerate(result.liouville.z, 1):
        print("  z_%d = %s" % (i, z.text()))
    for i, y in enumerate(result.liouville.y, 1):
        text = y.text()
        print("  y_%d = %s" % (i, text if len(text) < 100 else text[:97] + "..."))
    print()

    print("first invariant (order one):")
    print("  h[2] =", result.invariants.h[2].text())
    print()
    h6 = result.invariants.h[6]
    print("second invariant (order five, %d terms); its linear part:" % len(h6.terms))
    print("  linear part =", result.invariants.lhat[6].text())
    print("  full expansion:")
    print("  h[6] =", h6.text())
    print()

    report = construct.verify_end_to_end(result.rep, result.liouville, result.invariants)
    print("end-to-end identity d(Y) = A_G(h) Y:", report["status"])


if __name__ == "__main__":
    main()
