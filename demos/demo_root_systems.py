"""Root systems and their canonical negative-root ordering.

Builds a few classical systems and G2, prints heights, the Cartan matrix,
the ordered negative roots with the complementary ones marked, and the
longest Weyl word together with its action on the simple roots.
"""

from pvext import chevalley, rootsys


def show(type_label, rank):
    rep = chevalley.build_rep(type_label, rank)
    rs = rep.rs
    print("=" * 60)
    print("type %s, rank %d:  %d positive roots" % (type_label, rank, rs.m))
    print("Cartan matrix:")
    for row in rs.cartan:
        print("   ", list(row))
    comp = set(rs.comp_roots)
    print("negative roots (heights non-increasing, complementary last in block):")
    for i, beta in enumerate(rs.neg_order, start=1):
        mark = "  <- complementary" if i in comp else ""
        print("  b_%-2d = %-18r height %2d%s" % (i, list(beta.coeffs), beta.height(), mark))
    word = rootsys.longest_weyl_word(rs)
    print("longest Weyl word:", word)
    act = rootsys.weyl_action(rs, word)
    for i in range(1, rs.rank + 1):
        print("  wbar(alpha_%d) = %r" % (i, list(act(rs.simple(i)).coeffs)))


if __name__ == "__main__":
    for args in [("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G2", 2)]:
        show(*args)
