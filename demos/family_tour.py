"""Tour the indexed families: membership, sections, decompositions.

The family literal grammar is the one the CLI uses: A:<ordinal> for a
single level, B:<ordinal> for the same system family at w^<ordinal>,
F:<ordinal> for a level of the union-built hierarchy, and the named
specimens exL, exR, ex112.
"""

from schreier import (
    Window,
    canonical_rep,
    enumerate_family,
    parse_family,
    section,
    trichotomy,
)


def show(title):
    print()
    print(f"== {title} ==")


A2 = parse_family("A:2")
Aw = parse_family("A:w")
B1 = parse_family("B:1")

show("A:2 is the two-element sets")
for s in enumerate_family(A2, Window(1, 4)):
    print(f"  {s}")

show("A:w members put their own length first")
for s in ((3, 5, 9), (2, 6), (1, 2), (4, 5, 6)):
    print(f"  {s}: {Aw.member(s)}")

show("counting B:1 on growing windows gives the Fibonacci numbers")
for hi in (5, 10, 15, 20):
    n = len(enumerate_family(B1, Window(1, hi)))
    print(f"  [1,{hi}]: {n}")

show("the section of A:w at 3 is a copy of A:2 living above 3")
for s in section(Aw, 3, Window(1, 8)):
    print(f"  3 + {s}")

show("canonical decomposition: greedy blocks, then a tail")
for raw in ((2, 3, 4, 5, 6), (3, 4), (1, 2, 5, 6)):
    rep = canonical_rep(Aw, raw)
    print(f"  {raw}: blocks {list(rep.blocks)}, tail {rep.tail},"
          f" type {rep.type}")

show("trichotomy: every nonempty set is past a member or inside one")
for raw in ((3, 5, 9, 11), (4, 7)):
    kind, witness = trichotomy(Aw, raw)
    print(f"  {raw}: {kind}" + (f" via {witness}" if witness else ""))
