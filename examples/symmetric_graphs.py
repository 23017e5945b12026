"""Highly symmetric databases: finite representations of infinite graphs.

The infinite graph "countably many disjoint triangles plus countably
many disjoint single edges" is highly symmetric: it has finitely many
tuple-equivalence classes per rank (Section 3).  Its entire structure is
captured by the CB representation — a characteristic tree, an
equivalence oracle, and finitely many representatives — over which the
complete language QLhs computes.

The script shows the representation, the Vⁿᵣ refinement converging to
tuple equivalence (Proposition 3.6), QLhs programs running on class
representatives, and a counter machine executing *inside* QLhs
(the Turing-power step of Theorem 3.1).

Run:  python examples/symmetric_graphs.py
"""

from repro.graphs import mixed_components_hsdb
from repro.machines.counter import multiplication_machine
from repro.qlhs import QLhsInterpreter, parse_program, run_compiled
from repro.symmetric import refinement_trace, stable_partition


def main() -> None:
    cu = mixed_components_hsdb()
    print("Database:", cu)
    print("Classes per rank (|T^n|):",
          [cu.class_count(n) for n in range(4)])

    print("\nCharacteristic tree, levels 0-2:")
    for n in range(3):
        for path in cu.tree.level(n):
            print("  " + "  " * n, path)

    print("\nMembership reconstructed from the finite representation:")
    print("  edge within a far-away triangle copy:",
          cu.contains(0, ((0, 10 ** 6, 0), (0, 10 ** 6, 1))))
    print("  edge across copies:",
          cu.contains(0, ((0, 0, 0), (0, 1, 0))))

    print("\nV^1_r refinement (block counts until = |T^1|):",
          refinement_trace(cu, 1))
    __, r_star = stable_partition(cu, 1)
    print("Proposition 3.6 radius r* for rank 1:", r_star)
    print("  (local types cannot tell a triangle node from an edge node;")
    print("   two rounds of neighbourhood refinement can)")

    print("\nQLhs programs on representatives:")
    it = QLhsInterpreter(cu, budget=10_000_000)
    for text in ["Y1 := R1",
                 "Y1 := down(R1)",
                 "Y1 := R1 & swap(R1)",
                 "Y1 := !R1"]:
        v = it.run(parse_program(text))
        print(f"  {text:28s} -> rank {v.rank}, {len(v)} class(es)")

    concrete = it.tuples_of(it.run(parse_program("Y1 := R1")), window=12)
    print("  concrete witnesses of R1's classes:", sorted(concrete))

    print("\nA counter machine compiled into core QLhs (Theorem 3.1):")
    result = run_compiled(multiplication_machine(), [3, 4],
                          QLhsInterpreter(cu, budget=100_000_000))
    print("  3 * 4 computed by ranks:", result[0])


if __name__ == "__main__":
    main()
