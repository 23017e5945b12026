"""E8 — finite/co-finite databases (Section 4).

Claims: Df is computable from CB by the shortest-d walk (Prop 4.1);
QLf+ operations touch only the finite parts, so their cost scales with
|Df| and the stored complements, never with the infinite extent;
projection of a co-finite relation is O(1) (Prop 4.2).  Measured: Df
extraction and QLf+ program cost over a |Df| sweep.
"""

import pytest

from repro.fcf import (
    FcfDatabase,
    QLfInterpreter,
    cofinite_value,
    df_from_hsdb,
    finite_value,
)
from repro.qlhs.parser import parse_program

from conftest import report


def make_db(df_size: int) -> FcfDatabase:
    edges = [(i, i + 1) for i in range(0, df_size - 1, 2)]
    edges += [(b, a) for (a, b) in edges]
    return FcfDatabase([
        finite_value(2, edges),
        cofinite_value(1, [(i,) for i in range(0, df_size, 3)]),
    ], name=f"fcf{df_size}")


# Y2 projects the co-finite complement of R1 (rank 2): by Prop 4.2 the
# projection is the full rank-1 relation, still co-finite.
PROGRAM = parse_program("Y1 := (down(R1) & R2) ; Y2 := down(!R1)")


@pytest.mark.parametrize("df_size", [4, 8, 16, 32])
def test_e8_qlf_cost_by_df(benchmark, df_size):
    db = make_db(df_size)
    it = QLfInterpreter(db, budget=10 ** 7)

    store = benchmark(lambda: it.execute(PROGRAM))
    assert store["Y1"].is_finite
    assert store["Y2"].cofinite  # Prop 4.2: projection collapses


@pytest.mark.parametrize("df_size", [4, 8])
def test_e8_df_extraction(benchmark, df_size):
    db = make_db(df_size)
    hs = db.to_hsdb()

    recovered = benchmark(df_from_hsdb, hs)
    assert recovered == db.df


def test_e8_cofinite_projection_is_constant_time():
    """Prop 4.2: R↓ = D^{n-1} regardless of the complement's size —
    the representation never enumerates anything."""
    from repro.fcf import down
    rows = []
    for comp_size in (1, 100, 10_000):
        v = cofinite_value(2, [(i, i) for i in range(comp_size)])
        projected = down(v)
        rows.append((f"complement {comp_size}", "projected stores",
                     projected.finite_part_size(), "tuples"))
        assert projected.cofinite
        assert projected.finite_part_size() == 0
    report("E8 co-finite projection", rows)


def test_e8_membership_independent_of_element_magnitude():
    db = make_db(8)
    assert db.contains(1, (10 ** 18,))  # co-finite: one set lookup
