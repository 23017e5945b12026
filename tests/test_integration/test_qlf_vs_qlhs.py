"""QLf+ versus QLhs on the same fcf database (Prop 4.1's bridge at work).

A finite/co-finite database is simultaneously an fcf-r-db (QLf+'s
domain) and — through ``to_hsdb`` — an hs-r-db (QLhs's domain).  The
same program run under both interpreters must denote the same relation;
the representations differ (finite parts + indicator versus class
representatives) so agreement is checked pointwise on probe tuples.
"""

import pytest

from repro.fcf import FcfDatabase, QLfInterpreter, cofinite_value, finite_value
from repro.qlhs import QLhsInterpreter, parse_program

# E is excluded from the agreement battery: QLf+'s E is Df-relative
# (Section 4's amended semantics) while QLhs's is domain-wide — the
# documented divergence tested separately below.
PROGRAMS = [
    "Y1 := R1",
    "Y1 := !R1",
    "Y1 := R1 & swap(R1)",
    "Y1 := down(R1)",
    "Y1 := down(!R1)",
    "Y1 := !R2 & down(R1)",
]

PROBE_RANKS = {1: [(x,) for x in list(range(6)) + [50]],
               2: [(x, y) for x in range(5) for y in range(5)]}


@pytest.fixture(scope="module")
def fcf_db():
    return FcfDatabase([
        finite_value(2, [(1, 2), (2, 1), (2, 3)]),
        cofinite_value(1, [(3,)]),
    ], name="bridge")


@pytest.fixture(scope="module")
def hs_db(fcf_db):
    return fcf_db.to_hsdb()


@pytest.mark.parametrize("text", PROGRAMS)
def test_same_program_same_relation(fcf_db, hs_db, text):
    program = parse_program(text)

    fcf_answer = QLfInterpreter(fcf_db, budget=10 ** 7).execute(
        program)["Y1"]
    hs_answer = QLhsInterpreter(hs_db, budget=10 ** 7).run(program)

    probes = PROBE_RANKS.get(hs_answer.rank)
    assert probes is not None, f"unexpected rank {hs_answer.rank}"
    for u in probes:
        via_hs = any(hs_db.equivalent(u, p) for p in hs_answer.paths)
        via_fcf = fcf_answer.contains(u)
        assert via_hs == via_fcf, f"{text} disagrees on {u!r}"


def test_e_differs_between_semantics(fcf_db, hs_db):
    """One documented divergence: QLf+'s ``E`` is ``{(a,a) : a ∈ Df}``
    (Section 4's amended semantics) while QLhs's ``E`` is the equality
    class over the whole domain — outside Df they disagree, by design."""
    program = parse_program("Y1 := E")
    fcf_answer = QLfInterpreter(fcf_db).execute(program)["Y1"]
    hs_answer = QLhsInterpreter(hs_db).run(program)
    off_df = (50, 50)
    assert not fcf_answer.contains(off_df)
    assert any(hs_db.equivalent(off_df, p) for p in hs_answer.paths)
