"""E6 — QLhs over CB versus naive evaluation over finite unfoldings.

Claim (the paper's reason for the representation): QLhs computes on the
*finite* representative sets — cost independent of how much of the
infinite database one materializes — while evaluating the same program
over an n-element unfolding costs Ω(n^rank) and only approximates the
infinite answer pointwise.  Measured: both engines on the same programs
with the unfolding size swept; the crossover and the divergence of the
unfolding's answers near its boundary.
"""

import pytest

from repro.finite import QLInterpreter, unfold_hsdb
from repro.qlhs import QLhsInterpreter, parse_program

from conftest import report

PROGRAM = parse_program("Y1 := down(R1 & swap(R1))")
SIZES = [10, 20, 40, 80]


def test_e6_answers_agree_inside_whole_components(k3_k2):
    hs_value = QLhsInterpreter(k3_k2, budget=10 ** 7).run(PROGRAM)
    unfolded = unfold_hsdb(k3_k2, 10)  # two whole copies of each kind
    ql_value = QLInterpreter(unfolded, budget=10 ** 7).run(PROGRAM)
    for u in [(x,) for x in unfolded.domain.first(10)]:
        via_hs = any(k3_k2.equivalent(u, p) for p in hs_value.paths)
        assert via_hs == (u in ql_value.tuples)


def test_e6_qlhs_cost_is_size_independent(benchmark, k3_k2):
    it = QLhsInterpreter(k3_k2, budget=10 ** 8)

    def run():
        return it.run(PROGRAM)

    value = benchmark(run)
    assert value.rank == 1


@pytest.mark.parametrize("size", SIZES)
def test_e6_naive_cost_grows(benchmark, k3_k2, size):
    unfolded = unfold_hsdb(k3_k2, size)

    def run():
        return QLInterpreter(unfolded, budget=10 ** 9).run(PROGRAM)

    value = benchmark(run)
    assert value.rank == 1


def test_e6_unfolding_only_converges_pointwise(k3_k2):
    """An unfolding that cuts a component mid-copy answers wrongly for
    the cut nodes — the representation never does."""
    rows = []
    for size in (9, 10):
        unfolded = unfold_hsdb(k3_k2, size)
        ql_value = QLInterpreter(unfolded, budget=10 ** 7).run(
            parse_program("Y1 := down(R1)"))
        last = unfolded.domain.first(size)[-1]
        correct = any(k3_k2.equivalent((last,), p)
                      for p in QLhsInterpreter(k3_k2, budget=10 ** 7)
                      .run(parse_program("Y1 := down(R1)")).paths)
        rows.append((f"size {size}", "last element answer",
                     (last,) in ql_value.tuples, "truth", correct))
    report("E6 boundary divergence", rows)
    # At size 9 the last element's K2-partner is missing: wrong answer.
    unfolded9 = unfold_hsdb(k3_k2, 9)
    v9 = QLInterpreter(unfolded9, budget=10 ** 7).run(
        parse_program("Y1 := down(R1)"))
    last9 = unfolded9.domain.first(9)[-1]
    assert (last9,) not in v9.tuples  # naive: looks isolated
    assert any(k3_k2.equivalent((last9,), p)  # truth: it has an edge
               for p in QLhsInterpreter(k3_k2, budget=10 ** 7)
               .run(parse_program("Y1 := down(R1)")).paths)
