"""E13 — calculus versus algebra over infinite hs-r-dbs.

Claim (the classical equivalence, made live over infinite databases):
the same first-order query evaluates identically via (1) the Theorem 6.3
relativized evaluator and (2) compilation into a QLhs term run on class
representatives.  Measured: agreement on a formula battery and the cost
profile of each route as quantifier depth grows.
"""

import pytest

from repro.logic import Var, parse, relation_from_formula
from repro.qlhs import QLhsInterpreter
from repro.qlhs.from_logic import compile_formula, evaluate_via_algebra

from conftest import report

X = Var("x")

DEPTHS = {
    0: "R1(x, x)",
    1: "exists y. (R1(x, y) and x != y)",
    2: "exists y. exists z. (R1(x, y) and R1(y, z) and x != z)",
}


def test_e13_agreement(k3_k2):
    it = QLhsInterpreter(k3_k2, budget=10 ** 9)
    rows = []
    for depth, text in DEPTHS.items():
        f = parse(text)
        via_algebra = evaluate_via_algebra(it, f, [X]).paths
        via_calculus = relation_from_formula(k3_k2, f, [X])
        rows.append((f"depth {depth}", "classes", len(via_algebra),
                     "agree", via_algebra == via_calculus))
        assert via_algebra == via_calculus
    report("E13 calculus = algebra", rows)


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_e13_calculus_route(benchmark, k3_k2, depth):
    f = parse(DEPTHS[depth])

    result = benchmark(relation_from_formula, k3_k2, f, [X])
    assert isinstance(result, frozenset)


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_e13_algebra_route(benchmark, k3_k2, depth):
    it = QLhsInterpreter(k3_k2, budget=10 ** 9)
    f = parse(DEPTHS[depth])

    def run():
        return evaluate_via_algebra(it, f, [X])

    result = benchmark(run)
    assert result.rank == 1


def test_e13_compile_is_cheap(benchmark, k3_k2):
    f = parse(DEPTHS[2])

    term = benchmark(compile_formula, f, [X], k3_k2.signature)
    assert term is not None
