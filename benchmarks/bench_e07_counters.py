"""E7 — QLhs has full Turing power via counters-as-ranks (Theorem 3.1).

Claim: counter machines (hence Turing machines) embed into core QLhs
with numbers as ranks.  Measured: native counter-machine execution
versus the compiled QLhs program on the same inputs — correctness exact,
slowdown the (bounded) price of running arithmetic through relational
operations on class representatives.
"""

import pytest

from repro.machines.counter import addition_machine, multiplication_machine
from repro.qlhs import QLhsInterpreter, run_compiled
from repro.symmetric import infinite_clique

from conftest import report

ADD_INPUTS = (7, 8)
MULT_INPUTS = (4, 5)


def test_e7_compiled_equals_native():
    rows = []
    hs = infinite_clique()
    for machine, inputs in [(addition_machine(), ADD_INPUTS),
                            (multiplication_machine(), MULT_INPUTS)]:
        native = machine.run(list(inputs))
        compiled = run_compiled(machine, list(inputs),
                                QLhsInterpreter(hs, budget=10 ** 9))
        rows.append((machine.name, inputs, "native", native[0],
                     "compiled", compiled[0]))
        assert compiled == native
    report("E7 native vs compiled", rows)


def test_e7_native_addition(benchmark):
    result = benchmark(addition_machine().run, list(ADD_INPUTS))
    assert result[0] == sum(ADD_INPUTS)


def test_e7_compiled_addition(benchmark):
    hs = infinite_clique()

    def run():
        return run_compiled(addition_machine(), list(ADD_INPUTS),
                            QLhsInterpreter(hs, budget=10 ** 9))

    result = benchmark(run)
    assert result[0] == sum(ADD_INPUTS)


def test_e7_native_multiplication(benchmark):
    result = benchmark(multiplication_machine().run, list(MULT_INPUTS))
    assert result[0] == MULT_INPUTS[0] * MULT_INPUTS[1]


def test_e7_compiled_multiplication(benchmark):
    hs = infinite_clique()

    def run():
        return run_compiled(multiplication_machine(), list(MULT_INPUTS),
                            QLhsInterpreter(hs, budget=10 ** 9))

    result = benchmark(run)
    assert result[0] == MULT_INPUTS[0] * MULT_INPUTS[1]


def test_e7_value_sizes_stay_bounded():
    """The diagonal number encoding keeps every intermediate value at
    most |T¹| representatives — no Bell-number blow-up."""
    hs = infinite_clique()
    it = QLhsInterpreter(hs, budget=10 ** 9)
    from repro.qlhs import constant_term
    sizes = [len(it.eval_term(constant_term(k), {})) for k in range(8)]
    report("E7 number-value sizes", [("k=0..7", sizes)])
    assert max(sizes) <= len(hs.tree.level(1))
