"""Tests for counter machines and oracle register programs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import database_from_predicates
from repro.core.query import DatabaseOracle
from repro.errors import MachineError, OutOfFuel
from repro.machines.counter import (
    CounterMachine,
    Dec,
    Halt,
    Inc,
    Jmp,
    Jz,
    addition_machine,
    comparison_machine,
    multiplication_machine,
)
from repro.machines.oracle import (
    Accept,
    Ask,
    EqJump,
    Input,
    Jump,
    Next,
    OracleProgram,
    Reject,
    membership_program,
    symmetric_pair_program,
)


class TestCounterMachine:
    @given(st.integers(0, 30), st.integers(0, 30))
    @settings(max_examples=25)
    def test_addition(self, a, b):
        assert addition_machine().run([a, b])[0] == a + b

    @given(st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=25)
    def test_multiplication(self, a, b):
        assert multiplication_machine().run([a, b])[0] == a * b

    @given(st.integers(0, 12), st.integers(0, 12))
    @settings(max_examples=25)
    def test_comparison(self, a, b):
        assert comparison_machine().run([a, b])[2] == int(a == b)

    def test_dec_of_zero_is_noop(self):
        m = CounterMachine([Dec(0), Halt()], num_registers=1)
        assert m.run([0]) == [0]

    def test_fuel(self):
        diverge = CounterMachine([Jmp(0)], num_registers=1)
        with pytest.raises(OutOfFuel):
            diverge.run([0], budget=100)

    def test_validation(self):
        with pytest.raises(MachineError):
            CounterMachine([Inc(5)], num_registers=1)
        with pytest.raises(MachineError):
            CounterMachine([Jz(0, 99)], num_registers=1)
        with pytest.raises(MachineError):
            CounterMachine([Jmp(2), Halt()], num_registers=1)

    def test_negative_input_rejected(self):
        with pytest.raises(MachineError):
            addition_machine().run([-1, 0])

    def test_fall_off_detected(self):
        m = CounterMachine([Inc(0)], num_registers=1)
        with pytest.raises(MachineError):
            m.run([0])

    def test_trace(self):
        trace = addition_machine().trace([1, 1])
        assert trace[0] == (0, (1, 1))
        assert trace[-1][1] == (2, 0)


def lt_db():
    return database_from_predicates([(2, lambda x, y: x < y)], name="lt")


class TestOracleProgram:
    def test_membership_program(self):
        Q = membership_program(0, 2, (2,)).as_rquery(output_rank=2)
        assert Q.holds(lt_db(), (1, 5))
        assert not Q.holds(lt_db(), (5, 1))

    def test_symmetric_pair_program(self):
        Q = symmetric_pair_program().as_rquery(output_rank=2)
        assert not Q.holds(lt_db(), (1, 2))  # < is antisymmetric
        near = database_from_predicates([(2, lambda x, y: abs(x - y) <= 1)])
        assert Q.holds(near, (3, 4))

    def test_only_oracle_questions_touch_the_db(self):
        """The ASK instruction is the only database access — the oracle's
        transcript records every question the machine asked."""
        program = symmetric_pair_program()
        oracle = DatabaseOracle(lt_db())
        program.run(oracle, (1, 2))
        questions = [q for (_, q, _) in oracle.transcript()]
        assert questions == [(1, 2), (2, 1)]

    def test_next_instruction_enumerates_domain(self):
        """A program that searches the domain for a witness: x has a
        successor-neighbour among the first elements (always true in lt,
        found by NEXT enumeration)."""
        program = OracleProgram([
            Input(0, 0),        # 0: r0 := x
            Next(1),            # 1: r1 := next domain element
            EqJump(0, 1, 1),    # 2: skip x itself
            Ask(0, (0, 1), 5),  # 3: (x, r1) in R1?
            Jump(1),            # 4: keep searching
            Accept(),           # 5
        ], num_registers=2, type_signature=(2,), name="has-greater")
        Q = program.as_rquery(output_rank=1)
        assert Q.holds(lt_db(), (3,))

    def test_fuel_on_fruitless_search(self):
        program = OracleProgram([
            Input(0, 0),
            Next(1),
            Ask(0, (1, 0), 4),
            Jump(1),
            Accept(),
        ], num_registers=2, type_signature=(2,), name="less-than-x")
        Q = program.as_rquery(output_rank=1, budget=500)
        with pytest.raises(OutOfFuel):
            Q.holds(lt_db(), (0,))  # nothing is below 0: diverges

    def test_validation(self):
        with pytest.raises(MachineError):
            OracleProgram([Jump(9)], 1, (2,))
        with pytest.raises(MachineError):
            OracleProgram([Ask(0, (0,), 0)], 1, (2,))  # arity mismatch
        with pytest.raises(MachineError):
            OracleProgram([Ask(3, (0, 0), 0)], 1, (2,))

    def test_uninitialized_ask_rejected(self):
        program = OracleProgram([Ask(0, (0, 0), 1), Accept()],
                                1, (2,))
        with pytest.raises(MachineError):
            program.run(DatabaseOracle(lt_db()), (0,))

    def test_bad_input_component(self):
        program = OracleProgram([Input(0, 5), Accept()], 1, (2,))
        with pytest.raises(MachineError):
            program.run(DatabaseOracle(lt_db()), (0,))
