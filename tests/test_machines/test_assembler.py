"""Tests for the counter-machine assembler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParseError
from repro.machines.assembler import (
    assemble,
    copy_machine,
    disassemble,
    double_machine,
    subtract_machine,
)
from repro.machines.counter import addition_machine


class TestAssemble:
    def test_addition_program(self):
        m = assemble("""
            loop:  jz r1 end
                   dec r1
                   inc r0
                   jmp loop
            end:   halt
        """, name="add")
        assert m.run([3, 4])[0] == 7

    def test_numeric_targets(self):
        m = assemble("jz r0 2\ninc r0\nhalt")
        assert m.run([0]) == [0]
        assert m.run([5]) == [6]

    def test_comments_and_blanks(self):
        m = assemble("# nothing\n\nhalt  # stop\n")
        assert m.run([]) == [0]  # one default register, untouched

    def test_label_on_own_line_attaches_forward(self):
        m = assemble("start:\n  halt")
        assert m.run([]) == [0]

    @pytest.mark.parametrize("bad", [
        "inc",                 # missing operand
        "inc x0",              # bad register
        "jz r0 nowhere",       # unknown label
        "frob r1",             # unknown op
        "a: halt\na: halt",    # duplicate label
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            assemble(bad)


class TestLibrary:
    @given(st.integers(0, 20), st.integers(0, 20))
    @settings(max_examples=25)
    def test_subtract(self, a, b):
        assert subtract_machine().run([a, b])[0] == max(0, a - b)

    @given(st.integers(0, 20))
    @settings(max_examples=25)
    def test_copy_preserves_source(self, a):
        regs = copy_machine().run([a])
        assert regs[0] == a and regs[1] == a

    @given(st.integers(0, 15))
    @settings(max_examples=25)
    def test_double(self, a):
        assert double_machine().run([a])[0] == 2 * a


class TestDisassemble:
    def test_roundtrip_library_machines(self):
        for machine in (addition_machine(), subtract_machine(),
                        double_machine()):
            text = disassemble(machine)
            back = assemble(text, name=machine.name)
            assert back.instructions == machine.instructions

    def test_labels_only_on_targets(self):
        text = disassemble(addition_machine())
        assert text.count(":") == len(
            {ins.target for ins in addition_machine().instructions
             if hasattr(ins, "target")})


class TestAssembledInQLhs:
    def test_subtraction_compiles_to_qlhs(self):
        """Assembled machines ride the Theorem 3.1 compiler like any
        other counter machine."""
        from repro.qlhs import QLhsInterpreter, run_compiled
        from repro.symmetric import infinite_clique
        result = run_compiled(subtract_machine(), [9, 3],
                              QLhsInterpreter(infinite_clique(),
                                              budget=10 ** 9))
        assert result[0] == 6
