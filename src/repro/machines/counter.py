"""Counter machines — the computational core behind QLhs completeness.

The proof of Theorem 3.1 observes that QLhs "can be thought of as having
counters: E↓↓ plays the role of 0, … e↑ and e↓ play the role of i+1 and
i−1", giving it "the power of general counter machines (and hence of
Turing machines), with numbers represented by the ranks of the relations
in the variables".

This module provides the counter-machine model itself — registers
holding naturals, with increment, guarded decrement, zero-jump,
unconditional jump, and halt — plus a small program library (addition,
multiplication, comparison).  :mod:`repro.qlhs.counter_compile` compiles
these programs into core QLhs, making the proof's observation a tested
artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..errors import MachineError
from ..trace import Budget, limits, span
from ..trace.budget import as_budget


@dataclass(frozen=True)
class Inc:
    """``reg += 1``, fall through."""

    reg: int


@dataclass(frozen=True)
class Dec:
    """``reg -= 1`` if positive, else no-op; fall through."""

    reg: int


@dataclass(frozen=True)
class Jz:
    """Jump to ``target`` when ``reg == 0``, else fall through."""

    reg: int
    target: int


@dataclass(frozen=True)
class Jmp:
    """Unconditional jump."""

    target: int


@dataclass(frozen=True)
class Halt:
    """Stop; register contents are the output."""


Instruction = Inc | Dec | Jz | Jmp | Halt


class CounterMachine:
    """A counter machine: an instruction list over ``num_registers``."""

    def __init__(self, instructions: Sequence[Instruction],
                 num_registers: int, name: str = "M"):
        self.instructions = tuple(instructions)
        self.num_registers = num_registers
        self.name = name
        self._validate()

    def _validate(self) -> None:
        n = len(self.instructions)
        for pc, ins in enumerate(self.instructions):
            if isinstance(ins, (Inc, Dec)) and not 0 <= ins.reg < self.num_registers:
                raise MachineError(f"instruction {pc}: register {ins.reg} "
                                   f"out of range")
            if isinstance(ins, Jz):
                if not 0 <= ins.reg < self.num_registers:
                    raise MachineError(f"instruction {pc}: register out of range")
                if not 0 <= ins.target < n:
                    raise MachineError(f"instruction {pc}: jump target "
                                       f"{ins.target} out of range")
            if isinstance(ins, Jmp) and not 0 <= ins.target < n:
                raise MachineError(f"instruction {pc}: jump target out of range")

    def run(self, inputs: Sequence[int], *,
            budget: Budget | int | None = None) -> list[int]:
        """Execute; ``inputs`` seed the first registers; returns all
        registers at the halt instruction.

        One budget step is one executed instruction (default
        :data:`repro.trace.limits.COUNTER_RUN`).
        """
        budget = as_budget(budget, default_steps=limits.COUNTER_RUN)
        regs = [0] * self.num_registers
        for i, v in enumerate(inputs):
            if v < 0:
                raise MachineError("counter registers hold naturals")
            regs[i] = v
        pc = 0
        with span("counter.run", machine=self.name) as sp:
            while True:
                budget.charge()
                ins = self.instructions[pc]
                if isinstance(ins, Halt):
                    sp.count("steps", budget.steps)
                    return regs
                if isinstance(ins, Inc):
                    regs[ins.reg] += 1
                    pc += 1
                elif isinstance(ins, Dec):
                    if regs[ins.reg] > 0:
                        regs[ins.reg] -= 1
                    pc += 1
                elif isinstance(ins, Jz):
                    pc = ins.target if regs[ins.reg] == 0 else pc + 1
                elif isinstance(ins, Jmp):
                    pc = ins.target
                else:
                    raise MachineError(f"unknown instruction {ins!r}")
                if pc >= len(self.instructions):
                    raise MachineError(f"{self.name}: fell off the program")

    def trace(self, inputs: Sequence[int], *,
              budget: Budget | int | None = None
              ) -> list[tuple[int, tuple[int, ...]]]:
        """Execution trace as ``(pc, registers)`` snapshots (for tests).

        Budgeted like :meth:`run`.
        """
        budget = as_budget(budget, default_steps=limits.COUNTER_RUN)
        regs = [0] * self.num_registers
        for i, v in enumerate(inputs):
            regs[i] = v
        pc = 0
        out = [(pc, tuple(regs))]
        while not isinstance(self.instructions[pc], Halt):
            budget.charge()
            ins = self.instructions[pc]
            if isinstance(ins, Inc):
                regs[ins.reg] += 1
                pc += 1
            elif isinstance(ins, Dec):
                if regs[ins.reg] > 0:
                    regs[ins.reg] -= 1
                pc += 1
            elif isinstance(ins, Jz):
                pc = ins.target if regs[ins.reg] == 0 else pc + 1
            elif isinstance(ins, Jmp):
                pc = ins.target
            out.append((pc, tuple(regs)))
        return out

    def __repr__(self) -> str:
        return (f"CounterMachine({self.name}, {len(self.instructions)} "
                f"instructions, {self.num_registers} registers)")


# ---------------------------------------------------------------------------
# Program library.
# ---------------------------------------------------------------------------

def addition_machine() -> CounterMachine:
    """R0 := R0 + R1 (destroys R1)."""
    return CounterMachine([
        Jz(1, 4),      # 0: while R1 != 0:
        Dec(1),        # 1:   R1 -= 1
        Inc(0),        # 2:   R0 += 1
        Jmp(0),        # 3
        Halt(),        # 4
    ], num_registers=2, name="add")


def multiplication_machine() -> CounterMachine:
    """R0 := R0 * R1, using scratch R2, R3.

    Layout: repeatedly move one unit out of R0; for each unit add R1
    into R2 (via R3 to restore R1).
    """
    return CounterMachine([
        Jz(0, 11),     # 0:  while R0 != 0:
        Dec(0),        # 1:    R0 -= 1
        Jz(1, 7),      # 2:    while R1 != 0:
        Dec(1),        # 3:      R1 -= 1
        Inc(2),        # 4:      R2 += 1
        Inc(3),        # 5:      R3 += 1
        Jmp(2),        # 6:
        Jz(3, 0),      # 7:    while R3 != 0:  (restore R1 from R3)
        Dec(3),        # 8:      R3 -= 1
        Inc(1),        # 9:      R1 += 1
        Jmp(7),        # 10:
        Jz(2, 15),     # 11: move R2 into R0
        Dec(2),        # 12:
        Inc(0),        # 13:
        Jmp(11),       # 14:
        Halt(),        # 15:
    ], num_registers=4, name="mult")


def comparison_machine() -> CounterMachine:
    """R2 := 1 if R0 == R1 else 0 (destroys R0, R1)."""
    return CounterMachine([
        Jz(0, 5),      # 0: while R0 != 0:
        Dec(0),        # 1:
        Jz(1, 9),      # 2:   if R1 == 0: unequal
        Dec(1),        # 3:
        Jmp(0),        # 4:
        Jz(1, 7),      # 5: R0 == 0: if R1 == 0 goto equal
        Jmp(9),        # 6: else unequal
        Inc(2),        # 7: equal: R2 := 1
        Halt(),        # 8:
        Halt(),        # 9: unequal: R2 stays 0
    ], num_registers=3, name="eq")
