"""Oracle machines for r-queries (Definition 2.4), as a low-level model.

Definition 2.4 defines a recursive r-query via "an oracle Turing machine
which, given a tuple u, uses oracles for the relations of the input data
base B to decide whether u ∈ Q(B)".  The high-level realization is
:class:`repro.core.query.OracleQuery` (an arbitrary Python procedure
behind the oracle interface); this module supplies the *machine-shaped*
realization — a small register program whose only interaction with the
database is the ``ASK`` instruction — so the library contains a model in
which "the machine can only ask questions of the form is u ∈ R" is a
syntactic fact, not a discipline.

Instruction set (registers hold domain elements; ``element_source``
enumerates the domain for ``NEXT``):

* ``INPUT i j``   — copy component ``j`` of the input tuple to register ``i``
* ``NEXT i``      — load the next domain element into register ``i``
* ``ASK r (i…) t``— ask "is (reg_{i…}) ∈ R_r?"; jump to ``t`` on yes
* ``EQ i j t``    — jump to ``t`` when registers ``i`` and ``j`` are equal
* ``JMP t``       — unconditional jump
* ``ACCEPT`` / ``REJECT`` — halt with the answer

All jumps fall through on the negative outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..core.query import DatabaseOracle, OracleQuery
from ..errors import MachineError
from ..trace import Budget, limits, span
from ..trace.budget import as_budget


@dataclass(frozen=True)
class Input:
    """``Rⱼ := uᵢ`` — load an input-tuple component into a register."""

    reg: int
    component: int


@dataclass(frozen=True)
class Next:
    """Advance a register to the next domain element."""

    reg: int


@dataclass(frozen=True)
class Ask:
    """One oracle question: jump if the registers' tuple is in Rᵢ."""

    relation: int
    regs: tuple[int, ...]
    target: int

    def __init__(self, relation: int, regs: Sequence[int], target: int):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "regs", tuple(regs))
        object.__setattr__(self, "target", target)


@dataclass(frozen=True)
class EqJump:
    """Jump if two registers hold the same element."""

    left: int
    right: int
    target: int


@dataclass(frozen=True)
class Jump:
    """Unconditional jump."""

    target: int


@dataclass(frozen=True)
class Accept:
    """Halt accepting (``u ∈ Q(B)``)."""


@dataclass(frozen=True)
class Reject:
    """Halt rejecting (``u ∉ Q(B)``)."""


OracleInstruction = Input | Next | Ask | EqJump | Jump | Accept | Reject


class OracleProgram:
    """A register program deciding tuple membership through oracles."""

    def __init__(self, instructions: Sequence[OracleInstruction],
                 num_registers: int,
                 type_signature: Sequence[int], name: str = "M"):
        self.instructions = tuple(instructions)
        self.num_registers = num_registers
        self.type_signature = tuple(type_signature)
        self.name = name
        self._validate()

    def _validate(self) -> None:
        n = len(self.instructions)
        for pc, ins in enumerate(self.instructions):
            targets = []
            if isinstance(ins, (Ask, EqJump, Jump)):
                targets.append(ins.target)
            for t in targets:
                if not 0 <= t < n:
                    raise MachineError(
                        f"instruction {pc}: jump target {t} out of range")
            if isinstance(ins, Ask):
                if not 0 <= ins.relation < len(self.type_signature):
                    raise MachineError(
                        f"instruction {pc}: relation index out of range")
                if len(ins.regs) != self.type_signature[ins.relation]:
                    raise MachineError(
                        f"instruction {pc}: ASK arity mismatch")

    def run(self, oracle: DatabaseOracle, u: tuple, *,
            budget: Budget | int | None = None) -> bool:
        """Decide ``u ∈ Q(B)`` through the oracle.

        One budget step is one executed instruction (``ASK`` questions
        are additionally charged to the budget's oracle allowance;
        default :data:`repro.trace.limits.ORACLE_RUN`).
        """
        budget = as_budget(budget, default_steps=limits.ORACLE_RUN)
        registers: list = [None] * self.num_registers
        enumerator = iter(oracle.domain)
        pc = 0
        with span("oracle.run", machine=self.name) as sp:
            while True:
                budget.charge()
                ins = self.instructions[pc]
                if isinstance(ins, Accept):
                    sp.count("steps", budget.steps)
                    return True
                if isinstance(ins, Reject):
                    sp.count("steps", budget.steps)
                    return False
                if isinstance(ins, Input):
                    if not 0 <= ins.component < len(u):
                        raise MachineError(
                            f"{self.name}: input component {ins.component} "
                            f"out of range for rank-{len(u)} tuple")
                    registers[ins.reg] = u[ins.component]
                    pc += 1
                elif isinstance(ins, Next):
                    registers[ins.reg] = next(enumerator)
                    pc += 1
                elif isinstance(ins, Ask):
                    args = tuple(registers[r] for r in ins.regs)
                    if any(a is None for a in args):
                        raise MachineError(
                            f"{self.name}: ASK with an uninitialized "
                            "register")
                    budget.charge_oracle()
                    sp.count("oracle_questions")
                    pc = (ins.target if oracle.ask(ins.relation, args)
                          else pc + 1)
                elif isinstance(ins, EqJump):
                    pc = (ins.target
                          if registers[ins.left] == registers[ins.right]
                          else pc + 1)
                elif isinstance(ins, Jump):
                    pc = ins.target
                else:
                    raise MachineError(f"unknown instruction {ins!r}")
                if pc >= len(self.instructions):
                    raise MachineError(f"{self.name}: fell off the program")

    def as_rquery(self, output_rank: int | None = None, *,
                  budget: Budget | int | None = None) -> OracleQuery:
        """The r-query this machine computes (Definition 2.4).

        Each membership test runs under a *fork* of the given budget,
        so every tuple gets the full per-run allowance while deadlines
        and cancellation still span the whole query.
        """
        base = as_budget(budget, default_steps=limits.ORACLE_RUN)
        return OracleQuery(
            self.type_signature,
            lambda oracle, u: self.run(oracle, u, budget=base.fork()),
            output_rank=output_rank,
            name=self.name)


def membership_program(relation_index: int, arity: int,
                       type_signature: Sequence[int]) -> OracleProgram:
    """The identity query ``Q(B) = R_i`` as an oracle program."""
    instructions: list[OracleInstruction] = []
    for j in range(arity):
        instructions.append(Input(j, j))
    accept_at = arity + 2
    instructions.append(Ask(relation_index, tuple(range(arity)), accept_at))
    instructions.append(Reject())
    instructions.append(Accept())
    return OracleProgram(instructions, arity, type_signature,
                         name=f"member-R{relation_index + 1}")


def symmetric_pair_program(type_signature: Sequence[int] = (2,)
                           ) -> OracleProgram:
    """``Q(B) = {(x, y) : (x, y) ∈ R₁ and (y, x) ∈ R₁}`` — a genuinely
    oracle-using, locally generic example program."""
    return OracleProgram([
        Input(0, 0),                  # 0
        Input(1, 1),                  # 1
        Ask(0, (0, 1), 4),            # 2: (x,y) ∈ R1?
        Reject(),                     # 3
        Ask(0, (1, 0), 6),            # 4: (y,x) ∈ R1?
        Reject(),                     # 5
        Accept(),                     # 6
    ], num_registers=2, type_signature=type_signature, name="sym-pair")
