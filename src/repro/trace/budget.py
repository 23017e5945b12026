"""Unified resource budgets for every interpreter in the library.

Queries over recursive databases express *partial* functions — QLhs
while-loops, GMhs runs, and counter machines can diverge — so every
execution is governed by a :class:`Budget`: a step allowance, an
optional oracle-question allowance, an optional wall-clock deadline,
and a cooperative cancellation flag.  Every governed entry point takes
it as ``budget=`` (an int is shorthand for ``Budget(max_steps=...)``).

Exhausting any dimension raises :class:`~repro.errors.OutOfFuel`
carrying a machine-readable ``reason`` (:data:`OUT_OF_FUEL`,
:data:`DEADLINE`, or :data:`CANCELLED`); the engine boundary converts
that into a ``Verdict.UNKNOWN`` rather than leaking the exception
(see :mod:`repro.engine.verdict`).

Doctest::

    >>> from repro.trace import Budget
    >>> b = Budget(max_steps=3)
    >>> b.charge(); b.charge(2); b.steps
    3
    >>> b.charge()
    Traceback (most recent call last):
        ...
    repro.errors.OutOfFuel: step budget of 3 exhausted
    >>> child = b.fork()          # fresh counters, shared cancellation
    >>> child.steps, child.max_steps
    (0, 3)
    >>> b.cancel(); child.cancelled
    True
"""

from __future__ import annotations

import threading
import time

from ..errors import OutOfFuel

#: Reasons carried by :class:`~repro.errors.OutOfFuel` (and surfaced on
#: ``Verdict.UNKNOWN``) — the machine-readable divergence contract.
OUT_OF_FUEL = "out_of_fuel"
DEADLINE = "deadline"
CANCELLED = "cancelled"

REASONS = (OUT_OF_FUEL, DEADLINE, CANCELLED)


class Budget:
    """A cooperative resource budget threaded through an evaluation.

    Parameters
    ----------
    max_steps:
        Maximum interpreter steps (``None`` = unbounded).  What one
        step means per interpreter is tabulated in ``docs/limits.md``.
    max_oracle_calls:
        Maximum ``≅_B`` / relation-membership oracle questions
        (``None`` = unbounded).
    deadline:
        Wall-clock allowance in seconds, measured on the monotonic
        clock from construction (``None`` = no deadline).  Forked
        children inherit the *absolute* deadline, so a whole evaluation
        tree shares one clock.

    Thread safety: one budget may be charged from many threads (two
    evaluations sharing one budget on a shared engine, or shard joins
    absorbing into one parent).  :meth:`charge` /
    :meth:`charge_oracle` run under a private lock and commit
    **check-then-charge**: a charge that would
    exceed the limit raises *without* consuming, so ``steps`` never
    exceeds ``max_steps`` and hammering one budget from N threads
    yields exact accounting — the sum of successful charges equals the
    final counter bit for bit.  The raised :class:`OutOfFuel` carries
    the attempted count (``steps + cost``), preserving the historical
    ``exc.steps > max_steps`` signal.  Forks get fresh counters and a
    fresh lock; only the cancellation flag (and the absolute deadline)
    is shared.
    """

    __slots__ = ("max_steps", "max_oracle_calls", "deadline_at",
                 "steps", "oracle_calls", "_cancel_event", "_lock")

    def __init__(self, max_steps: int | None = None, *,
                 max_oracle_calls: int | None = None,
                 deadline: float | None = None,
                 _deadline_at: float | None = None,
                 _cancel_event: threading.Event | None = None):
        self.max_steps = max_steps
        self.max_oracle_calls = max_oracle_calls
        if _deadline_at is not None:
            self.deadline_at: float | None = _deadline_at
        elif deadline is not None:
            self.deadline_at = time.monotonic() + deadline
        else:
            self.deadline_at = None
        self.steps = 0
        self.oracle_calls = 0
        self._cancel_event = _cancel_event or threading.Event()
        self._lock = threading.Lock()

    # -- charging ------------------------------------------------------------

    def charge(self, cost: int = 1) -> None:
        """Account ``cost`` steps; raise :class:`OutOfFuel` on any trip.

        Atomic and non-committing on failure: the increment and the
        limit test happen under the budget's lock, and a charge that
        would cross ``max_steps`` raises **without** consuming — so the
        counter is exact even when many threads charge one budget, and
        :class:`OutOfFuel` fires precisely at the documented limit.
        The cancellation flag and (when set) the deadline are checked
        on every charge, so cooperative interruption is prompt.
        """
        with self._lock:
            attempted = self.steps + cost
            if self.max_steps is not None and attempted > self.max_steps:
                raise OutOfFuel(
                    f"step budget of {self.max_steps} exhausted",
                    steps=attempted, reason=OUT_OF_FUEL)
            self.steps = attempted
        self.check()

    def charge_oracle(self, n: int = 1) -> None:
        """Account ``n`` oracle questions (atomic, like :meth:`charge`)."""
        with self._lock:
            attempted = self.oracle_calls + n
            if (self.max_oracle_calls is not None
                    and attempted > self.max_oracle_calls):
                raise OutOfFuel(
                    f"oracle budget of {self.max_oracle_calls} exhausted",
                    steps=self.steps, reason=OUT_OF_FUEL)
            self.oracle_calls = attempted

    def check(self) -> None:
        """Raise if cancelled or past the deadline (no step charged)."""
        if self._cancel_event.is_set():
            raise OutOfFuel("evaluation cancelled",
                            steps=self.steps, reason=CANCELLED)
        if (self.deadline_at is not None
                and time.monotonic() > self.deadline_at):
            raise OutOfFuel("wall-clock deadline expired",
                            steps=self.steps, reason=DEADLINE)

    # -- cancellation --------------------------------------------------------

    def cancel(self) -> None:
        """Cooperatively cancel: every sharer (forks included) trips on
        its next ``charge``/``check`` with reason :data:`CANCELLED`."""
        self._cancel_event.set()

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this budget tree."""
        return self._cancel_event.is_set()

    # -- derivation ----------------------------------------------------------

    def fork(self, max_steps: int | None = None, *,
             deadline: float | None = None) -> "Budget":
        """A child budget: fresh counters, same limits.

        The absolute deadline and the cancellation flag are *shared*
        (cancelling the parent cancels every fork), while step and
        oracle counters restart — so each member of a batch gets the
        full per-evaluation allowance.  ``max_steps`` overrides the
        step limit (used for plan-level knobs like
        :class:`~repro.engine.plan.MachineFixpoint.max_steps`).

        ``deadline`` gives the child a *relative* wall-clock allowance
        measured from now (the serving tier's per-request clock: a
        tenant template has no deadline, each admitted request forks
        with one).  It can only tighten: when the parent already has an
        absolute deadline, the child gets the earlier of the two —
        forking never grants fresh wall-clock time.

        Edge case: forking a budget whose deadline is near (or past)
        expiry yields a child that is *already expired* — the child
        inherits the parent's absolute ``deadline_at``, its
        :attr:`remaining_seconds` is clamped at ``0.0`` rather than
        going negative, and its first :meth:`check` trips with reason
        :data:`DEADLINE`.
        """
        deadline_at = self.deadline_at
        if deadline is not None:
            requested = time.monotonic() + deadline
            deadline_at = (requested if deadline_at is None
                           else min(deadline_at, requested))
        return Budget(
            max_steps if max_steps is not None else self.max_steps,
            max_oracle_calls=self.max_oracle_calls,
            _deadline_at=deadline_at,
            _cancel_event=self._cancel_event)

    # -- process-boundary shipping -------------------------------------------

    def ship(self) -> dict:
        """The JSON-safe form of this budget's *limits* for a worker
        process (:mod:`repro.engine.shard`).

        Neither the cancellation event nor the absolute monotonic
        deadline can cross a process boundary (each process has its own
        monotonic clock), so a shipped budget carries the limits plus
        the wall-clock *remainder*: the worker reconstructs a budget
        whose deadline is measured on its own clock but can never
        outlive the parent's.  A parent with no deadline ships
        ``remaining_s: None`` (the worker inherits no deadline); an
        already-expired parent ships ``0.0`` (the worker budget is born
        expired).

        Doctest::

            >>> Budget(max_steps=5).ship()
            {'max_steps': 5, 'max_oracle_calls': None, 'remaining_s': None}
        """
        return {"max_steps": self.max_steps,
                "max_oracle_calls": self.max_oracle_calls,
                "remaining_s": self.remaining_seconds}

    @staticmethod
    def from_shipped(data: dict) -> "Budget":
        """Rebuild a worker-side budget from :meth:`ship` output.

        The child is a cross-process analogue of :meth:`fork`: fresh
        counters, the parent's step/oracle limits, and a deadline capped
        *relative* to the parent's remaining wall-clock time (never
        extended).  Cancellation does not propagate — a cancelled
        coordinator abandons the worker's result at the join instead.

        Doctest::

            >>> child = Budget.from_shipped(Budget(max_steps=5).ship())
            >>> child.steps, child.max_steps, child.deadline_at
            (0, 5, None)
        """
        return Budget(data["max_steps"],
                      max_oracle_calls=data["max_oracle_calls"],
                      deadline=data["remaining_s"])

    def absorb(self, steps: int = 0, oracle_calls: int = 0) -> None:
        """Account work a child budget performed in *another process*.

        The merge half of the :meth:`ship` contract: the worker reports
        how many steps/oracle questions its rebuilt budget consumed, and
        the coordinator adds them here so per-shard accounting is exact
        — after absorbing every worker report, ``steps`` equals the sum
        of all worker-side counters bit for bit.  Unlike :meth:`charge`
        this never raises: the work has already happened; an absorb that
        lands past ``max_steps`` records the overshoot rather than
        losing it (the worker's own budget enforced the limit).

        Doctest::

            >>> parent = Budget(max_steps=10)
            >>> parent.absorb(steps=4); parent.absorb(steps=3)
            >>> parent.steps
            7
        """
        if steps < 0 or oracle_calls < 0:
            raise ValueError("absorbed counts must be non-negative")
        with self._lock:
            self.steps += steps
            self.oracle_calls += oracle_calls

    # -- introspection -------------------------------------------------------

    @property
    def remaining_steps(self) -> int | None:
        """Steps left before the next charge trips (``None`` if unbounded)."""
        if self.max_steps is None:
            return None
        return max(self.max_steps - self.steps, 0)

    @property
    def remaining_seconds(self) -> float | None:
        """Wall-clock time left before the deadline trips.

        ``None`` when no deadline is set; clamped at ``0.0`` once the
        deadline has passed (an expired budget — a fork of a
        near-expired parent, say — never reports a negative remainder).
        """
        if self.deadline_at is None:
            return None
        return max(self.deadline_at - time.monotonic(), 0.0)

    @property
    def expired(self) -> bool:
        """Whether the deadline has already passed (steps not counted)."""
        return (self.deadline_at is not None
                and time.monotonic() > self.deadline_at)

    def __repr__(self) -> str:
        parts = [f"steps={self.steps}"]
        if self.max_steps is not None:
            parts.append(f"max_steps={self.max_steps}")
        if self.max_oracle_calls is not None:
            parts.append(f"max_oracle_calls={self.max_oracle_calls}")
        if self.deadline_at is not None:
            parts.append(f"deadline_in={self.remaining_seconds:.3f}s")
        if self.cancelled:
            parts.append("cancelled")
        return f"Budget({', '.join(parts)})"


def as_budget(budget: "Budget | int | None" = None, *,
              default_steps: int | None = None) -> Budget:
    """Coerce a ``budget=`` argument into a :class:`Budget`.

    Every governed entry point applies this: a :class:`Budget` passes
    through, an integer ``N`` constructs ``Budget(max_steps=N)``, and
    ``None`` gets the entry point's registered default from
    :mod:`repro.trace.limits`.

    Doctest::

        >>> from repro.trace.budget import as_budget
        >>> as_budget(7).max_steps
        7
        >>> as_budget(default_steps=99).max_steps
        99
        >>> b = Budget(max_steps=5)
        >>> as_budget(b) is b
        True
    """
    if budget is None:
        return Budget(max_steps=default_steps)
    if isinstance(budget, Budget):
        return budget
    return Budget(max_steps=int(budget))
