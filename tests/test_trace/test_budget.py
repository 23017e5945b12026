"""Unit tests for :class:`repro.trace.Budget` and the alias shim."""

import time

import pytest

from repro.errors import OutOfFuel
from repro.trace import Budget
from repro.trace.budget import (
    CANCELLED,
    DEADLINE,
    OUT_OF_FUEL,
    REASONS,
    as_budget,
)


class TestStepBudget:
    def test_charges_accumulate(self):
        b = Budget(max_steps=10)
        b.charge()
        b.charge(4)
        assert b.steps == 5
        assert b.remaining_steps == 5

    def test_trips_with_reason(self):
        b = Budget(max_steps=3)
        b.charge(3)
        with pytest.raises(OutOfFuel) as exc:
            b.charge()
        assert exc.value.reason == OUT_OF_FUEL
        assert exc.value.steps == 4

    def test_unbounded(self):
        b = Budget()
        b.charge(10**6)
        assert b.remaining_steps is None

    def test_oracle_budget(self):
        b = Budget(max_oracle_calls=2)
        b.charge_oracle()
        b.charge_oracle()
        with pytest.raises(OutOfFuel):
            b.charge_oracle()


class TestDeadline:
    def test_expired_deadline_trips(self):
        b = Budget(max_steps=None, deadline=0.0)
        time.sleep(0.002)
        with pytest.raises(OutOfFuel) as exc:
            b.charge()
        assert exc.value.reason == DEADLINE

    def test_fork_shares_absolute_deadline(self):
        b = Budget(deadline=0.0)
        time.sleep(0.002)
        child = b.fork()
        with pytest.raises(OutOfFuel) as exc:
            child.check()
        assert exc.value.reason == DEADLINE

    def test_generous_deadline_does_not_trip(self):
        b = Budget(max_steps=100, deadline=60.0)
        b.charge(50)
        assert b.steps == 50


class TestCancellation:
    def test_cancel_trips_with_reason(self):
        b = Budget(max_steps=100)
        b.cancel()
        with pytest.raises(OutOfFuel) as exc:
            b.charge()
        assert exc.value.reason == CANCELLED

    def test_cancel_reaches_forks_both_ways(self):
        parent = Budget()
        child = parent.fork()
        parent.cancel()
        assert child.cancelled
        other = Budget()
        fork = other.fork()
        fork.cancel()
        assert other.cancelled


class TestFork:
    def test_fresh_counters_same_limit(self):
        b = Budget(max_steps=7)
        b.charge(5)
        child = b.fork()
        assert child.steps == 0
        assert child.max_steps == 7

    def test_max_steps_override(self):
        b = Budget(max_steps=1000)
        child = b.fork(max_steps=3)
        child.charge(3)
        with pytest.raises(OutOfFuel):
            child.charge()

    def test_fork_near_expired_deadline_yields_expired_child(self):
        """Forking a budget whose deadline has (all but) run out must
        produce an *already-expired* child — never a child with a
        negative remaining allowance or fresh wall-clock time."""
        parent = Budget(deadline=0.001)
        time.sleep(0.005)
        child = parent.fork()
        assert child.expired
        assert child.remaining_seconds == 0.0       # clamped, not negative
        with pytest.raises(OutOfFuel) as exc:
            child.check()
        assert exc.value.reason == DEADLINE
        # The max_steps override does not resurrect the deadline either.
        grandchild = child.fork(max_steps=10)
        assert grandchild.expired
        assert grandchild.remaining_seconds == 0.0
        with pytest.raises(OutOfFuel):
            grandchild.charge()

    def test_fork_relative_deadline(self):
        """``fork(deadline=s)`` grants a fresh relative allowance when
        the parent has no deadline of its own."""
        parent = Budget(max_steps=100)
        child = parent.fork(deadline=60.0)
        assert parent.remaining_seconds is None
        remaining = child.remaining_seconds
        assert remaining is not None and 0.0 < remaining <= 60.0
        # Counters and limits still behave like a plain fork.
        assert child.max_steps == 100
        assert child.steps == 0

    def test_fork_relative_deadline_capped_by_parent(self):
        """A request deadline never grants more wall-clock time than
        the parent budget has left (forking cannot extend a deadline)."""
        parent = Budget(deadline=0.001)
        time.sleep(0.005)
        child = parent.fork(deadline=60.0)
        assert child.expired
        with pytest.raises(OutOfFuel) as exc:
            child.check()
        assert exc.value.reason == DEADLINE

    def test_fork_relative_deadline_shares_cancellation(self):
        parent = Budget()
        child = parent.fork(deadline=60.0)
        parent.cancel()
        assert child.cancelled

    def test_fork_deadline_on_expired_parent_trips_immediately(self):
        """Regression (PR 9 bugfix sweep): ``fork(deadline=...)`` on a
        parent whose own deadline already passed must yield a child
        that is tripped *now* — remaining time clamped to 0.0, never
        negative, and never a fresh 60 s allowance."""
        parent = Budget(max_steps=100, deadline=0.001)
        time.sleep(0.005)
        assert parent.expired
        child = parent.fork(deadline=60.0)
        assert child.expired
        assert child.remaining_seconds == 0.0
        with pytest.raises(OutOfFuel) as exc:
            child.check()
        assert exc.value.reason == DEADLINE
        # Charging (the engine's hot path) trips identically.
        with pytest.raises(OutOfFuel):
            child.charge()

    def test_fork_negative_relative_deadline_is_already_tripped(self):
        """A nonsensical negative request deadline clamps to an
        immediately-expired child rather than arming a deadline in the
        past with negative remaining seconds."""
        parent = Budget()
        child = parent.fork(deadline=-5.0)
        assert child.expired
        assert child.remaining_seconds == 0.0
        with pytest.raises(OutOfFuel) as exc:
            child.check()
        assert exc.value.reason == DEADLINE

    def test_remaining_seconds(self):
        assert Budget().remaining_seconds is None
        b = Budget(deadline=60.0)
        remaining = b.remaining_seconds
        assert remaining is not None and 0.0 < remaining <= 60.0
        assert not b.expired
        expired = Budget(deadline=0.0)
        time.sleep(0.002)
        assert expired.remaining_seconds == 0.0
        assert "deadline_in=0.000s" in repr(expired)


class TestAsBudget:
    def test_passthrough(self):
        b = Budget(max_steps=5)
        assert as_budget(b) is b

    def test_int_budget(self):
        assert as_budget(17).max_steps == 17

    def test_default(self):
        assert as_budget(default_steps=99).max_steps == 99
        assert as_budget().max_steps is None

    def test_reason_vocabulary_is_closed(self):
        assert REASONS == (OUT_OF_FUEL, DEADLINE, CANCELLED)


class TestAtomicCharging:
    """The check-then-commit charge contract (docs/concurrency.md)."""

    def test_failed_charge_consumes_nothing(self):
        b = Budget(max_steps=3)
        b.charge(2)
        with pytest.raises(OutOfFuel) as exc:
            b.charge(5)
        assert exc.value.steps == 7   # the attempted total
        assert b.steps == 2           # rolled back, not committed
        b.charge(1)                   # remaining allowance still usable
        assert b.steps == 3

    def test_steps_never_exceed_limit(self):
        b = Budget(max_steps=10)
        for __ in range(10):
            b.charge()
        for __ in range(5):
            with pytest.raises(OutOfFuel):
                b.charge()
        assert b.steps == 10

    def test_concurrent_charges_are_exact(self):
        import threading
        threads, ops = 8, 2000
        limit = threads * ops // 2
        b = Budget(max_steps=limit)
        successes = [0] * threads
        barrier = threading.Barrier(threads)
        errors = []

        def work(i):
            try:
                barrier.wait()
                for __ in range(ops):
                    try:
                        b.charge()
                        successes[i] += 1
                    except OutOfFuel:
                        pass
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        ts = [threading.Thread(target=work, args=(i,))
              for i in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert errors == []
        assert b.steps == limit
        assert sum(successes) == limit

    def test_oracle_charges_are_atomic_too(self):
        b = Budget(max_oracle_calls=2)
        b.charge_oracle()
        b.charge_oracle()
        with pytest.raises(OutOfFuel):
            b.charge_oracle()
        assert b.oracle_calls == 2


class TestShipAbsorb:
    """The cross-process half of the budget contract (PR 10)."""

    def test_ship_carries_limits_not_counters(self):
        b = Budget(max_steps=50, max_oracle_calls=7)
        b.charge(9)
        shipped = b.ship()
        assert shipped == {"max_steps": 50, "max_oracle_calls": 7,
                           "remaining_s": None}

    def test_from_shipped_is_a_fresh_fork(self):
        child = Budget.from_shipped(Budget(max_steps=5).ship())
        assert (child.steps, child.oracle_calls) == (0, 0)
        assert child.max_steps == 5
        assert child.deadline_at is None
        child.charge(5)
        with pytest.raises(OutOfFuel):
            child.charge()

    def test_shipped_deadline_is_relative_and_never_extends(self):
        parent = Budget(max_steps=None, deadline=30.0)
        shipped = parent.ship()
        assert 0.0 < shipped["remaining_s"] <= 30.0
        child = Budget.from_shipped(shipped)
        assert child.remaining_seconds <= parent.remaining_seconds + 0.01

    def test_expired_parent_ships_an_expired_child(self):
        parent = Budget(max_steps=None, deadline=0.0)
        time.sleep(0.002)
        child = Budget.from_shipped(parent.ship())
        with pytest.raises(OutOfFuel) as exc:
            child.check()
        assert exc.value.reason == DEADLINE

    def test_absorb_is_exact_and_never_raises(self):
        parent = Budget(max_steps=10)
        parent.absorb(steps=8, oracle_calls=2)
        parent.absorb(steps=7)  # past max_steps: recorded, not raised
        assert (parent.steps, parent.oracle_calls) == (15, 2)

    def test_absorb_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            Budget().absorb(steps=-1)

    def test_concurrent_absorb_is_exact(self):
        import threading
        parent = Budget(max_steps=None)
        threads, rounds = 8, 500
        barrier = threading.Barrier(threads)

        def work():
            barrier.wait()
            for __ in range(rounds):
                parent.absorb(steps=3, oracle_calls=1)

        ts = [threading.Thread(target=work) for __ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert parent.steps == threads * rounds * 3
        assert parent.oracle_calls == threads * rounds

    def test_roundtrip_matches_fork_semantics(self):
        # ship/from_shipped across a (simulated) process boundary gives
        # the same allowances fork() gives in-process.
        parent = Budget(max_steps=123, max_oracle_calls=45)
        local, remote = parent.fork(), Budget.from_shipped(parent.ship())
        assert local.max_steps == remote.max_steps == 123
        assert (local.max_oracle_calls == remote.max_oracle_calls == 45)
