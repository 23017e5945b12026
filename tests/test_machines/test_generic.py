"""Tests for generic machines GM and GMhs (Section 5)."""

import pytest

from repro.core import finite_database
from repro.errors import MachineError, OutOfFuel
from repro.machines.generic import (
    Continue,
    GenericMachine,
    Halt,
    Load,
    StoreTuple,
    loading_protocol,
)
from repro.machines.gmhs import (
    GMhsMachine,
    LoadChildren,
    StoreCanonical,
    children_explorer,
    equivalence_filter,
)
from repro.symmetric import INFINITE, component_union, infinite_clique


def k3_k2():
    tri = finite_database(
        [(2, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])],
        [0, 1, 2], name="K3")
    edge = finite_database([(2, [(0, 1), (1, 0)])], [0, 1], name="K2")
    return component_union([(tri, INFINITE), (edge, INFINITE)], name="K3+K2")


class TestGenericMachine:
    def test_trivial_halt(self):
        gm = GenericMachine(lambda s, t, f: Halt(()))
        store, metrics = gm.run({"C": frozenset({(1,)})})
        assert store["C"] == frozenset({(1,)})
        assert metrics.spawns == 0

    def test_load_spawns_per_tuple(self):
        def transition(state, tape, flags):
            if state == "start":
                return Load("C", "got")
            return Halt(())  # tapes differ... but Halt erases them

        gm = GenericMachine(transition)
        store, metrics = gm.run({"C": frozenset({(1,), (2,), (3,)})})
        assert metrics.spawns == 2  # 3 copies from 1 unit
        # All spawned units halt with empty tapes and collapse back.
        assert metrics.collapses == 2

    def test_collapse_unions_stores(self):
        def transition(state, tape, flags):
            if state == "start":
                return Load("C", "record")
            if state == "record":
                return StoreTuple("OUT", tape[-1], "done", ())
            return Halt(())

        gm = GenericMachine(transition)
        store, __ = gm.run({"C": frozenset({(1,), (2,)})})
        assert store["OUT"] == frozenset({(1,), (2,)})

    def test_non_collapsing_end_is_error(self):
        def transition(state, tape, flags):
            if state == "start":
                return Load("C", "stuck")
            return Halt(tape)  # tapes differ: no collapse

        gm = GenericMachine(transition)
        with pytest.raises(MachineError):
            gm.run({"C": frozenset({(1,), (2,)})})

    def test_vanishing_units_error(self):
        gm = GenericMachine(lambda s, t, f: Load("EMPTY", "x"))
        with pytest.raises(MachineError):
            gm.run({"EMPTY": frozenset()})

    def test_fuel(self):
        gm = GenericMachine(lambda s, t, f: Continue("start", t))
        with pytest.raises(OutOfFuel):
            gm.run({"C": frozenset({(1,)})}, budget=50)


class TestLoadingProtocol:
    """The Theorem 5.1 load-until-complete subroutine."""

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_loads_whole_relation(self, size):
        relation = frozenset({(i, i + 1) for i in range(size)})
        gm = loading_protocol("C")
        store, metrics = gm.run({"C": relation, "NEW": frozenset()})
        assert store["OUT"] == relation

    def test_spawns_grow_with_relation(self):
        def spawn_count(size):
            relation = frozenset({(i,) for i in range(size)})
            __, metrics = loading_protocol("C").run(
                {"C": relation, "NEW": frozenset()})
            return metrics.spawns

        assert spawn_count(4) > spawn_count(2) > spawn_count(1)

    def test_collapse_happens(self):
        relation = frozenset({(i,) for i in range(3)})
        __, metrics = loading_protocol("C").run(
            {"C": relation, "NEW": frozenset()})
        assert metrics.collapses > 0


class TestGMhs:
    def test_children_explorer_materializes_levels(self):
        cu = k3_k2()
        for depth in (1, 2):
            machine = children_explorer(cu, depth)
            store, __ = machine.run_on_cb()
            assert store["LEVEL"] == frozenset(cu.tree.level(depth))

    def test_explorer_spawns_track_branching(self):
        cu = k3_k2()
        __, m1 = children_explorer(cu, 1).run_on_cb()
        __, m2 = children_explorer(cu, 2).run_on_cb()
        assert m2.spawns > m1.spawns

    def test_equivalence_filter_uses_oracle(self):
        """Both edge classes of K3+K2 are symmetric (undirected), so the
        filter keeps both."""
        cu = k3_k2()
        store, __ = equivalence_filter(cu).run_on_cb()
        assert store["OUT"] == cu.representatives[0]

    def test_equivalence_filter_drops_asymmetric(self):
        from repro.core import finite_database as fdb
        from repro.symmetric import from_finite_database
        arrow = fdb([(2, [(0, 1)])], [0, 1], name="arrow")
        hs = from_finite_database(arrow)
        store, __ = equivalence_filter(hs).run_on_cb()
        assert store.get("OUT", frozenset()) == frozenset()

    def test_store_canonical_canonicalizes(self):
        hs = infinite_clique()

        def transition(state, tape, flags, equiv):
            if state == "start":
                # (7, 3) is not a tree path; storing must canonicalize.
                return StoreCanonical("OUT", (7, 3), "done", ())
            return Halt(())

        machine = GMhsMachine(hs, transition)
        store, __ = machine.run_on_cb()
        assert store["OUT"] == frozenset({(0, 1)})

    def test_load_children_requires_tuple_entry(self):
        hs = infinite_clique()
        machine = GMhsMachine(hs, lambda s, t, f, e: LoadChildren("x"))
        with pytest.raises(MachineError):
            machine.run_on_cb()
