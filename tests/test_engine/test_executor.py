"""Engine execution mechanics: caching, batching, parallelism, stats."""

import pytest

from repro.engine import (
    Complement,
    Engine,
    EngineCache,
    FcfFixpoint,
    FilterAtom,
    FilterEq,
    FullScan,
    Quantify,
    Scan,
    Union,
    plan_from_sentence,
)
from repro.errors import RankMismatchError, TypeSignatureError
from repro.fcf import FcfDatabase, finite_value
from repro.graphs import mixed_components_hsdb
from repro.logic import parse
from repro.qlhs import parse_program
from repro.symmetric import infinite_clique


@pytest.fixture(scope="module")
def k3k2():
    return mixed_components_hsdb()


@pytest.fixture()
def engine(k3k2):
    return Engine(k3k2)


class TestBasicNodes:
    def test_scan_is_the_representative_set(self, engine, k3k2):
        value = engine.evaluate(Scan(0))
        assert value.rank == 2
        assert value.paths == k3k2.representatives[0]

    def test_full_scan_is_the_level(self, engine, k3k2):
        value = engine.evaluate(FullScan(2))
        assert value.paths == frozenset(k3k2.tree.level(2))

    def test_complement_partitions_the_level(self, engine, k3k2):
        edges = engine.evaluate(Scan(0))
        non_edges = engine.evaluate(Complement(Scan(0)))
        assert edges.paths & non_edges.paths == frozenset()
        assert edges.paths | non_edges.paths == frozenset(
            k3k2.tree.level(2))

    def test_filter_atom_equals_scan_on_full_level(self, engine):
        via_filter = engine.evaluate(FilterAtom(FullScan(2), 0, (0, 1)))
        via_scan = engine.evaluate(Scan(0))
        assert via_filter == via_scan

    def test_filter_atom_negated(self, engine):
        pos = engine.evaluate(FilterAtom(FullScan(2), 0, (0, 1)))
        neg = engine.evaluate(
            FilterAtom(FullScan(2), 0, (0, 1), negate=True))
        assert pos.paths & neg.paths == frozenset()

    def test_quantify_exists_vs_forall(self, engine, k3k2):
        edges_up = FilterAtom(FullScan(2), 0, (0, 1))
        some = engine.evaluate(Quantify(edges_up, "exists"))
        every = engine.evaluate(Quantify(edges_up, "forall"))
        # Every element of K3+K2 has a neighbour; not every extension
        # of an element is a neighbour (self-pairs are non-edges).
        assert some.paths == frozenset(k3k2.tree.level(1))
        assert every.paths == frozenset()
        assert every.paths <= some.paths

    def test_mixed_rank_union_raises(self, engine):
        with pytest.raises(RankMismatchError):
            engine.evaluate(Union((Scan(0), FullScan(1))))


class TestCachingBehaviour:
    def test_warm_evaluation_hits_result_cache(self, engine):
        plan = plan_from_sentence(
            parse("forall x. exists y. R1(x, y)"), engine.signature)
        engine.evaluate(plan)
        before = engine.stats().result_cache.hits
        engine.evaluate(plan)
        assert engine.stats().result_cache.hits > before

    def test_subplan_sharing_across_queries(self, engine):
        """Two different queries sharing a subtree compute it once."""
        shared = FilterAtom(FullScan(2), 0, (0, 1))
        engine.evaluate(Quantify(shared, "exists"))
        misses_before = engine.stats().result_cache.misses
        hits_before = engine.stats().result_cache.hits
        engine.evaluate(Quantify(shared, "forall"))
        assert engine.stats().result_cache.hits > hits_before
        # Only the new Quantify node is a miss; the subtree is warm.
        assert engine.stats().result_cache.misses == misses_before + 1

    def test_fingerprint_equal_databases_share_a_cache(self, k3k2):
        cache = EngineCache()
        first = Engine(mixed_components_hsdb(), cache=cache)
        second = Engine(mixed_components_hsdb(), cache=cache)
        assert first.fingerprint == second.fingerprint
        plan = Scan(0)
        first.evaluate(plan)
        before = cache.results.hits
        second.evaluate(plan)
        assert cache.results.hits > before

    def test_different_databases_never_share_results(self):
        cache = EngineCache()
        a = Engine(infinite_clique(), cache=cache)
        b = Engine(mixed_components_hsdb(), cache=cache)
        assert a.fingerprint != b.fingerprint
        assert a.evaluate(Scan(0)) != b.evaluate(Scan(0))


class TestBatchExecution:
    def test_membership_against_direct_contains(self, engine, k3k2):
        pool = k3k2.domain.first(10)
        tuples = [(x, y) for x in pool[:5] for y in pool[:5]]
        answers = engine.batch_contains(Scan(0), tuples)
        assert answers == [k3k2.contains(0, u) for u in tuples]

    def test_batch_answers_are_cached(self, engine, k3k2):
        u = (k3k2.domain.first(1)[0],) * 2
        engine.contains(Scan(0), u)
        hits = engine.stats().result_cache.hits
        engine.contains(Scan(0), u)
        assert engine.stats().result_cache.hits > hits

    def test_wrong_rank_tuple_is_not_member(self, engine):
        assert engine.contains(Scan(0), (0,)) is False

    def test_batch_requests_counted(self, engine, k3k2):
        pool = k3k2.domain.first(3)
        engine.batch_contains(FullScan(1), [(x,) for x in pool])
        assert engine.stats().batch_requests == len(pool)


class TestStats:
    def test_oracle_questions_metered(self):
        # A fresh database: the module-scoped fixture's equivalence
        # predicate is already memoized warm by earlier tests.  The
        # naive path is forced because the whole point of the default
        # optimize+compile path is to drive this very counter to ~0 on
        # this sentence (see bench_e20_optimizer).
        fresh = Engine(mixed_components_hsdb(), optimize=False,
                       compiled=False)
        plan = plan_from_sentence(
            parse("forall x. exists y. R1(x, y)"), fresh.signature)
        fresh.evaluate(plan)
        assert fresh.stats().oracle_questions > 0

    def test_node_timings_present(self, engine):
        engine.evaluate(Complement(Scan(0)))
        kinds = {kind for kind, __, __ in engine.stats().node_timings}
        assert "Scan" in kinds and "Complement" in kinds

    def test_format_is_printable(self, engine):
        engine.evaluate(Scan(0))
        text = engine.stats().format()
        assert "oracle questions" in text
        assert "result cache" in text

    def test_reset(self, engine):
        engine.evaluate(Scan(0))
        engine.reset_stats()
        s = engine.stats()
        assert s.evaluations == 0 and s.oracle_questions == 0


class TestModeDispatch:
    def test_fcf_plans_need_fcf_engine(self, engine):
        with pytest.raises(TypeSignatureError):
            engine.evaluate(FcfFixpoint(parse_program("Y1 := R1")))

    def test_hs_plans_rejected_on_fcf_engine(self):
        db = FcfDatabase([finite_value(1, [(0,)])], name="tiny")
        with pytest.raises(TypeSignatureError):
            Engine(db).evaluate(Scan(0))

    def test_engine_rejects_plain_objects(self):
        with pytest.raises(TypeSignatureError):
            Engine(42)

    def test_filter_eq_negative_indices_match_interpreter(self, engine):
        neg = engine.evaluate(FilterEq(FullScan(2), -2, -1))
        pos = engine.evaluate(FilterEq(FullScan(2), 0, 1))
        assert neg == pos
