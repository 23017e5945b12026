"""A1 — ablations of the library's own design decisions.

DESIGN.md §4 commits to several implementation choices; these benchmarks
measure what each one buys:

* the *is-path fast path* in canonicalization (a tuple already on the
  tree is its own representative — no level scan);
* the canonicalization/equivalence *caches* on ``HSDatabase``;
* the *diagonal number encoding* in QLhs counters versus the naive
  all-children encoding (``(E↓↓)↑ᵏ``), whose values grow with level
  sizes.
"""

import pytest

from repro.core import finite_database
from repro.qlhs import QLhsInterpreter, constant_term, full_term
from repro.symmetric import INFINITE, component_union, infinite_clique

from conftest import report


def fresh_k3_k2():
    tri = finite_database(
        [(2, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])],
        [0, 1, 2], name="K3")
    edge = finite_database([(2, [(0, 1), (1, 0)])], [0, 1], name="K2")
    return component_union([(tri, INFINITE), (edge, INFINITE)],
                           name="K3+K2")


class TestCanonicalizationAblation:
    def test_a1_fast_path_on_tree_paths(self, benchmark):
        """Canonicalizing a path: the fast path answers from a walk."""
        cu = fresh_k3_k2()
        path = cu.tree.level(3)[-1]

        result = benchmark(cu.canonical_representative, path)
        assert result == path

    def test_a1_level_scan_on_foreign_tuples(self, benchmark):
        """Canonicalizing an off-tree tuple scans + matches; fresh
        database per round set so the cache cannot help."""
        cu = fresh_k3_k2()
        tuples = [((0, 50 + i, 1), (0, 50 + i, 2)) for i in range(64)]
        state = {"i": 0}

        def canonicalize_next():
            u = tuples[state["i"] % len(tuples)]
            state["i"] += 1
            return cu.canonical_representative(u)

        result = benchmark(canonicalize_next)
        assert len(result) == 2

    def test_a1_cache_effect(self):
        """Second identical equivalence query answers from the cache."""
        import time
        cu = fresh_k3_k2()
        u = ((0, 10, 0), (0, 10, 1), (1, 3, 0))
        v = ((0, 20, 2), (0, 20, 0), (1, 9, 1))
        t0 = time.perf_counter()
        first = cu.equivalent(u, v)
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        second = cu.equivalent(u, v)
        warm = time.perf_counter() - t0
        report("A1 equivalence cache", [
            ("cold", f"{cold * 1e6:.1f}us"), ("warm", f"{warm * 1e6:.1f}us")])
        assert first == second
        assert warm <= cold


class TestNumberEncodingAblation:
    @pytest.mark.parametrize("k", [4, 8])
    def test_a1_diagonal_encoding(self, benchmark, k):
        hs = infinite_clique()
        it = QLhsInterpreter(hs, budget=10 ** 9)

        value = benchmark(it.eval_term, constant_term(k), {})
        assert value.rank == k + 1
        assert len(value) <= len(hs.tree.level(1))

    @pytest.mark.parametrize("k", [4, 8])
    def test_a1_naive_encoding(self, benchmark, k):
        """The naive (E↓↓)↑ᵏ number: the value is the whole level —
        Bell-number many representatives on the clique."""
        hs = infinite_clique()
        it = QLhsInterpreter(hs, budget=10 ** 9)

        value = benchmark(it.eval_term, full_term(k), {})
        assert value.rank == k
        assert len(value) == len(hs.tree.level(k))

    def test_a1_size_comparison(self):
        hs = infinite_clique()
        it = QLhsInterpreter(hs, budget=10 ** 9)
        rows = []
        for k in (4, 6, 8):
            diag = len(it.eval_term(constant_term(k), {}))
            naive = len(it.eval_term(full_term(k), {}))
            rows.append((f"k={k}", "diagonal", diag, "naive", naive))
        report("A1 number-value sizes", rows)
        assert len(it.eval_term(full_term(8), {})) > \
            100 * len(it.eval_term(constant_term(8), {}))
