"""The optimizer driver: same outputs as ever, rank work linear in the plan.

The tests run the optimizer over one seeded set of generated FO
sentences, bounded as the fuzzer and the served-traffic benchmark bound
them (depth 4, at most 2 quantifiers), over the four builtin hs
databases' signatures.
"""

import hashlib
import importlib
import random
import statistics

from repro.check.generators import BUILTIN_HSDBS, builtin_hsdb, gen_sentence
from repro.engine import plan_from_formula_macro, plan_size
from repro.engine.optimize import iter_subplans, optimize_result

# By path: the package re-exports functions named ``optimize`` and ``plan``.
optimize_module = importlib.import_module("repro.engine.optimize")
plan_module = importlib.import_module("repro.engine.plan")

SENTENCES = 200
SEED = 16

#: SHA-256 over every sentence's ``(repr(plan), rewrites, passes)``,
#: recorded before the driver gained its per-call memos, subtree
#: skipping and type dispatch.  Any change to an optimized shape, a
#: per-rule tally or a pass count moves it.
DIGEST = "6f35cfc74e1819ea66f426b6b81a8725dd8c67e50849bca5738a7ce323bfe650"

#: Bound on ``plan_rank`` calls per ``optimize_result`` call, as a
#: multiple of the input plan's size.  Each call computes one node's
#: rank; a driver that re-ranks whole subtrees runs far above it.
RANK_CALLS_PER_NODE = 8


def generated_plans():
    """``(plan, signature)`` for each generated sentence, in order."""
    rng = random.Random(SEED)
    signatures = [builtin_hsdb(name).signature for name in BUILTIN_HSDBS]
    out = []
    for index in range(SENTENCES):
        signature = signatures[index % len(signatures)]
        sentence = gen_sentence(rng, signature, depth=4, quantifiers=2)
        out.append((plan_from_formula_macro(sentence, [], signature),
                    signature))
    return out


def test_outputs_byte_identical():
    digest = hashlib.sha256()
    for plan, signature in generated_plans():
        result = optimize_result(plan, signature)
        digest.update(repr((repr(result.plan), result.rewrites,
                            result.passes)).encode())
    assert digest.hexdigest() == DIGEST


def test_rank_work_linear_in_plan(monkeypatch):
    calls = [0]
    real = plan_module.plan_rank

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    # Counted in both modules the driver could call it from.
    monkeypatch.setattr(plan_module, "plan_rank", counting)
    monkeypatch.setattr(optimize_module, "plan_rank", counting,
                        raising=False)
    ratios = []
    for plan, signature in generated_plans():
        calls[0] = 0
        optimize_result(plan, signature)
        ratios.append(calls[0] / plan_size(plan))
    assert max(ratios) <= RANK_CALLS_PER_NODE, (
        f"median {statistics.median(ratios):.1f}x, max {max(ratios):.1f}x")


def test_sort_keys_are_reprs():
    """Commutative children sort by ``repr``; the memo builds each key
    from the children's keys and must give the same text."""
    for plan, signature in generated_plans()[:50]:
        memo = plan_module.PlanMemo(signature)
        for node in iter_subplans(optimize_result(plan, signature).plan):
            assert memo._key(node) == repr(node)
        for node in iter_subplans(plan):
            assert memo._key(node) == repr(node)
