"""``repro.check`` — differential & metamorphic testing of the frontends.

The paper's completeness theorems (3.3, 4.x, 5.1, 6.3) assert that four
very different formalisms — FO over hs-r-dbs, QLhs, QLf+, and generic
machines — compute the *same* queries.  This package turns those
equivalences into a continuously checkable property:

* :mod:`repro.check.generators` — seeded random databases
  (finite/co-finite specs, built-in highly symmetric structures) and
  well-typed random queries in every frontend syntax;
* :mod:`repro.check.oracles` — the differential oracle (all applicable
  frontends must agree modulo ``UNKNOWN``) and the metamorphic
  oracles (permutation genericity, cache consistency, budget
  monotonicity, rewrite invariance, optimizer and process-pool
  agreement);
* :mod:`repro.check.shrink` — a greedy delta-debugging shrinker that
  minimizes a failing (database, query) pair and emits a standalone
  reproducer script;
* :mod:`repro.check.runner` — the campaign driver behind
  ``python -m repro check --seed N --cases K --out report.json``;
* :mod:`repro.check.stress` — the race-stress oracle ("hammer"):
  seeded multi-threaded campaigns pounding shared caches, budgets,
  recorders, and engines, asserting the thread-safety contract of
  ``docs/concurrency.md`` (``python -m repro check --stress``).

Quick use::

    from repro.check import run_check
    report = run_check(seed=7, cases=100)
    print(report["summary"])
"""

from .generators import Case, FcfSpec, gen_case
from .oracles import (
    ORACLES,
    ORACLES_BY_KIND,
    CaseContext,
    OracleOutcome,
    run_oracles,
)
from .runner import main, replay, run_check
from .shrink import shrink_case, write_reproducer
from .stress import HAMMERS, format_stress_report, run_stress

__all__ = [
    "HAMMERS",
    "ORACLES",
    "ORACLES_BY_KIND",
    "Case",
    "CaseContext",
    "FcfSpec",
    "OracleOutcome",
    "format_stress_report",
    "gen_case",
    "main",
    "replay",
    "run_check",
    "run_oracles",
    "run_stress",
    "shrink_case",
    "write_reproducer",
]
