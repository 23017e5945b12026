"""recdb — computable queries over recursive (infinite) relational databases.

A faithful, executable reproduction of:

    Tirza Hirst & David Harel,
    "Completeness Results for Recursive Data Bases",
    PODS 1993; full version JCSS 52, 522-536 (1996).

Subpackages
-----------
``repro.core``
    Recursive databases, local isomorphism, local types, computable
    queries and genericity (Section 2).
``repro.logic``
    First-order logic substrate: the quantifier-free complete language
    L⁻ (Theorem 2.1), Ehrenfeucht–Fraïssé games, Hintikka formulas, and
    FO evaluation over highly symmetric databases (Theorem 6.3).
``repro.symmetric``
    Highly symmetric recursive databases: tuple equivalence,
    characteristic trees, the CB representation, partition refinement
    (Section 3), and constructions including recursive random structures.
``repro.qlhs``
    The complete query language QLhs: parser, interpreter over CB,
    derived operators, counters-as-ranks, and the Theorem 3.1 pipeline.
``repro.finite``
    The Chandra–Harel substrate: finite databases, relational algebra,
    the original QL, and finite unfoldings of infinite databases.
``repro.fcf``
    Finite/co-finite databases and the QLf+ language (Section 4).
``repro.machines``
    Computability substrate: Turing machines, oracle machines, counter
    machines, and generic machines GM / GMhs (Section 5).
``repro.bp``
    BP-completeness: automorphism-preserving relations, the Theorem 6.1
    reduction gadget, the unary case, and the Theorem 6.3 compiler.
``repro.graphs``
    A library of recursive graphs (lines, grids, cliques, component
    unions, the Rado graph) used throughout examples and benchmarks.
``repro.engine``
    The unified query-evaluation engine: a plan IR all four frontends
    (L⁻/FO, QLhs, QLf+, GMhs) lower into, fingerprint-keyed two-level
    caching, batched membership execution, and
    ``EngineStats`` metering.
"""

__version__ = "1.0.0"

from . import (  # noqa: F401
    bp,
    core,
    engine,
    fcf,
    finite,
    graphs,
    logic,
    machines,
    qlhs,
    symmetric,
    util,
)

from .core import (  # noqa: F401
    LocalType,
    LocallyGenericQuery,
    OracleQuery,
    PointedDatabase,
    RecursiveDatabase,
    RecursiveRelation,
    count_local_types,
    database_from_predicates,
    enumerate_local_types,
    finite_database,
    local_type_of,
    locally_isomorphic,
    naturals_domain,
    query_from_pointed_examples,
    rdb,
)
from .logic import (  # noqa: F401
    QFExpression,
    classes_of_expression,
    expression_for_query,
    parse,
)
from .engine import Engine, EngineStats  # noqa: F401
from .qlhs import PQPipeline, QLhsInterpreter, parse_program  # noqa: F401
from .symmetric import HSDatabase, infinite_clique, rado_hsdb  # noqa: F401
