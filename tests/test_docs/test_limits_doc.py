"""``docs/limits.md`` must match :data:`repro.trace.limits.REGISTRY`
and the live defaults of the governed entry points."""

from pathlib import Path

import pytest

from repro.engine import Engine
from repro.engine.plan import MachineFixpoint
from repro.fcf import FcfDatabase, finite_value
from repro.fcf.qlf import QLfInterpreter
from repro.finite.ql import QLInterpreter
from repro.graphs import mixed_components_hsdb, path_db
from repro.qlhs.completeness import PQPipeline
from repro.qlhs.interpreter import QLhsInterpreter
from repro.trace import limits

DOC = Path(__file__).resolve().parents[2] / "docs" / "limits.md"


def table_rows():
    """The data rows of the markdown table, unescaped, as tuples."""
    placeholder = "\x00"          # stands in for the escaped \| cells
    rows = []
    for line in DOC.read_text().splitlines():
        if not line.startswith("|"):
            continue
        cells = [c.strip().replace(placeholder, "|")
                 for c in line.replace(r"\|", placeholder).split("|")[1:-1]]
        if cells[0] in ("Location", "---"):
            continue
        rows.append(tuple(cells))
    return rows


class TestTableMatchesRegistry:
    def test_row_count(self):
        assert len(table_rows()) == len(limits.REGISTRY)

    def test_rows_match_registry_in_order(self):
        for row, spec in zip(table_rows(), limits.REGISTRY):
            location, parameter, default, meaning, failure = row
            assert location == f"`{spec.location}`"
            assert parameter == f"`{spec.parameter}`"
            assert default == f"`{spec.default:_}`"
            assert meaning == spec.step_meaning
            assert failure == spec.failure

    def test_registry_locations_are_unique(self):
        locations = [spec.location for spec in limits.REGISTRY]
        assert len(set(locations)) == len(locations)


class TestLiveDefaultsMatchRegistry:
    """The registry must describe what the code actually does."""

    @pytest.fixture(scope="class")
    def hsdb(self):
        return mixed_components_hsdb()

    def test_engine_default(self, hsdb):
        assert Engine(hsdb).budget.max_steps == limits.ENGINE

    def test_qlhs_interpreter_default(self, hsdb):
        interp = QLhsInterpreter(hsdb)
        assert interp.budget.max_steps == limits.QLHS_INTERPRETER

    def test_qlf_interpreter_default(self):
        interp = QLfInterpreter(FcfDatabase([finite_value(1, [(0,)])]))
        assert interp.budget.max_steps == limits.QLF_INTERPRETER

    def test_ql_interpreter_default(self):
        interp = QLInterpreter(path_db(3))
        assert interp.budget.max_steps == limits.QL_INTERPRETER

    def test_machine_fixpoint_default(self):
        node = MachineFixpoint(lambda oracle: ())
        assert node.max_steps == limits.MACHINE_FIXPOINT

    def test_pq_pipeline_default(self, hsdb):
        pipeline = PQPipeline(hsdb)
        assert pipeline.budget.max_steps == limits.PQ_PIPELINE

    def test_check_case_default(self):
        import random

        from repro.check.generators import gen_case
        from repro.check.oracles import CaseContext
        ctx = CaseContext(gen_case(random.Random(7), 0))
        assert ctx.budget_steps == limits.CHECK_CASE
        assert ctx.budget().max_steps == limits.CHECK_CASE

    def test_serve_tenant_default(self):
        from repro.serve.tenants import Tenant
        tenant = Tenant("t")
        assert tenant.max_steps == limits.SERVE_REQUEST
        assert tenant.admit().max_steps == limits.SERVE_REQUEST

    def test_ingest_default(self):
        import inspect

        from repro.store.ingest import ingest_manifest
        signature = inspect.signature(ingest_manifest)
        assert (signature.parameters["budget_steps"].default
                == limits.INGEST_DB)
