"""One cost model and one cardinality estimator.

EXPLAIN ANALYZE's per-operator ``time=`` values are the charges the
statement actually made: plus one root-task overhead they add up to the
clock's advance, and the query store serves the same charges.  The one
estimator's statistics-free numbers are pinned through ``est=``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Schema, SqlSession, TableScan, Warehouse
from repro.engine.explain import operator_labels
from repro.engine.planner import Aggregate, Join, Sort
from repro.telemetry.querystore import fingerprint
from repro.workloads.tpch import TPCH_QUERIES, TPCH_SQL_QUERIES, TpchGenerator
from repro.workloads.tpch.schema import TPCH_DISTRIBUTION, TPCH_SCHEMAS
from tests.conftest import small_config
from tests.test_dmv_schema import EXPECTED_SCHEMAS

ANALYZE_IDS = ["stats_free", "analyzed"]


def tpch_warehouse(analyzed: bool, query_store: bool = False):
    config = small_config()
    config.telemetry.query_store_enabled = query_store
    dw = Warehouse(config=config, auto_optimize=False)
    session = dw.session()
    generator = TpchGenerator(scale_factor=0.01, seed=42)
    for name, batch in generator.all_tables().items():
        session.create_table(name, TPCH_SCHEMAS[name], TPCH_DISTRIBUTION[name])
        session.insert(name, batch)
    if analyzed:
        for table in session.table_names():
            session.analyze_table(table)
    return dw, session


class TestExplainAnalyzeAddsUp:
    @pytest.mark.parametrize("analyzed", [False, True], ids=ANALYZE_IDS)
    def test_operator_times_sum_to_clock_advance(self, analyzed):
        dw, session = tpch_warehouse(analyzed)
        before = dw.clock.now
        profile = session.explain_analyze(TPCH_QUERIES[3]())
        advance = dw.clock.now - before

        nodes = [node for _, node, _ in operator_labels(profile.plan)]
        assert any(isinstance(node, Join) for node in nodes)
        assert any(isinstance(node, Aggregate) for node in nodes)
        assert any(isinstance(node, Sort) for node in nodes)
        if analyzed:
            assert any(
                isinstance(node, Join) and node.algorithm != "hash"
                for node in nodes
            )
        charged = dw.context.cost_model.task_overhead_s + sum(
            profile.stats_for(node).sim_time_s for node in nodes
        )
        assert advance == pytest.approx(charged, abs=1e-9)
        # Root-side operators are charged what the cost model priced over
        # their actual rows, and EXPLAIN renders that charge.
        for node in nodes:
            if not isinstance(node, TableScan):
                assert profile.stats_for(node).sim_time_s > 0
        assert profile.text.count("time=") == len(nodes)

    @pytest.mark.parametrize("analyzed", [False, True], ids=ANALYZE_IDS)
    def test_dmv_carries_the_same_charges(self, analyzed):
        dw, session = tpch_warehouse(analyzed, query_store=True)
        sql = SqlSession(session)
        text = TPCH_SQL_QUERIES[3]
        before = dw.clock.now
        sql.execute(text)
        advance = dw.clock.now - before

        batch = sql.execute("SELECT * FROM sys.dm_exec_operator_stats")
        expected = EXPECTED_SCHEMAS["sys.dm_exec_operator_stats"]
        assert list(batch) == [name for name, _ in expected]
        assert batch["sim_time_s"].dtype == np.float64
        mine = batch["query_hash"] == fingerprint(text)
        charged = dw.context.cost_model.task_overhead_s + float(
            batch["sim_time_s"][mine].sum()
        )
        assert advance == pytest.approx(charged, abs=1e-9)

        # Root-side charges depend only on the rows each operator saw, so
        # a second execution reproduces them operator for operator.
        profile = session.explain_analyze(_bound(sql, text))
        by_id = dict(
            zip(batch["operator_id"][mine].tolist(),
                batch["sim_time_s"][mine].tolist())
        )
        assert len(by_id) == len(operator_labels(profile.plan))
        for operator_id, node, _ in operator_labels(profile.plan):
            if not isinstance(node, TableScan):
                assert by_id[operator_id] == pytest.approx(
                    profile.stats_for(node).sim_time_s, abs=1e-12
                )


def _bound(sql: SqlSession, text: str):
    """The plan the binder builds for one SELECT text."""
    from repro.sql.binder import Binder
    from repro.sql.parser import parse

    statement = parse(text)
    tables = [statement.table] + [j.table for j in statement.joins]
    return Binder(sql._schemas_for(tables)).bind_select(statement)


class TestStatsFreeEstimates:
    """The one estimator without statistics, read through ``est=``."""

    @pytest.fixture
    def session(self):
        dw = Warehouse(config=small_config(), auto_optimize=False)
        session = dw.session()
        session.create_table("t", Schema.of(("id", "int64"), ("v", "float64")))
        session.create_table("u", Schema.of(("k", "int64"), ("w", "float64")))
        session.insert(
            "t", {"id": np.arange(1000, dtype=np.int64), "v": np.ones(1000)}
        )
        session.insert(
            "u",
            {"k": np.arange(5000, dtype=np.int64) % 2000, "w": np.ones(5000)},
        )
        return session

    def pruned_scan(self):
        return TableScan(
            "t", ("id", "v"), prune=(("id", ">=", 0), ("id", "<", 1000))
        )

    def test_each_pruning_conjunct_keeps_half(self, session):
        scan = self.pruned_scan()
        profile = session.explain_analyze(scan)
        assert profile.provenance[id(scan)] == "default"
        assert profile.estimates[id(scan)] == 250  # 1000 x 1/2 x 1/2
        assert "rows=1000 est=250 " in profile.text

    def test_left_semi_join_is_clamped_to_its_left_input(self, session):
        plan = Join(
            self.pruned_scan(), TableScan("u", ("k", "w")),
            ("id",), ("k",), how="left-semi",
        )
        profile = session.explain_analyze(plan)
        assert profile.estimates[id(plan.right)] == 5000
        # max(250, 5000) joined rows, clamped to the 250-row left input.
        assert profile.estimates[id(plan)] == 250
        assert profile.text.splitlines()[0].count("est=250 ") == 1
