"""Tests for the one reader of table rows (``repro.fe.read_path``).

Every statement that reads data files goes through
``read_path.open_data_file``, which checks the blob against the checksum
the manifest mirrors; and only a scan of the transaction's own snapshot
reports table health to the STO.
"""

import numpy as np
import pytest

from repro import Aggregate, BinOp, Col, Lit, Schema, TableScan, Warehouse
from repro.common.errors import IntegrityError
from repro.sqldb import system_tables as st
from repro.sto.compaction import run_compaction
from tests.conftest import small_config


def ids(n, start=0):
    return {
        "id": np.arange(start, start + n, dtype=np.int64),
        "v": np.zeros(n),
    }


def count(table="t"):
    return Aggregate(TableScan(table, ("id",)), (), {"n": ("count", None)})


def table_id(dw, name="t"):
    txn = dw.context.sqldb.begin()
    try:
        return st.find_table_by_name(txn, name)["table_id"]
    finally:
        txn.abort()


@pytest.fixture
def dw():
    return Warehouse(config=small_config(), auto_optimize=False)


@pytest.fixture
def session(dw):
    s = dw.session()
    s.create_table(
        "t", Schema.of(("id", "int64"), ("v", "float64")),
        distribution_column="id", unique_column="id",
    )
    # Three inserts leave several small files per cell: every file is a
    # compaction victim and overlaps any key range spanning the table.
    for i in range(3):
        s.insert("t", ids(8, start=i * 8))
    return s


READERS = {
    "select": lambda dw, s: s.query(count()),
    "delete": lambda dw, s: s.delete("t", BinOp(">=", Col("id"), Lit(0))),
    "update": lambda dw, s: s.update(
        "t", BinOp(">=", Col("id"), Lit(0)), {"v": Lit(1.0)}
    ),
    "analyze": lambda dw, s: s.analyze_table("t"),
    "create_index": lambda dw, s: s.create_index("t", "idx_t_id", "id"),
    # Keys outside the table's range, but spanning it: no clash, and
    # every file's zone map overlaps the batch.
    "unique_insert": lambda dw, s: s.insert(
        "t", {"id": np.array([-1, 1000], dtype=np.int64), "v": np.zeros(2)}
    ),
    "compaction": lambda dw, s: run_compaction(dw.context, table_id(dw)),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_checks_the_manifest_checksum(dw, session, reader):
    files = sorted(
        session.table_snapshot("t").files.values(), key=lambda info: info.name
    )
    victim, donor = files[0], files[1]
    # A valid page file under the victim's path: the store stamps a fresh
    # checksum for it, so only the manifest's mirrored checksum differs.
    dw.store.put(victim.path, dw.store.get(donor.path).data, overwrite=True)
    assert dw.store.verify(victim.path) is None
    assert dw.store.verify(victim.path, victim.checksum) is not None
    with pytest.raises(IntegrityError):
        READERS[reader](dw, session)


def test_as_of_scan_does_not_publish_stale_health(dw, session):
    for i in range(3, 6):
        session.insert("t", ids(8, start=i * 8))
    tid = table_id(dw)
    session.query(count())
    assert dw.sto.health.is_healthy(tid) is False
    before_compaction = dw.clock.now
    result = run_compaction(dw.context, tid)
    assert result.committed and result.files_rewritten
    session.query(count())
    assert dw.sto.health.is_healthy(tid) is True
    compacted = dw.sto.health.latest(tid)
    timeline = list(dw.sto.health.transitions_for(tid))

    # Reading the pre-compaction state must not report it as current.
    assert session.query(count(), as_of=before_compaction)["n"][0] == 48
    assert dw.sto.health.is_healthy(tid) is True
    assert dw.sto.health.latest(tid) == compacted
    assert dw.sto.health.transitions_for(tid) == timeline
