"""Every writer of table rows goes through ``repro.fe.write_path``.

Insert, bulk load, delete, update and STO compaction each write private
blobs stamped with their creator (the GC keys on it), mirror each blob's
checksum in the manifest, record file-level zone maps folded from the
file's row-group zone maps, and run under pinned DCP task ids.  The
commit claims exactly the conflict units it reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BinOp, Col, Lit, Schema, Warehouse
from repro.lst.actions import DataFileInfo
from repro.pagefile.file_format import read_footer
from repro.sqldb import system_tables
from repro.storage.integrity import CHECKSUM_KEY
from tests.conftest import small_config

SCHEMA = Schema.of(
    ("id", "int64"), ("v", "float64"), ("s", "string"), ("b", "bool")
)


def rows(n, start=0):
    ids = np.arange(start, start + n, dtype=np.int64)
    return {
        "id": ids,
        "v": ids * 0.5,
        "s": np.array([f"k{i:04d}" for i in ids], dtype=object),
        "b": ids % 2 == 0,
    }


def make_dw(granularity="table"):
    config = small_config()
    config.row_group_size = 4  # several row groups per file
    config.txn.conflict_granularity = granularity
    dw = Warehouse(config=config, auto_optimize=False)
    dw.session().create_table("t", SCHEMA, distribution_column="id")
    return dw


#: The first table of a fresh warehouse.
TABLE_ID = 1001


def compact(dw):
    result = dw.sto.run_compaction(TABLE_ID)
    assert result.committed and result.files_rewritten


#: name -> (setup, the write under test, its DCP task ids).
WRITERS = {
    "insert": (
        lambda dw: None,
        lambda dw: dw.session().insert("t", rows(40)),
        ["insert:1001:0", "insert:1001:1", "insert:1001:2", "insert:1001:3"],
    ),
    "bulk_load": (
        lambda dw: None,
        lambda dw: dw.session().bulk_load("t", [rows(20), rows(20, start=20)]),
        ["load:1001:00000", "load:1001:00001"],
    ),
    "delete": (
        lambda dw: dw.session().insert("t", rows(40)),
        lambda dw: dw.session().delete("t", BinOp("<", Col("id"), Lit(10))),
        ["mutate:1001:0000", "mutate:1001:0001", "mutate:1001:0002",
         "mutate:1001:0003"],
    ),
    "update": (
        lambda dw: dw.session().insert("t", rows(40)),
        lambda dw: dw.session().update(
            "t", BinOp("<", Col("id"), Lit(30)),
            {"v": BinOp("+", Col("v"), Lit(100.0))},
        ),
        ["mutate:1001:0000", "mutate:1001:0001", "mutate:1001:0002",
         "mutate:1001:0003"],
    ),
    "compaction": (
        # Ten-row inserts spread over four cells: every file is small.
        lambda dw: [dw.session().insert("t", rows(10, start=s))
                    for s in range(0, 40, 10)],
        compact,
        ["compact:1001:0000", "compact:1001:0001", "compact:1001:0002",
         "compact:1001:0003"],
    ),
}


def written_by(name):
    """Run one writer; returns (warehouse, new file/DV infos, DAG task ids)."""
    setup, write, __ = WRITERS[name]
    dw = make_dw()
    setup(dw)
    before = dw.session().table_snapshot("t")
    scheduler = dw.context.scheduler
    original = scheduler.execute
    task_ids = []

    def recording(dag, *args, **kwargs):
        task_ids.extend(sorted(dag.tasks))
        return original(dag, *args, **kwargs)

    scheduler.execute = recording
    try:
        write(dw)
    finally:
        scheduler.execute = original
    after = dw.session().table_snapshot("t")
    old_dvs = {dv.name for dv in before.dvs.values()}
    infos = [info for name, info in after.files.items() if name not in before.files]
    infos += [dv for dv in after.dvs.values() if dv.name not in old_dvs]
    assert infos, f"{name} wrote nothing"
    return dw, infos, task_ids


def folded_zone_map(data):
    """(column, min, max) over the row-group zone maps of a page file."""
    footer = read_footer(data)
    out = []
    for fld in footer.schema:
        if fld.type == "bool":
            continue
        stats = [group.chunks[fld.name].stats for group in footer.row_groups]
        stats = [s for s in stats if s.minimum is not None]
        if stats:
            out.append((fld.name, min(s.minimum for s in stats),
                        max(s.maximum for s in stats)))
    return tuple(out)


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_blobs_stamped_and_checksum_mirrored(writer):
    dw, infos, __ = written_by(writer)
    for info in infos:
        blob = dw.store.head(info.path)
        assert blob.metadata.get("creator_txid"), info.path
        assert blob.metadata.get("creator_begin_ts"), info.path
        assert info.checksum and blob.metadata[CHECKSUM_KEY] == info.checksum


@pytest.mark.parametrize(
    "writer", sorted(name for name in WRITERS if name != "delete")
)
def test_manifest_zone_map_is_fold_of_row_groups(writer):
    dw, infos, __ = written_by(writer)
    files = [info for info in infos if isinstance(info, DataFileInfo)]
    assert files
    for info in files:
        data = dw.store.get(info.path).data
        assert info.column_stats == folded_zone_map(data)
        assert [name for name, *__ in info.column_stats] == ["id", "v", "s"]
    assert any(len(read_footer(dw.store.get(i.path).data).row_groups) > 1
               for i in files)


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_task_ids_pinned(writer):
    __, __, task_ids = written_by(writer)
    assert task_ids == WRITERS[writer][2]


@pytest.mark.parametrize("granularity", ["table", "file"])
def test_finished_units_equal_writeset_upserts(granularity, monkeypatch):
    dw = make_dw(granularity)
    session = dw.session()
    session.create_table("u", SCHEMA)
    session.insert("t", rows(40))
    session.insert("u", rows(40))
    upserted = []
    finished = []
    real_upsert = system_tables.upsert_writeset

    def recording(txn, table_id, data_file_name=None):
        upserted.append(
            f"table:{table_id}" if data_file_name is None
            else f"file:{table_id}/{data_file_name}"
        )
        real_upsert(txn, table_id, data_file_name)

    monkeypatch.setattr(system_tables, "upsert_writeset", recording)
    dw.context.bus.subscribe(
        "txn.finished", lambda event: finished.append(event.payload["units"])
    )
    session.begin()
    session.insert("u", rows(5, start=100))  # insert-only: claims nothing
    session.delete("t", BinOp("<", Col("id"), Lit(10)))
    session.update("t", BinOp(">", Col("id"), Lit(35)),
                   {"v": BinOp("+", Col("v"), Lit(1.0))})
    session.commit()
    assert finished[-1] == upserted
    if granularity == "table":
        assert upserted == [f"table:{TABLE_ID}"]
    else:
        assert len(upserted) > 1
        assert all(unit.startswith(f"file:{TABLE_ID}/") for unit in upserted)
