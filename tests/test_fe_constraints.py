"""Tests for opt-in unique-key enforcement (Section 4.4.3)."""

import numpy as np
import pytest

from repro import Schema, Warehouse
from repro.common.errors import CatalogError
from repro.fe.constraints import UniqueConstraintViolation
from tests.conftest import small_config


def ids(values):
    arr = np.asarray(values, dtype=np.int64)
    return {"id": arr, "v": np.zeros(len(arr))}


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
    return s


class TestUniqueEnforcement:
    def test_clean_inserts_pass(self, session):
        assert session.insert("t", ids(range(100))) == 100
        assert session.insert("t", ids(range(100, 200))) == 100

    def test_intra_batch_duplicates_rejected(self, session):
        with pytest.raises(UniqueConstraintViolation, match="duplicate"):
            session.insert("t", ids([1, 2, 2]))

    def test_cross_statement_duplicates_rejected(self, session):
        session.insert("t", ids(range(50)))
        with pytest.raises(UniqueConstraintViolation, match="already exist"):
            session.insert("t", ids([10]))

    def test_rejected_insert_leaves_no_rows(self, dw, session):
        session.insert("t", ids(range(10)))
        with pytest.raises(UniqueConstraintViolation):
            session.insert("t", ids([5, 100]))
        assert session.table_snapshot("t").live_rows == 10

    def test_deleted_keys_reusable(self, dw, session):
        from repro import BinOp, Col, Lit
        session.insert("t", ids(range(10)))
        session.delete("t", BinOp("==", Col("id"), Lit(3)))
        session.insert("t", ids([3]))  # key freed by the delete
        assert session.table_snapshot("t").live_rows == 10

    def test_nan_in_float_keys_does_not_hide_duplicates(self, dw):
        s = dw.session()
        s.create_table(
            "f", Schema.of(("id", "int64"), ("v", "float64")),
            distribution_column="id", unique_column="v",
        )
        s.insert("f", {"id": np.array([1, 2]), "v": np.array([1.0, np.nan])})
        with pytest.raises(UniqueConstraintViolation, match="already exist"):
            s.insert("f", {"id": np.array([3, 4]), "v": np.array([np.nan, 1.0])})

    def test_check_sees_same_transaction_inserts(self, session):
        session.begin()
        session.insert("t", ids([1]))
        with pytest.raises(UniqueConstraintViolation):
            session.insert("t", ids([1]))
        session.rollback()

    def test_bulk_load_cross_file_duplicates_rejected(self, session):
        with pytest.raises(UniqueConstraintViolation):
            session.bulk_load("t", [ids([1, 2]), ids([2, 3])])

    def test_concurrent_si_inserts_can_both_commit(self, dw, session):
        """The paper's other objection: SI cannot see a concurrent insert,
        so enforcement is not airtight without extra conflict machinery."""
        session.insert("t", ids(range(10)))
        a, b = dw.session(), dw.session()
        a.begin()
        b.begin()
        a.insert("t", ids([500]))
        b.insert("t", ids([500]))
        a.commit()
        b.commit()  # both commit: a documented SI limitation
        assert dw.session().table_snapshot("t").live_rows == 12

    def test_unknown_unique_column_rejected(self, dw):
        with pytest.raises(CatalogError, match="unique column"):
            dw.session().create_table(
                "u", Schema.of(("id", "int64")), unique_column="nope"
            )

    def test_tables_without_constraint_unaffected(self, dw):
        s = dw.session()
        s.create_table("free", Schema.of(("id", "int64"), ("v", "float64")))
        s.insert("free", ids([1, 1, 1]))  # duplicates fine
        assert s.table_snapshot("free").live_rows == 3
