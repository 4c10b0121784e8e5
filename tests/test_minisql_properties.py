"""Property-based tests of the embedded store.

Invariants:

* a table behaves like a dict keyed by primary key under random operation
  sequences (model-based testing);
* recovery from WAL reproduces the exact table contents, whatever the
  operation sequence and wherever checkpoints fall.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MiniSQLError
from repro.minisql import (
    Column,
    Database,
    INTEGER,
    TEXT,
    schema,
)

USERS = schema(
    "users",
    Column("id", INTEGER, primary_key=True),
    Column("name", TEXT, nullable=False),
    Column("score", INTEGER),
)

# An operation: ("insert", id, name) | ("update", id, score) |
#               ("delete", id) | ("checkpoint",)
operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"), st.integers(0, 15),
            st.sampled_from(["a", "b", "c"]),
        ),
        st.tuples(st.just("update"), st.integers(0, 15), st.integers(0, 99)),
        st.tuples(st.just("delete"), st.integers(0, 15)),
        st.tuples(st.just("checkpoint")),
    ),
    max_size=30,
)


def apply_ops(db, model, ops):
    table = db.table("users")
    for op in ops:
        if op[0] == "insert":
            _, key, name = op
            if key in model:
                with pytest.raises(MiniSQLError):
                    table.insert({"id": key, "name": name})
            else:
                table.insert({"id": key, "name": name})
                model[key] = {"id": key, "name": name, "score": None}
        elif op[0] == "update":
            _, key, score = op
            existed = table.update(key, {"score": score})
            assert existed == (key in model)
            if existed:
                model[key]["score"] = score
        elif op[0] == "delete":
            _, key = op
            assert table.delete(key) == (key in model)
            model.pop(key, None)
        else:
            db.checkpoint()


def assert_matches_model(table, model):
    assert len(table) == len(model)
    for key, row in model.items():
        assert table.get(key) == row
    for row in table.rows():
        assert model[row["id"]] == row


@settings(max_examples=60, deadline=None)
@given(operations)
def test_table_behaves_like_model(ops):
    db = Database()
    db.create_table(USERS)
    model = {}
    apply_ops(db, model, ops)
    assert_matches_model(db.table("users"), model)


@settings(max_examples=40, deadline=None)
@given(operations)
def test_recovery_reproduces_state(tmp_path_factory, ops):
    path = str(tmp_path_factory.mktemp("wal") / "db.wal")
    db = Database(path=path)
    db.create_table(USERS)
    model = {}
    apply_ops(db, model, ops)
    db.close()

    recovered = Database.recover(path)
    assert_matches_model(recovered.table("users"), model)
    recovered.close()


@settings(max_examples=30, deadline=None)
@given(operations, operations)
def test_recovery_then_more_operations(tmp_path_factory, first, second):
    """State stays correct across a crash in the middle of a workload."""
    path = str(tmp_path_factory.mktemp("wal") / "db.wal")
    db = Database(path=path)
    db.create_table(USERS)
    model = {}
    apply_ops(db, model, first)
    db.close()

    recovered = Database.recover(path)
    apply_ops(recovered, model, second)
    recovered.close()

    final = Database.recover(path)
    assert_matches_model(final.table("users"), model)
    final.close()
