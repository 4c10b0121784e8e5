import pytest

from repro.errors import MiniSQLError, SchemaError
from repro.minisql import Column, INTEGER, TEXT, Table, schema


def make_table():
    return Table(
        schema(
            "users",
            Column("id", INTEGER, primary_key=True),
            Column("name", TEXT, nullable=False),
            Column("age", INTEGER),
        )
    )


@pytest.fixture
def users():
    table = make_table()
    table.insert({"id": 1, "name": "nguyen", "age": 30})
    table.insert({"id": 2, "name": "abiteboul", "age": 45})
    table.insert({"id": 3, "name": "cobena", "age": 28})
    return table


class TestInsert:
    def test_insert_returns_completed_row(self):
        table = make_table()
        row = table.insert({"id": 1, "name": "x"})
        assert row == {"id": 1, "name": "x", "age": None}

    def test_duplicate_primary_key_rejected(self, users):
        with pytest.raises(MiniSQLError):
            users.insert({"id": 1, "name": "dup"})

    def test_schema_violation_rejected(self, users):
        with pytest.raises(SchemaError):
            users.insert({"id": 9, "name": None})

    def test_len(self, users):
        assert len(users) == 3


class TestRows:
    def test_rows_yields_every_row(self, users):
        assert sorted(row["name"] for row in users.rows()) == [
            "abiteboul", "cobena", "nguyen",
        ]


class TestGet:
    def test_point_lookup(self, users):
        assert users.get(2)["name"] == "abiteboul"

    def test_missing_key_returns_none(self, users):
        assert users.get(99) is None

    def test_returned_rows_are_copies(self, users):
        users.get(1)["name"] = "EVIL"
        next(users.rows())["name"] = "EVIL"
        assert users.get(1)["name"] == "nguyen"


class TestUpdate:
    def test_update_matching_rows(self, users):
        assert users.update(1, {"age": 99}) is True
        assert users.get(1)["age"] == 99
        assert users.get(2)["age"] == 45
        assert users.update(99, {"age": 1}) is False
        assert len(users) == 3

    def test_update_primary_key(self, users):
        users.update(3, {"id": 30})
        assert users.get(3) is None
        assert users.get(30)["name"] == "cobena"

    def test_update_to_duplicate_key_rejected(self, users):
        with pytest.raises(MiniSQLError):
            users.update(3, {"id": 1})
        assert users.get(3)["name"] == "cobena"

    def test_update_unknown_column_rejected(self, users):
        with pytest.raises(SchemaError):
            users.update(1, {"nope": 1})


class TestDelete:
    def test_delete_reports_whether_row_existed(self, users):
        assert users.delete(1) is True
        assert users.delete(1) is False
        assert len(users) == 2

    def test_deleted_rows_gone_from_pk_index(self, users):
        users.delete(1)
        assert users.get(1) is None


class TestObserver:
    def test_mutations_are_observed(self):
        table = make_table()
        events = []
        table.observer = lambda op, name, payload: events.append((op, name))
        table.insert({"id": 1, "name": "x"})
        table.update(1, {"age": 5})
        table.delete(1)
        table.update(1, {"age": 6})  # no row: nothing to log
        table.delete(1)
        assert events == [
            ("insert", "users"), ("update", "users"), ("delete", "users"),
        ]
