import json
import os

import pytest

from repro.errors import MiniSQLError
from repro.minisql import (
    Column,
    Database,
    INTEGER,
    TEXT,
    schema,
)
from repro.minisql.wal import snapshot_path

USERS = schema(
    "users",
    Column("id", INTEGER, primary_key=True),
    Column("email", TEXT, nullable=False),
)


class TestInMemory:
    def test_create_and_use_table(self):
        db = Database()
        users = db.create_table(USERS)
        users.insert({"id": 1, "email": "a@x"})
        assert db.table("users").get(1)["email"] == "a@x"

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table(USERS)
        with pytest.raises(MiniSQLError):
            db.create_table(USERS)

    def test_unknown_table_rejected(self):
        with pytest.raises(MiniSQLError):
            Database().table("nope")

    def test_has_table(self):
        db = Database()
        assert not db.has_table("users")
        db.create_table(USERS)
        assert db.has_table("users")


class TestDurability:
    def test_recover_replays_inserts(self, tmp_path):
        path = str(tmp_path / "db.wal")
        with Database(path=path) as db:
            users = db.create_table(USERS)
            users.insert({"id": 1, "email": "a@x"})
            users.insert({"id": 2, "email": "b@x"})
        recovered = Database.recover(path)
        assert recovered.table("users").get(2)["email"] == "b@x"
        recovered.close()

    def test_recover_replays_updates_and_deletes(self, tmp_path):
        path = str(tmp_path / "db.wal")
        with Database(path=path) as db:
            users = db.create_table(USERS)
            users.insert({"id": 1, "email": "a@x"})
            users.insert({"id": 2, "email": "b@x"})
            users.update(1, {"email": "new@x"})
            users.delete(2)
        recovered = Database.recover(path)
        assert recovered.table("users").get(1)["email"] == "new@x"
        assert recovered.table("users").get(2) is None
        recovered.close()

    def test_recovered_database_is_still_durable(self, tmp_path):
        path = str(tmp_path / "db.wal")
        with Database(path=path) as db:
            db.create_table(USERS).insert({"id": 1, "email": "a@x"})
        first = Database.recover(path)
        first.table("users").insert({"id": 2, "email": "b@x"})
        first.close()
        second = Database.recover(path)
        assert len(second.table("users")) == 2
        second.close()

    def test_checkpoint_truncates_wal(self, tmp_path):
        path = str(tmp_path / "db.wal")
        with Database(path=path) as db:
            users = db.create_table(USERS)
            for i in range(20):
                users.insert({"id": i, "email": f"{i}@x"})
            db.checkpoint()
            assert os.path.getsize(path) == 0
            users.insert({"id": 100, "email": "late@x"})
        recovered = Database.recover(path)
        assert len(recovered.table("users")) == 21
        assert recovered.table("users").get(100) is not None
        recovered.close()

    def test_torn_final_wal_line_ignored(self, tmp_path):
        path = str(tmp_path / "db.wal")
        with Database(path=path) as db:
            db.create_table(USERS).insert({"id": 1, "email": "a@x"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "insert", "table": "users", "payl')
        recovered = Database.recover(path)
        assert len(recovered.table("users")) == 1
        recovered.close()

    def test_corrupt_middle_record_raises(self, tmp_path):
        path = str(tmp_path / "db.wal")
        with Database(path=path) as db:
            db.create_table(USERS).insert({"id": 1, "email": "a@x"})
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines.insert(1, "GARBAGE\n")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(MiniSQLError):
            Database.recover(path)

    def test_recovery_of_empty_path(self, tmp_path):
        path = str(tmp_path / "fresh.wal")
        recovered = Database.recover(path)
        assert not recovered.has_table("users")
        recovered.close()


#: A snapshot and the WAL written after it, byte for byte as the store
#: wrote them before secondary indexes were removed: the snapshot still
#: lists each table's ``indexes``.
OLD_SNAPSHOT = (
    '{"tables": [{"schema": {"name": "users", "columns": ['
    '{"name": "id", "type": "INTEGER", "nullable": false,'
    ' "primary_key": true},'
    ' {"name": "email", "type": "TEXT", "nullable": false,'
    ' "primary_key": false}]}, "indexes": [], "rows": ['
    '{"rowid": 1, "row": {"id": 1, "email": "a@x"}},'
    ' {"rowid": 2, "row": {"id": 2, "email": "b@x"}}]}]}'
)
OLD_WAL = (
    '{"op":"create_table","schema":{"name":"sequences","columns":['
    '{"name":"name","type":"TEXT","nullable":false,"primary_key":true},'
    '{"name":"next","type":"INTEGER","nullable":false,'
    '"primary_key":false}]}}\n'
    '{"op":"insert","table":"sequences","payload":'
    '{"rowid":1,"row":{"name":"users","next":4}}}\n'
    '{"op":"insert","table":"users","payload":'
    '{"rowid":3,"row":{"id":3,"email":"c@x"}}}\n'
    '{"op":"update","table":"users","payload":'
    '{"rowid":1,"row":{"id":1,"email":"new@x"}}}\n'
    '{"op":"delete","table":"users","payload":{"rowid":2}}\n'
    '{"op":"checkpoint"}\n'
)


class TestRecordFormat:
    def test_recovers_snapshot_and_wal_of_earlier_format(self, tmp_path):
        path = str(tmp_path / "db.wal")
        with open(snapshot_path(path), "w", encoding="utf-8") as handle:
            handle.write(OLD_SNAPSHOT)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(OLD_WAL)
        recovered = Database.recover(path)
        users = recovered.table("users")
        assert sorted(users.rows(), key=lambda row: row["id"]) == [
            {"id": 1, "email": "new@x"},
            {"id": 3, "email": "c@x"},
        ]
        assert recovered.table("sequences").get("users") == {
            "name": "users", "next": 4,
        }
        # Durable again, and new rows take rowids past the replayed ones.
        users.insert({"id": 4, "email": "d@x"})
        assert users.delete(3)
        recovered.close()
        again = Database.recover(path)
        assert sorted(row["id"] for row in again.table("users").rows()) == [
            1, 4,
        ]
        again.close()

    def test_unknown_record_kind_raises(self, tmp_path):
        path = str(tmp_path / "db.wal")
        with Database(path=path) as db:
            db.create_table(USERS).insert({"id": 1, "email": "a@x"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {"op": "create_index", "table": "users", "column": "email"}
                )
                + "\n"
            )
        with pytest.raises(MiniSQLError, match="create_index"):
            Database.recover(path)
