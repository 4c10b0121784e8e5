from repro.minisql import (
    Column,
    Database,
    INTEGER,
    TEXT,
    schema,
)


class TestDatabaseCheckpointCycles:
    def test_multiple_checkpoint_cycles(self, tmp_path):
        path = str(tmp_path / "db.wal")
        db = Database(path=path)
        table = db.create_table(
            schema("t", Column("id", INTEGER, primary_key=True),
                   Column("v", TEXT))
        )
        for cycle in range(3):
            for i in range(5):
                table.insert({"id": cycle * 10 + i, "v": f"c{cycle}"})
            db.checkpoint()
        table.insert({"id": 999, "v": "tail"})
        db.close()
        recovered = Database.recover(path)
        assert len(recovered.table("t")) == 16
        assert recovered.table("t").get(999)["v"] == "tail"
        recovered.close()

    def test_checkpoint_on_memory_database_is_noop(self):
        db = Database()
        db.create_table(
            schema("t", Column("id", INTEGER, primary_key=True))
        )
        db.checkpoint()  # no path: silently does nothing
        assert len(db.table("t")) == 0
