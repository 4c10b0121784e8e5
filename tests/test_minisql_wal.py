import json
import os

import pytest

from repro.minisql import WriteAheadLog
from repro.minisql.wal import read_snapshot, snapshot_path, write_snapshot


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "test.wal")


class TestAppendAndRead:
    def test_records_roundtrip(self, wal_path):
        with WriteAheadLog(wal_path) as log:
            log.append({"op": "insert", "n": 1})
            log.append({"op": "delete", "n": 2})
        records = list(WriteAheadLog(wal_path).records())
        assert records == [{"op": "insert", "n": 1}, {"op": "delete", "n": 2}]

    def test_missing_file_yields_nothing(self, wal_path):
        assert list(WriteAheadLog(wal_path).records()) == []

    def test_append_syncs_each_record(self, wal_path, monkeypatch):
        syncs = []
        fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: syncs.append(fd) or fsync(fd))
        log = WriteAheadLog(wal_path)
        for n in range(3):
            log.append({"n": n})
            assert len(syncs) == n + 1
        log.close()
        assert len(list(WriteAheadLog(wal_path).records())) == 3

    def test_truncate_clears_log(self, wal_path):
        log = WriteAheadLog(wal_path)
        log.append({"n": 1})
        log.truncate()
        log.append({"n": 2})
        log.close()
        assert list(WriteAheadLog(wal_path).records()) == [{"n": 2}]

    def test_append_many_is_one_group(self, wal_path, monkeypatch):
        syncs = []
        fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: syncs.append(fd) or fsync(fd))
        log = WriteAheadLog(wal_path)
        log.append_many({"n": n} for n in range(5))
        log.append_many([])  # nothing to commit: no write, no fsync
        assert len(syncs) == 1
        log.close()
        assert list(WriteAheadLog(wal_path).records()) == [
            {"n": n} for n in range(5)
        ]

    def test_torn_group_write_keeps_its_complete_lines(self, wal_path):
        """A crash in the middle of a group write leaves the lines
        written before the tear; only the torn tail is dropped, also
        once the reopened log is appended to."""
        with WriteAheadLog(wal_path) as log:
            log.append_many([{"n": 1}, {"n": 2}])
        group = "".join(
            json.dumps({"n": n}, separators=(",", ":")) + "\n"
            for n in (3, 4, 5)
        )
        torn = group[: group.index('{"n":5}') + 4]
        with open(wal_path, "a", encoding="utf-8") as handle:
            handle.write(torn)
        assert list(WriteAheadLog(wal_path).records()) == [
            {"n": n} for n in (1, 2, 3, 4)
        ]
        with WriteAheadLog(wal_path) as log:
            log.append_many([{"n": 6}])
            log.append({"n": 7})
        assert list(WriteAheadLog(wal_path).records()) == [
            {"n": n} for n in (1, 2, 3, 4, 6, 7)
        ]

    def test_record_missing_its_newline_is_kept_on_append(self, wal_path):
        with open(wal_path, "w", encoding="utf-8") as handle:
            handle.write('{"n":1}\n{"n":2}')
        with WriteAheadLog(wal_path) as log:
            log.append({"n": 3})
        assert list(WriteAheadLog(wal_path).records()) == [
            {"n": n} for n in (1, 2, 3)
        ]

    def test_blank_lines_skipped(self, wal_path):
        with open(wal_path, "w", encoding="utf-8") as handle:
            handle.write('{"n": 1}\n\n{"n": 2}\n')
        assert len(list(WriteAheadLog(wal_path).records())) == 2


class TestSnapshots:
    def test_snapshot_roundtrip(self, wal_path):
        write_snapshot(wal_path, {"tables": [1, 2, 3]})
        assert read_snapshot(wal_path) == {"tables": [1, 2, 3]}

    def test_missing_snapshot_is_none(self, wal_path):
        assert read_snapshot(wal_path) is None

    def test_snapshot_write_is_atomic(self, wal_path):
        write_snapshot(wal_path, {"v": 1})
        write_snapshot(wal_path, {"v": 2})
        assert read_snapshot(wal_path) == {"v": 2}
        assert not os.path.exists(snapshot_path(wal_path) + ".tmp")
