"""The shared JSONL journal core: append, load, tolerate, merge."""

import errno
import json
import os
import pathlib
import threading

import pytest

from repro.io import Journal, LoadReport


def journal(path, **overrides):
    kwargs = {"key_field": "key", "required_fields": ("value",)}
    kwargs.update(overrides)
    return Journal(path, 1, **kwargs)


def record(key, value=0, schema=1):
    return {"schema": schema, "key": key, "value": value}


class TestAppendLoad:
    def test_roundtrip(self, tmp_path):
        j = journal(tmp_path / "j.jsonl")
        assert j.append_record("a", record("a", 1)) is True
        assert j.append_record("b", record("b", 2)) is True

        reloaded = journal(tmp_path / "j.jsonl")
        assert len(reloaded) == 2
        assert "a" in reloaded
        assert reloaded.get("a")["value"] == 1
        assert reloaded.keys() == {"a", "b"}

    def test_first_record_wins(self, tmp_path):
        j = journal(tmp_path / "j.jsonl")
        assert j.append_record("a", record("a", 1)) is True
        assert j.append_record("a", record("a", 99)) is False
        assert j.get("a")["value"] == 1
        # Nothing was written for the refused duplicate.
        lines = (tmp_path / "j.jsonl").read_text().splitlines()
        assert len(lines) == 1

    def test_records_in_file_order(self, tmp_path):
        j = journal(tmp_path / "j.jsonl")
        for key in ("c", "a", "b"):
            j.append_record(key, record(key))
        assert [r["key"] for r in j.records()] == ["c", "a", "b"]

    def test_missing_file_is_empty(self, tmp_path):
        j = journal(tmp_path / "absent.jsonl")
        assert len(j) == 0
        assert j.get("a") is None

    def test_one_json_line_per_record(self, tmp_path):
        j = journal(tmp_path / "j.jsonl")
        j.append_record("a", record("a", 1))
        (line,) = (tmp_path / "j.jsonl").read_text().splitlines()
        assert json.loads(line) == record("a", 1)


class TestTolerantLoading:
    def test_torn_tail_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = journal(path)
        j.append_record("a", record("a"))
        with path.open("a") as handle:
            handle.write('{"schema": 1, "key": "torn", "val')

        reloaded = journal(path)
        assert reloaded.keys() == {"a"}
        assert reloaded.load_report.corrupt_lines == 1

    def test_incompatible_schema_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = journal(path)
        j.append_record("a", record("a"))
        with path.open("a") as handle:
            handle.write(json.dumps(record("b", schema=2)) + "\n")

        reloaded = journal(path)
        assert reloaded.keys() == {"a"}
        assert reloaded.load_report.incompatible_records == 1

    def test_missing_required_field_is_corrupt(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with path.open("w") as handle:
            handle.write('{"schema": 1, "key": "a"}\n')

        reloaded = journal(path)
        assert len(reloaded) == 0
        assert reloaded.load_report.corrupt_lines == 1

    def test_duplicate_lines_counted(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with path.open("w") as handle:
            handle.write(json.dumps(record("a", 1)) + "\n")
            handle.write(json.dumps(record("a", 2)) + "\n")

        reloaded = journal(path)
        assert reloaded.get("a")["value"] == 1
        assert reloaded.load_report.duplicate_records == 1

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with path.open("w") as handle:
            handle.write("\n" + json.dumps(record("a")) + "\n\n")
        reloaded = journal(path)
        assert reloaded.keys() == {"a"}
        assert reloaded.load_report == LoadReport(
            records={"a": record("a")},
            corrupt_lines=0,
            incompatible_records=0,
            duplicate_records=0,
        )


class TestMerge:
    def test_merge_from_journal(self, tmp_path):
        a = journal(tmp_path / "a.jsonl")
        b = journal(tmp_path / "b.jsonl")
        a.append_record("x", record("x", 1))
        b.append_record("x", record("x", 99))
        b.append_record("y", record("y", 2))

        assert a.merge_from(b) == 1
        assert a.get("x")["value"] == 1  # existing record untouched
        assert a.get("y")["value"] == 2

    def test_merge_from_path(self, tmp_path):
        a = journal(tmp_path / "a.jsonl")
        b = journal(tmp_path / "b.jsonl")
        b.append_record("y", record("y"))
        assert a.merge_from(tmp_path / "b.jsonl") == 1
        assert "y" in a


class TestConcurrency:
    def test_concurrent_appends_all_land(self, tmp_path):
        j = journal(tmp_path / "j.jsonl")

        def write(start):
            for i in range(start, start + 25):
                j.append_record(f"k{i}", record(f"k{i}", i))

        threads = [
            threading.Thread(target=write, args=(n * 25,))
            for n in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        reloaded = journal(tmp_path / "j.jsonl")
        assert len(reloaded) == 100
        assert reloaded.load_report.corrupt_lines == 0


class _TornHandle:
    """A file handle whose writes land half their bytes, then fail."""

    def __init__(self, handle):
        self._handle = handle

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._handle.__exit__(*exc)

    def write(self, data):
        self._handle.write(data[: len(data) // 2])
        self._handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def _fail(*args, **kwargs):
    raise OSError(errno.EIO, "Input/output error")


class TestWriteFailures:
    """A failed append leaves no trace, so later records survive."""

    @pytest.mark.parametrize("fault", ["torn_write", "fsync"])
    @pytest.mark.parametrize("method", ["append_record", "append_many"])
    def test_failed_append_never_costs_a_later_record(
        self, tmp_path, monkeypatch, fault, method
    ):
        path = tmp_path / "j.jsonl"
        j = journal(path)
        j.append_record("a", record("a"))
        real_open = pathlib.Path.open
        with monkeypatch.context() as patch:
            if fault == "torn_write":
                patch.setattr(
                    pathlib.Path, "open",
                    lambda self, *a, **k: _TornHandle(
                        real_open(self, *a, **k)
                    ),
                )
            else:
                patch.setattr(os, "fsync", _fail)
            with pytest.raises(OSError):
                if method == "append_record":
                    j.append_record("b", record("b"))
                else:
                    j.append_many([("b", record("b")), ("x", record("x"))])
        assert "b" not in j
        assert j.append_record("c", record("c")) is True

        reloaded = journal(path)
        assert reloaded.keys() == {"a", "c"}
        assert reloaded.load_report.corrupt_lines == 0


class TestValidation:
    def test_repr_names_path_and_count(self, tmp_path):
        j = journal(tmp_path / "j.jsonl")
        j.append_record("a", record("a"))
        assert "j.jsonl" in repr(j)
        assert "1 records" in repr(j)

    def test_key_field_respected(self, tmp_path):
        j = Journal(tmp_path / "j.jsonl", 1, key_field="name")
        j.append_record("n1", {"schema": 1, "name": "n1"})
        reloaded = Journal(tmp_path / "j.jsonl", 1, key_field="name")
        assert "n1" in reloaded

    def test_record_without_key_field_corrupt(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with path.open("w") as handle:
            handle.write('{"schema": 1, "value": 3}\n')
        reloaded = journal(path)
        assert reloaded.load_report.corrupt_lines == 1

    def test_non_mapping_line_corrupt(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with path.open("w") as handle:
            handle.write("[1, 2, 3]\n")
        reloaded = journal(path)
        assert len(reloaded) == 0
        assert reloaded.load_report.corrupt_lines == 1


@pytest.mark.parametrize("n", [0, 1, 5])
def test_len_matches_appends(tmp_path, n):
    j = journal(tmp_path / "j.jsonl")
    for i in range(n):
        j.append_record(f"k{i}", record(f"k{i}"))
    assert len(j) == n
