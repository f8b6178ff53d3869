"""Persistent target storage."""

from __future__ import annotations

import json

import pytest

from repro.core.errors import PersistenceError
from repro.core.persistence import FORMAT_VERSION, TargetStore


class TestRoundTrip:
    def test_save_and_load(self, tmp_path):
        store = TargetStore(tmp_path)
        state = {"sets": {"0": {"arity": 1, "calibration": {"rate": 125.0}}}}
        store.save("defrag", state)
        assert store.load("defrag") == state

    def test_missing_file_is_none(self, tmp_path):
        assert TargetStore(tmp_path).load("nothing") is None

    def test_overwrite(self, tmp_path):
        store = TargetStore(tmp_path)
        store.save("app", {"v": 1})
        store.save("app", {"v": 2})
        assert store.load("app") == {"v": 2}

    def test_delete(self, tmp_path):
        store = TargetStore(tmp_path)
        store.save("app", {})
        assert store.delete("app")
        assert not store.delete("app")
        assert store.load("app") is None

    def test_creates_directory(self, tmp_path):
        store = TargetStore(tmp_path / "sub" / "dir")
        store.save("app", {"x": 1})
        assert store.load("app") == {"x": 1}


class TestConstruction:
    @pytest.mark.parametrize("backoff", [float("inf"), float("nan"), -0.1])
    def test_save_backoff_must_be_finite_and_non_negative(self, tmp_path, backoff):
        # inf made a retried save raise OverflowError from time.sleep, past
        # every caller's handler for PersistenceError.
        with pytest.raises(PersistenceError, match="save_backoff"):
            TargetStore(tmp_path, save_backoff=backoff)

    def test_backoff_too_long_to_sleep_fails_as_persistence_error(self, tmp_path):
        # 1e300 is finite, so it is accepted, but time.sleep raises
        # OverflowError for it (without sleeping), which escaped every
        # caller's handler for PersistenceError.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        store = TargetStore(blocker / "targets", save_backoff=1e300)
        with pytest.raises(PersistenceError, match="backoff out of range"):
            store.save("app", {"x": 1})

    @pytest.mark.parametrize("retries", [1.5, "2", True, -1])
    def test_save_retries_must_be_an_int_at_least_zero(self, tmp_path, retries):
        # 1.5 and "2" raised TypeError, and only at the first failed save.
        with pytest.raises(PersistenceError, match="save_retries"):
            TargetStore(tmp_path, save_retries=retries)


class TestFileFormat:
    def test_version_embedded(self, tmp_path):
        store = TargetStore(tmp_path)
        path = store.save("app", {"x": 1})
        document = json.loads(path.read_text())
        assert document["version"] == FORMAT_VERSION
        assert document["app_id"] == "app"

    def test_app_id_sanitized(self, tmp_path):
        store = TargetStore(tmp_path)
        path = store.path_for("C:\\Program Files\\defrag.exe")
        assert "/" not in path.name.replace(path.suffix, "")
        assert path.parent == tmp_path

    def test_unusable_app_id_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            TargetStore(tmp_path).path_for("///")

    def test_no_temp_files_left_behind(self, tmp_path):
        store = TargetStore(tmp_path)
        store.save("app", {"x": 1})
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []


class TestCorruption:
    def test_corrupt_json_raises_when_strict(self, tmp_path):
        store = TargetStore(tmp_path)
        store.path_for("app").write_text("{not json")
        with pytest.raises(PersistenceError):
            store.load("app")

    def test_corrupt_json_tolerated_when_lenient(self, tmp_path):
        store = TargetStore(tmp_path, strict=False)
        store.path_for("app").write_text("{not json")
        assert store.load("app") is None

    def test_quarantine_by_app_id_sets_the_file_aside(self, tmp_path):
        store = TargetStore(tmp_path)
        store.save("app", {"x": 1})
        store.quarantine("app", "unusable state")
        assert store.load("app") is None
        assert store.quarantine_path_for("app").exists()
        assert store.quarantined == [store.quarantine_path_for("app")]

    def test_wrong_version_rejected(self, tmp_path):
        store = TargetStore(tmp_path)
        store.path_for("app").write_text(
            json.dumps({"version": 999, "state": {}})
        )
        with pytest.raises(PersistenceError):
            store.load("app")

    def test_missing_state_rejected(self, tmp_path):
        store = TargetStore(tmp_path)
        store.path_for("app").write_text(json.dumps({"version": FORMAT_VERSION}))
        with pytest.raises(PersistenceError):
            store.load("app")

    def test_non_object_document_rejected(self, tmp_path):
        store = TargetStore(tmp_path)
        store.path_for("app").write_text(json.dumps([1, 2, 3]))
        with pytest.raises(PersistenceError):
            store.load("app")
