"""Persistent target-rate storage (paper section 7.1).

"The library persistently maintains target rates for the regulated
application. ... Periodically and at termination, target rate information is
written to this same file to preserve targets for future executions."

:class:`TargetStore` keeps one JSON document per application identity in a
directory.  Writes are atomic (write-to-temp, fsync, rename) so a crash
mid-save can never corrupt an existing target file — a regulator that loses
its targets silently would re-enter bootstrap and probation, which for a
long-running service is a real regression.  Transient write failures are
retried with bounded exponential backoff before surfacing as
:class:`~repro.core.errors.PersistenceError`.

Reads degrade rather than fail: a missing file simply means "no prior
calibration"; a *corrupt* file raises :class:`PersistenceError` when the
store is strict, but with ``strict=False`` it is **quarantined** — renamed
to ``<name>.corrupt`` so the damaged bytes survive for post-mortem — and
treated as missing, letting the regulator re-bootstrap instead of dying
mid-regulation (§6.2's persistence contract under the fault model of
``docs/robustness.md``).

The stored document wraps the snapshot produced by
:meth:`repro.core.controller.ThreadRegulator.export_state` with a format
version for forward compatibility.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.core.errors import PersistenceError
from repro.obs import lazy as obs_events

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry

__all__ = ["TargetStore", "FORMAT_VERSION", "QUARANTINE_SUFFIX"]

#: Version tag embedded in every persisted document.
FORMAT_VERSION = 1

#: Appended to a corrupt target file's name when it is quarantined.
QUARANTINE_SUFFIX = ".corrupt"

_SAFE_CHARS = re.compile(r"[^A-Za-z0-9._-]+")


def _safe_filename(app_id: str) -> str:
    """Map an application identity to a filesystem-safe filename."""
    cleaned = _SAFE_CHARS.sub("_", app_id.strip())
    if not cleaned.strip("._-"):
        raise PersistenceError(f"unusable application identity: {app_id!r}")
    return f"{cleaned}.manners.json"


class TargetStore:
    """Directory-backed persistence for calibration state.

    Args:
        directory: Where the per-application JSON files live.
        strict: When ``True`` (default), unreadable or malformed files
            raise :class:`PersistenceError`; when ``False`` they are
            quarantined as ``<name>.corrupt`` and reported as missing.
        save_retries: Additional save attempts after the first failure.
        save_backoff: Base seconds between retries (doubles per attempt).
        sleep: Injectable sleep for the retry backoff (tests, simulators).
        telemetry: Optional telemetry handle; quarantines and retried
            saves emit ``anomaly``/``recovery`` events through it.
    """

    __slots__ = ("_dir", "_strict", "_save_retries", "_save_backoff", "_sleep", "_telemetry", "quarantined", "save_failures")

    def __init__(
        self,
        directory: str | os.PathLike[str],
        strict: bool = True,
        save_retries: int = 2,
        save_backoff: float = 0.05,
        sleep: Callable[[float], None] = time.sleep,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        # An exact int, checked here: a float or string would fail only
        # inside a retry.
        if save_retries.__class__ is not int or save_retries < 0:
            raise PersistenceError(f"save_retries must be an int >= 0, got {save_retries!r}")
        # Rejects NaN and inf as well as negatives: an infinite backoff would
        # make the retry's sleep raise OverflowError, not PersistenceError.
        if not 0.0 <= save_backoff < math.inf:
            raise PersistenceError(f"save_backoff must be finite and >= 0, got {save_backoff}")
        self._dir = Path(directory)
        self._strict = strict
        self._save_retries = save_retries
        self._save_backoff = save_backoff
        self._sleep = sleep
        self._telemetry = telemetry
        #: Files set aside by lenient loads, newest last.
        self.quarantined: list[Path] = []
        #: Save attempts that failed (including ones later retried OK).
        self.save_failures = 0

    @property
    def directory(self) -> Path:
        """The backing directory."""
        return self._dir

    @property
    def strict(self) -> bool:
        """Whether corrupt files raise instead of being quarantined."""
        return self._strict

    def path_for(self, app_id: str) -> Path:
        """The file that holds ``app_id``'s targets."""
        return self._dir / _safe_filename(app_id)

    def quarantine_path_for(self, app_id: str) -> Path:
        """Where ``app_id``'s targets land if quarantined as corrupt."""
        path = self.path_for(app_id)
        return path.with_name(path.name + QUARANTINE_SUFFIX)

    def quarantine(self, app_id: str, reason: str) -> None:
        """Set ``app_id``'s file aside as corrupt, as a lenient load does.

        For a caller that read the file fine but could not use what it
        held, so that the next load finds no file instead of the same one.
        """
        self._quarantine(self.path_for(app_id), reason)

    # -- operations ----------------------------------------------------------------
    def load(
        self, app_id: str, strict: bool | None = None
    ) -> Mapping[str, Any] | None:
        """Return the persisted snapshot for ``app_id``, or ``None``.

        ``strict`` overrides the store-level mode for this call.  Strict
        loads raise :class:`PersistenceError` for unreadable or malformed
        files; lenient loads quarantine them (rename to ``*.corrupt``) and
        return ``None`` so the caller re-bootstraps.
        """
        effective_strict = self._strict if strict is None else strict
        path = self.path_for(app_id)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except UnicodeDecodeError as exc:
            return self._fail(
                effective_strict, path, f"corrupt target file {path}: {exc}"
            )
        except OSError as exc:
            return self._fail(effective_strict, path, f"cannot read {path}: {exc}")
        try:
            document = json.loads(raw)
        except json.JSONDecodeError as exc:
            return self._fail(
                effective_strict, path, f"corrupt target file {path}: {exc}"
            )
        if not isinstance(document, dict):
            return self._fail(
                effective_strict, path, f"corrupt target file {path}: not an object"
            )
        version = document.get("version")
        if version != FORMAT_VERSION:
            return self._fail(
                effective_strict,
                path,
                f"target file {path} has unsupported version {version!r}",
            )
        state = document.get("state")
        if not isinstance(state, dict):
            return self._fail(
                effective_strict, path, f"target file {path} is missing its state"
            )
        return state

    def save(self, app_id: str, state: Mapping[str, Any]) -> Path:
        """Atomically persist ``state`` for ``app_id``; return the path.

        Transient :class:`OSError` failures are retried up to
        ``save_retries`` times with exponential backoff; only a fully
        exhausted attempt sequence, or a backoff too long for ``sleep``
        to take, raises :class:`PersistenceError`.
        """
        path = self.path_for(app_id)
        document = {"version": FORMAT_VERSION, "app_id": app_id, "state": state}
        last_error: OSError | None = None
        for attempt in range(self._save_retries + 1):
            try:
                self._write_atomically(path, document)
                return path
            except OSError as exc:
                last_error = exc
                self.save_failures += 1
                self._note_save_failure(exc, attempt)
                if attempt < self._save_retries:
                    try:
                        self._sleep(self._save_backoff * (2.0**attempt))
                    except OverflowError as overflow:
                        # A finite backoff can still be too long for the
                        # platform's sleep; the save has failed all the same.
                        raise PersistenceError(
                            f"cannot save targets to {path}: retry backoff "
                            f"out of range ({overflow}) after {last_error}"
                        ) from last_error
        raise PersistenceError(
            f"cannot save targets to {path} after "
            f"{self._save_retries + 1} attempts: {last_error}"
        ) from last_error

    def delete(self, app_id: str) -> bool:
        """Remove ``app_id``'s targets; return whether a file existed."""
        path = self.path_for(app_id)
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return False
        except OSError as exc:
            raise PersistenceError(f"cannot delete {path}: {exc}") from exc

    # -- internals --------------------------------------------------------------------
    def _write_atomically(self, path: Path, document: Mapping[str, Any]) -> None:
        self._dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name + ".", suffix=".tmp", dir=self._dir
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            # Never leave the temp file behind on any failure.
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _fail(self, strict: bool, path: Path, message: str) -> None:
        if strict:
            raise PersistenceError(message)
        self._quarantine(path, message)
        return None

    def _quarantine(self, path: Path, message: str) -> None:
        """Set a corrupt file aside as ``<name>.corrupt`` (best effort)."""
        target = path.with_name(path.name + QUARANTINE_SUFFIX)
        try:
            os.replace(path, target)
        except OSError:
            # The file may be gone or the directory read-only; treating it
            # as missing is still the right degraded behaviour.
            return
        self.quarantined.append(target)
        tel = self._telemetry
        if tel is not None:
            tel.emit(
                obs_events.AnomalyDetected(
                    t=tel.now,
                    src=tel.label,
                    anomaly="corrupt_target",
                    detail=message,
                )
            )
            tel.emit(
                obs_events.RecoveryAction(
                    t=tel.now,
                    src=tel.label,
                    action="quarantine",
                    detail=str(target),
                )
            )
            tel.metrics.counters.target_files_quarantined.inc()

    def _note_save_failure(self, exc: OSError, attempt: int) -> None:
        tel = self._telemetry
        if tel is not None:
            tel.emit(
                obs_events.AnomalyDetected(
                    t=tel.now,
                    src=tel.label,
                    anomaly="save_failure",
                    value=float(attempt),
                    detail=str(exc),
                )
            )
            if attempt < self._save_retries:
                tel.emit(
                    obs_events.RecoveryAction(
                        t=tel.now, src=tel.label, action="save_retry"
                    )
                )
            tel.metrics.counters.target_save_failures.inc()
