"""Validated ``REPRO_*`` environment-variable parsing, in one place.

Every knob the benchmark and experiment harnesses read from the
environment used to be parsed ad hoc at its call site, with three distinct
failure modes: ``REPRO_SCALE=0`` silently poisoned every workload sizing,
``REPRO_CACHE=False`` silently *enabled* the cache (only lowercase
``"false"`` was recognized), and ``REPRO_JOBS=""`` raised a bare
``invalid literal for int()`` that named neither the variable nor the
value.  This module is the single parsing layer:

* :func:`env_int` — integer knobs (``REPRO_TRIALS``, ``REPRO_JOBS``):
  whitespace is stripped, an empty value counts as unset, and errors
  name the variable and the offending value.
* :func:`env_scale` — finite-and-positive float knobs (``REPRO_SCALE``):
  ``0``, negatives, ``nan`` and ``inf`` are rejected up front instead of
  surfacing later as degenerate workloads.
* :func:`env_flag` — boolean knobs (``REPRO_CACHE``, ``REPRO_FULL``):
  case-insensitive ``0/false/no/off`` and ``1/true/yes/on``; anything
  else raises rather than being silently mis-read.

The explicit-argument twins (:func:`parse_count`, :func:`check_scale`)
apply the same validation to values passed programmatically, so a CLI
``--jobs 0`` and a ``REPRO_JOBS=0`` fail with the same style of message;
:func:`check_duration` is the CLI's run-length check, where 0 means "no
limit".
"""

from __future__ import annotations

import math
import os

__all__ = [
    "env_flag",
    "env_int",
    "env_scale",
    "parse_count",
    "check_scale",
    "check_duration",
]

#: Accepted spellings for boolean environment flags (lowercased).
_FLAG_TRUE = frozenset({"1", "true", "yes", "on"})
_FLAG_FALSE = frozenset({"0", "false", "no", "off"})


def parse_count(raw: int | str, source: str, minimum: int = 1) -> int:
    """Parse an integer count, naming ``source`` and the value on failure.

    ``source`` is the environment variable or argument name; it appears in
    every error message so a bad ``REPRO_JOBS`` is distinguishable from a
    bad ``--jobs``.
    """
    if isinstance(raw, int):
        value = raw
    else:
        try:
            value = int(str(raw).strip())
        except ValueError:
            raise ValueError(
                f"{source} must be an integer >= {minimum}, got {raw!r}"
            ) from None
    if value < minimum:
        raise ValueError(f"{source} must be >= {minimum}, got {raw!r}")
    return value


def env_int(name: str, default: int | None = None, minimum: int = 1) -> int | None:
    """Read integer env var ``name``; empty/whitespace counts as unset.

    Returns ``default`` when the variable is unset or blank.  A non-blank
    value must parse as an integer ``>= minimum`` or :class:`ValueError`
    is raised naming the variable and the offending value.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    return parse_count(raw, name, minimum=minimum)


def check_scale(value: float, source: str = "scale") -> float:
    """Require a finite, strictly positive workload scale.

    A zero/negative/NaN scale does not fail loudly on its own — it quietly
    collapses every ``max(16, int(3200 * scale))`` workload sizing to its
    floor — so the validation happens here, at the entry point.
    """
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(
            f"{source} must be a finite number > 0, got {value!r}"
        )
    return value


def check_duration(value: float, source: str = "duration") -> float:
    """Require a finite, non-negative run length (0 means no limit).

    A NaN deadline is never reached and a negative one reads as "no
    limit", so both would run until signalled instead of failing.
    """
    value = float(value)
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(
            f"{source} must be a finite number >= 0, got {value!r}"
        )
    return value


def env_scale(name: str = "REPRO_SCALE", default: float = 1.0) -> float:
    """Read a workload-scale env var: finite and strictly positive.

    Empty/whitespace counts as unset (returns ``default``).  Rejects
    non-numeric values, ``0``, negatives, ``nan``, and ``inf`` with a
    :class:`ValueError` naming the variable and the offending value — the
    same style as :func:`repro.analysis.runner.trial_count`.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw.strip())
    except ValueError:
        raise ValueError(
            f"{name} must be a finite number > 0, got {raw!r}"
        ) from None
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite number > 0, got {raw!r}")
    return value


def env_flag(name: str, default: bool = False) -> bool:
    """Read boolean env var ``name`` with strict, case-insensitive parsing.

    ``0``/``false``/``no``/``off`` are false; ``1``/``true``/``yes``/``on``
    are true (any capitalization).  Unset or blank returns ``default``.
    Every other value raises :class:`ValueError` — historically
    ``REPRO_CACHE=False`` and ``REPRO_FULL=no`` were silently mis-read by
    two call sites that disagreed about the same tuple of literals.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    text = raw.strip().lower()
    if text in _FLAG_TRUE:
        return True
    if text in _FLAG_FALSE:
        return False
    raise ValueError(
        f"{name} must be one of 0/false/no/off or 1/true/yes/on, got {raw!r}"
    )
