"""Configuration for the MS Manners control system.

The paper's tuning parameters (SOSP'99, sections 6.1-6.3 and 7.1) are
collected into a single validated dataclass, :class:`MannersConfig`.  The
defaults reproduce the values the authors report using in their performance
experiments:

* ``alpha = 0.05`` and ``beta = 0.2`` — the sign-test error probabilities
  (section 6.1).  The paper notes the system is unstable unless
  ``alpha < beta``; :meth:`MannersConfig.validate` enforces this.
* ``averaging_n = 10_000`` — the exponential-averaging window (section 6.2),
  giving a smoothing time constant of tens of minutes and a tracking time
  constant of about a week at a few-hundred-millisecond testpoint cadence.
* ``ridge_nu = 0.1`` — the ridge-regression offset (section 6.3).

Durations are expressed in seconds of whatever clock drives the regulator
(wall-clock seconds for :mod:`repro.realtime`, simulated seconds for
:mod:`repro.simos`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.core.errors import ConfigError

__all__ = ["MannersConfig", "DEFAULT_CONFIG", "check_interval"]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def check_interval(name: str, value: float) -> float:
    """Return ``value``, a period in seconds, if it is finite and > 0.

    A zero period makes a periodic loop spin, and a NaN or infinite one
    makes it never fire; either raises :class:`ConfigError` naming ``name``.
    """
    _require(
        math.isfinite(value) and value > 0,
        f"{name} must be a finite number > 0, got {value!r}",
    )
    return value


@dataclass(frozen=True, slots=True)
class MannersConfig:
    """Tuning parameters for progress-based regulation.

    Instances are immutable; use :meth:`with_overrides` to derive variants.
    Every constructor call validates the full parameter set and raises
    :class:`~repro.core.errors.ConfigError` on the first violation.
    """

    # --- statistical comparator (sections 4.2 and 6.1) ---------------------
    #: Type-I error probability: judging progress poor when it is good.
    alpha: float = 0.05
    #: Type-II error probability: judging progress good when it is poor.
    beta: float = 0.2
    #: Upper bound on the sign-test sample window.  The sequential sign test
    #: terminates with probability 1, but a pathological stream of samples
    #: exactly straddling the target could take arbitrarily long; after this
    #: many samples the window is restarted (no judgment is forced).
    max_sign_samples: int = 4096

    # --- suspension timer (section 4.1) ------------------------------------
    #: Suspension time applied on the first poor judgment, in seconds.
    initial_suspension: float = 1.0
    #: Cap on the exponentially doubled suspension time, in seconds.  Bounds
    #: the worst-case resumption latency after high-importance activity ends.
    max_suspension: float = 256.0

    # --- testpoint cadence (sections 4.1 and 7.1) ---------------------------
    #: Minimum interval between *processed* testpoints, in seconds.  Calls
    #: arriving faster than this take the lightweight path: they return
    #: immediately and their progress accumulates into the next processed
    #: testpoint.
    min_testpoint_interval: float = 0.1
    #: If a regulated thread does not testpoint within this many seconds it
    #: is presumed hung: another thread is selected to execute, and the
    #: progress-rate measurement spanning the gap is discarded when the
    #: thread eventually returns (section 7.1).
    hung_threshold: float = 30.0

    # --- automatic calibration (sections 4.3 and 6.2) -----------------------
    #: Exponential-averaging window ``n``; the decay factor is
    #: ``theta = (n - 1) / n`` (Eq. 5).
    averaging_n: int = 10_000
    #: Number of initial testpoints processed with no true regulation, used
    #: to bootstrap the target-rate estimate.
    bootstrap_testpoints: int = 32
    #: Length of the probationary period, in seconds, during which the
    #: execution rate is capped because the bootstrapped target may have been
    #: calibrated on a loaded system (section 4.3).
    probation_period: float = 3600.0
    #: Maximum fraction of time the process may execute while on probation.
    probation_duty: float = 0.25

    # --- multi-metric calibration (sections 4.4 and 6.3) --------------------
    #: Ridge-regression offset ``nu`` (Eq. 13-14); trades solution accuracy
    #: for numerical stability under correlated metrics.
    ridge_nu: float = 0.1
    #: Floor applied to inferred per-metric rates to keep target durations
    #: finite when the regression briefly assigns a metric no cost.
    min_metric_rate: float = 1e-9

    # --- thread orchestration (section 4.5 and 7.1) --------------------------
    #: Decay factor per scheduling decision for decay-usage scheduling among
    #: eligible regulated threads.
    usage_decay: float = 0.9

    # --- resilience guards (section 4.1 sanity checks; section 7.1) ----------
    #: A measured progress rate more than this many times above the
    #: calibrated target rate is treated as a measurement anomaly (clock
    #: glitch, counter burst from a torn read) and discarded without
    #: touching calibration or the sign test.
    rate_spike_factor: float = 1000.0
    #: Supervisor watchdog: a slot-owning thread that has not testpointed
    #: within this multiple of its typical testpoint spacing is presumed
    #: stalled and evicted so sibling threads keep running.  0 disables the
    #: watchdog (the coarse ``hung_threshold`` still applies).
    watchdog_multiplier: float = 0.0

    def __post_init__(self) -> None:
        self.validate()

    # -- public API ----------------------------------------------------------
    def validate(self) -> None:
        """Check every parameter; raise :class:`ConfigError` on violation."""
        _require(0.0 < self.alpha < 1.0, f"alpha must be in (0, 1), got {self.alpha}")
        _require(0.0 < self.beta < 1.0, f"beta must be in (0, 1), got {self.beta}")
        _require(
            self.alpha < self.beta,
            "regulation is unstable unless alpha < beta (paper section 6.1); "
            f"got alpha={self.alpha}, beta={self.beta}",
        )
        _require(self.max_sign_samples >= 8, "max_sign_samples must be >= 8")
        _require(
            math.isfinite(self.initial_suspension) and self.initial_suspension > 0,
            f"initial_suspension must be positive, got {self.initial_suspension}",
        )
        _require(
            math.isfinite(self.max_suspension)
            and self.max_suspension >= self.initial_suspension,
            "max_suspension must be finite and >= initial_suspension",
        )
        _require(
            self.min_testpoint_interval >= 0,
            "min_testpoint_interval must be non-negative",
        )
        _require(
            self.hung_threshold > self.min_testpoint_interval,
            "hung_threshold must exceed min_testpoint_interval",
        )
        _require(self.averaging_n >= 2, "averaging_n must be >= 2")
        _require(self.bootstrap_testpoints >= 1, "bootstrap_testpoints must be >= 1")
        _require(self.probation_period >= 0, "probation_period must be non-negative")
        _require(
            0.0 < self.probation_duty <= 1.0,
            f"probation_duty must be in (0, 1], got {self.probation_duty}",
        )
        _require(self.ridge_nu >= 0, "ridge_nu must be non-negative")
        _require(self.min_metric_rate > 0, "min_metric_rate must be positive")
        _require(0.0 < self.usage_decay < 1.0, "usage_decay must be in (0, 1)")
        _require(
            math.isfinite(self.rate_spike_factor) and self.rate_spike_factor > 1.0,
            f"rate_spike_factor must be finite and > 1, got {self.rate_spike_factor}",
        )
        _require(
            math.isfinite(self.watchdog_multiplier) and self.watchdog_multiplier >= 0.0,
            "watchdog_multiplier must be finite and non-negative "
            f"(0 disables), got {self.watchdog_multiplier}",
        )

    @property
    def theta(self) -> float:
        """Exponential-averaging decay factor, ``(n - 1) / n`` (Eq. 5)."""
        return (self.averaging_n - 1) / self.averaging_n

    @property
    def min_poor_samples(self) -> int:
        """Minimum samples for the sign test to recognize poor progress.

        Equation (1): ``m = ceil(log2(1 / alpha))``.  With the default
        ``alpha = 0.05`` this is 5 samples, matching the paper's few-second
        reaction time at a few-hundred-millisecond testpoint cadence.
        """
        return math.ceil(math.log2(1.0 / self.alpha))

    def smoothing_time_constant(self, testpoint_interval: float) -> float:
        """Eq. (6): short-term smoothing time constant ``Ts = n * interval``."""
        if testpoint_interval <= 0:
            raise ConfigError("testpoint_interval must be positive")
        return self.averaging_n * testpoint_interval

    def tracking_time_constant(self) -> float:
        """Eq. (7): long-term tracking time constant ``T = n / m * max_susp``."""
        return self.averaging_n / self.min_poor_samples * self.max_suspension

    def with_overrides(self, **overrides: Any) -> "MannersConfig":
        """Return a copy with the given fields replaced (and re-validated)."""
        return replace(self, **overrides)

    def as_dict(self) -> Mapping[str, Any]:
        """Return the configuration as a plain dict (for persistence/logs)."""
        return {
            name: getattr(self, name)
            for name in self.__dataclass_fields__  # noqa: SLF001 - dataclass API
        }


#: A shared default configuration matching the paper's experimental values.
DEFAULT_CONFIG = MannersConfig()
