"""The paper's experiments as reusable scenario functions (section 9).

Each function runs one *trial* of one experiment configuration and returns
the measured quantities; the benchmark harness repeats trials over seeds
and aggregates box plots, and the test suite runs scaled-down trials.  The
``scale`` parameter multiplies workload sizes (1.0 = paper-scale run times:
~300 s database load, ~410 s defragmenter pass, ~250 s installation).

Experimental protocol, following section 9.1-9.2:

* the low-importance application starts at t = 0; the high-importance
  workload is applied 30 seconds later;
* target progress rates are established on an idle system (the bootstrap
  completes within the 30-second head start) and the probation period is
  zeroed — "We zeroed the probation period, so that normal regulated
  operation would immediately commence";
* the calibration experiment (:func:`calibration_trial`) instead starts
  with no prior calibration, a live probation period, and a worst-case
  start inside a load burst.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.apps.base import RegulationMode
from repro.apps.database import DatabaseServer, LoadWorkload
from repro.apps.defragmenter import Defragmenter
from repro.core.config import MannersConfig
from repro.simos.cpu import CpuPriority
from repro.simos.disk import CDROM_PARAMS
from repro.simos.filesystem import Volume, populate_volume
from repro.simos.kernel import Kernel
from repro.simos.perfcounters import PerfCounterRegistry
from repro.simos.sim_manners import SimManners
from repro.simos.trace import DutyTrace

# The Groveler, the installer, the dummy loads, BeNice and the load
# schedules are imported by the trials that run them, so the Fig 3/5
# trials (defragmenter and database only) do not load them.

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Sequence

    from repro.obs.telemetry import Telemetry

__all__ = [
    "EXPERIMENT_CONFIG",
    "MEASURED_SCENARIOS",
    "TrialResult",
    "defrag_database_trial",
    "groveler_setup_trial",
    "defrag_idle_trial",
    "thread_isolation_trial",
    "calibration_trial",
    "measured_trial",
    "mode_sweep",
    "CalibrationResult",
    "IsolationResult",
]

#: Regulation parameters for the contention experiments: the paper's
#: alpha/beta/averaging values, probation zeroed per the protocol.
EXPERIMENT_CONFIG = MannersConfig(
    alpha=0.05,
    beta=0.2,
    # The paper uses n = 10,000 at a few-hundred-ms testpoint cadence over
    # multi-hour services (smoothing constant 20-30 min, tracking constant
    # ~7 days).  Our fixed workloads run for minutes, so the window is
    # scaled to keep the same *ratio* of time constant to run length;
    # repro.core defaults keep the paper's 10,000.
    averaging_n=400,
    probation_period=0.0,
    bootstrap_testpoints=32,
    min_testpoint_interval=0.1,
    initial_suspension=1.0,
    max_suspension=256.0,
)

#: How long after the LI application the HI workload starts (section 9.2).
HI_START_DELAY = 30.0


@dataclass
class TrialResult:
    """Measurements from one contention-experiment trial."""

    mode: RegulationMode
    #: High-importance workload run time (None when it did not run).
    hi_time: float | None = None
    #: Low-importance application run time (None when not running).
    li_time: float | None = None
    #: Extra detail for the trace figures.
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Machine construction
# ---------------------------------------------------------------------------

def _build_kernel(seed: int, with_cd: bool = False) -> Kernel:
    """The paper's test machine: two disks (+ optional CD) on one bus."""
    kernel = Kernel(seed=seed)
    kernel.add_disk("C")
    kernel.add_disk("D")
    if with_cd:
        kernel.add_disk("CD", params=CDROM_PARAMS)
    return kernel


def _fragmented_volume(
    kernel: Kernel,
    seed: int,
    name: str = "C",
    disk: str = "C",
    total_blocks: int = 700_000,
    file_count: int = 3200,
    duplicate_fraction: float = 0.0,
) -> Volume:
    """A volume populated with an aged (fragmented) directory tree."""
    volume = Volume(name, disk, total_blocks=total_blocks)
    rng = random.Random(seed * 7919 + 13)
    populate_volume(
        volume,
        rng,
        file_count=file_count,
        size_range=(32 * 1024, 480 * 1024),
        fragment_range=(2, 10),
        duplicate_fraction=duplicate_fraction,
    )
    return volume


# ---------------------------------------------------------------------------
# Figures 3, 5, 6, 7, 8: defragmenter vs database workload
# ---------------------------------------------------------------------------

def defrag_database_trial(
    mode: RegulationMode,
    seed: int,
    scale: float = 1.0,
    with_traces: bool = False,
    run_database: bool = True,
    config: MannersConfig = EXPERIMENT_CONFIG,
    telemetry: "Telemetry | None" = None,
) -> TrialResult:
    """One trial of the defragmenter / SQL-Server experiment.

    The defragmenter starts at t = 0 on the shared disk; the database bulk
    load is applied at t = 30 (``run_database=False`` gives the
    idle-system runs of Figure 5).  Returns the database load time
    (``hi_time``) and the defragmenter pass time (``li_time``).  With
    ``telemetry``, the regulation stack (MS Manners or BeNice) emits its
    structured event trace through it.
    """
    kernel = _build_kernel(seed)
    registry = PerfCounterRegistry()
    volume = _fragmented_volume(
        kernel, seed, file_count=max(16, int(3200 * scale))
    )
    result = TrialResult(mode=mode)

    database: DatabaseServer | None = None
    if run_database:
        workload = LoadWorkload(batches=max(20, int(7000 * scale)))
        database = DatabaseServer(kernel, volume, workload=workload, seed=seed + 1)
        database.spawn_load(start_after=HI_START_DELAY)

    manners: SimManners | None = None
    defrag: Defragmenter | None = None
    benice = None
    if mode is not RegulationMode.NOT_RUNNING:
        cpu_priority = (
            CpuPriority.LOW if mode is RegulationMode.CPU_PRIORITY else CpuPriority.NORMAL
        )
        if mode is RegulationMode.MS_MANNERS:
            manners = SimManners(kernel, config, telemetry=telemetry)
        defrag = Defragmenter(
            kernel,
            [volume],
            manners=manners,
            registry=registry,
            cpu_priority=cpu_priority,
        )
        threads = defrag.spawn()
        if mode is RegulationMode.BENICE:
            from repro.benice.benice import BeNice

            benice = BeNice(
                kernel,
                registry,
                target_process="defrag",
                counter_names=("C.blocks_moved", "C.move_ops"),
                target_threads=threads,
                config=config,
                telemetry=telemetry,
            )
            benice.spawn()

    duty: DutyTrace | None = None
    if with_traces and defrag is not None:
        duty = DutyTrace(kernel)
        duty.watch(defrag.threads["C"])

    horizon = max(4000.0, 6000.0 * scale + 600.0)
    kernel.run(until=horizon)

    if database is not None:
        result.hi_time = database.results[0].elapsed
    if defrag is not None:
        result.li_time = defrag.results["C"].elapsed
        result.extras["move_ops"] = defrag.results["C"].totals["move_ops"]
    if duty is not None and defrag is not None:
        result.extras["duty"] = duty
        result.extras["defrag_thread"] = defrag.threads["C"]
    if manners is not None and defrag is not None:
        result.extras["testpoints"] = manners.traces[defrag.threads["C"]]
    if benice is not None:
        result.extras["benice_stats"] = benice.stats
        result.extras["testpoints"] = benice.trace
    if database is not None:
        result.extras["hi_window"] = (
            database.results[0].started_at,
            database.results[0].finished_at,
        )
    result.extras["events_fired"] = kernel.engine.events_fired
    return result


def defrag_idle_trial(
    mode: RegulationMode, seed: int, scale: float = 1.0
) -> TrialResult:
    """Figure 5: the defragmenter alone on an otherwise-idle system."""
    return defrag_database_trial(mode, seed, scale=scale, run_database=False)


# ---------------------------------------------------------------------------
# Figure 4: Groveler vs installer
# ---------------------------------------------------------------------------

def groveler_setup_trial(
    mode: RegulationMode,
    seed: int,
    scale: float = 1.0,
    config: MannersConfig = EXPERIMENT_CONFIG,
) -> TrialResult:
    """One trial of the Groveler / Office-Setup experiment.

    The Groveler scans a volume holding two identical directory trees (its
    fixed workload, per section 9.1); 30 seconds later the installer begins
    a full installation from the CD onto the same disk.
    """
    from repro.apps.groveler import Groveler
    from repro.apps.installer import Installer, InstallWorkload

    kernel = _build_kernel(seed, with_cd=True)
    registry = PerfCounterRegistry()
    volume = Volume("ris", "C", total_blocks=700_000)
    rng = random.Random(seed * 6151 + 5)
    tree_files = max(8, int(1100 * scale))
    originals = populate_volume(
        volume,
        rng,
        file_count=tree_files,
        size_range=(48 * 1024, 320 * 1024),
        fragment_range=(1, 3),
        path_prefix="images/tree1",
    )
    # The identical second tree: same sizes, same content identities.
    for i, original in enumerate(originals):
        volume.create_file(
            f"images/tree2/file{i:05d}",
            original.size,
            when=0.0,
            content_id=original.content_id,
            fragments=min(3, max(1, original.fragments)),
            spread_seed=rng.randrange(1 << 30),
        )

    result = TrialResult(mode=mode)

    installer = Installer(
        kernel,
        cd_disk="CD",
        target=volume,
        workload=InstallWorkload(files=max(10, int(1300 * scale))),
        seed=seed + 3,
    )
    installer.spawn(start_after=HI_START_DELAY)

    manners: SimManners | None = None
    groveler: Groveler | None = None
    if mode is not RegulationMode.NOT_RUNNING:
        if mode is RegulationMode.MS_MANNERS:
            manners = SimManners(kernel, config)
        groveler = Groveler(
            kernel,
            [volume],
            manners=manners,
            registry=registry,
            cpu_priority=CpuPriority.LOW
            if mode is RegulationMode.CPU_PRIORITY
            else CpuPriority.NORMAL,
        )
        groveler.spawn()

    horizon = max(4000.0, 6000.0 * scale + 600.0)
    kernel.run(until=horizon)

    result.hi_time = installer.result.elapsed
    if groveler is not None:
        result.li_time = groveler.results["ris"].elapsed
        result.extras["groveler_stats"] = groveler.stats["ris"]
    result.extras["events_fired"] = kernel.engine.events_fired
    return result


# ---------------------------------------------------------------------------
# Parallel-harness entry points
# ---------------------------------------------------------------------------

#: Scenarios runnable through :func:`measured_trial` — the contention
#: experiments whose per-trial output reduces to plain measurements.
MEASURED_SCENARIOS = {
    "defrag_database": defrag_database_trial,
    "defrag_idle": defrag_idle_trial,
    "groveler_setup": groveler_setup_trial,
}


def measured_trial(
    scenario: str, mode_value: str, seed: int, scale: float = 1.0
) -> dict:
    """One trial of a named scenario, reduced to JSON-safe measurements.

    This is the picklable unit the parallel trial engine fans out: a
    module-level function taking plain arguments (the mode as its enum
    *value*) and returning a flat dict of numbers — safe to ship across a
    process boundary and to store in the content-keyed trial cache.
    Returns ``hi_time``/``li_time`` (possibly ``None``), ``move_ops`` when
    the scenario reports it, and the simulator's ``events_fired``.
    """
    try:
        trial = MEASURED_SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; choose from {sorted(MEASURED_SCENARIOS)}"
        ) from None
    result = trial(RegulationMode(mode_value), seed, scale=scale)
    measurements: dict = {
        "hi_time": result.hi_time,
        "li_time": result.li_time,
        "events_fired": result.extras.get("events_fired", 0),
    }
    if "move_ops" in result.extras:
        measurements["move_ops"] = result.extras["move_ops"]
    return measurements


def mode_sweep(
    scenario: str,
    modes: "Sequence[RegulationMode]",
    metric: str,
    trials: int | None = None,
    seed_base: int = 1000,
    scale: float = 1.0,
    jobs: int | None = None,
    cache=None,
) -> dict[str, list[float]]:
    """Per-mode samples of ``metric`` (``hi_time``/``li_time``/...) for a scenario.

    The shape every contention figure needs: ``{mode value: [sample, ...]}``
    ready for :func:`repro.analysis.runner.aggregate`.  Trials fan out over
    the parallel runner (``jobs``/``REPRO_JOBS``) and, given a
    :class:`~repro.analysis.parallel.TrialCache`, completed (scenario,
    mode, seed, scale, code-version) trials are loaded rather than re-run.
    """
    from functools import partial

    from repro.analysis.parallel import ParallelRunner, resolve_jobs
    from repro.analysis.runner import run_trials

    # One runner — and therefore at most one worker pool — for the whole
    # sweep: each mode reuses the warm pool instead of paying pool spin-up
    # per sweep point.  Seeds and result order are assigned per run_trials
    # call exactly as before, so samples (and digests) are unchanged.
    samples: dict[str, list[float]] = {}
    with ParallelRunner(jobs=resolve_jobs(jobs, default=1), cache=cache) as runner:
        for mode in modes:
            results = run_trials(
                partial(measured_trial, scenario, mode.value, scale=scale),
                trials=trials,
                seed_base=seed_base,
                runner=runner,
                cache_name=f"{scenario}:{mode.value}",
                cache_config={"scenario": scenario, "mode": mode.value, "scale": scale},
            )
            samples[mode.value] = [r[metric] for r in results]
    return samples


# ---------------------------------------------------------------------------
# Figure 9: time-multiplex isolation of Groveler threads
# ---------------------------------------------------------------------------

@dataclass
class IsolationResult:
    """Duty traces and overlap metrics from the isolation experiment."""

    duty: DutyTrace
    threads: dict
    schedules: dict
    duration: float
    #: Fraction of grovel-thread executing time that overlapped the other
    #: grovel thread's executing time (should be ~0 under isolation).
    mutual_overlap: float = 0.0


def thread_isolation_trial(
    seed: int,
    duration: float = 600.0,
    isolation: bool = True,
    config: MannersConfig = EXPERIMENT_CONFIG,
) -> IsolationResult:
    """Figure 9: two Groveler threads on disks C and D, dummy loads on each.

    Disk C's volume has less free space, so its thread gets the higher MS
    Manners priority.  Dummy disk loads alternate per disk and a dummy CPU
    load runs periodically.  ``isolation=False`` runs each grovel thread in
    a *separate* process with its own superintendent (defeating machine-wide
    time-multiplex isolation) for the ablation.
    """
    from repro.apps.dummyload import CpuHog, DiskHog
    from repro.apps.groveler import Groveler
    from repro.simos.workload import Burst

    kernel = _build_kernel(seed)
    rng = random.Random(seed)
    # C: fuller volume (less free space) => higher priority thread.
    vol_c = Volume("C", "C", total_blocks=400_000)
    vol_d = Volume("D", "D", total_blocks=700_000)
    populate_volume(vol_c, rng, file_count=900, size_range=(64 * 1024, 256 * 1024),
                    fragment_range=(1, 2), duplicate_fraction=0.4, path_prefix="c")
    populate_volume(vol_d, rng, file_count=900, size_range=(64 * 1024, 256 * 1024),
                    fragment_range=(1, 2), duplicate_fraction=0.4, path_prefix="d")

    # Alternating dummy loads, as in Figure 9: C busy, then D busy, then
    # CPU busy, then both disks.
    phase = duration / 6.0
    sched_c = [Burst(1 * phase, 2 * phase), Burst(4 * phase, 5 * phase)]
    sched_d = [Burst(2 * phase, 3 * phase), Burst(4 * phase, 5 * phase)]
    sched_cpu = [Burst(3 * phase, 4 * phase)]
    DiskHog(kernel, "C", sched_c, seed=seed + 11).spawn()
    DiskHog(kernel, "D", sched_d, seed=seed + 12).spawn()
    # duty < 1 approximates NT's anti-starvation boosting: the groveler's
    # low-priority threads still trickle forward, so their progress *rate*
    # collapses (and MS Manners suspends them) rather than freezing solid.
    CpuHog(kernel, sched_cpu, duty=0.9).spawn()

    # Continuous churn: file modifications arrive faster than the groveler
    # can re-grovel them, so both work queues stay non-empty for the whole
    # run — the fixed-workload condition of the paper's Figure 9.  (Churn
    # is metadata-only; it costs the disks nothing itself.)
    def churn(volume: Volume, churn_seed: int):
        from repro.simos.effects import Delay as _Delay

        churn_rng = random.Random(churn_seed)
        while True:
            yield _Delay(2.0)
            files = [f for f in volume.files() if f.sis_link is None]
            if not files:
                continue
            for f in churn_rng.sample(files, k=min(80, len(files))):
                volume.modify_file(f.file_id, kernel.now)

    kernel.spawn("churn:C", churn(vol_c, seed + 21), process="churn")
    kernel.spawn("churn:D", churn(vol_d, seed + 22), process="churn")

    duty = DutyTrace(kernel)
    threads: dict = {}

    if isolation:
        manners = SimManners(kernel, config)
        groveler = Groveler(
            kernel, [vol_c, vol_d], manners=manners, run_until_idle=False
        )
        groveler.spawn()
        threads["grovelC"] = groveler.main_threads["C"]
        threads["grovelD"] = groveler.main_threads["D"]
    else:
        # Ablation: the two Grovelers run as separate processes with *no*
        # machine-wide superintendent, so nothing prevents them from
        # running (and contending) concurrently.
        manners = SimManners(kernel, config, machine_wide=False)
        g_c = Groveler(kernel, [vol_c], manners=manners, process="grovelerC",
                       run_until_idle=False)
        g_d = Groveler(kernel, [vol_d], manners=manners, process="grovelerD",
                       run_until_idle=False)
        g_c.spawn()
        g_d.spawn()
        threads["grovelC"] = g_c.main_threads["C"]
        threads["grovelD"] = g_d.main_threads["D"]

    duty.watch(threads["grovelC"])
    duty.watch(threads["grovelD"])
    kernel.run(until=duration)

    overlap = _mutual_overlap(duty, threads["grovelC"], threads["grovelD"], duration)
    return IsolationResult(
        duty=duty,
        threads=threads,
        schedules={"diskC": sched_c, "diskD": sched_d, "cpu": sched_cpu},
        duration=duration,
        mutual_overlap=overlap,
    )


def _mutual_overlap(duty: DutyTrace, a, b, duration: float) -> float:
    """Fraction of a's executing time during which b was also executing."""
    bins = 1000
    width = duration / bins
    a_series = duty.binned(a, 0.0, duration, width)
    b_series = duty.binned(b, 0.0, duration, width)
    both = sum(
        min(fa, fb) * width for (_, fa), (_, fb) in zip(a_series, b_series)
    )
    a_total = sum(fa * width for _, fa in a_series)
    return both / a_total if a_total > 0 else 0.0


# ---------------------------------------------------------------------------
# Figure 10: automatic target calibration under a bursty diurnal load
# ---------------------------------------------------------------------------

@dataclass
class CalibrationResult:
    """Outcome of the calibration experiment."""

    #: (hour, mean target duration in seconds) samples.
    target_trajectory: list
    #: Defragmenter activity fraction per hour.
    activity: list
    #: Fraction of LI execution that occurred while the dummy load was idle.
    execution_in_idle: float
    #: Mean target duration over the final quarter of the run.
    final_target: float | None
    #: Mean target duration over the first hour.
    initial_target: float | None
    schedule_busy_fraction: float


def calibration_trial(
    seed: int,
    hours: float = 48.0,
    probation_hours: float = 24.0,
    diurnal_hours: float = 24.0,
    scale: float = 1.0,
) -> CalibrationResult:
    """Figure 10: calibrate from scratch against a bursty sinusoidal load.

    The defragmenter starts with no prior calibration, *during* a load
    burst (the worst case), with a live probation period.  The mean target
    duration between testpoints is sampled per hour, reproducing the
    paper's calibrating-target trajectory.
    """
    from repro.apps.dummyload import DiskHog
    from repro.simos.workload import Burst, bursty_schedule, busy_fraction

    total = hours * 3600.0
    kernel = _build_kernel(seed)
    rng = random.Random(seed * 104729 + 17)
    volume = Volume("C", "C", total_blocks=700_000)
    populate_volume(
        volume,
        rng,
        file_count=max(64, int(3200 * scale)),
        size_range=(32 * 1024, 480 * 1024),
        fragment_range=(2, 10),
    )

    schedule = bursty_schedule(
        total,
        seed=seed + 29,
        burst_range=(10.0, 900.0),
        diurnal_period=diurnal_hours * 3600.0,
        base_duty=0.5,
        diurnal_amplitude=0.4,
        start_busy=True,
    )
    # Worst case per the paper: "we started the defragmenter during a
    # continuous burst of disk activity, so the calibrator initially
    # computes a target rate that is far too low."  Guarantee the opening
    # burst lasts well past bootstrap.
    opening = max(schedule[0].duration, 0.05 * total)
    merged = [Burst(0.0, opening)]
    for burst in schedule:
        if burst.end <= opening:
            continue
        merged.append(Burst(max(burst.start, opening), burst.end))
    schedule = merged
    DiskHog(kernel, "C", schedule, seed=seed + 31).spawn()

    config = EXPERIMENT_CONFIG.with_overrides(
        probation_period=probation_hours * 3600.0,
        probation_duty=0.25,
        bootstrap_testpoints=32,
        # Figure 10 is precisely about *slow* tracking from a bad start:
        # use a long averaging window (the paper's n = 10,000 is the
        # uncompressed equivalent).
        averaging_n=5_000,
    )
    manners = SimManners(kernel, config)
    defrag = _ContinuousDefrag(kernel, volume, manners, rng)
    thread = defrag.spawn()
    duty = DutyTrace(kernel)
    duty.watch(thread)

    kernel.run(until=total)

    trace = manners.traces[thread]
    trajectory = []
    activity = []
    for h in range(int(hours)):
        lo, hi = h * 3600.0, (h + 1) * 3600.0
        mean_target = trace.mean_target_duration(lo, hi)
        if mean_target is not None:
            trajectory.append((h, mean_target))
        activity.append((h, duty.duty_fraction(thread, lo, hi)))

    # How much of the LI execution happened while the dummy was idle?
    fine = duty.binned(thread, 0.0, total, 10.0)
    exec_idle = 0.0
    exec_total = 0.0
    for t, frac in fine:
        exec_total += frac
        if busy_fraction(schedule, t, t + 10.0) < 0.5:
            exec_idle += frac
    first_hour = trace.mean_target_duration(0.0, opening)
    tail = trace.mean_target_duration(total * 0.75, total)
    return CalibrationResult(
        target_trajectory=trajectory,
        activity=activity,
        execution_in_idle=exec_idle / exec_total if exec_total > 0 else 0.0,
        final_target=tail,
        initial_target=first_hour,
        schedule_busy_fraction=busy_fraction(schedule, 0.0, total),
    )


class _ContinuousDefrag:
    """A defragmenter that never runs out of work (calibration experiment).

    After finishing a pass it re-fragments a slice of the volume (new and
    rewritten files appearing, as on a live server) and starts over, so the
    48-hour calibration run always has relocations to perform.
    """

    def __init__(self, kernel: Kernel, volume: Volume, manners: SimManners, rng: random.Random) -> None:
        self._kernel = kernel
        self._volume = volume
        self._manners = manners
        self._rng = rng

    def spawn(self):
        thread = self._kernel.spawn(
            "defrag:C", self._body(), priority=CpuPriority.NORMAL, process="defrag"
        )
        self._manners.regulate(thread)
        return thread

    def _body(self):
        from repro.simos.effects import DiskRead, DiskWrite, UseCPU
        from repro.simos.sim_manners import MannersTestpoint

        volume = self._volume
        blocks_moved = 0
        move_ops = 0
        while True:
            moved_this_pass = 0
            for f in list(volume.files()):
                plan = volume.relocation_plan(f.file_id)
                if plan is None:
                    continue
                reads, writes, new_extents = plan
                for block, nbytes in reads:
                    yield DiskRead(volume.disk, block, nbytes)
                for block, nbytes in writes:
                    yield DiskWrite(volume.disk, block, nbytes)
                yield UseCPU(0.002)
                volume.commit_relocation(f.file_id, new_extents, self._kernel.now)
                blocks_moved += f.blocks
                move_ops += 1
                moved_this_pass += 1
                yield MannersTestpoint((float(blocks_moved), float(move_ops)))
            # Re-fragment a third of the files (simulated churn), so the
            # next pass has work.  Metadata-only: the churn itself is not
            # the measured workload.
            files = list(volume.files())
            self._rng.shuffle(files)
            for f in files[: max(1, len(files) // 3)]:
                if f.sis_link is not None or f.fragments != 1:
                    continue
                size = f.size
                path = f.path
                volume.delete_file(f.file_id, self._kernel.now)
                volume.create_file(
                    path,
                    size,
                    when=self._kernel.now,
                    fragments=self._rng.randint(2, 10),
                    spread_seed=self._rng.randrange(1 << 30),
                )
            if moved_this_pass == 0:
                # Safety valve: nothing to do (should not happen with churn).
                yield UseCPU(0.01)
