"""Span tracing installed from outside the program, and self-time arithmetic.

:class:`Probe` patches public functions and methods of ``repro`` for the
duration of a ``with`` block and restores them afterwards.  It always
collects the kernels and regulators a trial builds (constructor wrappers,
one call per object), so output checks can read their statistics.  With
``trace=True`` it also

* wraps the layer entry points in :data:`TRACED_METHODS` and
  :data:`TRACED_FUNCTIONS` in spans;
* wraps every simulated thread body passed to ``Kernel.spawn``, timing each
  resumption as the ``apps`` layer;
* wraps every callback handed to the engine's public ``post_*``/``call_*``
  methods, to ``Bus.transfer`` or to ``Kernel.register_handler`` in a span
  named after the module that defined the callback (:data:`CALLBACK_LAYERS`).

Attribution rule: a span's self time is its duration minus the time its
child spans cover.  Work in private helpers called from inside a span
counts in that span: ``Disk._pump`` called from ``Disk.submit`` counts as
``simos.disk``, and ``Kernel._advance`` as ``simos.kernel`` apart from the
thread body it resumes.  Engine self time is the dispatch loop alone,
because every callback it fires runs inside its own span.  An entry point
missing from the program raises :class:`MissingEntryPoint`: a renamed
method would otherwise read as a layer that did no work, and a check
such as "zero regulator calls" would pass without testing anything.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

#: Layer of a callback, by the module that defined it.
CALLBACK_LAYERS = {
    "repro.simos.kernel": "simos.kernel",
    "repro.simos.disk": "simos.disk",
    "repro.simos.bus": "simos.bus",
    "repro.simos.cpu": "simos.cpu",
    "repro.simos.sim_manners": "core.arbitration",
}

#: (module, class, method names, span name, call-count name).
TRACED_METHODS = (
    ("repro.simos.engine", "Engine", ("run",), "simos.engine", None),
    ("repro.simos.wheel", "WheelEngine", ("run",), "simos.engine", None),
    ("repro.simos.kernel", "Kernel", ("deliver", "deliver_error"), "simos.kernel",
     "simos.kernel.delivers"),
    ("repro.simos.disk", "Disk", ("submit",), "simos.disk", "simos.disk.requests"),
    ("repro.simos.cpu", "CPU", ("request",), "simos.cpu", "simos.cpu.requests"),
    ("repro.simos.filesystem", "Volume", ("relocation_plan",),
     "simos.filesystem.relocate", None),
    ("repro.simos.filesystem", "Volume", ("commit_relocation",),
     "simos.filesystem.relocate", "simos.filesystem.relocations"),
    ("repro.core.controller", "ThreadRegulator", ("on_testpoint",), "core.testpoint", None),
    ("repro.core.calibration", "SingleMetricCalibrator", ("update", "target_duration"),
     "core.calibration", None),
    ("repro.core.regression", "RidgeCalibrator", ("update", "target_duration"),
     "core.calibration", None),
    ("repro.core.comparator", "StatisticalComparator", ("observe",), "core.comparator", None),
    ("repro.core.supervisor", "Supervisor",
     ("on_testpoint", "poll", "check_hung", "next_wake_time", "next_poll_time"),
     "core.arbitration", None),
    ("repro.core.superintendent", "Superintendent",
     ("acquire", "release", "charge", "next_eligible_time"), "core.arbitration", None),
)

#: (module, function, span name): traced in every namespace that imported it.
TRACED_FUNCTIONS = (
    ("repro.simos.filesystem", "populate_volume", "simos.filesystem.populate"),
    ("repro.experiments.scenarios", "populate_volume", "simos.filesystem.populate"),
)

#: Event cores whose public scheduling methods take a callback.
ENGINE_CLASSES = (("repro.simos.engine", "Engine"), ("repro.simos.wheel", "WheelEngine"))
_ENGINE_POSTS = ("post_at", "post_after", "call_at", "call_after")

#: Marks a function as already traced, so callbacks are not wrapped twice.
_LAYER_ATTR = "__perfbench_layer__"


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    ``spans`` is a sequence of records ``(name, start, end, parent, trial)``
    where ``parent`` is the index of the parent span or -1.  A span's self
    time is its duration minus the length of the union of its children's
    intervals, clipped to the span itself.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    totals: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        name, start, end = span[0], span[1], span[2]
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo = max(lo, cursor)
            hi = min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] += (end - start) - covered
    return dict(totals)


class Tracer:
    """In-memory span recorder: ``[name, start, end, parent, trial]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trial = None
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        spans = self.spans
        stack = self.stack
        idx = len(spans)
        spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.trial])
        stack.append(idx)
        spans[idx][1] = time.perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, count: str | None = None):
        """``fn`` wrapped in a span called ``name`` (and counted, if asked)."""
        counts = self.counts
        begin = self.begin
        end = self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(idx)

        setattr(traced, _LAYER_ATTR, name)
        return traced

    def dispatch(self, name: str, fn, *args) -> None:
        """Callback shim: run ``fn(*args)`` inside a span called ``name``."""
        idx = self.begin(name)
        try:
            fn(*args)
        finally:
            self.end(idx)

    def thread_body(self, inner):
        """Generator wrapper timing each resumption of a thread body as ``apps``."""
        value = None
        error: BaseException | None = None
        while True:
            idx = self.begin("apps")
            try:
                effect = inner.send(value) if error is None else inner.throw(error)
            except StopIteration as stop:
                self.end(idx)
                return stop.value
            except BaseException:
                self.end(idx)
                raise
            self.end(idx)
            error = None
            try:
                value = yield effect
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # forwarded into the thread body
                error = exc
                value = None


def callback_layer(fn) -> str | None:
    """Span name for a callback, or None when it is already traced."""
    if getattr(getattr(fn, "__func__", fn), _LAYER_ATTR, None) is not None:
        return None
    module = getattr(fn, "__module__", None) or ""
    if module.startswith("repro.apps"):
        return "apps"
    return CALLBACK_LAYERS.get(module, "other")


class MissingEntryPoint(LookupError):
    """The program no longer has a function or method the probe wraps."""


def _lookup(module_name: str, name: str | None):
    """``module.name`` (the module itself when ``name`` is None), or None if absent."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return module if name is None else getattr(module, name, None)


class Probe:
    """Install constructor captures (always) and span tracing (optional)."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.tracer = Tracer() if trace else None
        self.kernels: list = []
        self.regulators: list = []
        self._saved: list[tuple[object, str, object]] = []

    def reset_captures(self) -> None:
        self.kernels.clear()
        self.regulators.clear()

    @contextlib.contextmanager
    def trial(self, trial_id):
        """Root span of one trial (the ``harness`` layer); a no-op untraced."""
        tracer = self.tracer
        if tracer is None:
            yield
            return
        tracer.trial = trial_id
        idx = tracer.begin("harness")
        try:
            yield
        finally:
            tracer.end(idx)

    # -- patching ------------------------------------------------------------
    def _patch(self, module_name: str, owner_name: str | None, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until the block exits."""
        owner = _lookup(module_name, owner_name)
        original = None if owner is None else vars(owner).get(attr)
        if original is None:
            name = ".".join(p for p in (module_name, owner_name, attr) if p)
            raise MissingEntryPoint(f"the program has no {name} to wrap")
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self) -> "Probe":
        try:
            self._install()
        except MissingEntryPoint:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        self._patch("repro.simos.kernel", "Kernel", "__init__", _capture(self.kernels))
        self._patch(
            "repro.core.controller", "ThreadRegulator", "__init__", _capture(self.regulators)
        )
        if not self.trace:
            return
        wrap = self.tracer.wrap
        for module_name, cls_name, methods, name, count in TRACED_METHODS:
            for method in methods:
                self._patch(
                    module_name, cls_name, method,
                    lambda fn, name=name, count=count: wrap(fn, name, count),
                )
        for module_name, fn_name, name in TRACED_FUNCTIONS:
            self._patch(module_name, None, fn_name, lambda fn, name=name: wrap(fn, name))
        for module_name, cls_name in ENGINE_CLASSES:
            for method in _ENGINE_POSTS:
                self._patch(module_name, cls_name, method, self._traced_post)
        self._patch("repro.simos.bus", "Bus", "transfer", self._traced_transfer)
        self._patch("repro.simos.kernel", "Kernel", "spawn", self._traced_spawn)
        self._patch("repro.simos.kernel", "Kernel", "register_handler", self._traced_register)

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers for callback registration ------------------------------------
    def _traced_post(self, original):
        counts = self.tracer.counts
        dispatch = self.tracer.dispatch

        @functools.wraps(original)
        def post(engine, when, fn, *args):
            counts["simos.engine.posts"] += 1
            name = callback_layer(fn)
            if name is None:
                return original(engine, when, fn, *args)
            return original(engine, when, dispatch, name, fn, *args)

        return post

    def _traced_transfer(self, original):
        tracer = self.tracer

        @functools.wraps(original)
        def transfer(bus, duration, on_done, *args):
            tracer.counts["simos.bus.transfers"] += 1
            name = callback_layer(on_done)
            idx = tracer.begin("simos.bus")
            try:
                if name is None:
                    return original(bus, duration, on_done, *args)
                return original(bus, duration, tracer.dispatch, name, on_done, *args)
            finally:
                tracer.end(idx)

        return transfer

    def _traced_spawn(self, original):
        tracer = self.tracer

        @functools.wraps(original)
        def spawn(kernel, name, body, *args, **kwargs):
            return original(kernel, name, tracer.thread_body(body), *args, **kwargs)

        return spawn

    def _traced_register(self, original):
        tracer = self.tracer

        @functools.wraps(original)
        def register(kernel, effect_type, handler):
            name = callback_layer(handler)
            if name is not None:
                handler = tracer.wrap(handler, name)
            return original(kernel, effect_type, handler)

        return register


def _capture(sink: list):
    """Constructor wrapper factory: append every constructed object to ``sink``."""

    def make(original):
        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            sink.append(obj)

        return init

    return make
