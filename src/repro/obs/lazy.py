"""Telemetry names for instrumented modules, loaded when the first event is.

Every instrumented module builds its events behind an ``if telemetry is
not None`` guard, so with telemetry off no event is ever constructed.
Importing :mod:`repro.obs.events` at load time would still compile and
build all of its dataclasses in every process that regulates.  This
module imports nothing; instrumented modules write::

    from repro.obs import lazy as obs_events
    from repro.obs.lazy import scope_label

The first read of an event class (``obs_events.Span``) imports
:mod:`repro.obs.events` and keeps the class here, so every later read is
the one module attribute load it was when the module was imported
directly.  The accessor is a module rather than an instance with
``__getattr__`` because the interpreter specialises attribute loads on
modules and not on such instances (16 ns against 40 ns per load, CPython
3.11 on a 2-vCPU x86 VM).
"""

__all__ = ["scope_label"]


def scope_label(entity: object) -> str:
    """A human-readable label for a thread/process identity.

    Simulated threads expose ``.name``; realtime thread ids and process
    keys fall back to ``str``.
    """
    name = getattr(entity, "name", None)
    if isinstance(name, str) and name:
        return name
    return str(entity)


def __getattr__(name: str) -> object:
    """Import :mod:`repro.obs.events` on first use of one of its names (PEP 562)."""
    if name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.obs import events

    value = getattr(events, name)
    globals()[name] = value
    return value
