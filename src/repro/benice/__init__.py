"""BeNice: external regulation of unmodified applications.

The paper's second packaging of MS Manners (section 7.2): a separate
program that polls a target's performance counters, feeds them to the
regulation engine, and enforces suspensions through the OS debug
interface — no modification of the target required.
"""

__all__ = ["BeNice"]


def __getattr__(name: str):
    """Resolve ``BeNice`` on first use (PEP 562).

    The live SIGSTOP BeNice (:mod:`repro.realtime.posix_benice`) imports
    :mod:`repro.benice.polling`, which runs this module; an eager import
    would load the simulated BeNice, and with it the simulator.
    """
    if name == "BeNice":
        from repro.benice.benice import BeNice

        return BeNice
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
