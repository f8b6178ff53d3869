"""BeNice: external regulation of unmodified applications.

The paper's second packaging of MS Manners (section 7.2): a separate
program that polls a target's performance counters, feeds them to the
regulation engine, and enforces suspensions through the OS debug
interface — no modification of the target required.
"""

from repro.benice.benice import BeNice

__all__ = ["BeNice"]
