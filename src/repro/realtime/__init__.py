"""Wall-clock regulation of real Python threads and OS processes."""

from repro.realtime.adapter import RealTimeRegulator
from repro.realtime.filetoken import FileTokenSuperintendent

__all__ = ["FileTokenSuperintendent", "RealTimeRegulator"]
