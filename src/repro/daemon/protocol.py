"""JSON-line IPC protocol between the regulator daemon and its workers.

The wire format is deliberately primitive — one UTF-8 JSON object per
``\\n``-terminated line over a local stream socket — because primitive
formats have primitive failure modes: a torn write is a line that does not
parse, a dead peer is EOF, and nothing needs length prefixes or state to
resynchronize (the next newline is always a frame boundary).  Everything
else robustness needs sits on top:

* a **versioned handshake** — the first frame each way is
  ``hello``/``welcome`` carrying :data:`PROTOCOL_VERSION`; a daemon
  refuses (``reject``) rather than half-understands a mismatched peer;
* **sequence numbers** — every worker request carries a monotone ``seq``
  echoed by the reply, so retransmitted requests are idempotent and
  duplicated or stale replies are discardable;
* **liveness frames** — a parked worker (waiting out a suspension or its
  turn at the execution slot) receives periodic ``wait`` frames, so "the
  answer is taking long" is distinguishable from "the daemon is gone"
  with a short per-message timeout;
* **bounded frames** — a line longer than :data:`MAX_FRAME_BYTES` is a
  protocol violation, not an allocation.

Frame vocabulary (the ``op`` key):

=============  =========  ====================================================
op             direction  meaning
=============  =========  ====================================================
``hello``      w → d      handshake: protocol version, role, name, app_id
``welcome``    d → w      handshake accepted; carries the server version
``reject``     d → w      handshake refused (version/role/name conflict)
``testpoint``  w → d      progress report; blocks until ``decision``
``decision``   d → w      the testpoint's verdict; the worker may proceed
``wait``       d → w      still parked; resets the worker's message timeout
``ping``       w → d      idle liveness probe
``pong``       d → w      liveness reply
``bye``        w → d      clean release before worker exit
``shutdown``   d → w      daemon is draining; finish up and exit
``status``     c → d      control: operating counters snapshot
``digest``     c → d      control: restored/saved/current calibration digests
``save``       c → d      control: save every changed calibration now
``inject``     c → d      control: arm one chaos fault (soak harness)
``stop``       c → d      control: request a graceful drain
``ok``/``error``  d → c   control reply envelope
=============  =========  ====================================================

(w = worker, d = daemon, c = control client.)
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.core.errors import MannersError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "require_fields",
]

#: Bumped whenever a frame is removed or changes meaning.  Additive changes
#: (a new op, a new optional field) keep the version: both ends ignore
#: unknown keys.
PROTOCOL_VERSION = 1

#: Upper bound on one serialized frame.  Far above any legitimate frame
#: (a testpoint is ~200 bytes) and far below anything that could hurt.
MAX_FRAME_BYTES = 1 << 20

#: Every op either end may legitimately send.
KNOWN_OPS = frozenset(
    {
        "hello",
        "welcome",
        "reject",
        "testpoint",
        "decision",
        "wait",
        "ping",
        "pong",
        "bye",
        "shutdown",
        "status",
        "digest",
        "save",
        "inject",
        "stop",
        "ok",
        "error",
    }
)


class ProtocolError(MannersError):
    """A frame violated the wire protocol (bad JSON, size, or shape).

    Both ends treat this as *peer damage*, never as a crash: the daemon
    drops damaged frames (the worker's retransmit recovers), and the
    worker counts and skips them (reported back as ``bad_frames`` so the
    daemon can emit the matching recovery event).
    """


def encode_frame(message: Mapping[str, Any]) -> bytes:
    """Serialize one frame to its newline-terminated wire form.

    Raises :class:`ProtocolError` when the message has no ``op``, is not
    JSON-serializable, or exceeds :data:`MAX_FRAME_BYTES`.
    """
    if "op" not in message:
        raise ProtocolError(f"frame has no op: {message!r}")
    try:
        line = json.dumps(message, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unserializable frame: {exc}") from exc
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(data)} bytes exceeds {MAX_FRAME_BYTES}")
    return data


def decode_frame(line: bytes) -> dict[str, Any]:
    """Parse one received line into a frame dict.

    Raises :class:`ProtocolError` for oversized, non-UTF-8, non-JSON,
    non-object, or op-less lines — every way a truncated or corrupted
    frame can manifest.
    """
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(line)} bytes exceeds {MAX_FRAME_BYTES}")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"frame is not an object: {message!r}")
    op = message.get("op")
    if not isinstance(op, str) or op not in KNOWN_OPS:
        raise ProtocolError(f"unknown frame op {op!r}")
    return message


def require_fields(message: Mapping[str, Any], *names: str) -> None:
    """Assert that ``message`` carries every named field.

    Raises :class:`ProtocolError` naming the first missing field; callers
    use it to validate a decoded frame before trusting its shape.
    """
    for name in names:
        if name not in message:
            raise ProtocolError(
                f"{message.get('op', '?')} frame is missing {name!r}"
            )
