"""Length-framed message transport + deterministic fault injection.

The PR 4 wire protocol was JSON lines on stdin/stdout; the cluster tier
generalizes the *carrier* without touching the *messages*: each frame is
a 4-byte big-endian length prefix followed by one UTF-8 JSON object —
exactly one protocol line per frame. Two carriers implement it:

- :class:`SocketTransport` — a real TCP connection (router <-> worker
  subprocess), blocking reads, oversized frames consumed-and-rejected so
  the stream stays in sync. TCP sockets run with ``TCP_NODELAY``: a
  frame is one ``sendall`` (one segment on loopback) and leaves at once.
  The protocol is request/response with frames smaller than the MSS,
  where Nagle would park each frame until the peer's delayed ACK
  (~40 ms on Linux);
- :class:`FakeTransport` — an in-process, clock-driven pair for tests:
  no sockets, no threads, no sleeps. ``recv`` is non-blocking and only
  yields frames whose (virtual) delivery time has passed.

Array attachments: a frame may carry one numpy array as raw bytes, so
payloads cross the wire without base64 or JSON escaping. Its payload is
then ``<UTF-8 JSON header> 0x00 <array bytes>``, and the header's
``"attachment"`` object names the message key the array belongs to,
its ``dtype`` (``dtype.str``, byte order included) and its ``shape``.
JSON text never contains a NUL byte, so a frame without one is a plain
JSON frame, exactly as before. :func:`encode_message` turns the one
``np.ndarray`` value of a message into the attachment;
:func:`decode_message` puts it back under its key, as an array that
owns a copy of the attachment bytes only (not the whole frame). Numeric
and bool dtypes travel; an object or structured dtype does not.

Malformed frames decode to a typed :class:`~repro.errors.FrameError`
(``oversized`` / ``bad-utf8`` / ``truncated`` / ``bad-json`` /
``not-object``) instead of a generic parse exception — the same codes
:func:`repro.serve.cli.serve_protocol` answers for malformed stdin
lines, so stdio and socket clients share one error vocabulary. A frame
whose header parses but whose attachment is malformed (byte count not
``itemsize × prod(shape)``, a bad shape or more than
:data:`MAX_ATTACHMENT_DIMS` dims, a dtype that cannot travel)
fails ``bad-request`` with the header's ``id`` in ``message_id``, so
the peer can still answer or attribute it.

Fault injection: a :class:`FaultPlan` is threaded through either
transport and keys deterministic actions by ``(direction, frame
index)`` — drop the frame, corrupt it (first payload byte flipped, so
detection is guaranteed), delay its delivery against the injected
clock, or kill the connection at that frame (the frame is lost and the
pair closes — how tests crash a worker mid-batch). ``refuse()`` marks
the plan's worker as refusing admission, which the router reads.
"""

from __future__ import annotations

import base64
import json
import math
import re
import socket
import struct
import threading
import time
from collections import deque
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import (
    ConfigurationError,
    FrameError,
    TransportClosed,
)

__all__ = [
    "MAX_MESSAGE_BYTES",
    "FRAME_ERROR_CODES",
    "encode_message",
    "decode_message",
    "array_to_wire",
    "array_from_wire",
    "FaultPlan",
    "FakeTransport",
    "SocketTransport",
    "frame_lines",
    "FrameWriter",
]

FRAME_HEADER = struct.Struct(">I")

#: Default cap on one frame's payload. Large enough for any zoo model's
#: batched response, small enough that a corrupt length prefix cannot
#: make a reader allocate gigabytes.
MAX_MESSAGE_BYTES = 16 << 20

#: The closed vocabulary of frame-level failures (FrameError.code).
FRAME_ERROR_CODES = frozenset(
    {"oversized", "bad-utf8", "truncated", "bad-json", "not-object"})


# ----------------------------------------------------------------------
# Message <-> bytes
# ----------------------------------------------------------------------
#: dtype kinds an attachment may carry: bool, ints, floats, complex.
ATTACHMENT_KINDS = "biufc"
#: The ``dtype.str`` of such a dtype, e.g. ``<f4``, ``|b1``, ``>i8``.
_WIRE_DTYPE = re.compile(rf"[<>|=][{ATTACHMENT_KINDS}][0-9]{{1,2}}")
#: Most dims an attachment may have (numpy 1.x's limit on any array).
MAX_ATTACHMENT_DIMS = 32


def _attachment_key(message: dict) -> Optional[str]:
    """The key of the message's one ``np.ndarray`` value, if any."""
    found = None
    for key, value in message.items():
        if isinstance(value, np.ndarray):
            if found is not None:
                raise FrameError(
                    "bad-request",
                    f"a frame carries one array attachment; "
                    f"{found!r} and {key!r} are both arrays")
            found = key
    return found


def encode_message(message: dict, max_bytes: int = MAX_MESSAGE_BYTES
                   ) -> bytes:
    """One framed wire message: length prefix + payload.

    The payload is the UTF-8 JSON of ``message``; when one value is an
    ``np.ndarray`` it is ``<JSON header> 0x00 <array bytes>`` instead
    (see the module docstring).
    """
    key = _attachment_key(message)
    if key is None:
        data = json.dumps(message).encode("utf-8")
        size, parts = len(data), (data,)
    else:
        # order="C" (not ascontiguousarray, which promotes 0-d to (1,))
        array = np.asarray(message[key], order="C")
        if array.dtype.kind not in ATTACHMENT_KINDS:
            raise FrameError(
                "bad-request",
                f"dtype {array.dtype} of {key!r} cannot travel as an "
                "array attachment (numeric and bool dtypes only)")
        if array.ndim > MAX_ATTACHMENT_DIMS:
            raise FrameError(
                "bad-request",
                f"{key!r} has {array.ndim} dims; at most "
                f"{MAX_ATTACHMENT_DIMS} travel as an attachment")
        header = {name: value for name, value in message.items()
                  if name != key}
        header["attachment"] = {"key": key, "dtype": array.dtype.str,
                                "shape": list(array.shape)}
        data = json.dumps(header).encode("utf-8")
        size = len(data) + 1 + array.nbytes
        parts = (data, b"\0", memoryview(array))
    if size > max_bytes:
        raise FrameError(
            "oversized",
            f"frame payload is {size} bytes; cap is {max_bytes}")
    return b"".join((FRAME_HEADER.pack(size), *parts))


def decode_text(data: bytes) -> str:
    """Frame payload bytes -> protocol line (typed failure)."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as error:
        raise FrameError("bad-utf8",
                         f"frame payload is not UTF-8: {error}") from None


def _decode_json(data: bytes) -> dict:
    text = decode_text(data)
    try:
        message = json.loads(text)
    except ValueError as error:
        raise FrameError("bad-json",
                         f"frame payload is not JSON: {error}") from None
    if not isinstance(message, dict):
        raise FrameError(
            "not-object",
            f"frame payload must be a JSON object, got "
            f"{type(message).__name__}")
    return message


def decode_message(data: bytes) -> dict:
    """Frame payload bytes -> message dict (typed failures)."""
    split = data.find(b"\0")
    if split < 0:
        return _decode_json(data)
    message = _decode_json(data[:split])
    try:
        key, array = _read_attachment(message.pop("attachment", None),
                                      data[split + 1:])
    except FrameError as error:
        error.message_id = message.get("id")
        raise
    message[key] = array
    return message


def _read_attachment(spec, raw: bytes) -> Tuple[str, np.ndarray]:
    """``(key, array)`` of an attachment; ``raw`` is its own bytes, so
    the array pins nothing else of the frame."""
    if not isinstance(spec, dict) or not isinstance(spec.get("key"), str):
        raise FrameError(
            "bad-request",
            "frame has bytes after its JSON header but no "
            "'attachment' object naming their key")
    name = spec.get("dtype")
    try:
        # Only the dtype.str of a numeric or bool dtype reaches numpy.
        if not isinstance(name, str) or not _WIRE_DTYPE.fullmatch(name):
            raise TypeError(f"{name!r} is not the dtype.str of a numeric "
                            "or bool dtype")
        dtype = np.dtype(name)
    except TypeError as error:
        raise FrameError("bad-request",
                         f"bad attachment dtype: {error}") from None
    shape = spec.get("shape")
    if not isinstance(shape, list) or not all(
            type(dim) is int and dim >= 0 for dim in shape):
        raise FrameError(
            "bad-request",
            f"attachment shape must be a list of non-negative ints, "
            f"got {shape!r}")
    if len(shape) > MAX_ATTACHMENT_DIMS:
        raise FrameError(
            "bad-request",
            f"attachment has {len(shape)} dims; at most "
            f"{MAX_ATTACHMENT_DIMS} travel")
    expected = dtype.itemsize * math.prod(shape)
    if len(raw) != expected:
        raise FrameError(
            "bad-request",
            f"attachment is {len(raw)} bytes but dtype {dtype.str} x "
            f"shape {tuple(shape)} needs {expected}")
    try:
        # A zero extent lets any other extent match the byte count;
        # numpy still refuses one past its index range.
        return spec["key"], np.frombuffer(raw, dtype=dtype).reshape(shape)
    except (ValueError, OverflowError) as error:
        raise FrameError("bad-request",
                         f"bad attachment shape: {error}") from None


# ----------------------------------------------------------------------
# Numpy payloads on the wire
# ----------------------------------------------------------------------
def array_to_wire(array: np.ndarray, key: str = "input") -> Dict:
    """Binary array encoding: ``{key}_b64`` + ``dtype`` + ``shape``.

    ~20x cheaper to encode/decode than ``tolist()`` for float payloads,
    and exact for every dtype (the bytes are the array). The list form
    (``{"input": [...]}``) remains accepted everywhere for hand-written
    clients.
    """
    # order="C" (not ascontiguousarray, which promotes 0-d to shape (1,))
    array = np.asarray(array, order="C")
    return {f"{key}_b64": base64.b64encode(array.tobytes()).decode("ascii"),
            "dtype": array.dtype.str, "shape": list(array.shape)}


def array_from_wire(message: Dict, key: str = "input") -> np.ndarray:
    """Inverse of :func:`array_to_wire` (raises ``ValueError`` on a
    payload whose bytes do not match its declared dtype/shape)."""
    try:
        raw = base64.b64decode(message[f"{key}_b64"], validate=True)
    except Exception as error:
        raise ValueError(f"bad base64 payload: {error}") from None
    dtype = np.dtype(message.get("dtype", "<f4"))
    shape = tuple(int(dim) for dim in message.get("shape", ()))
    expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
    if len(raw) != expected:
        raise ValueError(
            f"payload is {len(raw)} bytes but dtype {dtype.str} x shape "
            f"{shape} needs {expected}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
class FaultPlan:
    """Deterministic faults, keyed by ``(direction, frame index)``.

    Directions are ``"to_worker"`` (router -> worker requests) and
    ``"to_router"`` (worker -> router responses); indices count frames
    *sent* in that direction, from 0. The builder methods chain::

        plan = (FaultPlan().drop("to_worker", 2)
                           .delay("to_router", 0, ms=50.0)
                           .kill("to_router", 3))
    """

    DIRECTIONS = ("to_worker", "to_router")

    def __init__(self):
        self._actions: Dict[Tuple[str, int], Tuple[str, float]] = {}
        self.refuse_admission = False

    def _record(self, direction: str, index: int, action: str,
                value: float = 0.0) -> "FaultPlan":
        if direction not in self.DIRECTIONS:
            raise ConfigurationError(
                f"direction must be one of {self.DIRECTIONS}, "
                f"got {direction!r}")
        if index < 0:
            raise ConfigurationError(f"frame index must be >= 0, got {index}")
        self._actions[(direction, int(index))] = (action, value)
        return self

    def drop(self, direction: str, *indices: int) -> "FaultPlan":
        """Silently lose these frames (the peer never sees them)."""
        for index in indices:
            self._record(direction, index, "drop")
        return self

    def corrupt(self, direction: str, *indices: int) -> "FaultPlan":
        """Flip the first payload byte of these frames — always breaks
        UTF-8/JSON decoding, so the fault is deterministically *detected*
        as a typed :class:`FrameError` rather than silently mis-read."""
        for index in indices:
            self._record(direction, index, "corrupt")
        return self

    def delay(self, direction: str, index: int, ms: float) -> "FaultPlan":
        """Deliver this frame only once the transport's clock has
        advanced ``ms`` past the send. Later frames queue behind it
        (FIFO head-of-line, like a real TCP stream)."""
        return self._record(direction, index, "delay", float(ms))

    def kill(self, direction: str, index: int) -> "FaultPlan":
        """Close the connection when this frame is sent; the frame is
        lost. ``kill("to_router", 0)`` is the canonical *worker crashed
        mid-batch*: requests were received and executed, but the first
        response never makes it out."""
        return self._record(direction, index, "kill")

    def refuse(self) -> "FaultPlan":
        """Mark this worker as refusing admission (the router treats it
        as permanently at capacity)."""
        self.refuse_admission = True
        return self

    def action(self, direction: str, index: int
               ) -> Optional[Tuple[str, float]]:
        return self._actions.get((direction, index))


def _corrupted(data: bytes, at: int) -> bytes:
    """``data`` with byte ``at`` (the payload's first) flipped."""
    if len(data) <= at:
        return data
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:]


class _PlanMixin:
    """Shared send-side fault application (counts frames per direction)."""

    def _init_plan(self, plan: Optional[FaultPlan], send_direction: str):
        self._plan = plan or FaultPlan()
        self._send_direction = send_direction
        self._sent_frames = 0

    def _apply_plan(self, data: bytes, start: int = 0
                    ) -> Optional[Tuple[bytes, float]]:
        """Returns ``(data, delay_ms)`` to deliver, ``None`` to drop;
        raises :class:`TransportClosed` for a kill (connection dies).
        The payload begins at byte ``start`` of ``data``."""
        index = self._sent_frames
        self._sent_frames += 1
        action = self._plan.action(self._send_direction, index)
        if action is None:
            return data, 0.0
        kind, value = action
        if kind == "drop":
            return None
        if kind == "corrupt":
            return _corrupted(data, start), 0.0
        if kind == "delay":
            return data, value
        # kill: the frame is lost and the connection is gone.
        self._close_for_kill()
        raise TransportClosed(
            f"connection killed by fault plan at {self._send_direction} "
            f"frame {index}")


# ----------------------------------------------------------------------
# In-process deterministic transport
# ----------------------------------------------------------------------
class _PairState:
    """State shared by both endpoints of a FakeTransport pair."""

    def __init__(self):
        self.closed = False
        # direction -> deque of (deliver_at, payload bytes)
        self.queues = {direction: deque()
                       for direction in FaultPlan.DIRECTIONS}


class FakeTransport(_PlanMixin):
    """One endpoint of an in-process transport pair (deterministic).

    ``send`` applies the fault plan and enqueues payload bytes with a
    virtual delivery time; ``recv`` is non-blocking and returns ``None``
    while nothing is deliverable at the injected clock's *now*. Closing
    either endpoint (or a kill fault) drops both queues — like a
    connection reset, undelivered frames are lost.
    """

    def __init__(self, state: _PairState, send_direction: str,
                 recv_direction: str, plan: Optional[FaultPlan],
                 clock, max_bytes: int):
        self._state = state
        self._recv_direction = recv_direction
        self._clock = clock
        self.max_bytes = max_bytes
        self._init_plan(plan, send_direction)

    @classmethod
    def pair(cls, plan: Optional[FaultPlan] = None, clock=time.monotonic,
             max_bytes: int = MAX_MESSAGE_BYTES
             ) -> Tuple["FakeTransport", "FakeTransport"]:
        """``(router_end, worker_end)`` — the router end sends
        ``to_worker`` frames, the worker end sends ``to_router`` frames;
        one shared ``plan``/``clock`` governs both."""
        state = _PairState()
        router_end = cls(state, "to_worker", "to_router", plan, clock,
                         max_bytes)
        worker_end = cls(state, "to_router", "to_worker", plan, clock,
                         max_bytes)
        return router_end, worker_end

    @property
    def closed(self) -> bool:
        return self._state.closed

    def close(self) -> None:
        self._close_for_kill()

    def _close_for_kill(self) -> None:
        self._state.closed = True
        for queue in self._state.queues.values():
            queue.clear()

    # ------------------------------------------------------------------
    def send(self, message: dict) -> None:
        self.send_raw(encode_message(message,
                                     self.max_bytes)[FRAME_HEADER.size:])

    def send_raw(self, data: bytes) -> None:
        """Send raw payload bytes (also the hook tests use to inject
        deliberately malformed frames)."""
        if self._state.closed:
            raise TransportClosed("transport pair is closed")
        delivery = self._apply_plan(data)
        if delivery is None:
            return
        payload, delay_ms = delivery
        deliver_at = self._clock() + delay_ms / 1e3
        self._state.queues[self._send_direction].append((deliver_at, payload))

    # ------------------------------------------------------------------
    def recv_bytes(self, block: bool = False) -> Optional[bytes]:
        """Next deliverable frame's payload bytes, or ``None``."""
        if block:
            raise ConfigurationError(
                "FakeTransport is non-blocking by design (drive it with "
                "an injected clock); use SocketTransport for blocking IO")
        queue = self._state.queues[self._recv_direction]
        if not queue:
            if self._state.closed:
                raise TransportClosed("transport pair is closed")
            return None
        deliver_at, payload = queue[0]
        if deliver_at > self._clock():
            return None        # still in (virtual) flight; FIFO holds
        queue.popleft()
        if len(payload) > self.max_bytes:
            raise FrameError(
                "oversized",
                f"frame payload is {len(payload)} bytes; cap is "
                f"{self.max_bytes}")
        return payload

    def recv(self, block: bool = False) -> Optional[dict]:
        payload = self.recv_bytes(block)
        return None if payload is None else decode_message(payload)


# ----------------------------------------------------------------------
# Real sockets
# ----------------------------------------------------------------------
class SocketTransport(_PlanMixin):
    """Length-framed messages over a connected TCP socket.

    Every ``AF_INET``/``AF_INET6`` socket it wraps gets ``TCP_NODELAY``:
    a frame's ``sendall`` leaves at once. Without it, Nagle holds each
    small frame until the previous one is ACKed, and the peer delays
    that ACK — one delayed-ACK timer per hop. Wrapping covers both ends:
    the router side through :meth:`connect`, the worker side where the
    accepted connection is wrapped. ``AF_UNIX`` sockets (test
    socketpairs) have no Nagle and are wrapped as they are.

    Blocking reads; an oversized incoming frame is consumed (to keep the
    stream in sync) and reported as a typed :class:`FrameError`. The
    fault plan's drop/corrupt/kill actions work here too (delay is
    ignored — virtual time needs the fake transport); production paths
    simply pass no plan.
    """

    def __init__(self, sock: socket.socket,
                 max_bytes: int = MAX_MESSAGE_BYTES,
                 plan: Optional[FaultPlan] = None,
                 send_direction: str = "to_worker"):
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self.max_bytes = max_bytes
        self._send_lock = threading.Lock()
        self._closed = False
        self._init_plan(plan, send_direction)

    @classmethod
    def connect(cls, host: str, port: int, timeout: Optional[float] = 30.0,
                **kwargs) -> "SocketTransport":
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.settimeout(None)
        return cls(sock, **kwargs)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        self._close_for_kill()

    def _close_for_kill(self) -> None:
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    # ------------------------------------------------------------------
    def send(self, message: dict) -> None:
        self._send_frame(encode_message(message, self.max_bytes))

    def send_raw(self, data: bytes) -> None:
        self._send_frame(FRAME_HEADER.pack(len(data)) + data)

    def _send_frame(self, frame: bytes) -> None:
        if self._closed:
            raise TransportClosed("socket transport is closed")
        delivery = self._apply_plan(frame, FRAME_HEADER.size)
        if delivery is None:
            return
        frame, _delay = delivery
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except OSError as error:
            self._closed = True
            raise TransportClosed(f"peer hung up: {error}") from None

    # ------------------------------------------------------------------
    def _recv_exact(self, count: int, *, at_boundary: bool) -> Optional[bytes]:
        chunks, got = [], 0
        while got < count:
            try:
                chunk = self._sock.recv(min(65536, count - got))
            except OSError as error:
                raise TransportClosed(f"peer hung up: {error}") from None
            if not chunk:
                if at_boundary and got == 0:
                    return None          # clean EOF between frames
                raise FrameError(
                    "truncated",
                    f"stream ended mid-frame ({got}/{count} bytes)")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def recv_bytes(self, block: bool = True) -> Optional[bytes]:
        """Next frame's payload bytes; ``None`` on clean EOF."""
        if self._closed:
            raise TransportClosed("socket transport is closed")
        header = self._recv_exact(FRAME_HEADER.size, at_boundary=True)
        if header is None:
            return None
        (length,) = FRAME_HEADER.unpack(header)
        if length > self.max_bytes:
            # Consume the offending frame so the stream stays in sync.
            remaining = length
            while remaining > 0:
                skipped = self._recv_exact(min(65536, remaining),
                                           at_boundary=False)
                remaining -= len(skipped)
            raise FrameError(
                "oversized",
                f"frame payload is {length} bytes; cap is {self.max_bytes}")
        return self._recv_exact(length, at_boundary=False)

    def recv(self, block: bool = True) -> Optional[dict]:
        payload = self.recv_bytes(block)
        return None if payload is None else decode_message(payload)


# ----------------------------------------------------------------------
# Adapters: a transport as (lines, out) for serve_protocol
# ----------------------------------------------------------------------
def frame_lines(transport):
    """Iterate a transport's frames as protocol lines.

    Yields each well-formed frame's raw payload ``bytes`` (a JSON line,
    or a JSON header plus an array attachment, which
    :func:`~repro.serve.cli.serve_protocol` decodes) and the
    :class:`FrameError` itself for malformed ones (so ``serve_protocol``
    can answer its typed code and keep serving); stops on clean EOF or
    a closed connection.
    """
    while True:
        try:
            frame = transport.recv_bytes(block=True)
        except TransportClosed:
            return
        except FrameError as error:
            yield error
            if error.code == "truncated":
                return        # the stream is unrecoverable mid-frame
            continue
        if frame is None:
            return
        yield frame


class FrameWriter:
    """``out`` for serve_protocol over a transport: :meth:`send` takes
    one whole message and sends it as one frame, so an array value
    travels as the frame's raw attachment.

    A closed peer makes sends silent no-ops — the serving loop discovers
    the death on its read side; losing a response to a dead client is the
    same outcome a closed pipe would give the stdio server.

    A response bigger than the transport's frame cap (a stats dump with
    a huge latency window, a giant batched output), or one that cannot
    be encoded at all, is replaced by a typed error frame (``oversized``
    / ``bad-request``) carrying the original message's ``id`` — the peer
    gets an answer it can correlate instead of a dropped connection or
    an unreadable frame.
    """

    def __init__(self, transport):
        self._transport = transport

    def send(self, message: dict) -> None:
        try:
            try:
                self._transport.send(message)
            except FrameError as error:
                self._transport.send({
                    "error": str(error), "code": error.code,
                    "retryable": False, "id": message.get("id")})
        except TransportClosed:
            pass
