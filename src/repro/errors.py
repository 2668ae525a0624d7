"""Exception hierarchy for the repro package.

Keeping a small, explicit hierarchy lets callers catch configuration
mistakes (:class:`ConfigurationError`) separately from violated numeric
invariants (:class:`QuantizationError`) and from hardware-model capacity
problems (:class:`ResourceError`).
"""

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter combination was supplied by the caller."""


class QuantizationError(ReproError):
    """A quantization invariant was violated (e.g. value outside levels)."""


class ResourceError(ConfigurationError):
    """A hardware design does not fit on the selected FPGA device.

    Subclasses :class:`ConfigurationError`: an over-budget design is a
    configuration mistake, and the message carries the full per-resource
    utilization breakdown (LUT/FF/BRAM/DSP) so the caller can see *which*
    budget overflowed and by how much.
    """


class ShapeError(ReproError, ValueError):
    """Tensor/layer shapes are inconsistent."""


class ExportError(ReproError):
    """A model could not be exported to (or loaded from) a serving artifact."""


class BackendError(ConfigurationError, ExportError):
    """An unknown or unusable serving kernel backend was requested.

    Carries the requested name and the registered set so callers (CLI,
    autotune, ModelServer) can print an actionable message. Subclasses
    both :class:`ConfigurationError` (it is a caller mistake) and
    :class:`ExportError` (the historical type raised by the backend
    registry), so existing ``except ExportError`` sites keep working.
    """

    def __init__(self, requested: str, available=(), reason: str = ""):
        detail = f"unknown serving backend {requested!r}"
        if reason:
            detail = f"serving backend {requested!r} unavailable: {reason}"
        if available:
            detail += f"; available: {', '.join(sorted(available))}"
        super().__init__(detail)
        self.requested = requested
        self.available = tuple(sorted(available))


class CompileError(ReproError):
    """Native kernel compilation failed (no C compiler, or the compiler
    rejected the source). The message carries the compiler
    command and the tail of its stderr."""


class RendererError(CompileError):
    """A node was handed to the native kernel library, which has no
    template for it.

    Internal-consistency error: the coverage table
    (:func:`repro.serve.codegen.renderer.supports`) should have routed
    the node to a fallback kernel before its descriptor was built.
    """


class ServingError(ReproError):
    """A request could not be served (unknown model, stopped server,
    failed batch, malformed wire request).

    Every serving error carries a short machine-readable ``code`` (it
    travels on the wire as the ``"code"`` field of an error response) and
    a ``retryable`` flag — ``True`` means the request itself was fine and
    a later retry may succeed (shed under overload, worker died), while
    ``False`` means retrying the same request will fail the same way
    (unknown model, bad shape, malformed frame). Each class declares its
    default ``code``; ``code=`` at construction names a narrower one.
    """

    code = "serving-error"
    retryable = False

    def __init__(self, *args, code: Optional[str] = None):
        super().__init__(*args)
        if code is not None:
            self.code = code


class AdmissionError(ServingError):
    """Request shed by admission control: every admissible worker is at
    capacity. The request was never enqueued anywhere; retry later."""

    code = "shed"
    retryable = True


class WorkerError(ServingError):
    """A cluster worker failed while holding the request (crashed
    mid-batch, connection lost, or the response never arrived). The
    request may or may not have executed; it is safe to retry idempotent
    inference."""

    code = "worker-failed"
    retryable = True


class SessionError(ServingError):
    """A streaming session could not be used.

    ``code`` says why: ``"unknown-session"`` (never opened, or the id is
    wrong), ``"session-exists"`` (open of an id already held),
    ``"session-expired"`` (idle past the store TTL),
    ``"session-evicted"`` (pushed out by the LRU byte budget),
    ``"session-closed"`` (closed with chunks still queued), or
    ``"session-lost"`` (the worker holding the state died or was
    restarted without migration). Never retryable: server-held recurrent
    state is gone, so the client must re-open the session and replay its
    stream from the start.
    """

    code = "session-error"
    retryable = False


class FrameError(ServingError, ValueError):
    """A wire frame violated the transport protocol.

    ``code`` says how: ``"oversized"`` (frame exceeds the negotiated
    cap), ``"bad-utf8"`` (payload is not UTF-8), ``"truncated"`` (stream
    ended mid-frame), ``"bad-json"`` (payload is not JSON),
    ``"not-object"`` (payload is JSON but not an object). The same codes
    are answered by :func:`repro.serve.cli.serve_protocol` for malformed
    stdin lines, so stdio and socket clients see one error vocabulary.

    A frame whose JSON header parsed but whose raw array attachment is
    malformed (bytes that disagree with its dtype and shape, an object
    or structured dtype) fails ``"bad-request"``, and ``message_id``
    holds the header's ``"id"`` so the failure can still be answered
    and attributed.
    """

    message_id = None

    def __init__(self, code: str, message: str):
        super().__init__(message, code=code)


class TransportClosed(ServingError):
    """The peer hung up (or a fault plan killed the connection)."""

    code = "closed"
    retryable = True
