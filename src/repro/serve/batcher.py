"""Dynamic batch forming, separated from batch execution.

``DynamicBatcher`` owns exactly one concern: a FIFO of single requests
that a free model drains into micro-batches. The rule is work-conserving:
a model that is not busy takes what is queued, oldest first, up to
``max_batch``. A lone request on an idle model runs at once, and batches
form from the backlog that builds while the model is busy, never from a
timer. Execution lives elsewhere (:class:`~repro.serve.server.ModelServer`
and :class:`~repro.serve.partition.PipelineEngine`).

The batcher is passive and deterministic: it never sleeps, never spawns
threads, and reads the injectable ``clock`` only to stamp a request's
``enqueued_at``.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class ServedRequest:
    """One enqueued inference request and, once served, its result."""

    id: int
    payload: np.ndarray
    enqueued_at: float
    completed_at: Optional[float] = None
    result: Optional[np.ndarray] = None
    batch_id: Optional[int] = None
    batch_size: Optional[int] = None
    fpga_ms: Optional[float] = None   # batch FPGA latency / batch size
    model: Optional[str] = None
    future: Optional[object] = field(default=None, repr=False)
    error: Optional[BaseException] = field(default=None, repr=False)
    cached: bool = False              # answered from the response cache
    coalesced: bool = False           # rode another identical request

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    @property
    def latency_ms(self) -> float:
        if not self.done:
            raise ConfigurationError(f"request {self.id} not served yet")
        return (self.completed_at - self.enqueued_at) * 1e3

    def settle(self, result: Optional[np.ndarray] = None,
               error: Optional[BaseException] = None) -> None:
        """Resolve (or, given ``error``, fail) this request's future and
        drop the reference to it. The future keeps this record
        (``future.request``); a record pointing back would leave both,
        the payload and the batch output to the cycle collector."""
        future, self.future = self.future, None
        if error is not None:
            self.error = error
            if future is not None:
                future._fail(error)
        elif future is not None:
            future._resolve(result, self)


def coerce_payload(plan, payload) -> np.ndarray:
    """Check one request's shape against a plan; cast it if it needs it.

    A shape mismatch is an immediate error that fails only this request
    (not a deferred batch failure). A payload already in the plan's dtype
    and C-contiguous passes through as-is, unscanned: its token ids are
    checked once with its batch (:meth:`ExecutionPlan.forward
    <repro.serve.plan.ExecutionPlan.forward>`), and the server re-checks
    a batch that fails that check row by row, so a bad id still fails
    only its own request. A payload that needs a cast is cast and
    checked here (:meth:`ExecutionPlan.coerce
    <repro.serve.plan.ExecutionPlan.coerce>`), so every queued payload
    is in serving form and a batch is one copy (``np.array``).
    """
    payload = np.asarray(payload)
    if payload.shape != plan.input_shape:
        raise ConfigurationError(
            f"request shape {payload.shape} != plan input "
            f"shape {plan.input_shape}")
    return _cast(plan, payload)


def coerce_chunk(plan, chunk) -> np.ndarray:
    """:func:`coerce_payload` for one streaming chunk.

    A chunk is a ``(T,) + step_shape`` slice of a session's input stream:
    the leading timestep count is free (``T >= 1``), only the per-step
    trailing dims must match the plan. Same cast and check discipline as
    the request path: its token ids are checked with its batch
    (:meth:`ExecutionPlan.forward_stream
    <repro.serve.plan.ExecutionPlan.forward_stream>`).
    """
    chunk = np.asarray(chunk)
    step_shape = plan.input_shape[1:]
    if chunk.ndim != len(plan.input_shape) \
            or chunk.shape[1:] != step_shape or chunk.shape[0] < 1:
        raise ConfigurationError(
            f"stream chunk shape {chunk.shape} != (T,) + "
            f"{step_shape} with T >= 1 (plan input {plan.input_shape})")
    return _cast(plan, chunk)


def _cast(plan, payload: np.ndarray) -> np.ndarray:
    if payload.dtype != plan.input_dtype \
            or not payload.flags["C_CONTIGUOUS"]:
        return plan.coerce(payload)
    return payload


def _failed_rows(plan, error: BaseException, items: list, fail,
                 batch_error) -> list:
    """Fail what a batch pass of ``items`` (requests or stream chunks)
    that raised ``error`` must fail, by ``fail(item, error)``, and
    return the items to run again.

    When ``plan``'s input check failed (a ``ConfigurationError``), each
    payload is checked alone (``plan.coerce(payload[None])``, so a row's
    error reads as ``plan.forward`` raises it for that request by
    itself). Rows that fail alone fail, and the others run again.
    Otherwise, or when ``plan`` is ``None``, the whole batch fails with
    ``batch_error(error)``.
    """
    errors = [None] * len(items)
    if plan is not None and isinstance(error, ConfigurationError):
        for index, item in enumerate(items):
            try:
                plan.coerce(item.payload[None])
            except ConfigurationError as own:
                errors[index] = own
    if not any(errors):
        errors = [batch_error(error)] * len(items)
    for item, own in zip(items, errors):
        if own is not None:
            fail(item, own)
    return [item for item, own in zip(items, errors) if own is None]


def ignore_max_wait_ms(where: str, max_wait_ms) -> None:
    """Warn that ``where(max_wait_ms=...)`` no longer does anything.

    An idle model serves what is queued, so no request waits for a
    deadline. Three signatures (``ModelServer``, ``ModelServer.add`` and
    ``ClusterRouter.spawn``) still accept the keyword for old callers.
    """
    if max_wait_ms is not None:
        warnings.warn(
            f"{where}(max_wait_ms=...) is ignored and will be removed in "
            "the next release: an idle model serves what is queued, so "
            "no request waits for a batching deadline",
            DeprecationWarning, stacklevel=3)


class DynamicBatcher:
    """FIFO micro-batch former: a free model takes up to ``max_batch``."""

    def __init__(self, max_batch: int = 16, clock=time.perf_counter):
        if max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = int(max_batch)
        self._clock = clock
        self._queue: Deque[ServedRequest] = deque()
        self._next_id = 0

    # ------------------------------------------------------------------
    def submit(self, payload: np.ndarray, future=None,
               model: Optional[str] = None) -> ServedRequest:
        """Enqueue one validated request (a single input, no batch dim)."""
        request = ServedRequest(
            id=self._next_id, payload=payload, enqueued_at=self._clock(),
            future=future, model=model)
        self._next_id += 1
        self._queue.append(request)
        return request

    def reserve_id(self) -> int:
        """Claim one request id without enqueueing anything — cache-hit
        and coalesced-follower records share the model's id space, so
        every ``ServedRequest`` a client sees is uniquely numbered."""
        request_id = self._next_id
        self._next_id += 1
        return request_id

    @property
    def pending(self) -> int:
        return len(self._queue)

    def oldest_enqueued_at(self) -> Optional[float]:
        return self._queue[0].enqueued_at if self._queue else None

    def take(self) -> List[ServedRequest]:
        """Pop the next micro-batch: up to ``max_batch`` requests, FIFO
        (``[]`` when nothing is queued)."""
        return [self._queue.popleft()
                for _ in range(min(self.max_batch, len(self._queue)))]
