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
    """Validate one request against a plan and coerce it to serving form.

    A shape mismatch or an out-of-range token id is an immediate error
    that fails only this request (not a deferred batch failure). The
    payload is only copied when it has to be (:meth:`ExecutionPlan.coerce
    <repro.serve.plan.ExecutionPlan.coerce>`): a request that already
    matches the plan's dtype and is C-contiguous is passed through as-is,
    so a well-behaved client costs zero copies on the submit path.
    """
    payload = np.asarray(payload)
    expected = plan.input_shape
    if tuple(payload.shape) != expected:
        raise ConfigurationError(
            f"request shape {tuple(payload.shape)} != plan input "
            f"shape {expected}")
    return plan.coerce(payload)


def coerce_chunk(plan, chunk) -> np.ndarray:
    """:func:`coerce_payload` for one streaming chunk.

    A chunk is a ``(T,) + step_shape`` slice of a session's input stream:
    the leading timestep count is free (``T >= 1``), only the per-step
    trailing dims must match the plan. Same copy discipline as the
    request path.
    """
    chunk = np.asarray(chunk)
    step_shape = plan.input_shape[1:]
    if chunk.ndim != len(plan.input_shape) \
            or tuple(chunk.shape[1:]) != step_shape or chunk.shape[0] < 1:
        raise ConfigurationError(
            f"stream chunk shape {tuple(chunk.shape)} != (T,) + "
            f"{step_shape} with T >= 1 (plan input {plan.input_shape})")
    return plan.coerce(chunk)


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

    def __len__(self) -> int:
        return len(self._queue)

    def oldest_enqueued_at(self) -> Optional[float]:
        return self._queue[0].enqueued_at if self._queue else None

    def take(self) -> List[ServedRequest]:
        """Pop the next micro-batch: up to ``max_batch`` requests, FIFO
        (``[]`` when nothing is queued)."""
        return [self._queue.popleft()
                for _ in range(min(self.max_batch, len(self._queue)))]
