"""Inference futures: the async half of the serving API.

``ModelServer.submit`` returns an :class:`InferenceFuture` immediately; the
result materializes when a worker (or a synchronous ``drain``) serves the
micro-batch the request was coalesced into. The future carries the served
:class:`~repro.serve.batcher.ServedRequest` record, so per-request
accounting (queue+service latency, batch id/size, simulated FPGA share)
stays reachable from the handle the caller already holds.

A tiny purpose-built future (rather than ``concurrent.futures.Future``)
keeps the contract explicit: exactly one resolution, results are numpy
arrays, and the request record rides along.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, List, Optional

import numpy as np

from repro.errors import ServingError


#: Serializes callback registration against resolution (and a resolution
#: against a second one). Held only for a few attribute writes, never
#: while a callback or a waiter runs, so one lock serves every future.
_SETTLE = threading.Lock()


class InferenceFuture:
    """Handle to one submitted request; resolves to its output array.

    Completion is one latch: a lock taken at construction and released
    once, on resolution. Each waiter acquires it and passes it straight
    on, so any number of threads can wait; ``done()`` is a plain flag.
    """

    def __init__(self, model: Optional[str] = None):
        self.model = model
        self._done = False
        self._result: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self._request = None            # ServedRequest, set on success
        self._callbacks: List[Callable[["InferenceFuture"], None]] = []
        self._latch = threading.Lock()
        self._latch.acquire()

    # ------------------------------------------------------------------
    def done(self) -> bool:
        return self._done

    def _wait(self, timeout: Optional[float]) -> bool:
        """Settled within ``timeout`` s? (``None`` waits forever; ``<= 0``
        never blocks, as ``threading.Event.wait``.)"""
        if self._done:
            return True
        if timeout is None or timeout > 0:
            acquired = self._latch.acquire(
                timeout=-1 if timeout is None else timeout)
        else:
            acquired = self._latch.acquire(blocking=False)
        if acquired:
            self._latch.release()
        # The flag is set before the release: a probe that lost the latch
        # to a waiter passing it on still sees the resolution.
        return self._done

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until served; returns the output or raises the failure."""
        if not self._wait(timeout):
            raise TimeoutError(
                f"request{f' for model {self.model!r}' if self.model else ''}"
                f" not served within {timeout} s")
        if self._error is not None:
            raise self._error
        return self._result

    def exception(self, timeout: Optional[float] = None
                  ) -> Optional[BaseException]:
        if not self._wait(timeout):
            raise TimeoutError(f"request not served within {timeout} s")
        return self._error

    @property
    def request(self):
        """The served request record (latency, batch id/size, FPGA share)."""
        return self._request

    @property
    def latency_ms(self) -> float:
        if self._request is None:
            raise ServingError("request not served yet; no latency")
        return self._request.latency_ms

    @property
    def cached(self) -> bool:
        """True when this request was answered from the response cache."""
        return bool(self._request is not None
                    and getattr(self._request, "cached", False))

    @property
    def coalesced(self) -> bool:
        """True when this request rode an identical in-flight request
        (one batcher slot, one kernel invocation, shared result)."""
        return bool(self._request is not None
                    and getattr(self._request, "coalesced", False))

    def add_done_callback(self,
                          fn: Callable[["InferenceFuture"], None]) -> None:
        """Run ``fn(self)`` once resolved (immediately if already done)."""
        with _SETTLE:
            if not self._done:
                self._callbacks.append(fn)
                return
        fn(self)

    # ------------------------------------------------------------------
    # Resolution (server/executor side)
    # ------------------------------------------------------------------
    def _resolve(self, result: np.ndarray, request=None) -> None:
        self._settle(result, None, request)

    def _fail(self, error: BaseException) -> None:
        self._settle(None, error, None)

    def _settle(self, result, error, request) -> None:
        with _SETTLE:
            if self._done:
                raise ServingError("future resolved twice")
            self._result, self._error, self._request = result, error, request
            self._done = True
            callbacks, self._callbacks = self._callbacks, []
        self._latch.release()
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        state = "pending"
        if self._done:
            state = "error" if self._error is not None else "done"
        model = f" model={self.model!r}" if self.model else ""
        return f"<InferenceFuture{model} {state}>"


def gather(futures: Iterable[InferenceFuture],
           timeout: Optional[float] = None) -> List[np.ndarray]:
    """Results of every future, in order; raises the first failure."""
    return [future.result(timeout) for future in futures]
