"""The one serving surface every model-addressed front end implements.

:class:`Server` declares what the JSON-lines protocol
(:func:`repro.serve.cli.serve_protocol`) and the CLI call on a front
end; :class:`~repro.serve.server.ModelServer`,
:class:`~repro.serve.cluster.ClusterRouter`,
:class:`~repro.serve.partition.PipelineEngine` and
:class:`~repro.serve.partition.PipelineCluster` implement it, and
``tests/test_serve_conformance.py`` holds all four to it. The contract:

- ``submit`` returns an :class:`~repro.serve.futures.InferenceFuture`.
  An unknown model raises :class:`~repro.errors.ServingError` with
  ``code="unknown-model"``; submitting to a closed front end raises
  ``ServingError``. A payload the model cannot take (wrong shape) fails
  the *future*, so one bad request never poisons a batch.
- ``drain()`` serves everything submitted so far to completion or to a
  typed failure and returns ``None``; callers read outcomes from their
  futures.
- ``close(drain=True)`` is idempotent. Pending requests are served
  first, or failed with ``ServingError`` when ``drain=False``.
- ``stats()`` maps each public model name (plus any per-stage rows) to
  a :class:`~repro.serve.server.ModelStats`.
- Session ops exist on every front end; one it does not support raises
  ``ServingError`` with ``code="not-streamable"``.

The drive rule. A front end *drives itself* when every request it
accepts completes without the caller pumping it: ``ModelServer`` and
``PipelineEngine`` do when they have worker threads, ``ClusterRouter``
does when every one of its workers does (a ``ProcessWorker``, never an
in-process ``LocalWorker``), and ``PipelineCluster`` when its router
does. ``predict`` submits, drains unless the front end drives itself,
and returns the result; the cluster tiers decide with the same fact
whether a wait must pump.

:class:`ServerMixin` holds the methods the four front ends share.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional,
                    Protocol, Sequence, runtime_checkable)

import numpy as np

from repro.errors import ServingError
from repro.serve.futures import InferenceFuture

if TYPE_CHECKING:
    from repro.serve.server import ModelStats

__all__ = ["Server", "ServerMixin", "unknown_model"]


@runtime_checkable
class Server(Protocol):
    """A model-addressed serving front end (contract in the module doc)."""

    def submit(self, model: str, x) -> InferenceFuture: ...

    def submit_many(self, model: str,
                    xs: Iterable) -> List[InferenceFuture]: ...

    def predict(self, model: str, x,
                timeout: Optional[float] = 60.0) -> np.ndarray: ...

    def drain(self) -> None: ...

    def stats(self) -> Dict[str, "ModelStats"]: ...

    def format_stats(self) -> str: ...

    def models(self) -> List[str]: ...

    def aliases(self) -> Dict[str, str]: ...

    def close(self, drain: bool = True) -> None: ...

    def __enter__(self) -> "Server": ...

    def __exit__(self, *exc_info) -> None: ...

    def open_session(self, model: str,
                     session_id: Optional[str] = None) -> str: ...

    def submit_stream(self, model: str, session_id: str,
                      chunk) -> InferenceFuture: ...

    def close_session(self, model: str, session_id: str) -> int: ...

    def export_sessions(self, model: str) -> Dict[str, dict]: ...

    def import_session(self, model: str, session_id: str, state: dict,
                       chunks: int = 0) -> str: ...


def unknown_model(model: str, known: Sequence[str],
                  detail: str = "") -> ServingError:
    """The typed error every front end raises for a model it lacks."""
    return ServingError(f"unknown model {model!r}; loaded: {list(known)}"
                        + detail, code="unknown-model")


class ServerMixin:
    """Shared :class:`Server` methods.

    The model trio (``models``/``aliases``/``_check_model``) serves a
    front end that hosts one model under ``self.name``; multi-model
    front ends override it. The session ops raise ``not-streamable``
    (after the unknown-model check); streaming front ends override the
    ones they support.
    """

    name: str

    @property
    def _drives_itself(self) -> bool:
        """Whether every request completes without the caller pumping
        it (the drive rule in the module doc): worker threads serve it."""
        return bool(self._threads)

    def predict(self, model: str, x,
                timeout: Optional[float] = 60.0) -> np.ndarray:
        """Blocking convenience: submit, drain unless the front end drives
        itself, then return the result."""
        future = self.submit(model, x)
        if not self._drives_itself:
            self.drain()
        return future.result(timeout=timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit_many(self, model: str,
                    xs: Iterable) -> List[InferenceFuture]:
        return [self.submit(model, x) for x in xs]

    def format_stats(self) -> str:
        snapshots = self.stats()
        if not snapshots:
            return "no models loaded"
        return "\n".join(stats.format() for stats in snapshots.values())

    # ------------------------------------------------------------------
    def models(self) -> List[str]:
        return [self.name]

    def aliases(self) -> Dict[str, str]:
        return {}

    def _check_model(self, model: str) -> None:
        if model != self.name:
            raise unknown_model(model, self.models())

    # ------------------------------------------------------------------
    def _not_streamable(self, model: str, op: str):
        self._check_model(model)
        raise ServingError(f"{type(self).__name__} does not support {op} "
                           f"(model {model!r})", code="not-streamable")

    def open_session(self, model: str,
                     session_id: Optional[str] = None) -> str:
        self._not_streamable(model, "open_session")

    def submit_stream(self, model: str, session_id: str,
                      chunk) -> InferenceFuture:
        self._not_streamable(model, "submit_stream")

    def close_session(self, model: str, session_id: str) -> int:
        self._not_streamable(model, "close_session")

    def export_sessions(self, model: str) -> Dict[str, dict]:
        self._not_streamable(model, "export_sessions")

    def import_session(self, model: str, session_id: str, state: dict,
                       chunks: int = 0) -> str:
        self._not_streamable(model, "import_session")
