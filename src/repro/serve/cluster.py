"""Distributed serving: a front-door router over N model-server workers.

:class:`ModelServer` (PR 4) is one GIL-bound process — the scaling wall
named in the ROADMAP. :class:`ClusterRouter` is the tier above it: N
workers, each hosting a full ``ModelServer``, fronted by one router that
places requests (pluggable :mod:`~repro.serve.placement` policies),
enforces admission control (per-worker in-flight caps; overload sheds
with a retryable typed :class:`~repro.errors.AdmissionError`), survives
worker death (pending futures fail with typed
:class:`~repro.errors.WorkerError`, traffic re-routes to the survivors),
aggregates cluster-wide statistics through
``ThroughputStats.merge()``, and rolls restarts through the fleet one
worker at a time without dropping an in-flight request.

Workers speak the PR 4 JSON-lines protocol, verbatim
(:func:`~repro.serve.cli.serve_protocol`), carried over the
length-framed transport of :mod:`~repro.serve.transport`. Payloads and
outputs travel as the frame's raw array attachment
(``<JSON header> 0x00 <array bytes>``): the router sends the array
itself as ``"input"`` and reads ``"output"`` back as an array, so no
hop base64-encodes. A frame without a NUL byte is a plain JSON frame. A
response whose attachment is malformed fails its request typed
(``bad-response``) and counts one protocol error; the reader keeps
serving. Two worker flavors share one router:

- :class:`ProcessWorker` — a real ``python -m repro serve
  cluster-worker`` subprocess on a localhost socket; a reader thread per
  worker resolves futures as responses arrive. This is the production
  shape (`ClusterRouter.spawn`, ``python -m repro serve cluster``).
- :class:`LocalWorker` — the same ModelServer + protocol loop, in
  process, over a :class:`~repro.serve.transport.FakeTransport` pair
  with an injected clock. ``router.pump()`` advances the whole cluster
  one deterministic round; with a
  :class:`~repro.serve.transport.FaultPlan` per worker, every failure
  path (drop/delay/corrupt frames, kill mid-batch, refuse admission) is
  reproducible under pytest with zero sockets, threads, or sleeps.

Rolling restart reuses the alias machinery: each worker hosts its models
under versioned names (``resnet@v3``) with the public name aliased, so a
restart is exactly the PR 4 rollover — load generation N+1, re-point the
alias — and ``rolling_restart(models=...)`` rolls the fleet onto new
artifacts with zero downtime.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    FrameError,
    ServingError,
    SessionError,
    TransportClosed,
    WorkerError,
)
from repro.serve.backends import DEFAULT_BACKEND
from repro.serve.batcher import ignore_max_wait_ms
from repro.serve.frontend import ServerMixin, unknown_model
from repro.serve.futures import InferenceFuture
from repro.serve.placement import (
    PlacementPolicy,
    WorkerView,
    get_placement,
)
from repro.serve.server import ModelServer, ModelStats
from repro.util.hashing import array_digest
from repro.serve.transport import (
    FRAME_ERROR_CODES,
    MAX_MESSAGE_BYTES,
    FakeTransport,
    FaultPlan,
    FrameWriter,
    SocketTransport,
)

__all__ = ["ClusterRouter", "LocalWorker", "ProcessWorker",
           "RoutedRequest", "RouterStats"]


SESSION_ERROR_CODES = frozenset({
    "session-error", "unknown-session", "session-exists",
    "session-expired", "session-evicted", "session-closed",
    "session-lost",
})


def error_from_wire(message: Dict) -> ServingError:
    """Reconstruct the typed error a worker answered over the wire."""
    code = message.get("code", "serving-error")
    text = str(message.get("error", "serving error"))
    if code in FRAME_ERROR_CODES:
        return FrameError(code, text)
    if code == "shed":
        return AdmissionError(text)
    if code in ("worker-failed", "no-workers", "timeout", "lost", "closed",
                "bad-response"):
        return WorkerError(text, code=code)
    if code in SESSION_ERROR_CODES:
        return SessionError(text, code=code)
    return ServingError(text, code=code)


def _not_an_array(what: str, error: Exception) -> ServingError:
    """``bad-request``: ``np.asarray`` rejected a submitted payload."""
    return ServingError(f"{what} is not an array: {error}",
                        code="bad-request")


@dataclass
class RoutedRequest:
    """Per-request record a cluster future resolves with (the cluster
    analog of :class:`~repro.serve.batcher.ServedRequest`)."""

    id: int
    model: str
    worker: str
    enqueued_at: float
    latency_ms: float = 0.0      # worker-side queue+service latency
    batch_id: Optional[int] = None
    batch_size: Optional[int] = None
    cached: bool = False         # answered from the worker's cache
    coalesced: bool = False      # rode an identical in-flight request
    # A pipelined request's record per stage, first stage first
    # (PipelineCluster); the batches each stage actually served.
    stages: Tuple["RoutedRequest", ...] = ()


@dataclass
class _Pending:
    future: InferenceFuture
    worker: str
    model: str
    enqueued_at: float
    deadline: Optional[float]
    kind: str = "infer"          # "infer" | "stream" | "control" | "stats"
    session: Optional[str] = None


@dataclass
class RouterStats:
    """The router's own counters (worker-side serving detail lives in
    ``ClusterRouter.stats()``)."""

    routed: int = 0
    completed: int = 0
    shed: int = 0
    worker_failures: int = 0
    timeouts: int = 0
    protocol_errors: int = 0
    in_flight: int = 0
    workers_alive: int = 0
    workers: int = 0

    def format(self) -> str:
        return (f"routed {self.routed} (completed {self.completed}, "
                f"in flight {self.in_flight}), shed {self.shed}, "
                f"worker failures {self.worker_failures}, "
                f"timeouts {self.timeouts}, "
                f"protocol errors {self.protocol_errors}; "
                f"workers {self.workers_alive}/{self.workers} alive")


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
class _WorkerBase:
    """State shared by both worker flavors; the router also stamps
    ``index`` (placement identity) at construction."""

    drives_itself = False        # process workers have reader threads

    def __init__(self, name: str, models: Dict, capacity: Optional[int]):
        if not models:
            raise ConfigurationError(f"worker {name!r} hosts no models")
        self.name = name
        self._sources = dict(models)
        self.capacity = capacity
        self.cache_enabled = False   # set by flavors that host a cache
        self.index = 0
        self.generation = 0
        self.alive = False
        self.accepting = True
        self.transport = None
        self._stopping = False
        self._failure_counted = False

    @property
    def models(self) -> Set[str]:
        return frozenset(self._sources)

    @property
    def refuses_admission(self) -> bool:
        return False

    def update_models(self, models: Dict) -> None:
        """Stage new artifact sources; the next (rolling) restart serves
        them."""
        unknown = set(models) - set(self._sources)
        if unknown:
            raise ConfigurationError(
                f"worker {self.name!r} does not host {sorted(unknown)}")
        self._sources.update(models)

    def mark_dead(self) -> None:
        self.alive = False
        if self.transport is not None:
            self.transport.close()


class LocalWorker(_WorkerBase):
    """In-process worker: a ``ModelServer`` behind a ``FakeTransport``.

    Deterministic by construction — nothing happens until ``step()``
    reads whatever frames the injected clock has delivered and runs them
    through ``serve_protocol`` (requests are batched, served, and
    answered within the step). A :class:`FaultPlan` applies to the
    worker's first incarnation only: a restarted worker comes back
    healthy, which is what crash-recovery tests need.
    """

    def __init__(self, name: str, models: Dict, *,
                 clock=time.monotonic, max_batch: int = 16,
                 backend: str = DEFAULT_BACKEND,
                 capacity: Optional[int] = None,
                 plan: Optional[FaultPlan] = None,
                 max_bytes: int = MAX_MESSAGE_BYTES,
                 cache_mb: Optional[float] = None,
                 cache_ttl_s: Optional[float] = None,
                 session_mb: Optional[float] = None,
                 session_ttl_s: Optional[float] = None):
        super().__init__(name, models, capacity)
        self._clock = clock
        self.max_batch = int(max_batch)
        self.backend = backend
        self.fault_plan = plan
        self.max_bytes = max_bytes
        self.cache_mb = cache_mb
        self.cache_ttl_s = cache_ttl_s
        self.cache_enabled = bool(cache_mb)
        self.session_mb = session_mb
        self.session_ttl_s = session_ttl_s
        self._endpoint = None
        self._server: Optional[ModelServer] = None
        self.start()

    @property
    def refuses_admission(self) -> bool:
        return bool(self.fault_plan and self.fault_plan.refuse_admission)

    def start(self) -> None:
        self.generation += 1
        self._failure_counted = False
        plan = self.fault_plan if self.generation == 1 else None
        self.transport, self._endpoint = FakeTransport.pair(
            plan=plan, clock=self._clock, max_bytes=self.max_bytes)
        self._server = ModelServer(workers=0, max_batch=self.max_batch,
                                   clock=self._clock,
                                   cache_mb=self.cache_mb,
                                   cache_ttl_s=self.cache_ttl_s,
                                   session_mb=self.session_mb,
                                   session_ttl_s=self.session_ttl_s)
        for public, source in self._sources.items():
            versioned = f"{public}@v{self.generation}"
            if hasattr(source, "engine"):
                self._server.add(versioned, source, batch=self.max_batch)
            else:
                self._server.load(versioned, source, backend=self.backend,
                                  batch=self.max_batch)
            self._server.alias(public, versioned)
        self.alive = True

    def restart(self, models: Optional[Dict] = None) -> None:
        if models:
            self.update_models(models)
        self.stop()
        self.start()

    def stop(self) -> None:
        self.alive = False
        if self.transport is not None:
            self.transport.close()
        if self._server is not None:
            self._server.close(drain=False)
            self._server = None

    # ------------------------------------------------------------------
    def step(self) -> int:
        """Serve every frame currently deliverable to this worker: read
        them off the transport and run the batch through the verbatim
        PR 4 ``serve_protocol`` (which batches, executes, and answers).
        Returns the number of protocol lines handled."""
        from repro.serve.cli import serve_protocol

        if not self.alive:
            return 0
        frames = []
        while True:
            try:
                frame = self._endpoint.recv_bytes()
            except TransportClosed:
                self.mark_dead()
                return 0
            except FrameError as error:
                frames.append(error)
                continue
            if frame is None:
                break
            frames.append(frame)
        if not frames:
            return 0
        try:
            serve_protocol(self._server, frames, FrameWriter(self._endpoint),
                           max_line_bytes=self.max_bytes)
        except TransportClosed:
            self.mark_dead()
        if self._endpoint.closed:
            self.alive = False
        return len(frames)

    # ------------------------------------------------------------------
    def export_sessions(self) -> Dict[str, Dict[str, dict]]:
        """Wire-encoded snapshot of every model's live sessions — the
        in-process half of session migration across a rolling restart
        (the server resolves public aliases to the current generation)."""
        if self._server is None:
            raise ServingError(f"worker {self.name!r} is stopped")
        return {public: self._server.export_sessions(public)
                for public in self._sources}

    def import_sessions(self,
                        exported: Dict[str, Dict[str, dict]]) -> int:
        """Re-create exported sessions in the restarted server."""
        if self._server is None:
            raise ServingError(f"worker {self.name!r} is stopped")
        count = 0
        for public, sessions in exported.items():
            for sid, snapshot in sessions.items():
                self._server.import_session(
                    public, sid, snapshot["state"],
                    chunks=int(snapshot.get("chunks", 0)))
                count += 1
        return count


class ProcessWorker(_WorkerBase):
    """A worker subprocess (``python -m repro serve cluster-worker``)
    serving the framed protocol on a localhost socket.

    ``models`` must map names to artifact *paths* (the subprocess loads
    them itself). ``env`` overlays the child environment — the benchmark
    uses it to pin BLAS thread pools so process scaling is measured
    clean.
    """

    drives_itself = True

    def __init__(self, name: str, models: Dict[str, str], *,
                 max_batch: int = 16,
                 backend: str = DEFAULT_BACKEND,
                 capacity: Optional[int] = None, worker_threads: int = 2,
                 env: Optional[Dict[str, str]] = None,
                 spawn_timeout: float = 60.0,
                 cache_mb: Optional[float] = None,
                 cache_ttl_s: Optional[float] = None,
                 session_mb: Optional[float] = None,
                 session_ttl_s: Optional[float] = None):
        for model, source in models.items():
            if hasattr(source, "engine"):
                raise ConfigurationError(
                    f"ProcessWorker {name!r} needs artifact paths, not "
                    f"in-process deployments (model {model!r}); save the "
                    "artifact and pass its path")
        super().__init__(name, {m: str(p) for m, p in models.items()},
                         capacity)
        self.max_batch = int(max_batch)
        self.backend = backend
        self.worker_threads = int(worker_threads)
        self.cache_mb = cache_mb
        self.cache_ttl_s = cache_ttl_s
        self.cache_enabled = bool(cache_mb)
        self.session_mb = session_mb
        self.session_ttl_s = session_ttl_s
        self._env = dict(env or {})
        self._spawn_timeout = spawn_timeout
        self._proc: Optional[subprocess.Popen] = None
        self.start()

    def start(self) -> None:
        self.generation += 1
        self._failure_counted = False
        args = [sys.executable, "-m", "repro", "serve", "cluster-worker",
                "--batch", str(self.max_batch),
                "--backend", self.backend,
                "--workers", str(self.worker_threads),
                "--generation", str(self.generation)]
        if self.cache_mb:
            args += ["--cache-mb", str(self.cache_mb)]
            if self.cache_ttl_s is not None:
                args += ["--cache-ttl-s", str(self.cache_ttl_s)]
        if self.session_mb is not None:
            args += ["--session-mb", str(self.session_mb)]
        if self.session_ttl_s is not None:
            args += ["--session-ttl-s", str(self.session_ttl_s)]
        for model, path in sorted(self._sources.items()):
            args += ["--model", f"{model}={path}"]
        import repro

        src_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.update(self._env)
        self._proc = subprocess.Popen(args, stdout=subprocess.PIPE,
                                      text=True, env=env)
        banner = self._proc.stdout.readline().strip()
        if not banner.startswith("PORT "):
            self._reap(kill=True)
            raise ServingError(
                f"worker {self.name!r} failed to start "
                f"(said {banner!r}, expected 'PORT <n>')")
        port = int(banner.split()[1])
        self.transport = SocketTransport.connect(
            "127.0.0.1", port, timeout=self._spawn_timeout)
        self.alive = True

    def restart(self, models: Optional[Dict] = None) -> None:
        if models:
            self.update_models(models)
        self.stop()
        self.start()

    def stop(self) -> None:
        self.alive = False
        if self.transport is not None:
            self.transport.close()     # EOF: the worker loop exits cleanly
        if self._proc is not None:
            self._reap()

    def _reap(self, kill: bool = False) -> None:
        """Wait for (or kill) the subprocess, then close the pipe its
        banner came on, so no stop or restart leaks a descriptor."""
        if kill:
            self._proc.kill()
        try:
            self._proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        self._proc = None

    def step(self) -> int:
        return 0    # the reader thread drives responses


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
class ClusterRouter(ServerMixin):
    """Front door over a fleet of workers; the multi-process analog of
    :class:`ModelServer`, implementing the same
    :class:`~repro.serve.frontend.Server` surface (so ``serve_protocol``
    can drive a whole cluster verbatim).

    ``capacity`` caps in-flight requests per worker (a worker-level
    ``capacity=`` overrides it); when every admissible replica is full
    the request is *shed* — its future fails immediately with a
    retryable :class:`AdmissionError` instead of queueing unboundedly.
    ``request_timeout_ms`` bounds how long a routed request may stay
    unanswered (measured on the injected ``clock``) before failing with
    a retryable typed timeout — the guard against lost frames.
    """

    def __init__(self, workers: Sequence[_WorkerBase],
                 placement="least_loaded", *,
                 clock=time.monotonic, capacity: int = 64,
                 request_timeout_ms: Optional[float] = None):
        workers = list(workers)
        if not workers:
            raise ConfigurationError("a cluster needs at least one worker")
        names = [worker.name for worker in workers]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"worker names must be unique, got {names}")
        if capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1, got {capacity}")
        self._workers = workers
        for index, worker in enumerate(workers):
            worker.index = index
        self._placement = (placement if isinstance(placement,
                                                   PlacementPolicy)
                           else get_placement(placement))
        # Cache-aware routing: only pay the per-request payload digest
        # when the policy asks for one AND some worker actually hosts a
        # response cache (a no-cache fleet keeps byte-identical routing).
        self._cache_affinity = (self._placement.wants_request_key
                                and any(w.cache_enabled for w in workers))
        self._clock = clock
        self._capacity = int(capacity)
        self._timeout_ms = request_timeout_ms
        self._lock = threading.Condition(threading.Lock())
        self._pending: Dict[int, _Pending] = {}
        # (model, session id) -> owning worker name; None tombstones a
        # session whose worker died/restarted without migration, so the
        # client gets "session-lost" (state is gone) rather than the
        # config-mistake-flavored "unknown-session".
        self._sessions: Dict[Tuple[str, str], Optional[str]] = {}
        self._by_worker: Dict[str, Set[int]] = {w.name: set()
                                                for w in workers}
        self._in_flight: Dict[str, int] = {w.name: 0 for w in workers}
        self._next_id = 0
        self._counters = RouterStats(workers=len(workers))
        self._running = True
        self._readers: List[threading.Thread] = []
        for worker in workers:
            if worker.drives_itself:
                self._start_reader(worker)

    # ------------------------------------------------------------------
    # Construction conveniences
    # ------------------------------------------------------------------
    @classmethod
    def spawn(cls, models: Dict[str, str], workers: int = 2,
              placement="least_loaded", *, max_batch: int = 16,
              max_wait_ms: Optional[float] = None,
              backend: str = DEFAULT_BACKEND, capacity: int = 64,
              worker_threads: int = 2,
              env: Optional[Dict[str, str]] = None,
              request_timeout_ms: Optional[float] = None,
              cache_mb: Optional[float] = None,
              cache_ttl_s: Optional[float] = None,
              session_mb: Optional[float] = None,
              session_ttl_s: Optional[float] = None
              ) -> "ClusterRouter":
        """Spawn ``workers`` subprocesses, each hosting every model in
        ``models`` (name -> artifact path), and route over them."""
        ignore_max_wait_ms("ClusterRouter.spawn", max_wait_ms)
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        fleet = [ProcessWorker(f"w{index}", models, max_batch=max_batch,
                               backend=backend,
                               capacity=None, worker_threads=worker_threads,
                               env=env, cache_mb=cache_mb,
                               cache_ttl_s=cache_ttl_s,
                               session_mb=session_mb,
                               session_ttl_s=session_ttl_s)
                 for index in range(workers)]
        return cls(fleet, placement, capacity=capacity,
                   request_timeout_ms=request_timeout_ms)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, model: str, x) -> InferenceFuture:
        """Route one request; returns its future immediately.

        An unknown model raises (nobody hosts it — a config mistake);
        everything transient fails the *future* with a typed, usually
        retryable error: shed under overload, no live replica, worker
        death, oversized payload.
        """
        future = InferenceFuture(model=model)
        try:
            x = np.asarray(x)
        except Exception as error:
            future._fail(_not_an_array("payload", error))
            return future
        request_key = None
        if self._cache_affinity:
            try:
                # Same digest the workers' caches key payloads on, so
                # repeats of one payload land where the cache is warm.
                request_key = array_digest(x)
            except (TypeError, ValueError):
                request_key = None     # undigestable: placement by model
        with self._lock:
            if not self._running:
                raise ServingError("cluster router is closed")
            hosts = self._hosts(model)
            worker = self._admit_locked(model, hosts, request_key)
            if worker is None:
                self._counters.shed += 1
                alive = [w for w in hosts if w.alive]
                error = (AdmissionError(
                    f"all {len(alive)} replica(s) of {model!r} are at "
                    f"capacity; retry later") if alive
                    else WorkerError(
                        f"no live worker hosts {model!r}",
                        code="no-workers"))
                future._fail(error)
                return future
        message = {"model": model, "input": x}
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
            message["id"] = request_id
            now = self._clock()
            self._pending[request_id] = _Pending(
                future=future, worker=worker.name, model=model,
                enqueued_at=now,
                deadline=None if self._timeout_ms is None
                else now + self._timeout_ms / 1e3)
            self._by_worker[worker.name].add(request_id)
            self._in_flight[worker.name] += 1
            self._counters.routed += 1
        try:
            worker.transport.send(message)
        except TransportClosed:
            self._worker_died(worker)
        except FrameError as error:       # oversized payload
            self._drop_pending(request_id)
            future._fail(error)
        return future

    def _hosts(self, model: str) -> List[_WorkerBase]:
        """Workers hosting ``model``; raises ``unknown-model`` if none."""
        hosts = [w for w in self._workers if model in w.models]
        if not hosts:
            raise unknown_model(model, self.models())
        return hosts

    def _check_model(self, model: str) -> None:
        self._hosts(model)

    def _admit_locked(self, model: str, hosts: List[_WorkerBase],
                      request_key: Optional[str] = None
                      ) -> Optional[_WorkerBase]:
        views = [WorkerView(name=w.name, index=w.index, models=w.models,
                            alive=w.alive,
                            accepting=w.accepting
                            and not w.refuses_admission,
                            in_flight=self._in_flight[w.name],
                            capacity=w.capacity if w.capacity is not None
                            else self._capacity)
                 for w in hosts if w.alive]
        by_index = {w.index: w for w in hosts}
        for view in self._placement.order_request(model, request_key,
                                                  views):
            if view.accepting and view.in_flight < view.capacity:
                return by_index[view.index]
        return None

    # ------------------------------------------------------------------
    # Streaming sessions (sticky placement)
    # ------------------------------------------------------------------
    def open_session(self, model: str,
                     session_id: Optional[str] = None) -> str:
        """Open a streaming session and pin it to one worker.

        The worker is chosen by the placement policy keyed on the
        session id (consistent-hash policies give stable affinity);
        every subsequent chunk of the session routes to that worker,
        because that is where its recurrent state lives. Returns the
        session id; worker-side failures (e.g. a non-RNN model) surface
        on the session's first submit.
        """
        sid = session_id if session_id is not None \
            else uuid.uuid4().hex[:12]
        with self._lock:
            if not self._running:
                raise ServingError("cluster router is closed")
            if self._sessions.get((model, sid)) is not None:
                raise SessionError(
                    f"session {sid!r} is already open on worker "
                    f"{self._sessions[(model, sid)]!r}",
                    code="session-exists")
            hosts = self._hosts(model)
            worker = self._admit_locked(model, hosts,
                                        request_key=f"session:{sid}")
            if worker is None:
                raise WorkerError(
                    f"no live worker can host a session of {model!r}",
                    code="no-workers")
            self._sessions[(model, sid)] = worker.name
        future = self._send_control(worker, {
            "op": "stream_open", "model": model, "session": sid})

        def unmap_on_failure(done) -> None:
            if done.exception(timeout=None) is not None:
                with self._lock:
                    if self._sessions.get((model, sid)) == worker.name:
                        del self._sessions[(model, sid)]

        future.add_done_callback(unmap_on_failure)
        return sid

    def submit_stream(self, model: str, session_id: str,
                      chunk) -> InferenceFuture:
        """Route one chunk to the session's pinned worker."""
        future = InferenceFuture(model=model)
        with self._lock:
            if not self._running:
                raise ServingError("cluster router is closed")
            owner = self._sessions.get((model, session_id), "")
        if owner == "":
            future._fail(SessionError(
                f"unknown session {session_id!r} of {model!r} (never "
                "opened, or already closed)", code="unknown-session"))
            return future
        if owner is None:
            future._fail(SessionError(
                f"session {session_id!r} of {model!r} was lost with its "
                "worker; reopen and replay", code="session-lost"))
            return future
        worker = self._worker_by_name(owner)
        if not worker.alive:
            future._fail(SessionError(
                f"session {session_id!r} of {model!r} was lost with "
                f"worker {owner!r}; reopen and replay",
                code="session-lost"))
            return future
        try:
            chunk = np.asarray(chunk)
        except Exception as error:
            future._fail(_not_an_array("chunk", error))
            return future
        message = {"op": "stream_submit", "model": model,
                   "session": session_id, "input": chunk}
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
            message["id"] = request_id
            now = self._clock()
            self._pending[request_id] = _Pending(
                future=future, worker=worker.name, model=model,
                enqueued_at=now,
                deadline=None if self._timeout_ms is None
                else now + self._timeout_ms / 1e3,
                kind="stream", session=session_id)
            self._by_worker[worker.name].add(request_id)
            self._in_flight[worker.name] += 1
            self._counters.routed += 1
        try:
            worker.transport.send(message)
        except TransportClosed:
            self._worker_died(worker)
        except FrameError as error:       # oversized chunk
            self._drop_pending(request_id)
            future._fail(error)
        return future

    def close_session(self, model: str, session_id: str,
                      timeout: Optional[float] = 30.0) -> int:
        """Close a session on its worker; returns chunks served."""
        with self._lock:
            if not self._running:
                raise ServingError("cluster router is closed")
            owner = self._sessions.pop((model, session_id), "")
        if owner == "":
            raise SessionError(
                f"unknown session {session_id!r} of {model!r} (never "
                "opened, or already closed)", code="unknown-session")
        if owner is None:
            raise SessionError(
                f"session {session_id!r} of {model!r} was lost with its "
                "worker", code="session-lost")
        worker = self._worker_by_name(owner)
        if not worker.alive:
            raise SessionError(
                f"session {session_id!r} of {model!r} was lost with "
                f"worker {owner!r}", code="session-lost")
        future = self._send_control(worker, {
            "op": "stream_close", "model": model, "session": session_id})
        return int(self._reply(worker, future, timeout).get("chunks", 0))

    def sessions(self) -> Dict[str, List[str]]:
        """Live session ids per worker (lost sessions excluded)."""
        with self._lock:
            placed: Dict[str, List[str]] = {}
            for (model, sid), owner in self._sessions.items():
                if owner is not None:
                    placed.setdefault(owner, []).append(sid)
            return {name: sorted(ids) for name, ids in placed.items()}

    def _reply(self, worker: _WorkerBase, future: InferenceFuture,
               timeout: Optional[float]) -> Dict:
        """The answer to a control or stats op sent to ``worker``. A
        worker that drives itself is waited on for up to ``timeout``; an
        in-process one is pumped until it answers or nothing moves."""
        if not worker.drives_itself:
            while not future.done() and self.pump():
                pass
            timeout = 0
        return future.result(timeout=timeout)

    def _send_control(self, worker: _WorkerBase,
                      message: Dict) -> InferenceFuture:
        """Send a session-control op; its future resolves with the raw
        response message (the worker answers these immediately)."""
        future = InferenceFuture(model=message.get("model"))
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
            self._pending[request_id] = _Pending(
                future=future, worker=worker.name,
                model=str(message.get("model")),
                enqueued_at=self._clock(), deadline=None,
                kind="control", session=message.get("session"))
            self._by_worker[worker.name].add(request_id)
        try:
            worker.transport.send({**message, "id": request_id})
        except TransportClosed:
            self._worker_died(worker)
        except FrameError as error:
            self._drop_pending(request_id)
            future._fail(error)
        return future

    # ------------------------------------------------------------------
    # Responses, deaths, timeouts
    # ------------------------------------------------------------------
    def _pop_answered_locked(self, request_id) -> Optional[_Pending]:
        """Pop the entry a response answers (``None`` when the id names
        no pending request); callers hold ``self._lock``."""
        entry = (self._pending.pop(request_id, None)
                 if type(request_id) is int else None)
        if entry is not None:
            self._by_worker[entry.worker].discard(request_id)
            if entry.kind in ("infer", "stream"):
                self._in_flight[entry.worker] = max(
                    0, self._in_flight[entry.worker] - 1)
                self._counters.completed += 1
        return entry

    def _handle_message(self, worker: _WorkerBase, message: Dict) -> None:
        request_id = message.get("id")
        with self._lock:
            entry = self._pop_answered_locked(request_id)
            if entry is None and "error" in message:
                # A typed answer to a frame the router cannot attribute
                # (e.g. the worker rejected a corrupted request frame).
                self._counters.protocol_errors += 1
            self._lock.notify_all()
        if entry is None:
            return
        if "error" in message:
            entry.future._fail(error_from_wire(message))
            return
        if entry.kind in ("stats", "control"):
            entry.future._resolve(message, None)
            return
        output = message.get("output")
        if not isinstance(output, np.ndarray):
            with self._lock:
                self._counters.protocol_errors += 1
            self._fail_unreadable(worker, entry, "no output array attached")
            return
        entry.future._resolve(output, RoutedRequest(
            id=request_id, model=entry.model, worker=worker.name,
            enqueued_at=entry.enqueued_at,
            latency_ms=message.get("latency_ms", 0.0),
            batch_id=message.get("batch_id"),
            batch_size=message.get("batch_size"),
            cached=bool(message.get("cached", False)),
            coalesced=bool(message.get("coalesced", False))))

    @staticmethod
    def _fail_unreadable(worker: _WorkerBase, entry: _Pending,
                         reason) -> None:
        # The entry is already popped, so no timeout would ever reach
        # it: fail it here, and keep the reader alive.
        entry.future._fail(WorkerError(
            f"worker {worker.name!r} sent an unreadable response for "
            f"{entry.model!r}: {reason}", code="bad-response"))

    def _frame_error(self, worker: _WorkerBase, error: FrameError) -> None:
        """Count a response frame that failed to decode. When its header
        named the request (a malformed attachment), that request fails
        ``bad-response``; otherwise it is left to its timeout."""
        with self._lock:
            entry = self._pop_answered_locked(error.message_id)
            self._counters.protocol_errors += 1
            self._lock.notify_all()
        if entry is not None:
            self._fail_unreadable(worker, entry, error)

    def _drop_pending(self, request_id: int) -> Optional[_Pending]:
        with self._lock:
            entry = self._pending.pop(request_id, None)
            if entry is not None:
                self._by_worker[entry.worker].discard(request_id)
                if entry.kind in ("infer", "stream"):
                    self._in_flight[entry.worker] = max(
                        0, self._in_flight[entry.worker] - 1)
            self._lock.notify_all()
        return entry

    def _worker_died(self, worker: _WorkerBase) -> None:
        with self._lock:
            worker.mark_dead()
            ids = sorted(self._by_worker[worker.name])
            entries = [self._pending.pop(request_id)
                       for request_id in ids]
            self._by_worker[worker.name].clear()
            self._in_flight[worker.name] = 0
            if not worker._failure_counted:
                worker._failure_counted = True
                self._counters.worker_failures += 1
            # The worker's sessions died with their server-held state.
            # The mapping stays (tombstoned) so later submits for those
            # sessions fail typed "session-lost", not "unknown-session".
            for key, owner in self._sessions.items():
                if owner == worker.name:
                    self._sessions[key] = None
            self._lock.notify_all()
        for entry in entries:
            if entry.kind == "stream":
                # Only this worker's sessions fail; streams pinned to
                # other workers never see the crash.
                entry.future._fail(SessionError(
                    f"worker {worker.name!r} died holding session "
                    f"{entry.session!r} of {entry.model!r}; its state is "
                    "lost — reopen and replay", code="session-lost"))
            else:
                entry.future._fail(WorkerError(
                    f"worker {worker.name!r} died holding request for "
                    f"{entry.model!r} (crash mid-batch or connection "
                    "lost); the request may be retried"))

    def _expire_timeouts(self) -> int:
        now = self._clock()
        with self._lock:
            expired = [request_id
                       for request_id, entry in self._pending.items()
                       if entry.deadline is not None
                       and now >= entry.deadline]
            entries = []
            for request_id in expired:
                entry = self._pending.pop(request_id)
                self._by_worker[entry.worker].discard(request_id)
                if entry.kind in ("infer", "stream"):
                    self._in_flight[entry.worker] = max(
                        0, self._in_flight[entry.worker] - 1)
                self._counters.timeouts += 1
                entries.append(entry)
            self._lock.notify_all()
        for entry in entries:
            entry.future._fail(WorkerError(
                f"no response from worker {entry.worker!r} within "
                f"{self._timeout_ms} ms (frame lost?)", code="timeout"))
        return len(entries)

    # ------------------------------------------------------------------
    # Driving (deterministic local mode)
    # ------------------------------------------------------------------
    def pump(self) -> int:
        """One deterministic round: step every live local worker (it
        serves whatever the clock has delivered), collect its responses,
        expire timed-out requests. Returns how many protocol events
        (responses, errors, timeouts) were handled."""
        progressed = 0
        for worker in self._workers:
            if worker.drives_itself or not worker.alive:
                continue
            worker.step()
            if not worker.alive:
                self._worker_died(worker)
                continue
            while True:
                try:
                    message = worker.transport.recv()
                except TransportClosed:
                    self._worker_died(worker)
                    break
                except FrameError as error:
                    self._frame_error(worker, error)
                    progressed += 1
                    continue
                if message is None:
                    break
                self._handle_message(worker, message)
                progressed += 1
        progressed += self._expire_timeouts()
        return progressed

    def drain(self, timeout: Optional[float] = 60.0) -> None:
        """Resolve every pending request. Local workers are pumped to
        completion — a request that can no longer complete (its frame
        was dropped and no clock advance is coming) fails typed
        (``code="lost"``) rather than hanging. Process workers are
        waited on (wall-clock ``timeout``); stragglers fail typed
        (``code="timeout"``)."""
        if any(not w.drives_itself for w in self._workers):
            while True:
                with self._lock:
                    stuck = [request_id
                             for request_id, entry in self._pending.items()
                             if not self._worker_by_name(
                                 entry.worker).drives_itself]
                if not stuck:
                    break
                if self.pump() == 0:
                    self._fail_lost(stuck)
                    break
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        with self._lock:
            while self._remote_pending_locked():
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    break
                self._lock.wait(1.0 if remaining is None
                                else min(remaining, 1.0))
            leftovers = self._remote_pending_locked()
        for request_id in leftovers:
            entry = self._drop_pending(request_id)
            if entry is not None:
                with self._lock:
                    self._counters.timeouts += 1
                entry.future._fail(WorkerError(
                    f"no response from worker {entry.worker!r} within "
                    f"{timeout} s", code="timeout"))

    def _remote_pending_locked(self) -> List[int]:
        return [request_id
                for request_id, entry in self._pending.items()
                if self._worker_by_name(entry.worker).drives_itself]

    def _fail_lost(self, request_ids: List[int]) -> None:
        for request_id in request_ids:
            entry = self._drop_pending(request_id)
            if entry is None:
                continue
            with self._lock:
                self._counters.timeouts += 1
            entry.future._fail(WorkerError(
                f"request for {entry.model!r} on worker "
                f"{entry.worker!r} can no longer complete "
                "(frame lost in transport)", code="lost"))

    def _worker_by_name(self, name: str) -> _WorkerBase:
        for worker in self._workers:
            if worker.name == name:
                return worker
        raise ConfigurationError(f"no worker named {name!r}")

    @property
    def _drives_itself(self) -> bool:
        return all(worker.drives_itself for worker in self._workers)

    def _start_reader(self, worker: _WorkerBase) -> None:
        thread = threading.Thread(
            target=self._reader_loop, args=(worker, worker.transport),
            name=f"repro-cluster-reader-{worker.name}", daemon=True)
        thread.start()
        self._readers.append(thread)

    def _reader_loop(self, worker: _WorkerBase, transport) -> None:
        while True:
            try:
                message = transport.recv(block=True)
            except TransportClosed:
                break
            except FrameError as error:
                self._frame_error(worker, error)
                if error.code == "truncated":
                    break
                continue
            if message is None:
                break
            self._handle_message(worker, message)
        # The connection ended. During close()/rolling restart that is
        # intentional; otherwise the worker died under us.
        if self._running and not worker._stopping \
                and worker.transport is transport:
            self._worker_died(worker)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def rolling_restart(self, models: Optional[Dict] = None,
                        timeout: Optional[float] = 60.0) -> None:
        """Restart the fleet one worker at a time with zero request
        loss: stop admitting to the worker, let its in-flight requests
        finish, restart it (reloading its model sources — pass
        ``models=`` name->new artifact path to roll the whole fleet onto
        a new version), resume. Traffic keeps flowing to the other
        workers throughout.

        Streaming sessions survive when the worker can export them
        (:class:`LocalWorker`): after the drain its sessions are
        snapshotted over the exact-float wire encoding and re-imported
        into the restarted server, so surviving sessions continue
        bit-exactly. A worker that cannot migrate (a restarted
        subprocess is a fresh address space) loses its sessions: their
        mappings are tombstoned and later chunks fail typed
        ``session-lost``.
        """
        for worker in self._workers:
            with self._lock:
                worker.accepting = False
                has_sessions = any(
                    owner == worker.name
                    for owner in self._sessions.values())
            self._drain_worker(worker, timeout)
            exported = None
            if has_sessions and hasattr(worker, "export_sessions"):
                try:
                    exported = worker.export_sessions()
                except ServingError:
                    exported = None
            worker._stopping = True
            try:
                worker.restart(models)
            finally:
                worker._stopping = False
            if has_sessions:
                if exported is not None:
                    worker.import_sessions(exported)
                else:
                    with self._lock:
                        for key, owner in self._sessions.items():
                            if owner == worker.name:
                                self._sessions[key] = None
            with self._lock:
                self._in_flight[worker.name] = 0
                worker.accepting = True
            if worker.drives_itself:
                self._start_reader(worker)

    def _drain_worker(self, worker: _WorkerBase,
                      timeout: Optional[float]) -> None:
        if not worker.alive:
            return
        if not worker.drives_itself:
            while True:
                with self._lock:
                    if not self._by_worker[worker.name]:
                        return
                if self.pump() == 0:
                    with self._lock:
                        stuck = sorted(self._by_worker[worker.name])
                    self._fail_lost(stuck)
                    return
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        with self._lock:
            while self._by_worker[worker.name]:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    break
                self._lock.wait(1.0 if remaining is None
                                else min(remaining, 1.0))
            stuck = sorted(self._by_worker[worker.name])
        self._fail_lost(stuck)

    def close(self, drain: bool = True) -> None:
        """Stop routing; drain (or typed-fail) what is pending, then
        stop every worker."""
        with self._lock:
            if not self._running:
                return
            running_was = self._running
        if drain and running_was:
            try:
                self.drain()
            except Exception:
                pass
        with self._lock:
            self._running = False
            pending = list(self._pending.values())
            self._pending.clear()
            for ids in self._by_worker.values():
                ids.clear()
            self._lock.notify_all()
        for entry in pending:
            if not entry.future.done():
                entry.future._fail(ServingError(
                    "cluster router closed before serving"))
        for worker in self._workers:
            worker._stopping = True
            worker.stop()
        for thread in self._readers:
            thread.join(timeout=10.0)
        self._readers = []

    # ------------------------------------------------------------------
    # Introspection / statistics
    # ------------------------------------------------------------------
    def workers(self) -> List[str]:
        return [worker.name for worker in self._workers]

    def models(self) -> List[str]:
        return sorted({model for worker in self._workers
                       for model in worker.models})

    def aliases(self) -> Dict[str, str]:
        return {}

    def router_stats(self) -> RouterStats:
        with self._lock:
            stats = RouterStats(**{f: getattr(self._counters, f)
                                   for f in ("routed", "completed", "shed",
                                             "worker_failures", "timeouts",
                                             "protocol_errors")},
                                in_flight=sum(self._in_flight.values()),
                                workers_alive=sum(
                                    1 for w in self._workers if w.alive),
                                workers=len(self._workers))
        return stats

    def worker_stats(self, timeout: Optional[float] = 30.0
                     ) -> Dict[str, Dict[str, ModelStats]]:
        """Per-worker serving statistics, fetched over the wire
        (``{"op": "stats", "detail": true}``) and re-keyed to public
        model names through each worker's alias map."""
        futures = []
        for worker in self._workers:
            if not worker.alive:
                continue
            future = InferenceFuture(model="stats")
            with self._lock:
                request_id = self._next_id
                self._next_id += 1
                self._pending[request_id] = _Pending(
                    future=future, worker=worker.name, model="stats",
                    enqueued_at=self._clock(), deadline=None,
                    kind="stats")
                self._by_worker[worker.name].add(request_id)
            try:
                worker.transport.send({"op": "stats", "detail": True,
                                       "id": request_id})
            except TransportClosed:
                self._worker_died(worker)
                continue
            futures.append((worker, future))
        collected: Dict[str, Dict[str, ModelStats]] = {}
        for worker, future in futures:
            # A worker that fails, times out or answers malformed stats
            # is left out of this snapshot.
            try:
                collected[worker.name] = _stats_from_reply(
                    self._reply(worker, future, timeout))
            except (ServingError, TimeoutError):
                continue
        return collected

    def stats(self, timeout: Optional[float] = 30.0
              ) -> Dict[str, ModelStats]:
        """Cluster-wide per-model statistics: every worker's
        ``ModelStats`` for the model, merged with
        ``ThroughputStats.merge()`` (counters sum, latency windows
        concatenate, ``max_batch`` maxes)."""
        merged: Dict[str, ModelStats] = {}
        for worker_models in self.worker_stats(timeout).values():
            for model, stats in worker_models.items():
                merged[model] = (stats if model not in merged
                                 else merged[model].merge(stats))
        return dict(sorted(merged.items()))

    def total_stats(self, timeout: Optional[float] = 30.0
                    ) -> Optional[ModelStats]:
        """Everything merged into one ``ModelStats`` (``model`` collapses
        to ``"mixed"`` when several models are hosted)."""
        per_model = list(self.stats(timeout).values())
        if not per_model:
            return None
        return per_model[0].merge(*per_model[1:]) if len(per_model) > 1 \
            else per_model[0]

    def format_stats(self) -> str:
        return "\n".join([super().format_stats(),
                          self.router_stats().format()])


def _stats_from_reply(reply: Dict) -> Dict[str, ModelStats]:
    """A worker's ``{"op": "stats", "detail": true}`` reply as
    ``ModelStats`` keyed by public model name (through its alias map);
    a malformed reply raises ``ServingError(code="bad-response")``."""
    models, aliases = reply.get("models"), reply.get("aliases", {})
    if not isinstance(models, dict) or not isinstance(aliases, dict):
        raise ServingError("malformed stats reply: 'models' and "
                           "'aliases' must be objects", code="bad-response")
    public = {target: alias for alias, target in aliases.items()}
    out = {}
    for model, fields in models.items():
        key = public.get(model, model)
        out[key] = ModelStats.from_wire(fields)
        out[key].model = key
    return out
