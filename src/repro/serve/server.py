"""Async multi-model serving: futures, dynamic batching, lifecycle.

``ModelServer`` hosts many named deployments in one process and serves
them concurrently — the serving surface the ROADMAP's "heavy traffic"
north star asks for, replacing the one-artifact-per-process synchronous
loop:

    server = ModelServer(workers=2, max_batch=16)
    server.load("resnet", "rt.npz", backend="fused", warmup=True)
    server.load("lm", "lm.npz")
    future = server.submit("resnet", x)        # returns immediately
    logits = future.result(timeout=5.0)        # bit-identical to eager
    print(server.stats()["resnet"].format())
    server.close()

Request path: ``submit`` checks the payload's shape against the model's
plan (a mismatch fails the returned future, it never poisons a batch)
and enqueues it on the model's :class:`~repro.serve.batcher.DynamicBatcher`,
taking the work lock once. Token ids are checked once per batch; a batch
that fails the check is re-checked row by row, so a bad id fails only its
own request.
Batching is work-conserving, with one claim rule for requests and
stream chunks alike: **a model that is not busy takes what is queued,
FIFO, up to** ``max_batch``. A lone request on an idle model runs at
once; batches form from the backlog that builds while the model is busy.
A model is busy while its one in-flight batch runs, because a compiled
plan's pooled scratch is reused across its own batches; distinct models
compile to distinct kernels/scratch and run concurrently. Across models
a worker claims the oldest queued work first, executes it in one engine
pass, and resolves the futures. An idle worker sleeps on the condition
until a submit or a finished batch notifies it; nothing polls a timer.

Lifecycle: ``load``/``add`` host a model, ``unload`` retires one (its
queue is drained first), ``alias`` re-points a public name for versioned
rollover (``resnet -> resnet@v2``), ``warmup`` binds scratch and runs the
per-batch-size bit-exactness verification before the first real request.

Determinism: with ``workers=0`` nothing runs in the background — callers
drive execution with ``poll()`` (claim and serve one batch by the rule
above) or ``drain()`` (claim until nothing is queued). Neither reads the
clock to decide anything, so tests never need to advance it.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import (
    ConfigurationError,
    ReproError,
    ServingError,
    SessionError,
)
from repro.fpga.resources import GemmDesign
from repro.serve.backends import DEFAULT_BACKEND
from repro.serve.batcher import (
    DynamicBatcher,
    ServedRequest,
    _failed_rows,
    coerce_chunk,
    coerce_payload,
    ignore_max_wait_ms,
)
from repro.serve.cache import InflightTable, ResponseCache
from repro.serve.engine import InferenceEngine, ThroughputStats
from repro.serve.frontend import ServerMixin, unknown_model
from repro.serve.futures import InferenceFuture
from repro.serve.streaming.batcher import StreamBatcher, StreamChunk
from repro.serve.streaming.state import (
    check_state,
    fresh_state,
    stack_states,
    state_from_wire,
    state_to_wire,
    store_rows,
)
from repro.serve.streaming.store import SessionStore
from repro.util.hashing import array_digest

__all__ = ["ModelServer", "ModelStats"]


# JSON form of each ModelStats field type. from_wire applies the same
# conversions to a reply, so a malformed one fails typed.
_WIRE_TYPES = {"int": int, "float": float, "str": str,
               "List[float]": lambda values: [float(v) for v in values]}


@dataclass
class ModelStats(ThroughputStats):
    """Serving statistics of one hosted model (a ``stats()`` snapshot)."""

    model: str = "?"
    backend: str = "?"
    max_batch: int = field(default=0, metadata={"merge": "max"})
    requests: int = 0
    batches: int = 0
    errors: int = 0
    wall_seconds: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    fpga_ms_total: float = 0.0
    queue_depth: int = 0
    in_flight: int = 0
    # Response-cache counters. `requests` stays engine-served work
    # only, so hits + coalesced followers are the *saved* kernel
    # invocations; `cache_hit_rate` folds them back into a rate over
    # true submissions.
    cache_hits: int = 0
    cache_bytes: int = 0
    dedup_coalesced: int = 0
    # Streaming-session counters: live sessions and their state bytes
    # are point-in-time gauges on one server but *sum* across workers in
    # merge() — a cluster row reports the fleet-wide session population.
    # `stream_chunks` counts chunks served through the stateful path
    # (kept out of `requests`, which stays stateless engine work).
    active_sessions: int = 0
    session_bytes: int = 0
    stream_chunks: int = 0
    # Pipeline stage label ("k/n" on per-stage rows, "" for unstaged
    # models). A string, so merge() keeps equal labels and collapses
    # differing ones to "mixed" — aggregating per-stage rows across
    # workers never corrupts the counters.
    stage: str = ""

    @property
    def mean_batch_fill(self) -> float:
        """Mean served batch size as a fraction of ``max_batch``."""
        return (self.mean_batch_size / self.max_batch
                if self.max_batch else 0.0)

    # ------------------------------------------------------------------
    # Latency percentiles over the (windowed) per-request latencies
    # ------------------------------------------------------------------
    def _percentile(self, q: float) -> float:
        return (float(np.percentile(self.latencies_ms, q))
                if self.latencies_ms else 0.0)

    @property
    def latency_ms_mean(self) -> float:
        return (float(np.mean(self.latencies_ms))
                if self.latencies_ms else 0.0)

    @property
    def latency_ms_p50(self) -> float:
        return self._percentile(50)

    @property
    def latency_ms_p95(self) -> float:
        return self._percentile(95)

    @property
    def latency_ms_p99(self) -> float:
        return self._percentile(99)

    # Short spellings, matching the server/benchmark report columns.
    p50_ms = latency_ms_p50
    p95_ms = latency_ms_p95
    p99_ms = latency_ms_p99

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of submitted requests answered from the response
        cache (true submissions = served + hits + coalesced)."""
        submitted = self.requests + self.cache_hits + self.dedup_coalesced
        return self.cache_hits / submitted if submitted else 0.0

    def format(self) -> str:
        return (
            f"{self.model} ({self.backend}): {self.requests} req in "
            f"{self.batches} batches (fill {self.mean_batch_fill:.2f}), "
            f"{self.requests_per_second:.1f} req/s, "
            f"p50/p95/p99 {self.latency_ms_p50:.2f}/"
            f"{self.latency_ms_p95:.2f}/{self.latency_ms_p99:.2f} ms, "
            f"fpga {self.fpga_ms_per_request:.3f} ms/req, "
            f"queued {self.queue_depth}"
            + (f", stage {self.stage}" if self.stage else "")
            + (f", cache {self.cache_hits} hits"
               f" + {self.dedup_coalesced} coalesced"
               f" (rate {self.cache_hit_rate:.2f}, "
               f"{self.cache_bytes} B)"
               if self.cache_hits or self.dedup_coalesced
               or self.cache_bytes else "")
            + (f", streams {self.active_sessions} sessions"
               f" ({self.session_bytes} B, "
               f"{self.stream_chunks} chunks)"
               if self.active_sessions or self.session_bytes
               or self.stream_chunks else "")
            + (f", errors {self.errors}" if self.errors else ""))

    def to_wire(self) -> Dict:
        """JSON-safe dump of every field (``{"op": "stats", "detail":
        true}`` responses); :meth:`from_wire` reconstructs a mergeable
        snapshot on the other side."""
        return {spec.name: _WIRE_TYPES[spec.type](getattr(self, spec.name))
                for spec in dataclasses.fields(self)}

    @classmethod
    def from_wire(cls, wire) -> "ModelStats":
        """Inverse of :meth:`to_wire`. Absent fields take their defaults;
        a reply that is not an object or holds a value of the wrong type
        raises ``ServingError`` with ``code="bad-response"``."""
        try:
            if not isinstance(wire, dict):
                raise TypeError(f"expected an object, got "
                                f"{type(wire).__name__}")
            return cls(**{spec.name: _WIRE_TYPES[spec.type](wire[spec.name])
                          for spec in dataclasses.fields(cls)
                          if spec.name in wire})
        except (TypeError, ValueError, OverflowError) as cause:
            raise ServingError(f"malformed model stats: {cause}",
                               code="bad-response") from None


class _HostedModel:
    """One model's serving state: engine + batcher + counters.

    ``requests``/``batches``/``serve_seconds`` are lifetime counters; the
    per-request latency and FPGA-share detail is a bounded window of the
    most recent ``stats_window`` requests, so a long-lived server neither
    grows without bound nor pays ever-larger ``stats()`` snapshots.
    """

    def __init__(self, name: str, engine: InferenceEngine,
                 batcher: DynamicBatcher, stats_window: int,
                 streamer: StreamBatcher, sessions: SessionStore):
        self.name = name
        self.engine = engine
        self.plan = engine.plan
        self.batcher = batcher
        # Streaming-session state: the per-session recurrent-state store
        # and the cross-session chunk batcher. The busy fence below covers
        # stream micro-batches too, which is what serializes per-session
        # state updates.
        self.streamer = streamer
        self.sessions = sessions
        self.stream_chunks = 0
        self.busy = False            # one in-flight batch per model
        self.batch_counter = 0
        self.requests = 0
        self.batches = 0
        self.errors = 0
        # Response-cache identity + counters. `generation` is a
        # server-unique token minted per hosting: re-loading (or rolling
        # over) a name mints a new one, so cache keys from the previous
        # hosting can never match again — stale hits are structurally
        # impossible, not merely invalidated.
        self.generation = 0
        self.artifact_digest: Optional[str] = None
        self.cache_hits = 0
        self.dedup_coalesced = 0
        self.serve_seconds = 0.0
        self.latencies_ms = deque(maxlen=stats_window)
        # Per-request FPGA shares, summed in served order at snapshot
        # time.
        self.fpga_shares = deque(maxlen=stats_window)

    def snapshot(self, cache_bytes: int = 0) -> ModelStats:
        return ModelStats(
            model=self.name, backend=self.engine.backend,
            max_batch=self.batcher.max_batch,
            requests=self.requests, batches=self.batches,
            errors=self.errors, wall_seconds=self.serve_seconds,
            latencies_ms=list(self.latencies_ms),
            fpga_ms_total=sum(self.fpga_shares),
            queue_depth=self.batcher.pending,
            in_flight=1 if self.busy else 0,
            cache_hits=self.cache_hits, cache_bytes=int(cache_bytes),
            dedup_coalesced=self.dedup_coalesced,
            active_sessions=len(self.sessions),
            session_bytes=self.sessions.bytes,
            stream_chunks=self.stream_chunks)


def _failed(model: str, error: BaseException) -> InferenceFuture:
    """A future already failed with ``error`` (a rejected submit)."""
    future = InferenceFuture(model=model)
    future._fail(error)
    return future


def _fail_pending(entry: _HostedModel, error: ServingError) -> None:
    """Fail every request/chunk still queued on one model's batchers."""
    for chunk in entry.streamer.fail_all():
        chunk.future._fail(error)
    while entry.batcher.pending:
        for request in entry.batcher.take():
            request.settle(error=error)


class ModelServer(ServerMixin):
    """Host many named deployments; serve them asynchronously."""

    def __init__(self, workers: int = 2, max_batch: int = 16,
                 max_wait_ms: Optional[float] = None,
                 stats_window: int = 65536,
                 clock=time.perf_counter,
                 cache_mb: Optional[float] = None,
                 cache_ttl_s: Optional[float] = None,
                 session_mb: Optional[float] = None,
                 session_ttl_s: Optional[float] = None):
        ignore_max_wait_ms("ModelServer", max_wait_ms)
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {max_batch}")
        if stats_window < 1:
            raise ConfigurationError(
                f"stats_window must be >= 1, got {stats_window}")
        if cache_mb is not None and cache_mb < 0:
            raise ConfigurationError(
                f"cache_mb must be >= 0, got {cache_mb}")
        if session_mb is not None and session_mb < 0:
            raise ConfigurationError(
                f"session_mb must be >= 0, got {session_mb}")
        if session_ttl_s is not None and session_ttl_s <= 0:
            raise ConfigurationError(
                f"session_ttl_s must be > 0, got {session_ttl_s}")
        # Streaming-session policy, applied per hosted model: an LRU byte
        # budget over recurrent state and a sliding idle TTL, both
        # measured against the injectable clock. None = unbounded.
        self.session_max_bytes = (int(session_mb * 2 ** 20)
                                  if session_mb is not None else None)
        self.session_ttl_s = session_ttl_s
        self.default_max_batch = int(max_batch)
        self.stats_window = int(stats_window)
        self._clock = clock
        # Response cache + in-flight dedup are opt-in (cache_mb); with
        # them off, submit computes no payload digest.
        self._cache: Optional[ResponseCache] = None
        self._inflight: Optional[InflightTable] = None
        if cache_mb:
            self._cache = ResponseCache(
                max_bytes=int(cache_mb * 2 ** 20),
                ttl_s=cache_ttl_s, clock=clock)
            self._inflight = InflightTable()
        self._generation_counter = 0
        self._models: Dict[str, _HostedModel] = {}
        self._aliases: Dict[str, str] = {}
        self._work = threading.Condition(threading.Lock())
        self._running = True
        self._threads: List[threading.Thread] = []
        for index in range(workers):
            thread = threading.Thread(target=self._worker_loop,
                                      name=f"repro-serve-worker-{index}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def load(self, name: str, source, *, batch: Optional[int] = None,
             backend: str = DEFAULT_BACKEND,
             design: Optional[GemmDesign] = None,
             warmup: bool = False) -> str:
        """Host a model under ``name`` from an artifact path (or anything
        with an ``.engine``, e.g. an ``api.Deployment``).

        ``design`` prices the model's simulated-FPGA latency: a
        :class:`GemmDesign`, a reference-design name (``"D2-3"``), or
        ``"auto:<device>[@<batch>]"`` to run the §VI-A characterization
        search for a cataloged device (e.g. ``design="auto:zu3eg"``).
        """
        if hasattr(source, "engine"):
            # A deployment is already compiled: backend/design were fixed
            # then, so overriding them here would be silently ignored.
            if backend != DEFAULT_BACKEND or design is not None:
                raise ConfigurationError(
                    "backend=/design= apply when loading from an artifact "
                    "path; this deployment is already compiled "
                    f"(backend {source.engine.backend!r})")
            return self.add(name, source, batch=batch, warmup=warmup)
        if isinstance(design, str):
            from repro.fpga.characterize import resolve_design

            design = resolve_design(design)
        engine = InferenceEngine.load(source, backend=backend,
                                      design=design)
        return self.add_engine(name, engine, batch=batch, warmup=warmup)

    def add(self, name: str, deployment, *,
            batch: Optional[int] = None,
            max_wait_ms: Optional[float] = None,
            warmup: bool = False) -> str:
        """Host an already-built deployment (shares its engine/counters)."""
        ignore_max_wait_ms("ModelServer.add", max_wait_ms)
        if batch is None:
            batch = getattr(deployment, "batch", None)
        return self.add_engine(name, deployment.engine, batch=batch,
                               warmup=warmup)

    def add_engine(self, name: str, engine: InferenceEngine, *,
                   batch: Optional[int] = None,
                   warmup: bool = False) -> str:
        """Host a bare :class:`InferenceEngine` (the lowest-level hook)."""
        max_batch = batch if batch is not None else self.default_max_batch
        entry = _HostedModel(name, engine,
                             DynamicBatcher(max_batch, clock=self._clock),
                             stats_window=self.stats_window,
                             streamer=StreamBatcher(max_batch,
                                                    clock=self._clock),
                             sessions=SessionStore(
                                 max_bytes=self.session_max_bytes,
                                 ttl_s=self.session_ttl_s,
                                 clock=self._clock))
        if self._cache is not None:
            # One sha256 pass over the packed weights, once per hosting
            # (memoized on the artifact) — the cache key's identity half.
            entry.artifact_digest = engine.plan.artifact.digest()
        with self._work:
            if not self._running:
                raise ServingError("server is closed")
            if name in self._models:
                raise ConfigurationError(
                    f"model {name!r} already loaded; unload it first, or "
                    f"load a versioned name ({name}@v2) and re-alias")
            if name in self._aliases:
                raise ConfigurationError(
                    f"{name!r} is an alias (-> {self._aliases[name]!r}); "
                    "pick another name or drop the alias first")
            self._generation_counter += 1
            entry.generation = self._generation_counter
            self._models[name] = entry
            self._work.notify_all()
        if warmup:
            self.warmup(name)
        return name

    def unload(self, name: str, drain: bool = True) -> None:
        """Retire a model (or drop an alias). Pending requests are served
        first (``drain=True``, default) or failed with ServingError."""
        with self._work:
            if name in self._aliases:
                del self._aliases[name]
                return
            entry = self._models.pop(name, None)
            if entry is None:
                raise unknown_model(name, sorted(self._models))
            for alias, target in list(self._aliases.items()):
                if target == name:
                    del self._aliases[alias]
            if self._cache is not None:
                # Return the retired hosting's bytes to the budget now.
                # New hits were already impossible: the entry left
                # `_models`, and any future hosting mints a fresh
                # generation, so these keys can never be looked up again.
                self._cache.invalidate(entry.generation)
            while entry.busy:      # let an in-flight batch finish
                self._work.wait(0.05)
            entry.busy = True      # fence: no worker can re-claim it
        try:
            if drain:
                while True:
                    chunks = entry.streamer.take()
                    if not chunks:
                        break
                    self._run_stream_batch(entry, chunks,
                                           entry.batch_counter)
                    entry.batch_counter += 1
                while entry.batcher.pending:
                    self._run_batch(entry, entry.batcher.take(),
                                    entry.batch_counter)
                    entry.batch_counter += 1
            else:
                _fail_pending(entry, ServingError(
                    f"model {name!r} unloaded before serving"))
            # Retiring the hosting retires its sessions: the recurrent
            # state is owned by this entry and dies with it.
            entry.sessions.pop_all()
        finally:
            entry.busy = False

    def alias(self, name: str, target: str) -> None:
        """Point a public name at a hosted model (versioned rollover:
        ``alias("resnet", "resnet@v2")``). Re-aliasing is allowed."""
        with self._work:
            if name in self._models:
                raise ConfigurationError(
                    f"{name!r} is a loaded model; aliases cannot shadow it")
            self._hosted(target)   # must resolve now
            self._aliases[name] = target

    def warmup(self, name: str) -> None:
        """Bind scratch + run per-size verification before real traffic."""
        with self._work:
            entry = self._hosted(name)
            while entry.busy:
                self._work.wait(0.05)
            entry.busy = True
        try:
            entry.engine.warmup((1, entry.batcher.max_batch))
        finally:
            with self._work:
                entry.busy = False
                self._work.notify_all()

    def models(self) -> List[str]:
        with self._work:
            return sorted(self._models)

    def plan(self, model: str):
        """The compiled :class:`ExecutionPlan` serving ``model`` (resolves
        aliases) — e.g. for input shape/dtype introspection."""
        with self._work:
            return self._hosted(model).plan

    def aliases(self) -> Dict[str, str]:
        with self._work:
            return dict(self._aliases)

    def close(self, drain: bool = True) -> None:
        """Stop workers; serve (or fail) whatever is still queued."""
        with self._work:
            if not self._running:
                return
            self._running = False
            self._work.notify_all()
        for thread in self._threads:
            thread.join(timeout=30.0)
        self._threads = []
        if drain:
            self.drain()
        else:
            with self._work:
                entries = list(self._models.values())
            for entry in entries:
                _fail_pending(entry, ServingError(
                    "server closed before serving"))

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, model: str, x) -> InferenceFuture:
        """Enqueue one request; returns its future immediately.

        Validation failures (a wrong shape here, a bad token id when its
        batch is checked) fail the future instead of raising, so a bad
        request can never stall or poison a batch; an unknown model name
        raises right away.

        With the response cache enabled the path is cache → in-flight
        table → batcher: a hit resolves the future right here without
        touching the queue, a payload identical to one already queued or
        executing coalesces onto that leader's result, and only a true
        miss costs a batcher slot.
        """
        if not self._running:
            raise ServingError("server is closed")
        entry = self._hosted(model)
        try:
            payload = coerce_payload(entry.plan, x)
        except ReproError as error:
            return _failed(entry.name, error)
        future = InferenceFuture(model=entry.name)
        key = now = hit = None
        if self._cache is not None:
            # Content-addressed path. The payload digest (one sha256
            # pass over bytes coerce_payload made contiguous) is computed
            # outside the lock; generation in the key pins this hosting.
            key = (entry.artifact_digest, entry.generation,
                   array_digest(payload))
            now = self._clock()
        with self._work:
            unloaded = self._unloaded_locked(entry)
            if unloaded is not None:
                future._fail(unloaded)
                return future
            if key is not None:
                hit = self._cache.get(key, now=now)
            if hit is not None:
                entry.cache_hits += 1
                record = ServedRequest(
                    id=entry.batcher.reserve_id(), payload=payload,
                    enqueued_at=now, completed_at=now, result=hit,
                    fpga_ms=0.0, model=entry.name, cached=True)
            else:
                pending = None if key is None else self._inflight.get(key)
                if pending is not None:
                    # Identical payload already queued/executing:
                    # follow its leader. The leader's done-callback
                    # pops the entry under this same lock, so a
                    # follower registered here is always answered
                    # (exactly once) from the leader's outcome.
                    entry.dedup_coalesced += 1
                    record = ServedRequest(
                        id=entry.batcher.reserve_id(), payload=payload,
                        enqueued_at=now, model=entry.name,
                        coalesced=True)
                    pending.followers.append((future, record))
                    return future
                entry.batcher.submit(payload, future=future,
                                     model=entry.name)
                if key is not None:
                    self._inflight.begin(key, entry.generation, future)
                    future.add_done_callback(self._leader_done(key, entry))
                self._work.notify()
                return future
        # Cache hit: resolve outside the lock (done-callbacks run
        # arbitrary client code).
        future._resolve(hit, record)
        return future

    def _leader_done(self, key, entry: _HostedModel):
        """Completion hook of an in-flight leader: populate the cache
        (success only, hosting still current), detach the followers,
        answer each exactly once from the leader's outcome.

        Runs on whichever thread resolved the leader (a worker, a
        drain, or `_fail_pending`), after the future's own lock is
        released — so taking the work lock here cannot deadlock, and a
        crashed batch that failed its leader fails every follower too.
        """

        def callback(leader: InferenceFuture) -> None:
            completed = self._clock()
            result = leader._result
            with self._work:
                pending = self._inflight.pop(key)
                followers = pending.followers if pending is not None \
                    else []
                if leader._error is None \
                        and self._models.get(entry.name) is entry:
                    stored = self._cache.put(key, result, now=completed)
                    if stored is not None:
                        # Hand followers the read-only cached copy, not
                        # a view into the batch's stacked output.
                        result = stored
            leader_request = leader._request
            for follower, record in followers:
                if leader._error is not None:
                    follower._fail(leader._error)
                else:
                    record.completed_at = completed
                    record.result = result
                    if leader_request is not None:
                        record.batch_id = leader_request.batch_id
                        record.batch_size = leader_request.batch_size
                    follower._resolve(result, record)

        return callback

    # ------------------------------------------------------------------
    # Streaming sessions
    # ------------------------------------------------------------------
    def open_session(self, model: str,
                     session_id: Optional[str] = None) -> str:
        """Open a streaming session: server-held zero recurrent state.

        Returns the session id (generated when not supplied). Raises a
        typed :class:`~repro.errors.SessionError` if the id is already
        open; opening may LRU-evict idle sessions past the byte budget,
        failing any chunks still queued for them.
        """
        with self._work:
            entry = self._streamable_locked(model)
            sid = session_id if session_id is not None \
                else uuid.uuid4().hex[:12]
            evicted = entry.sessions.open(sid, entry.name,
                                          fresh_state(entry.plan.graph))
            victims = self._evicted_chunks_locked(entry, evicted)
        for chunk, error in victims:
            chunk.future._fail(error)
        return sid

    def submit_stream(self, model: str, session_id: str,
                      chunk) -> InferenceFuture:
        """Enqueue one (T, ...) chunk of a session's input stream.

        Chunks of one session execute strictly in submission order, each
        continuing from the state the previous chunk left behind;
        concurrent sessions' chunks coalesce into cross-session
        micro-batches. Streaming responses are stateful, so they
        **never** touch the response cache or the in-flight dedup table.
        Validation and session errors fail the returned future; an
        unknown model raises, like :meth:`submit`.
        """
        if not self._running:
            raise ServingError("server is closed")
        entry = self._hosted(model)
        try:
            payload = coerce_chunk(entry.plan, chunk)
        except ReproError as error:
            return _failed(entry.name, error)
        with self._work:
            unloaded = self._unloaded_locked(entry)
            if unloaded is not None:
                return _failed(entry.name, unloaded)
            try:
                entry.sessions.get(session_id)
            except SessionError as error:
                # An expired/unknown session also orphans whatever it
                # still had queued; fail those chunks with the same error.
                victims = entry.streamer.fail_session(session_id)
                failed = error
            else:
                future = entry.streamer.submit(session_id, payload,
                                               model=entry.name)
                self._work.notify()
                return future
        for queued in victims:
            queued.future._fail(failed)
        return _failed(entry.name, failed)

    def close_session(self, model: str, session_id: str) -> int:
        """Close a session, releasing its state; returns chunks served.

        Chunks still queued (not yet executed) fail with a typed
        ``session-closed`` error — await a session's outstanding futures
        before closing it for a clean shutdown.
        """
        with self._work:
            entry = self._hosted(model)
            closed = entry.sessions.close(session_id)
            victims = entry.streamer.fail_session(session_id)
        if victims:
            error = SessionError(
                f"session {session_id!r} closed with {len(victims)} "
                "queued chunks", code="session-closed")
            for chunk in victims:
                chunk.future._fail(error)
        return closed.chunks

    def export_sessions(self, model: str) -> Dict[str, dict]:
        """Wire-encoded snapshot of every live session of ``model``.

        ``{session id: {"state": ..., "chunks": n}}`` — the exact-float
        encoding round-trips bit-exactly through
        :meth:`import_session`, which is how the cluster tier migrates
        sessions across a worker's rolling restart.
        """
        with self._work:
            entry = self._hosted(model)
            entry.sessions.sweep()
            return {live.session_id: {"state": state_to_wire(live.state),
                                      "chunks": live.chunks}
                    for live in entry.sessions.entries()}

    def import_session(self, model: str, session_id: str, state: dict,
                       chunks: int = 0) -> str:
        """Re-create a session from an exported snapshot (migration).

        The state must fit the model's recurrent geometry
        (:func:`~repro.serve.streaming.state.check_state`); one that does
        not raises :class:`~repro.errors.ShapeError` and opens nothing.
        """
        with self._work:
            entry = self._streamable_locked(model)
            evicted = entry.sessions.open(
                session_id, entry.name,
                check_state(entry.plan.state_spec, state_from_wire(state)))
            imported = entry.sessions.get(session_id)
            imported.chunks = chunks
            victims = self._evicted_chunks_locked(entry, evicted)
        for chunk, error in victims:
            chunk.future._fail(error)
        return session_id

    def _unloaded_locked(self, entry: _HostedModel) -> Optional[ServingError]:
        """Under the work lock that enqueues a submit: raise if the server
        closed; the error to fail the submit with if ``entry``, looked up
        without the lock (:meth:`_hosted`), was unloaded since, else
        None. So a submit takes the work lock once."""
        if not self._running:
            raise ServingError("server is closed")
        if self._models.get(entry.name) is not entry:
            return ServingError(f"model {entry.name!r} was unloaded")
        return None

    def _streamable_locked(self, model: str) -> _HostedModel:
        if not self._running:
            raise ServingError("server is closed")
        entry = self._hosted(model)
        if not entry.plan.streamable:
            raise ServingError(
                f"model {model!r} has no recurrent layers; streaming "
                "sessions need an RNN plan", code="not-streamable")
        return entry

    @staticmethod
    def _evicted_chunks_locked(entry: _HostedModel, evicted) -> List:
        """(chunk, error) pairs for every queued chunk of evicted
        sessions; the caller fails the futures outside the lock."""
        victims = []
        for dropped in evicted:
            reason = dropped.evicted_as or "session-evicted"
            error = SessionError(
                f"session {dropped.session_id!r} "
                + ("expired while chunks were queued"
                   if reason == "session-expired"
                   else "evicted by the session byte budget"),
                code=reason)
            victims.extend((chunk, error) for chunk in
                           entry.streamer.fail_session(dropped.session_id))
        return victims

    # ------------------------------------------------------------------
    # Execution (workers, or the caller in workers=0 mode)
    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Claim and serve one batch on the calling thread (the oldest
        queued work of a model that is not busy); returns the number of
        requests or chunks served."""
        with self._work:
            claim = self._claim_locked()
        if claim is None:
            return 0
        self._execute(claim)
        return len(claim[1])

    def drain(self) -> None:
        """Serve everything queued, FIFO across models. A model whose
        worker is mid-batch is waited for (its queue cannot be claimed
        while busy), so no queued request is left behind; in-flight
        batches resolve their own futures."""
        while True:
            with self._work:
                claim = self._claim_locked()
                if claim is None:
                    if not any(entry.busy and (entry.batcher.pending
                                               or entry.streamer.pending)
                               for entry in self._models.values()):
                        return
                    self._work.wait(0.05)   # a worker holds the model
                    continue
            self._execute(claim)

    def _worker_loop(self) -> None:
        while True:
            with self._work:
                claim = None
                while self._running:
                    claim = self._claim_locked()
                    if claim is not None:
                        break
                    self._work.wait()
                if claim is None:
                    return          # server closed
            self._execute(claim)

    def _claim_locked(self) -> Optional[Tuple[_HostedModel,
                                              List[ServedRequest], int]]:
        """The one claim rule: a model that is not busy takes what is
        queued, up to ``max_batch``. The coalescing window is whatever
        queued up since the model's last claim, so batching never adds
        latency to a lone request or session. Across models (and between
        a model's requests and its stream chunks) the oldest work goes
        first."""
        best = None
        for entry in self._models.values():
            if entry.busy:
                continue
            if entry.batcher.pending:
                oldest = entry.batcher.oldest_enqueued_at()
                if best is None or oldest < best[0]:
                    best = (oldest, entry, "infer")
            if entry.streamer.ready():
                oldest = entry.streamer.oldest_enqueued_at()
                if best is None or oldest < best[0]:
                    best = (oldest, entry, "stream")
        if best is None:
            return None
        _, entry, kind = best
        batch = (entry.streamer.take() if kind == "stream"
                 else entry.batcher.take())
        entry.busy = True
        batch_id = entry.batch_counter
        entry.batch_counter += 1
        return entry, batch, batch_id

    def _execute(self, claim: Tuple[_HostedModel, List[ServedRequest],
                                    int]) -> None:
        entry, batch, batch_id = claim
        try:
            if batch and isinstance(batch[0], StreamChunk):
                self._run_stream_batch(entry, batch, batch_id)
            else:
                self._run_batch(entry, batch, batch_id)
        finally:
            with self._work:
                entry.busy = False
                self._work.notify_all()

    def _run_batch(self, entry: _HostedModel,
                   batch: List[ServedRequest], batch_id: int) -> None:
        """Serve one formed micro-batch in a single engine pass: fill
        every request record, resolve the futures, then count the batch.
        A failed pass fails its futures (:func:`_failed_rows`).

        The batch size is priced on the cycle model *before* the wall
        clock starts (a cost-model cache miss must not count against
        serving latency); exactly two clock reads bracket the pass."""
        engine = entry.engine
        fpga_ms = engine.fpga_latency_ms(len(batch))
        started = self._clock()
        try:
            outputs = engine.infer(np.array([r.payload for r in batch]))
        except Exception as error:      # noqa: BLE001 — fail the futures
            survivors = _failed_rows(
                entry.plan, error, batch,
                lambda request, own: request.settle(error=own),
                lambda cause: self._batch_error(entry, batch_id, cause))
            if survivors:
                self._run_batch(entry, survivors, batch_id)
            return
        completed = self._clock()
        # Time-merged plans return (N*T, ...); re-view as (N, T, ...) so
        # each request gets its whole output, not one flattened row.
        outputs = entry.plan.per_request_outputs(outputs, len(batch))
        for index, request in enumerate(batch):
            request.result = outputs[index]
            request.completed_at = completed
            request.batch_id = batch_id
            request.batch_size = len(batch)
            request.fpga_ms = fpga_ms / len(batch)
            request.settle(outputs[index])
        entry.requests += len(batch)
        entry.batches += 1
        entry.serve_seconds += completed - started
        entry.latencies_ms.extend(r.latency_ms for r in batch)
        entry.fpga_shares.extend(r.fpga_ms for r in batch)

    def _run_stream_batch(self, entry: _HostedModel,
                          chunks: List[StreamChunk], batch_id: int) -> None:
        """Execute one time-major stream micro-batch.

        Sessions are validated at claim time (a chunk may have outlived
        its session via TTL expiry or eviction); survivors are stacked
        into an ``(n, T, ...)`` batch plus an ``(n, hidden)``-stacked
        state, run through the stateful plan, and the final state copied
        into each session's own rows before any future resolves. A failed
        pass fails its futures (:func:`_failed_rows`).
        """
        now = self._clock()
        live, dead = [], []
        with self._work:
            for chunk in chunks:
                try:
                    session = entry.sessions.get(chunk.session_id, now=now)
                except SessionError as error:
                    dead.append((chunk, error))
                else:
                    live.append((chunk, session))
        for chunk, error in dead:
            chunk.future._fail(error)
        if not live:
            return
        states = [session.state for _, session in live]
        try:
            outputs, new_state = entry.engine.infer_stream(
                np.array([chunk.payload for chunk, _ in live]),
                stack_states(states))
        except Exception as error:        # noqa: BLE001 — fail the futures
            survivors = _failed_rows(
                entry.plan, error, [chunk for chunk, _ in live],
                lambda chunk, own: chunk.future._fail(own),
                lambda cause: self._batch_error(entry, batch_id, cause))
            if survivors:
                self._run_stream_batch(entry, survivors, batch_id)
            return
        outs = entry.plan.stream_outputs(outputs, len(live))
        with self._work:
            store_rows(new_state, states)
            for _, session in live:
                session.chunks += 1
            entry.stream_chunks += len(live)
        for index, (chunk, _) in enumerate(live):
            chunk.future._resolve(outs[index])

    @staticmethod
    def _batch_error(entry: _HostedModel, batch_id: int,
                     error: BaseException) -> BaseException:
        """Count a failed batch; what its items fail with: a
        :class:`~repro.errors.ReproError` as it was raised, anything else
        as a :class:`~repro.errors.ServingError` naming the model and the
        batch."""
        entry.errors += 1
        if isinstance(error, ReproError):
            return error
        wrapped = ServingError(f"batch {batch_id} failed on model "
                               f"{entry.name!r}: {error!r}")
        wrapped.__cause__ = error
        return wrapped

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, ModelStats]:
        """Per-model snapshot: p50/p95/p99 wall + simulated-FPGA latency,
        queue depth, mean batch fill. Merge across models with
        ``ModelStats.merge``."""
        with self._work:
            return {name: entry.snapshot(
                        self._cache.bytes_for(entry.generation)
                        if self._cache is not None else 0)
                    for name, entry in sorted(self._models.items())}

    @property
    def cache_enabled(self) -> bool:
        return self._cache is not None

    def cache_stats(self) -> Optional[Dict]:
        """Response-cache snapshot: the shared store's counters plus a
        per-model breakdown (hits, coalesced followers, cached bytes,
        hit rate over true submissions). None when caching is off."""
        if self._cache is None:
            return None
        with self._work:
            models = {}
            for name, entry in sorted(self._models.items()):
                submitted = (entry.requests + entry.cache_hits
                             + entry.dedup_coalesced)
                models[name] = {
                    "hits": entry.cache_hits,
                    "coalesced": entry.dedup_coalesced,
                    "bytes": self._cache.bytes_for(entry.generation),
                    "hit_rate": (entry.cache_hits / submitted
                                 if submitted else 0.0),
                }
            return {"cache": self._cache.stats(), "models": models}

    # ------------------------------------------------------------------
    def _hosted(self, name: str) -> _HostedModel:
        """The hosted model ``name`` names, following aliases. Each step
        is one dict lookup, so the submit paths call this without the
        work lock and re-check the entry under it before enqueueing."""
        seen = []
        while (target := self._aliases.get(name)) is not None:
            if name in seen:
                raise ServingError(f"alias cycle: {' -> '.join(seen)}")
            seen.append(name)
            name = target
        entry = self._models.get(name)
        if entry is None:
            raise unknown_model(
                name, sorted(self._models),
                f"; aliases: {self._aliases}" if self._aliases else "")
        return entry
