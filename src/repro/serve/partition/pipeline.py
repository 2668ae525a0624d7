"""Pipelined multi-stage serving over a partitioned model.

Two executors implement the :class:`~repro.serve.frontend.Server`
surface, so the JSON-lines protocol and the CLI drive either:

- :class:`PipelineEngine` — in-process: one
  :class:`~repro.serve.engine.InferenceEngine` per stage, micro-batches
  flowing through bounded inter-stage queues, one worker thread per
  stage (or ``workers=0`` for deterministic ``poll()``/``drain()``
  stepping). Steady-state throughput is the slowest stage's — exactly
  the pipelined bound :class:`~repro.autotune.cost.PipelineCostModel`
  prices.
- :class:`PipelineCluster` — distributed: stage ``k``'s sub-artifact is
  hosted by its own cluster worker (the existing
  :class:`~repro.serve.cluster.LocalWorker` /
  :class:`~repro.serve.cluster.ProcessWorker` machinery, activations on
  the length-framed transport), and a request hops worker to worker via
  chained future callbacks. A stage worker dying mid-batch fails only
  the in-flight futures with a typed
  :class:`~repro.errors.WorkerError` — completed results are already
  resolved, so a crash can never produce wrong bits.

Both report per-stage rows in a stage-dimensioned
:class:`~repro.serve.server.ModelStats` (key ``"{model}/stage{k}"``,
``stage="k+1/n"``) plus an aggregate row under the model name.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import (
    ConfigurationError,
    ReproError,
    ServingError,
    WorkerError,
)
from repro.fpga.resources import GemmDesign
from repro.serve.artifact import ServeArtifact
from repro.serve.backends import DEFAULT_BACKEND
from repro.serve.batcher import (
    DynamicBatcher,
    ServedRequest,
    _failed_rows,
    coerce_payload,
)
from repro.serve.cluster import ClusterRouter, LocalWorker, ProcessWorker
from repro.serve.engine import InferenceEngine
from repro.serve.frontend import ServerMixin
from repro.serve.futures import InferenceFuture
from repro.serve.partition.splitter import (
    PartitionPlan,
    auto_cuts,
    split_artifact,
)
from repro.serve.plan import ExecutionPlan
from repro.serve.server import ModelStats


def _stage_design(designs, index: int) -> Optional[GemmDesign]:
    if designs is None or isinstance(designs, GemmDesign):
        return designs
    return designs[index]


class _StageBatch:
    """One micro-batch in flight through the stages."""

    __slots__ = ("id", "requests", "array", "fpga_ms")

    def __init__(self, batch_id: int, requests: List[ServedRequest],
                 array: np.ndarray):
        self.id = batch_id
        self.requests = requests
        self.array = array
        self.fpga_ms = 0.0


class PipelineEngine(ServerMixin):
    """N compiled stages serving one model through bounded queues.

    Stage 0 follows the server's work-conserving claim rule: when it is
    free, it takes what is queued, FIFO, up to ``max_batch``, so a batch
    is whatever backlog built while stage 0 was busy.

    ``workers=0`` (deterministic): nothing runs until ``poll()`` — each
    call advances every occupied stage by one micro-batch, last stage
    first, so a batch moves exactly one stage per poll and tests can
    observe queue occupancy; then, if stage 0's queue is empty, the
    queued requests become its next batch. ``drain()`` polls until idle.
    ``workers>0``: one thread per stage, woken only by notifications;
    bounded inter-stage queues (``queue_depth``) apply backpressure to
    the producing stage.
    """

    def __init__(self, stages: Sequence[InferenceEngine], *,
                 name: str = "model", max_batch: int = 16, workers: int = 1,
                 queue_depth: int = 4, clock=time.perf_counter,
                 stats_window: int = 512,
                 partition: Optional[PartitionPlan] = None):
        if not stages:
            raise ConfigurationError("a pipeline needs at least one stage")
        if queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {queue_depth}")
        self.name = name
        self.partition = partition
        self._engines = list(stages)
        self._clock = clock
        self._batcher = DynamicBatcher(max_batch, clock=clock)
        self._queue_depth = int(queue_depth)
        self._queues: List[deque] = [deque() for _ in self._engines]
        self._stage_latencies = [deque(maxlen=stats_window)
                                 for _ in self._engines]
        self._stage_errors = [0 for _ in self._engines]
        self._stage_busy = [False for _ in self._engines]
        self._latencies = deque(maxlen=stats_window)
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._next_batch_id = 0
        self._work = threading.Condition()
        self._running = True
        self._threads: List[threading.Thread] = []
        if workers:
            for index in range(len(self._engines)):
                thread = threading.Thread(
                    target=self._worker_loop, args=(index,),
                    name=f"pipeline-{name}-stage{index}", daemon=True)
                thread.start()
                self._threads.append(thread)

    # ------------------------------------------------------------------
    # Construction from an artifact
    # ------------------------------------------------------------------
    @classmethod
    def from_artifact(cls, source, *, stages: int = 2,
                      cuts: Optional[Sequence[int]] = None,
                      name: Optional[str] = None,
                      backend: str = DEFAULT_BACKEND,
                      designs=None, verify: bool = True,
                      **kwargs) -> "PipelineEngine":
        """Split an artifact (path or :class:`ServeArtifact`) and build
        the pipeline. ``cuts`` pins the boundaries; otherwise
        :func:`~repro.serve.partition.splitter.auto_cuts` balances
        ``stages`` stages by GEMM MACs."""
        artifact = source if isinstance(source, ServeArtifact) \
            else ServeArtifact.load(source)
        if cuts is None:
            cuts = auto_cuts(artifact, stages)
        partition = split_artifact(artifact, cuts, verify=verify)
        engines = [
            InferenceEngine(ExecutionPlan(stage, backend=backend),
                            design=_stage_design(designs, index))
            for index, stage in enumerate(partition.stages)]
        return cls(engines, name=name or partition.model,
                   partition=partition, **kwargs)

    # ------------------------------------------------------------------
    # Server surface
    # ------------------------------------------------------------------
    def plan(self, model: Optional[str] = None) -> ExecutionPlan:
        """Stage 0's plan — the pipeline's input signature."""
        if model is not None:
            self._check_model(model)
        return self._engines[0].plan

    @property
    def num_stages(self) -> int:
        return len(self._engines)

    def submit(self, model: str, x) -> InferenceFuture:
        """Enqueue one request; returns its future immediately. Shape
        errors fail the future, and a bad token id fails only its own
        request when stage 0 checks its batch (the server's rule); an
        unknown model or a closed pipeline raises."""
        self._check_model(model)
        future = InferenceFuture(model)
        try:
            payload = coerce_payload(self._engines[0].plan, x)
        except ReproError as error:
            future._fail(error)
            return future
        with self._work:
            if not self._running:
                raise ServingError("pipeline is closed")
            self._batcher.submit(payload, future=future, model=model)
            self._submitted += 1
            self._work.notify_all()
        return future

    # ------------------------------------------------------------------
    # Deterministic stepping (workers=0)
    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Advance each occupied stage by one micro-batch (last stage
        first, so a batch moves one stage per poll), then hand stage 0
        its next batch if its queue is empty. Returns requests
        completed."""
        completed = 0
        for index in reversed(range(len(self._engines))):
            batch = None
            with self._work:
                if self._queues[index]:
                    batch = self._queues[index].popleft()
            if batch is not None:
                completed += self._run_stage(index, batch)
        with self._work:
            self._flush_locked()
        return completed

    def drain(self) -> None:
        """Serve everything queued through all stages (threaded
        pipelines block until idle)."""
        if self._threads:
            with self._work:
                self._work.wait_for(self._idle_locked, timeout=60.0)
            return
        while True:
            with self._work:
                if self._idle_locked():
                    return
            self.poll()

    def _idle_locked(self) -> bool:
        return (not self._batcher.pending and not any(self._queues)
                and not any(self._stage_busy))

    def _flush_locked(self) -> None:
        """Stage 0 is free: what is queued (FIFO, up to ``max_batch``)
        becomes its next micro-batch."""
        if self._queues[0] or not self._batcher.pending:
            return
        requests = self._batcher.take()
        self._queues[0].append(_StageBatch(
            self._next_batch_id, requests,
            np.array([r.payload for r in requests])))
        self._next_batch_id += 1

    # ------------------------------------------------------------------
    # Stage execution
    # ------------------------------------------------------------------
    def _worker_loop(self, index: int) -> None:
        last = index + 1 == len(self._queues)
        while True:
            with self._work:
                while True:
                    if not self._running:
                        return
                    # Backpressure: run only when the next stage has room.
                    if last or len(self._queues[index + 1]) \
                            < self._queue_depth:
                        if index == 0:
                            self._flush_locked()
                        if self._queues[index]:
                            break
                    self._work.wait()
                batch = self._queues[index].popleft()
                self._stage_busy[index] = True
                if index:
                    self._work.notify_all()     # room for stage index-1
            self._run_stage(index, batch)
            with self._work:
                self._stage_busy[index] = False
                self._work.notify_all()

    def _run_stage(self, index: int, batch: _StageBatch) -> int:
        """Run one micro-batch through stage ``index``; returns requests
        completed (non-zero only at the last stage)."""
        engine = self._engines[index]
        size = len(batch.requests)
        try:
            batch.fpga_ms += engine.fpga_latency_ms(size)
            started = self._clock()
            outputs = engine.infer(batch.array)
            elapsed_ms = (self._clock() - started) * 1e3
        except Exception as error:   # noqa: BLE001 — typed fail, no wrong bits
            # Stage 0 holds the requests' own payloads, so its input check
            # is re-run row by row and only the bad rows fail.
            survivors = _failed_rows(
                engine.plan if index == 0 else None, error, batch.requests,
                self._fail_request,
                lambda cause: self._stage_error(index, cause))
            if not survivors:
                return 0
            return self._run_stage(index, _StageBatch(
                batch.id, survivors,
                np.array([r.payload for r in survivors])))
        with self._work:
            self._stage_latencies[index].extend([elapsed_ms] * size)
        if index + 1 < len(self._engines):
            batch.array = outputs
            with self._work:
                self._queues[index + 1].append(batch)
                self._work.notify_all()
            return 0
        outputs = engine.plan.per_request_outputs(outputs, size)
        completed = self._clock()
        for position, request in enumerate(batch.requests):
            request.result = outputs[position]
            request.completed_at = completed
            request.batch_id = batch.id
            request.batch_size = size
            request.fpga_ms = batch.fpga_ms / size
            request.settle(outputs[position])
        with self._work:
            self._completed += size
            self._latencies.extend(r.latency_ms for r in batch.requests)
            self._work.notify_all()
        return size

    def _fail_request(self, request: ServedRequest,
                      error: BaseException) -> None:
        with self._work:
            self._failed += 1
        request.settle(error=error)

    def _stage_error(self, index: int,
                     error: BaseException) -> BaseException:
        """Count a failed stage batch; what its requests fail with."""
        with self._work:
            self._stage_errors[index] += 1
        if isinstance(error, ServingError):
            return error
        return WorkerError(
            f"pipeline stage {index} of {self.name!r} failed: {error}")

    # ------------------------------------------------------------------
    # Stats + lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, ModelStats]:
        """Aggregate row under the model name plus one stage-dimensioned
        row per stage (key ``"{name}/stage{k}"``, ``stage="k+1/n"``)."""
        with self._work:
            total = len(self._engines)
            backends = {engine.backend for engine in self._engines}
            backend = backends.pop() if len(backends) == 1 else "mixed"
            in_flight = (self._submitted - self._completed - self._failed
                         - self._batcher.pending)
            out = {self.name: ModelStats(
                model=self.name, backend=backend,
                max_batch=self._batcher.max_batch,
                requests=self._completed,
                batches=self._engines[0].stats.batches,
                errors=self._failed,
                wall_seconds=max(e.stats.wall_seconds
                                 for e in self._engines),
                latencies_ms=list(self._latencies),
                fpga_ms_total=sum(e.stats.fpga_ms_total
                                  for e in self._engines),
                queue_depth=self._batcher.pending,
                in_flight=max(in_flight, 0))}
            for index, engine in enumerate(self._engines):
                out[f"{self.name}/stage{index}"] = ModelStats(
                    model=f"{self.name}/stage{index}",
                    backend=engine.backend,
                    max_batch=self._batcher.max_batch,
                    requests=engine.stats.requests,
                    batches=engine.stats.batches,
                    errors=self._stage_errors[index],
                    wall_seconds=engine.stats.wall_seconds,
                    latencies_ms=list(self._stage_latencies[index]),
                    fpga_ms_total=engine.stats.fpga_ms_total,
                    queue_depth=len(self._queues[index]),
                    in_flight=int(self._stage_busy[index]),
                    stage=f"{index + 1}/{total}")
            return out

    def close(self, drain: bool = True) -> None:
        if drain and self._running:
            try:
                self.drain()
            except ReproError:
                pass
        with self._work:
            if not self._running:
                return
            self._running = False
            pending = []
            while self._batcher.pending:
                pending.extend(self._batcher.take())
            for queue in self._queues:
                while queue:
                    pending.extend(queue.popleft().requests)
            self._work.notify_all()
        error = ServingError("pipeline closed before the request was served")
        for request in pending:
            request.settle(error=error)
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []


# ----------------------------------------------------------------------
# Distributed pipeline: one cluster worker per stage
# ----------------------------------------------------------------------
class StageDeployment:
    """In-memory source for ``LocalWorker``/``ModelServer.load`` (which
    take anything with ``.engine``): one stage artifact, compiled
    lazily."""

    def __init__(self, artifact: ServeArtifact, *,
                 backend: str = DEFAULT_BACKEND,
                 design: Optional[GemmDesign] = None,
                 batch: Optional[int] = None):
        self.artifact = artifact
        self.backend = backend
        self.design = design
        self.batch = batch
        self._engine: Optional[InferenceEngine] = None

    @property
    def engine(self) -> InferenceEngine:
        if self._engine is None:
            self._engine = InferenceEngine(
                ExecutionPlan(self.artifact, backend=self.backend),
                design=self.design)
        return self._engine


class PipelineCluster(ServerMixin):
    """A partitioned model served by one cluster worker per stage.

    Worker ``k`` hosts exactly one model — stage ``k``'s sub-artifact —
    so the router's host lookup *is* the placement. ``submit`` starts
    the request at stage 0 and chains each stage's future into a submit
    of the next; the caller's future resolves with the final stage's
    output (and fails with the first stage error, typed — a dead worker
    surfaces as the router's ``WorkerError``).
    """

    def __init__(self, router: ClusterRouter, stage_names: Sequence[str],
                 *, name: str, clock=time.monotonic,
                 stats_window: int = 512):
        if not stage_names:
            raise ConfigurationError("a pipeline needs at least one stage")
        self.name = name
        self._router = router
        self._stage_names = list(stage_names)
        self._clock = clock
        self._lock = threading.Lock()
        self._pending: Dict[int, float] = {}      # id(future) -> started
        self._futures: Dict[int, InferenceFuture] = {}
        self._latencies = deque(maxlen=stats_window)
        self._completed = 0
        self._failed = 0

    # ------------------------------------------------------------------
    @property
    def router(self) -> ClusterRouter:
        return self._router

    @property
    def num_stages(self) -> int:
        return len(self._stage_names)

    # ------------------------------------------------------------------
    def submit(self, model: str, x) -> InferenceFuture:
        self._check_model(model)
        outer = InferenceFuture(model)
        with self._lock:
            self._pending[id(outer)] = self._clock()
            self._futures[id(outer)] = outer

        def hop(stage: int, served: tuple):
            def on_done(future: InferenceFuture) -> None:
                error = future.exception()
                if error is not None:
                    self._finish(outer, error=error)
                    return
                records = served + (future.request,)
                if stage + 1 == len(self._stage_names):
                    self._finish(outer, result=future.result(),
                                 request=dataclasses.replace(
                                     future.request, stages=records))
                    return
                try:
                    chained = self._router.submit(
                        self._stage_names[stage + 1], future.result())
                except Exception as chain_error:   # noqa: BLE001
                    self._finish(outer, error=chain_error)
                    return
                chained.add_done_callback(hop(stage + 1, records))
            return on_done

        try:
            first = self._router.submit(self._stage_names[0], np.asarray(x))
        except ServingError:
            with self._lock:
                self._pending.pop(id(outer), None)
                self._futures.pop(id(outer), None)
            raise
        first.add_done_callback(hop(0, ()))
        return outer

    @property
    def _drives_itself(self) -> bool:
        return self._router._drives_itself

    def _finish(self, outer: InferenceFuture, *, result=None,
                request=None, error: Optional[BaseException] = None) -> None:
        with self._lock:
            started = self._pending.pop(id(outer), None)
            self._futures.pop(id(outer), None)
            if started is None or outer.done():
                return
            if error is None:
                self._completed += 1
                self._latencies.append((self._clock() - started) * 1e3)
            else:
                self._failed += 1
        if error is None:
            outer._resolve(result, request)
        else:
            if not isinstance(error, ReproError):
                error = WorkerError(
                    f"pipeline stage hop for {self.name!r} failed: {error}")
            outer._fail(error)

    # ------------------------------------------------------------------
    def pump(self) -> int:
        """Step the router once (deliver frames, collect replies, expire
        timeouts); stage-hop submits happen inside the callbacks."""
        return self._router.pump()

    def drain(self, timeout: Optional[float] = 60.0) -> None:
        """Serve every submitted request to completion or typed failure;
        one still unserved at the deadline fails with ``WorkerError``."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                if not self._pending:
                    return
            remaining = None if deadline is None \
                else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                break
            if self._router.pump():
                continue
            if self._drives_itself:
                time.sleep(0.005)       # the workers serve every hop
            else:
                # Pumping moved nothing: the router serves or fails
                # (typed) what its workers hold, and each outcome
                # chains the next hop or fails the outer future.
                self._router.drain(timeout=remaining)
        with self._lock:
            leftovers = list(self._futures.values())
        for outer in leftovers:
            self._finish(outer, error=WorkerError(
                f"pipeline request for {self.name!r} was not served "
                "before the drain deadline"))

    # ------------------------------------------------------------------
    def stats(self, timeout: Optional[float] = 30.0
              ) -> Dict[str, ModelStats]:
        """Per-stage rows from the workers (stage labels stamped) plus
        an aggregate row under the model name."""
        rows = self._router.stats(timeout=timeout)
        total = len(self._stage_names)
        out: Dict[str, ModelStats] = {}
        stage_rows: List[ModelStats] = []
        for index, stage_name in enumerate(self._stage_names):
            row = rows.get(stage_name)
            if row is None:
                continue
            row.stage = f"{index + 1}/{total}"
            out[stage_name] = row
            stage_rows.append(row)
        backends = {row.backend for row in stage_rows}
        with self._lock:
            aggregate = ModelStats(
                model=self.name,
                backend=backends.pop() if len(backends) == 1 else "mixed",
                max_batch=max((row.max_batch for row in stage_rows),
                              default=0),
                requests=self._completed,
                batches=stage_rows[0].batches if stage_rows else 0,
                errors=self._failed,
                wall_seconds=max((row.wall_seconds for row in stage_rows),
                                 default=0.0),
                latencies_ms=list(self._latencies),
                fpga_ms_total=sum(row.fpga_ms_total for row in stage_rows),
                queue_depth=sum(row.queue_depth for row in stage_rows),
                in_flight=len(self._pending))
        return {self.name: aggregate, **out}

    def worker_stats(self, timeout: Optional[float] = 30.0):
        return self._router.worker_stats(timeout=timeout)

    def close(self, drain: bool = True) -> None:
        if drain:
            try:
                self.drain(timeout=5.0)
            except ReproError:
                pass
        self._router.close(drain=False)


# ----------------------------------------------------------------------
# Cluster builders
# ----------------------------------------------------------------------
def local_pipeline_cluster(partition: PartitionPlan, *,
                           name: Optional[str] = None,
                           backend: str = DEFAULT_BACKEND,
                           max_batch: int = 16,
                           designs=None,
                           clock=time.monotonic,
                           fault_plans: Optional[Dict] = None,
                           capacity: int = 64,
                           **router_kwargs) -> PipelineCluster:
    """Deterministic in-process pipeline cluster: one ``LocalWorker``
    per stage (``fault_plans[k]`` injects that stage's ``FaultPlan`` for
    chaos tests), driven by ``pump()``/``drain()``."""
    name = name or partition.model
    stage_names = partition.stage_names()
    workers = []
    for index, stage in enumerate(partition.stages):
        source = StageDeployment(stage, backend=backend,
                                 design=_stage_design(designs, index),
                                 batch=max_batch)
        workers.append(LocalWorker(
            f"stage{index}", {stage_names[index]: source}, clock=clock,
            max_batch=max_batch, backend=backend, capacity=capacity,
            plan=(fault_plans or {}).get(index)))
    router = ClusterRouter(workers, clock=clock, capacity=capacity,
                           **router_kwargs)
    return PipelineCluster(router, stage_names, name=name, clock=clock)


def process_pipeline_cluster(stage_paths: Sequence[str], *,
                             name: str,
                             backend: str = DEFAULT_BACKEND,
                             max_batch: int = 16,
                             capacity: int = 64,
                             **worker_kwargs) -> PipelineCluster:
    """Subprocess pipeline cluster: one ``ProcessWorker`` per saved
    stage artifact, activations on the framed socket transport."""
    stage_names = [f"{name}/stage{index}"
                   for index in range(len(stage_paths))]
    workers = [ProcessWorker(f"stage{index}",
                             {stage_names[index]: path},
                             max_batch=max_batch,
                             backend=backend, capacity=capacity,
                             **worker_kwargs)
               for index, path in enumerate(stage_paths)]
    router = ClusterRouter(workers, capacity=capacity)
    return PipelineCluster(router, stage_names, name=name)
