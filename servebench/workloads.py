"""The three serving workloads: what each builds, sends and verifies.

Every workload sets up a real front end from the model zoo, exactly as
a user would: zoo build -> PTQ ``Pipeline.calibrate`` -> ``deploy``
(export, bit-exact verification, backend compile) -> hosting. It then
warms everything a first timed request could otherwise pay for: every
batch size ``1..max_batch`` per hosted model (the ``compiled`` backend
builds one native library per size, 1-2 s each, and every backend
verifies each new size against the reference once), every ``(sessions,
4)`` stream shape, the cycle-model price of every batch size, and every
cluster worker.

The rates below are constants of the workload. They are never derived
from a probe of the machine, so two commits see the same offered load.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

from servebench import harness
from servebench.harness import mean, percentile

#: BLAS/OpenMP pools pinned to one thread, in this process (set before
#: numpy loads, by run.py) and in every cluster worker.
PIN_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
           "NUMEXPR_NUM_THREADS": "1"}

#: Share of the run's ``--seconds`` spent in the open-loop phase; the
#: burst's fixed operation count takes roughly the rest.
OPEN_LOOP_SHARE = 0.7


def codegen_libraries() -> int:
    """Native kernel libraries in this run's (private) codegen cache."""
    root = os.environ.get("REPRO_CODEGEN_CACHE")
    if not root or not os.path.isdir(root):
        return 0
    return sum(1 for name in os.listdir(root) if name.endswith(".so"))


def _deploy(name: str, max_batch: int, backend: str, tracer):
    """Zoo model -> PTQ calibration -> deployment on ``backend``."""
    from repro.api import Pipeline, PipelineConfig
    from repro.serve.cli import build_model

    model, sample = build_model(name, seed=0)
    pipeline = Pipeline(PipelineConfig(batch=max_batch), model=model)
    tracer.wrap(pipeline, "calibrate", "api.calibrate",
                lambda *_: {"model": name})
    tracer.wrap(pipeline, "deploy", "api.deploy",
                lambda *_: {"model": name})
    pipeline.calibrate([sample(np.random.default_rng(1), 8)])
    return pipeline.deploy(backend=backend), sample


def _warm_stateless(deployment, max_batch: int, name: str, tracer) -> None:
    with tracer.span("backends.warmup", model=name):
        sizes = range(1, max_batch + 1)
        deployment.engine.warmup(sizes)
        for size in sizes:
            deployment.engine.fpga_latency_ms(size)


def _trace_engine(tracer, engine, name: str) -> None:
    tracer.wrap(engine, "infer", "engine.infer",
                lambda batch: {"model": name, "n": int(len(batch))})
    tracer.wrap(engine, "infer_stream", "engine.infer_stream",
                lambda batch, _state: {"model": name,
                                       "n": int(len(batch))})


def verify_batches(phase, deployments: Dict[str, object]) -> np.ndarray:
    """Stateless results vs. the deployment's ``predict`` on the exact
    batch composition that served them (the repo's own contract).

    Requests are grouped by (model, ``batch_id``) and ordered by request
    id, which is the batcher's FIFO order; a group whose size differs
    from the recorded ``batch_size`` fails as a whole. Returns one flag
    per operation; operations without a stateless record stay False.
    """
    ok = np.zeros(len(phase), dtype=bool)
    groups = defaultdict(list)
    for index in np.flatnonzero(~phase.failed & (phase.batch_id >= 0)):
        groups[(phase.model[index], phase.batch_id[index])].append(index)
    for (model, _batch_id), members in groups.items():
        members.sort(key=lambda index: phase.rid[index])
        if len(members) != phase.batch_size[members[0]]:
            continue
        deployment = deployments[model]
        batch = np.stack([phase.payload[index] for index in members])
        expected = deployment.plan.per_request_outputs(
            deployment.predict(batch), len(members))
        for position, index in enumerate(members):
            ok[index] = np.array_equal(phase.outputs[index],
                                       expected[position])
    return ok


def _settle(name: str, futures) -> harness.Phase:
    """Wait for set-up requests and record them like a timed phase's."""
    phase = harness.Phase(name, len(futures))
    for index, future in enumerate(futures):
        future.result(timeout=harness.RESULT_TIMEOUT_S)
        phase.record(index, future)
    return phase


class Workload:
    """Common shape: set up, build each phase's operations, send one
    operation, poll stats, verify a phase, close."""

    name = ""
    rate = 0.0                    # open-loop operations per second
    burst_rounds = 5
    burst_size = 0                # operations per burst round
    burst_window: Optional[int] = None

    def __init__(self, seed: int, out_dir: str, tracer):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.ops: Dict[str, dict] = {}
        self.diagnostics: Dict[str, object] = {}

    # The harness calls these -------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def make_ops(self, phase: str, count: int) -> None:
        raise NotImplementedError

    def send(self, phase: str, index: int):
        raise NotImplementedError

    def poll(self) -> None:
        raise NotImplementedError

    def verify(self, phase) -> np.ndarray:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def layer_metrics(self, phases) -> Dict[str, float]:
        raise NotImplementedError


# ----------------------------------------------------------------------
class InProcessWorkload(Workload):
    """A ``ModelServer`` with one worker thread in this process."""

    max_batch = 8
    max_wait_ms = 2.0

    def _server(self):
        from repro.serve import ModelServer

        self.server = ModelServer(workers=1, max_batch=self.max_batch,
                                  max_wait_ms=self.max_wait_ms)
        for name, deployment in self.deployments.items():
            self.server.add(name, deployment, batch=self.max_batch,
                            max_wait_ms=self.max_wait_ms)
            _trace_engine(self.tracer, deployment.engine, name)
        self.tracer.wrap(self.server, "submit", "server.submit")
        self.tracer.wrap(self.server, "submit_stream",
                         "server.submit_stream")
        self.tracer.wrap(self.server, "stats", "server.stats")

    def poll(self) -> None:
        self.server.stats()

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            server.close(drain=False)

    def layer_metrics(self, phases) -> Dict[str, float]:
        tracer = self.tracer
        windows = [phase.window for phase in phases]
        wall = sum(phase.wall_s for phase in phases)

        def timed(name):
            return [span for window in windows
                    for span in tracer.select(name, window)]

        infer = timed("engine.infer")
        stream = timed("engine.infer_stream")
        submits = (timed("server.submit") + timed("server.submit_stream"))
        infer_ms = [(span[3] - span[2]) * 1e3 for span in infer]
        stream_ms = [(span[3] - span[2]) * 1e3 for span in stream]
        rows = sum(span[7]["n"] for span in infer)
        price = 0.0
        for span in infer + stream:
            engine = self.deployments[span[7]["model"]].engine
            price += engine.fpga_latency_ms(span[7]["n"])
        served = rows + sum(span[7]["n"] for span in stream)
        stats_ms = [(span[3] - span[2]) * 1e3
                    for span in timed("server.stats")]
        return {
            "server.submit_us_p50": percentile(
                [(span[3] - span[2]) * 1e6 for span in submits], 50),
            "batcher.batch_size_mean": mean(
                [span[7]["n"] for span in infer]),
            "batcher.queue_wait_ms_p50": percentile(
                self._queue_waits(phases[-1], infer), 50),
            "engine.infer_ms_p50": percentile(infer_ms, 50),
            "engine.infer_ms_per_row": (sum(infer_ms) / rows
                                        if rows else 0.0),
            "engine.kernel_share": ((sum(infer_ms) + sum(stream_ms))
                                    / 1e3 / wall if wall else 0.0),
            "engine.infer_stream_ms_p50": percentile(stream_ms, 50),
            "streaming.chunks_per_batch_mean": mean(
                [span[7]["n"] for span in stream]),
            "server.stats_call_ms": mean(stats_ms),
            "fpga.sim_ms_per_request": price / served if served else 0.0,
        }

    def _queue_waits(self, phase, infer_spans) -> List[float]:
        """Scheduled send -> start of the engine call that served the
        request. The serving call is the model's last engine span that
        ended before the request's done-callback."""
        by_model = defaultdict(list)
        for span in infer_spans:
            by_model[span[7]["model"]].append((span[3], span[2]))
        calls = {model: np.array(sorted(spans))
                 for model, spans in by_model.items()}
        waits = []
        for index in np.flatnonzero(~phase.failed & (phase.rid >= 0)):
            if phase.model[index] not in calls:
                continue
            ends, starts = calls[phase.model[index]].T
            position = int(np.searchsorted(ends, phase.done[index],
                                           side="right")) - 1
            if position >= 0:
                waits.append((starts[position]
                              - phase.scheduled[index]) * 1e3)
        return waits


class CnnMix(InProcessWorkload):
    name = "cnn_mix"
    models = ("resnet_tiny", "mobilenet_v2")
    rate = 1500.0
    burst_rounds = 40
    burst_size = 600
    pool = 256

    def setup(self) -> None:
        self.deployments, self.pools = {}, {}
        for name in self.models:
            deployment, sample = _deploy(name, self.max_batch, "compiled",
                                         self.tracer)
            self.deployments[name] = deployment
            self.pools[name] = sample(self.rng, self.pool)
            _warm_stateless(deployment, self.max_batch, name, self.tracer)
        self._server()

    def make_ops(self, phase: str, count: int) -> None:
        self.ops[phase] = {
            "model": self.rng.integers(0, len(self.models), count),
            "payload": self.rng.integers(0, self.pool, count)}

    def send(self, phase: str, index: int):
        ops = self.ops[phase]
        name = self.models[ops["model"][index]]
        return self.server.submit(name,
                                  self.pools[name][ops["payload"][index]])

    def verify(self, phase) -> np.ndarray:
        return verify_batches(phase, self.deployments)


class RnnMix(InProcessWorkload):
    name = "rnn_mix"
    max_batch = 16
    # 400 ops/s rather than 800: at 800 the worker thread and the
    # generator contend for the interpreter lock often enough that the
    # open-loop p50 (~1 ms) spread 0.45 (IQR/median over ten runs on a
    # shared 2-vCPU VM); at 400 it spread 0.09-0.17 on the same host.
    rate = 400.0
    burst_rounds = 60
    burst_size = 1000
    sessions = 16
    chunk_steps = 4
    stream_share = 0.75
    pool = 256

    def setup(self) -> None:
        self.deployments = {}
        lm, sample = _deploy("lstm_lm", self.max_batch, "compiled",
                             self.tracer)
        self.deployments["lstm_lm"] = lm
        self.tokens = sample(self.rng, self.pool)
        speech, _ = _deploy("gru_speech", self.max_batch, "compiled",
                            self.tracer)
        self.deployments["gru_speech"] = speech
        _warm_stateless(lm, self.max_batch, "lstm_lm", self.tracer)
        plan = speech.plan
        self.features = plan.input_shape[1:]
        with self.tracer.span("backends.warmup", model="gru_speech"):
            for size in range(1, self.sessions + 1):
                plan.forward_stream(np.zeros(
                    (size, self.chunk_steps) + self.features,
                    dtype=plan.input_dtype), {})
                speech.engine.fpga_latency_ms(size)
        self._server()
        self.sids = [self.server.open_session("gru_speech")
                     for _ in range(self.sessions)]
        self.session_inputs = [[] for _ in self.sids]
        self.session_chunks = [[] for _ in self.sids]   # (phase, index)
        self.done_phases: set = set()

    def make_ops(self, phase: str, count: int) -> None:
        # Stream ops come in rounds of one chunk per session (a fresh
        # permutation each round), so every session has the same length
        # at the end of a phase and the offline check runs one shape.
        streams = self.sessions * int(round(
            self.stream_share * count / self.sessions))
        kinds = np.zeros(count, dtype=bool)
        kinds[self.rng.choice(count, streams, replace=False)] = True
        order = np.concatenate([
            self.rng.permutation(self.sessions)
            for _ in range(streams // self.sessions)]) \
            if streams else np.zeros(0, dtype=int)
        session = np.full(count, -1)
        session[kinds] = order
        chunks = self.rng.normal(size=(count, self.chunk_steps)
                                 + self.features).astype(np.float32)
        for index in np.flatnonzero(kinds):
            self.session_inputs[session[index]].append(chunks[index])
            self.session_chunks[session[index]].append((phase, index))
        self.ops[phase] = {"session": session, "chunk": chunks,
                           "tokens": self.rng.integers(0, self.pool,
                                                       count)}

    def send(self, phase: str, index: int):
        ops = self.ops[phase]
        session = ops["session"][index]
        if session >= 0:
            return self.server.submit_stream(
                "gru_speech", self.sids[session], ops["chunk"][index])
        return self.server.submit("lstm_lm",
                                  self.tokens[ops["tokens"][index]])

    def verify(self, phase) -> np.ndarray:
        ok = verify_batches(phase, self.deployments)
        # Each session's chunk outputs, concatenated, must equal the
        # offline full-sequence run of everything it was sent so far.
        # make_ops gives every session the same number of chunks per
        # phase, so one stacked offline run covers all sessions (rows
        # are independent: the serving path itself coalesces sessions).
        self.done_phases.add(phase.name)
        sent = [[(name, index) for name, index in chunks
                 if name in self.done_phases]
                for chunks in self.session_chunks]
        length = len(sent[0])
        if not length or any(len(chunks) != length for chunks in sent):
            return ok
        plan = self.deployments["gru_speech"].plan
        sequences = np.stack([np.concatenate(inputs[:length])
                              for inputs in self.session_inputs])
        offline, _ = plan.forward_stream(sequences, {})
        offline = plan.stream_outputs(offline, self.sessions)
        for session, chunks in enumerate(sent):
            for position, (name, index) in enumerate(chunks):
                if name != phase.name or phase.failed[index]:
                    continue
                rows = slice(position * self.chunk_steps,
                             (position + 1) * self.chunk_steps)
                ok[index] = np.array_equal(phase.outputs[index],
                                           offline[session, rows])
        return ok

    def layer_metrics(self, phases) -> Dict[str, float]:
        stats = self.server.stats()["gru_speech"]
        return {"streaming.session_bytes": float(stats.session_bytes),
                **super().layer_metrics(phases)}


class ZipfCluster(Workload):
    name = "zipf_cluster"
    model = "resnet_tiny"
    max_batch = 8
    rate = 400.0
    burst_rounds = 25
    burst_size = 600
    burst_window = 64             # == the router's per-worker capacity
    capacity = 64
    pool = 1024
    zipf_s = 1.1
    workers = 2
    #: Response-cache entries per worker: the two caches together hold
    #: a quarter of the pool, so LRU eviction runs beside the hits.
    cache_entries = 128

    def setup(self) -> None:
        from repro.serve.cluster import ClusterRouter

        deployment, sample = _deploy(self.model, self.max_batch, "fused",
                                     self.tracer)
        self.deployment = deployment
        # The pool is a constant of the workload; the seed draws the
        # traffic over it. Which worker is home to the hottest payloads
        # then stays the same from seed to seed.
        self.payloads = sample(np.random.default_rng(0), self.pool)
        ranks = np.arange(1, self.pool + 1, dtype=np.float64)
        self.pmf = ranks ** -self.zipf_s / np.sum(ranks ** -self.zipf_s)
        artifact = os.path.join(self.out_dir, f"{self.model}.npz")
        deployment.save(artifact)
        self.entry_bytes = int(deployment.predict(self.payloads[0]).nbytes)
        cache_mb = self.cache_entries * self.entry_bytes / 2 ** 20
        with self.tracer.span("cluster.spawn"):
            self.router = ClusterRouter.spawn(
                {self.model: artifact}, workers=self.workers,
                placement="consistent_hash", max_batch=self.max_batch,
                max_wait_ms=2.0, backend="fused", capacity=self.capacity,
                worker_threads=1, env=PIN_ENV, cache_mb=cache_mb)
        # Records not yet verified: (harness.Phase, payload keys, fresh
        # payloads or None); `latest` maps (worker, key) -> the output of
        # that payload's latest computed miss on that worker.
        self.records: List[tuple] = []
        self.latest: Dict[tuple, np.ndarray] = {}
        with self.tracer.span("backends.warmup"):
            self._warm()
        self.tracer.wrap(self.router, "submit", "cluster.submit")
        self.tracer.wrap(self.router, "stats", "cluster.stats")
        # Keep each stats poll's reply so its wire size can be measured
        # after the run, outside the timed phases.
        self.stats_replies: List[dict] = []
        self.raw_worker_stats = self.router.worker_stats

        def worker_stats(*args, **kwargs):
            reply = self.raw_worker_stats(*args, **kwargs)
            self.stats_replies.append(reply)
            return reply

        self.router.worker_stats = worker_stats
        self.before = self.raw_worker_stats()

    def _warm(self) -> None:
        """Reach every worker with every batch size 1..max_batch (fresh
        payloads, so each is computed), then fill the response caches
        with a Zipf pass over the pool."""
        seen = {name: set() for name in self.router.workers()}
        wanted = set(range(1, self.max_batch + 1))
        fresh = np.random.default_rng(self.seed + 7)
        for attempt in range(24):
            if all(sizes >= wanted for sizes in seen.values()):
                break
            for size in range(1, 2 * self.max_batch + 1):
                payloads = fresh.normal(size=(size,) + self.payloads.shape[1:]
                                        ).astype(np.float32)
                warm = _settle("warm", [
                    self.router.submit(self.model, payload)
                    for payload in payloads])
                for index in np.flatnonzero(~warm.cached & ~warm.coalesced):
                    seen[warm.worker[index]].add(int(warm.batch_size[index]))
                keys = [("fresh", attempt, size, k) for k in range(size)]
                self.records.append((warm, keys, payloads))
        self.diagnostics["warm_sizes_missing"] = sum(
            len(wanted - sizes) for sizes in seen.values())
        keys = self.rng.choice(self.pool, 4 * self.pool, p=self.pmf)
        for start in range(0, len(keys), self.burst_window):
            chunk = keys[start:start + self.burst_window]
            warm = _settle("warm", [
                self.router.submit(self.model, self.payloads[key])
                for key in chunk])
            self.records.append((warm, list(chunk), None))
        self.router.stats()

    def make_ops(self, phase: str, count: int) -> None:
        self.ops[phase] = {"payload": self.rng.choice(self.pool, count,
                                                      p=self.pmf)}

    def send(self, phase: str, index: int):
        return self.router.submit(
            self.model, self.payloads[self.ops[phase]["payload"][index]])

    def poll(self) -> None:
        self.router.stats()

    def verify(self, phase) -> np.ndarray:
        """Computed results vs. ``predict`` on the worker's exact batch
        composition; every cache hit or coalesced follower vs. the bits
        of its payload's latest computed miss on the same worker.

        Records are checked once, in router-id order (the order each
        worker's batcher saw them); warm-up records pending from setup
        are checked with the first phase, since later hits refer back
        to them.
        """
        self.records.append((phase, list(self.ops[phase.name]["payload"]),
                             None))
        entries = []        # (router id, record, index, key, payload)
        for record, keys, fresh in self.records:
            for index in np.flatnonzero(~record.failed):
                payload = (fresh[index] if fresh is not None
                           else self.payloads[keys[index]])
                entries.append((int(record.rid[index]), record, index,
                                keys[index], payload))
        self.records = []
        entries.sort(key=lambda entry: entry[0])
        groups = defaultdict(list)
        for entry in entries:
            record, index = entry[1], entry[2]
            if not (record.cached[index] or record.coalesced[index]):
                groups[(record.worker[index],
                        record.batch_id[index])].append(entry)
        computed_ok = {}
        for members in groups.values():
            expected = None
            _, first, at, _, _ = members[0]
            if len(members) == first.batch_size[at]:
                expected = self.deployment.predict(
                    np.stack([entry[4] for entry in members]))
            for position, (rid, record, index, _, _) in enumerate(members):
                computed_ok[rid] = expected is not None and \
                    np.array_equal(record.outputs[index], expected[position])
        ok = np.zeros(len(phase), dtype=bool)
        for rid, record, index, key, _payload in entries:
            output = record.outputs[index]
            worker = record.worker[index]
            if record.cached[index] or record.coalesced[index]:
                reference = self.latest.get((worker, key))
                good = reference is not None and \
                    np.array_equal(output, reference)
            else:
                good = computed_ok[rid]
                self.latest[(worker, key)] = output
            if record is phase:
                ok[index] = good
        return ok

    def close(self) -> None:
        router = getattr(self, "router", None)
        if router is not None:
            router.close()

    # ------------------------------------------------------------------
    def layer_metrics(self, phases) -> Dict[str, float]:
        from repro.serve.placement import ConsistentHashPlacement, \
            WorkerView
        from repro.util.hashing import array_digest

        tracer = self.tracer
        windows = [phase.window for phase in phases]
        wall = sum(phase.wall_s for phase in phases)
        after = self.raw_worker_stats()

        def delta(field):
            return sum(getattr(after[w][self.model], field)
                       - getattr(self.before[w][self.model], field)
                       for w in after)

        requests, batches = delta("requests"), delta("batches")
        busy_s, fpga_ms = delta("wall_seconds"), delta("fpga_ms_total")

        def evicted(stats) -> int:
            # Every computed response is cached once, so whatever is no
            # longer held was evicted (the caches have no TTL).
            return stats.requests - stats.cache_bytes // self.entry_bytes

        evictions = sum(evicted(after[w][self.model])
                        - evicted(self.before[w][self.model])
                        for w in after)
        hits = sum(int(phase.cached.sum()) for phase in phases)
        coalesced = sum(int(phase.coalesced.sum()) for phase in phases)
        ops = sum(len(phase) for phase in phases)
        placement = ConsistentHashPlacement()
        views = [WorkerView(name=name, index=index,
                            models=frozenset([self.model]))
                 for index, name in enumerate(self.router.workers())]
        home_hits = total = 0
        for phase in phases:
            keys = self.ops[phase.name]["payload"]
            homes = {}
            for index in np.flatnonzero(~phase.failed):
                key = int(keys[index])
                if key not in homes:
                    digest = array_digest(self.payloads[key])
                    homes[key] = placement.order_request(
                        self.model, digest, views)[0].name
                total += 1
                home_hits += phase.worker[index] == homes[key]
        last = phases[-1]
        hops = ((last.done - last.sent) * 1e3 - last.served_ms)[~last.failed]
        submits = [span for window in windows
                   for span in tracer.select("cluster.submit", window)]
        engine_ms = busy_s * 1e3 / batches if batches else 0.0
        # Worker enqueue -> engine start: the worker-side latency of a
        # computed request less the mean engine call.
        computed = ~last.failed & ~last.cached & ~last.coalesced
        waits = last.served_ms[computed] - engine_ms
        stats_bytes = [sum(len(json.dumps({
            "op": "stats", "models": {name: stats.to_wire()
                                      for name, stats in models.items()}}))
            for models in reply.values())
            for reply in self.stats_replies]
        return {
            "server.submit_us_p50": percentile(
                [(span[3] - span[2]) * 1e6 for span in submits], 50),
            "batcher.batch_size_mean": (requests / batches
                                        if batches else 0.0),
            "batcher.queue_wait_ms_p50": percentile(waits, 50),
            "engine.infer_ms_p50": engine_ms,
            "engine.infer_ms_per_row": (busy_s * 1e3 / requests
                                        if requests else 0.0),
            "engine.kernel_share": busy_s / wall if wall else 0.0,
            "cache.hit_rate": hits / ops if ops else 0.0,
            "cache.coalesced_share": coalesced / ops if ops else 0.0,
            "cache.evictions": float(evictions),
            "placement.affinity_share": (home_hits / total
                                         if total else 0.0),
            "cluster.hop_ms_p50": percentile(hops, 50),
            "cluster.stats_call_ms": mean(
                [(span[3] - span[2]) * 1e3
                 for span in tracer.select("cluster.stats")]),
            "cluster.stats_bytes": mean(stats_bytes),
            "fpga.sim_ms_per_request": (fpga_ms / requests
                                        if requests else 0.0),
        }


WORKLOADS = {workload.name: workload
             for workload in (CnnMix, RnnMix, ZipfCluster)}
