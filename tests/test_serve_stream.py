"""Stateful streaming sessions: chunked == offline, bit for bit.

The correctness contract under test: feeding an RNN model its input
sequence in *arbitrary* chunk sizes — chunk size 1, ragged tails,
several sessions interleaved and coalesced into shared micro-batches —
produces outputs ``np.array_equal`` to the offline full-sequence run, on
every backend. Around that core sit the session-lifecycle chaos tests
(TTL expiry, LRU byte-budget eviction, worker crash, rolling-restart
migration), the cache-bypass regression (stream chunks must never be
served from the response cache), the wire-protocol session ops, and the
cluster's sticky placement. Deterministic throughout: every clock is a
``ManualClock``, faults are scheduled frame events, and nothing sleeps
(a meta-test enforces it).
"""

import io
import json
import pathlib
import re
import weakref

import numpy as np
import pytest

from repro.errors import ServingError, SessionError
from repro.serve import (
    ClusterRouter,
    ExecutionPlan,
    FaultPlan,
    LocalWorker,
    ModelServer,
    SessionStore,
    StreamBatcher,
    build_artifact,
    post_training_quantize,
    state_from_wire,
    state_to_wire,
)
from repro.serve.backends import backend_availability
from repro.serve.cli import build_model, serve_protocol, synthetic_payloads
from repro.serve.server import ModelStats
from repro.serve.streaming import (
    fresh_state,
    stack_states,
    state_nbytes,
    unstack_state,
)
from repro.tensor import row_stable_matmul

RNN_MODELS = ("lstm_lm", "gru_speech")
ALL_BACKENDS = ("reference", "fused", "compiled")

# Chunkings of the zoo RNNs' 12-step sequences: single-step, even,
# ragged tail, one-shot, and mixed.
CHUNKINGS = (
    (1,) * 12,
    (2,) * 6,
    (5, 5, 2),
    (12,),
    (3, 4, 5),
)


def _require(backend: str) -> None:
    available, note = backend_availability()[backend]
    if not available:
        pytest.skip(f"backend {backend!r} unavailable: {note}")


class ManualClock:
    """A clock tests advance explicitly; reading it never moves it."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> "ManualClock":
        self.now += seconds
        return self


def rnn_artifact(name: str):
    model, sample = build_model(name, seed=0)
    rng = np.random.default_rng(11)
    results = post_training_quantize(model, [sample(rng, 8)])
    return build_artifact(model, sample(rng, 4), layer_results=results,
                          name=name)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Exported RNN artifacts, saved once per test run."""
    root = tmp_path_factory.mktemp("stream_artifacts")
    paths = {}
    for name in RNN_MODELS + ("lstm_sentiment",):
        path = root / f"{name}.npz"
        rnn_artifact(name).save(path)
        paths[name] = str(path)
    return paths


def sequences_for(plan, count, seed=5):
    return synthetic_payloads(plan, count, seed=seed)


def offline_output(plan, seq):
    return plan.stream_outputs(plan.forward(seq[None]), 1)[0]


def chunks_of(seq, sizes):
    out, cursor = [], 0
    for size in sizes:
        out.append(seq[cursor:cursor + size])
        cursor += size
    assert cursor == seq.shape[0]
    return out


# ----------------------------------------------------------------------
# The row-stable GEMM primitive
# ----------------------------------------------------------------------
class TestRowStableMatmul:
    def test_single_row_equals_batched_row(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(7, 24)).astype(np.float32)
        w = rng.normal(size=(96, 24)).astype(np.float32)
        full = row_stable_matmul(a, w.T)
        for m in (1, 2, 3, 7):
            part = row_stable_matmul(a[:m], w.T)
            assert np.array_equal(part, full[:m]), f"rows unstable at M={m}"

    def test_out_parameter(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(1, 13)).astype(np.float32)
        b = rng.normal(size=(13, 5)).astype(np.float32)
        out = np.empty((1, 5), dtype=np.float32)
        result = row_stable_matmul(a, b, out=out)
        assert result is out
        assert np.array_equal(out, row_stable_matmul(a, b))

    def test_multi_row_is_plain_matmul(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 8)).astype(np.float32)
        b = rng.normal(size=(8, 3)).astype(np.float32)
        assert np.array_equal(row_stable_matmul(a, b), a @ b)


# ----------------------------------------------------------------------
# SessionStore: TTL, LRU byte budget, typed lifecycle errors
# ----------------------------------------------------------------------
def tiny_state(fill=0.0, width=8):
    return {1: {"h": [np.full((1, width), fill, dtype=np.float32)],
                "c": None}}


class TestSessionStore:
    def test_open_get_close_round_trip(self):
        store = SessionStore()
        store.open("a", "m", tiny_state(1.0))
        entry = store.get("a")
        assert entry.model == "m"
        assert np.all(entry.state[1]["h"][0] == 1.0)
        closed = store.close("a")
        assert closed.session_id == "a"
        assert "a" not in store

    def test_double_open_is_typed(self):
        store = SessionStore()
        store.open("a", "m", tiny_state())
        with pytest.raises(SessionError) as info:
            store.open("a", "m", tiny_state())
        assert info.value.code == "session-exists"

    def test_unknown_session_is_typed(self):
        store = SessionStore()
        with pytest.raises(SessionError) as info:
            store.get("ghost")
        assert info.value.code == "unknown-session"

    def test_ttl_expiry_is_lazy_and_typed(self):
        clock = ManualClock()
        store = SessionStore(ttl_s=10.0, clock=clock)
        store.open("a", "m", tiny_state())
        clock.advance(9.0)
        store.get("a")              # touch before expiry: fine
        clock.advance(11.0)
        with pytest.raises(SessionError) as info:
            store.get("a")
        assert info.value.code == "session-expired"
        assert "a" not in store

    def test_ttl_is_sliding(self):
        clock = ManualClock()
        store = SessionStore(ttl_s=10.0, clock=clock)
        store.open("a", "m", tiny_state())
        for _ in range(5):
            clock.advance(8.0)
            store.get("a")          # each touch renews the lease
        assert "a" in store

    def test_sweep_collects_expired(self):
        clock = ManualClock()
        store = SessionStore(ttl_s=5.0, clock=clock)
        store.open("a", "m", tiny_state())
        store.open("b", "m", tiny_state())
        clock.advance(6.0)
        dead = store.sweep()
        assert sorted(e.session_id for e in dead) == ["a", "b"]
        assert len(store) == 0

    def test_lru_eviction_under_byte_budget(self):
        state = tiny_state()
        per = sum(a.nbytes for a in state[1]["h"])
        store = SessionStore(max_bytes=3 * per)
        for sid in ("a", "b", "c"):
            assert store.open(sid, "m", tiny_state()) == []
        store.get("a")              # refresh a: b is now least recent
        evicted = store.open("d", "m", tiny_state())
        assert [e.session_id for e in evicted] == ["b"]
        assert evicted[0].evicted_as == "session-evicted"
        assert store.ids() == ["c", "a", "d"]

    def test_just_opened_session_survives_even_over_budget(self):
        store = SessionStore(max_bytes=1)   # less than one state
        assert store.open("only", "m", tiny_state()) == []
        assert "only" in store


# ----------------------------------------------------------------------
# StreamBatcher: cross-session coalescing rules
# ----------------------------------------------------------------------
class TestStreamBatcher:
    def chunk(self, batcher, sid, timesteps=3):
        return batcher.submit(
            sid, np.zeros((timesteps, 4), dtype=np.float32), model="m")

    def test_one_chunk_per_session_per_batch(self):
        batcher = StreamBatcher(max_batch=8, clock=ManualClock())
        self.chunk(batcher, "a")
        self.chunk(batcher, "a")
        self.chunk(batcher, "b")
        taken = batcher.take()
        assert sorted(c.session_id for c in taken) == ["a", "b"]
        assert [c.session_id for c in batcher.take()] == ["a"]

    def test_only_matching_timesteps_coalesce(self):
        batcher = StreamBatcher(max_batch=8, clock=ManualClock())
        self.chunk(batcher, "a", timesteps=2)
        self.chunk(batcher, "b", timesteps=3)
        self.chunk(batcher, "c", timesteps=2)
        taken = batcher.take()
        assert sorted(c.session_id for c in taken) == ["a", "c"]
        assert all(c.timesteps == 2 for c in taken)
        assert [c.session_id for c in batcher.take()] == ["b"]

    def test_max_batch_caps_coalescing(self):
        batcher = StreamBatcher(max_batch=2, clock=ManualClock())
        for sid in ("a", "b", "c"):
            self.chunk(batcher, sid)
        assert len(batcher.take()) == 2
        assert len(batcher.take()) == 1

    def test_fail_session_fails_queued_chunks(self):
        batcher = StreamBatcher(max_batch=8, clock=ManualClock())
        first = self.chunk(batcher, "a")
        second = self.chunk(batcher, "a")
        failed = batcher.fail_session("a")
        assert [c.future for c in failed] == [first, second]
        assert batcher.pending == 0


# ----------------------------------------------------------------------
# The tentpole contract: chunked streaming == offline, bit for bit
# ----------------------------------------------------------------------
class TestChunkedBitExact:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("name", RNN_MODELS)
    @pytest.mark.parametrize("sizes", CHUNKINGS,
                             ids=["x".join(map(str, s)) for s in CHUNKINGS])
    def test_plan_level_chunked_equals_offline(self, artifacts, name,
                                               backend, sizes):
        _require(backend)
        server = ModelServer(workers=0)
        try:
            server.load("m", artifacts[name], backend=backend)
            plan = server.plan("m")
            seq = sequences_for(plan, 1)[0]
            state = {}
            outs = []
            for chunk in chunks_of(seq, sizes):
                out, state = plan.forward_stream(chunk[None], state)
                outs.append(plan.stream_outputs(out, 1)[0])
            streamed = np.concatenate(outs, axis=0)
            assert np.array_equal(streamed, offline_output(plan, seq))
        finally:
            server.close()

    @pytest.mark.parametrize("backend", ("fused", "compiled"))
    def test_nan_chunk_passes_the_stateful_oracle(self, artifacts, backend):
        # The runtime oracle matches NaN with NaN, so a first chunk
        # shape holding a NaN serves instead of raising ExportError.
        _require(backend)
        plans = {}
        for name in ("reference", backend):
            server = ModelServer(workers=0)
            server.load("m", artifacts["gru_speech"], backend=name)
            plans[name] = server.plan("m")
            server.close()
        chunk = sequences_for(plans["reference"], 1)[0][:3].copy()
        chunk[1, 0] = np.nan
        served, _ = plans[backend].forward_stream(chunk[None], {})
        expected, _ = plans["reference"].forward_stream(chunk[None], {})
        assert np.isnan(expected).any()
        assert np.array_equal(served, expected, equal_nan=True)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_take_last_head_final_chunk_equals_offline(self, artifacts,
                                                       backend):
        """Running-output heads: the final chunk's prediction is the
        offline prediction (earlier chunks are prefixes-so-far)."""
        _require(backend)
        server = ModelServer(workers=0)
        try:
            server.load("m", artifacts["lstm_sentiment"], backend=backend)
            plan = server.plan("m")
            assert not plan.per_step_output
            seq = sequences_for(plan, 1)[0]
            state = {}
            for chunk in chunks_of(seq, (5, 4, 3)):
                out, state = plan.forward_stream(chunk[None], state)
            assert np.array_equal(out[0], plan.forward(seq[None])[0])
        finally:
            server.close()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_interleaved_sessions_coalesce_bit_exactly(self, artifacts,
                                                       backend):
        """Distinct chunk sizes, interleaved submits, shared micro-
        batches — every session still reproduces its offline run."""
        _require(backend)
        server = ModelServer(workers=0, max_batch=8)
        try:
            server.load("m", artifacts["gru_speech"], backend=backend)
            plan = server.plan("m")
            seqs = sequences_for(plan, 3)
            sizes = (1, 3, 4)
            sids = [server.open_session("m") for _ in seqs]
            futures = [[] for _ in seqs]
            cursors = [0, 0, 0]
            steps = plan.input_shape[0]
            while any(cursor < steps for cursor in cursors):
                for index, sid in enumerate(sids):
                    if cursors[index] >= steps:
                        continue
                    take = min(sizes[index], steps - cursors[index])
                    chunk = seqs[index][
                        cursors[index]:cursors[index] + take]
                    futures[index].append(
                        server.submit_stream("m", sid, chunk))
                    cursors[index] += take
            server.drain()
            for index, sid in enumerate(sids):
                streamed = np.concatenate(
                    [f.result(timeout=0) for f in futures[index]], axis=0)
                assert np.array_equal(streamed,
                                      offline_output(plan, seqs[index]))
        finally:
            server.close()

    def test_streamed_chunks_stay_native(self, artifacts):
        """A T=4 chunk runs the recurrence natively from carried state
        (the time extent is a run-time argument), and its time-merged
        rows go through the native linear head in the same run; the
        chunks reproduce the offline run."""
        _require("compiled")
        from repro.serve.backends import compiled

        server = ModelServer(workers=0)
        try:
            server.load("m", artifacts["gru_speech"], backend="compiled")
            plan = server.plan("m")
            assert plan.per_step_output
            assert any(isinstance(kernel, compiled.CodegenSegmentKernel)
                       and kernel.node.kind == "linear"
                       for kernel in plan.compiled.kernels.values())
            assert any(isinstance(kernel, compiled.CodegenSegmentKernel)
                       and any(node.kind == "rnn" for node in kernel.nodes)
                       for kernel in plan.compiled.kernels.values())
            seq = sequences_for(plan, 1)[0]
            state, outs = {}, []
            for chunk in chunks_of(seq, (4, 4, 4)):
                out, state = plan.forward_stream(chunk[None], state)
                outs.append(plan.stream_outputs(out, 1)[0])
            assert np.array_equal(np.concatenate(outs, axis=0),
                                  offline_output(plan, seq))
        finally:
            server.close()

    @pytest.mark.parametrize("name,steps", [
        ("gru_speech", []), ("lstm_lm", ["embedding#1"])])
    def test_recurrence_is_one_native_run(self, artifacts, name, steps):
        """The compile log: the whole recurrence, the time merge and the
        head are one native run; only the embedding gather stays a
        Python step."""
        _require("compiled")
        server = ModelServer(workers=0)
        try:
            server.load("m", artifacts[name], backend="compiled")
            log = server.plan("m").compiled.pass_log
        finally:
            server.close()
        runs = [line for line in log if line.startswith("codegen run")]
        python = [line.split(": ")[1].split() for line in log
                  if line.startswith("python steps")]
        assert len(runs) == 1 and "rnn#" in runs[0]
        assert "merge_time#" in runs[0] and "linear#" in runs[0]
        assert python == ([steps] if steps else [])

    def test_states_portable_across_backends(self, artifacts):
        """Node ids are deterministic, so a state captured on one
        backend resumes bit-exactly on another (wire round trip too)."""
        _require("fused")
        ref = ModelServer(workers=0)
        fused = ModelServer(workers=0)
        try:
            ref.load("m", artifacts["lstm_lm"], backend="reference")
            fused.load("m", artifacts["lstm_lm"], backend="fused")
            plan_a, plan_b = ref.plan("m"), fused.plan("m")
            seq = sequences_for(plan_a, 1)[0]
            out_a, state = plan_a.forward_stream(seq[None, :6], {})
            moved = {int(k): v for k, v in state_from_wire(
                state_to_wire(state)).items()}
            out_b, _ = plan_b.forward_stream(seq[None, 6:], moved)
            offline = offline_output(plan_a, seq)
            got = np.concatenate([plan_a.stream_outputs(out_a, 1)[0],
                                  plan_b.stream_outputs(out_b, 1)[0]],
                                 axis=0)
            assert np.array_equal(got, offline)
        finally:
            ref.close()
            fused.close()

    @pytest.mark.parametrize("backend", ("fused", "compiled"))
    def test_ragged_stream_scratch_stays_bounded(self, artifacts, backend):
        """Chunk lengths 1..40 at batch 3 are 40 run-input shapes, more
        than a context keeps: scratch stays within SCRATCH_SHAPES pools
        of the largest shape, and a second pass over shapes whose pools
        (and bound pointer tables) were evicted still reproduces the
        one-shot run bit for bit."""
        _require(backend)
        from repro.serve.backends.base import SCRATCH_SHAPES

        sizes = list(range(1, 41))
        assert len(sizes) > SCRATCH_SHAPES
        server = ModelServer(workers=0)
        try:
            server.load("offline", artifacts["gru_speech"], backend=backend)
            server.load("m", artifacts["gru_speech"], backend=backend)
            offline_plan, plan = server.plan("offline"), server.plan("m")
            rng = np.random.default_rng(3)
            seq = rng.normal(size=(3, 2 * sum(sizes))
                             + plan.input_shape[1:]).astype(np.float32)
            expected, _ = offline_plan.forward_stream(seq, {})
            ctx = plan.compiled.ctx
            before = ctx.scratch_bytes()
            plan.forward_stream(seq[:, :sizes[-1]], {})
            largest = ctx.scratch_bytes() - before
            state, outs, cursor = {}, [], 0
            for index, size in enumerate(sizes + sizes):
                out, state = plan.forward_stream(
                    seq[:, cursor:cursor + size], state)
                outs.append(plan.stream_outputs(out, 3))
                cursor += size
                if index == 0:
                    first = [weakref.ref(buffer)
                             for buffer in ctx._pool.values()]
                if index == len(sizes) - 1:
                    # The first shape's pool and every pointer table
                    # into it are gone: nothing keeps its buffers alive.
                    assert first and all(ref() is None for ref in first)
                assert len(ctx._shapes) <= SCRATCH_SHAPES
                assert ctx.scratch_bytes() <= SCRATCH_SHAPES * largest
            assert len(ctx._shapes) == SCRATCH_SHAPES
            assert np.array_equal(np.concatenate(outs, axis=1),
                                  plan.stream_outputs(expected, 3))
        finally:
            server.close()


    def test_ragged_stream_verified_shapes_stay_bounded(self, artifacts):
        """Chunk lengths 1..40 are 40 stream shapes: the runtime oracle's
        verified set keeps at most SCRATCH_SHAPES of them, an evicted
        shape is verified again on its next use, and the chunks still
        equal the offline run bit for bit."""
        _require("fused")
        from repro.serve.backends.base import SCRATCH_SHAPES

        sizes = list(range(1, 41)) + [1]
        server = ModelServer(workers=0)
        try:
            server.load("offline", artifacts["gru_speech"])
            server.load("m", artifacts["gru_speech"], backend="fused")
            offline_plan, plan = server.plan("offline"), server.plan("m")
            compiled = plan.compiled
            checks = []
            factory = compiled.runtime_oracle_factory
            compiled.runtime_oracle_factory = \
                lambda: checks.append(1) or factory()
            rng = np.random.default_rng(4)
            seq = rng.normal(size=(2, sum(sizes))
                             + plan.input_shape[1:]).astype(np.float32)
            expected, _ = offline_plan.forward_stream(seq, {})
            state, outs, cursor = {}, [], 0
            for size in sizes:
                out, state = plan.forward_stream(
                    seq[:, cursor:cursor + size], state)
                outs.append(plan.stream_outputs(out, 2))
                cursor += size
                assert len(compiled._verified_stream_shapes) \
                    <= SCRATCH_SHAPES
            # 40 first uses, plus shape (2, 1) again after its eviction.
            assert len(checks) == 41
            assert np.array_equal(np.concatenate(outs, axis=1),
                                  plan.stream_outputs(expected, 2))
        finally:
            server.close()


# ----------------------------------------------------------------------
# Server-level session lifecycle: eviction, expiry, typed errors
# ----------------------------------------------------------------------
class TestServerSessions:
    def test_open_requires_rnn_plan(self, artifacts, deployed_mlp):
        server = ModelServer(workers=0)
        try:
            server.add("mlp", deployed_mlp)
            with pytest.raises(ServingError) as info:
                server.open_session("mlp")
            assert info.value.code == "not-streamable"
        finally:
            server.close()

    def test_submit_to_unknown_session_is_typed(self, artifacts):
        server = ModelServer(workers=0)
        try:
            server.load("m", artifacts["gru_speech"])
            future = server.submit_stream(
                "m", "ghost", np.zeros((1, 13), dtype=np.float32))
            with pytest.raises(SessionError) as info:
                future.result(timeout=0)
            assert info.value.code == "unknown-session"
        finally:
            server.close()

    def test_ttl_expiry_fails_late_chunks(self, artifacts):
        clock = ManualClock()
        server = ModelServer(workers=0, clock=clock, session_ttl_s=30.0)
        try:
            server.load("m", artifacts["gru_speech"])
            plan = server.plan("m")
            seq = sequences_for(plan, 1)[0]
            sid = server.open_session("m")
            first = server.submit_stream("m", sid, seq[:6])
            server.drain()
            first.result(timeout=0)
            clock.advance(31.0)     # idle past the lease
            late = server.submit_stream("m", sid, seq[6:])
            server.drain()
            with pytest.raises(SessionError) as info:
                late.result(timeout=0)
            assert info.value.code == "session-expired"
            assert server.stats()["m"].active_sessions == 0
        finally:
            server.close()

    def test_byte_budget_evicts_lru_session(self, artifacts):
        server = ModelServer(workers=0, session_mb=1e-3)  # ~1 KB budget
        try:
            server.load("m", artifacts["gru_speech"])
            plan = server.plan("m")
            seq = sequences_for(plan, 1)[0]
            first = server.open_session("m")
            queued = server.submit_stream("m", first, seq[:3])
            # Each gru_speech state is 2 layers x 24 floats = 192 B x 2
            # states... open sessions until `first` is pushed out.
            others = [server.open_session("m") for _ in range(8)]
            assert first not in server.export_sessions("m")
            server.drain()
            with pytest.raises(SessionError) as info:
                queued.result(timeout=0)
            assert info.value.code == "session-evicted"
            stats = server.stats()["m"]
            assert stats.active_sessions == len(
                server.export_sessions("m"))
            assert stats.session_bytes > 0
            for sid in others:
                if sid in server.export_sessions("m"):
                    server.close_session("m", sid)
        finally:
            server.close()

    def test_close_returns_served_chunk_count(self, artifacts):
        server = ModelServer(workers=0)
        try:
            server.load("m", artifacts["gru_speech"])
            plan = server.plan("m")
            seq = sequences_for(plan, 1)[0]
            sid = server.open_session("m")
            for chunk in chunks_of(seq, (4, 4, 4)):
                server.submit_stream("m", sid, chunk)
            server.drain()
            assert server.close_session("m", sid) == 3
            with pytest.raises(SessionError):
                server.close_session("m", sid)
        finally:
            server.close()

    def test_unload_fails_open_sessions(self, artifacts):
        server = ModelServer(workers=0)
        try:
            server.load("m", artifacts["gru_speech"])
            sid = server.open_session("m")
            server.unload("m")
            future_error = None
            try:
                server.submit_stream(
                    "m", sid, np.zeros((1, 13), dtype=np.float32))
            except ServingError as error:
                future_error = error
            assert future_error is not None
        finally:
            server.close()


# ----------------------------------------------------------------------
# Satellite: streaming bypasses the response cache and dedup
# ----------------------------------------------------------------------
class TestCacheBypass:
    def test_stream_chunks_never_served_from_cache(self, artifacts):
        server = ModelServer(workers=0, cache_mb=8)
        try:
            server.load("m", artifacts["gru_speech"])
            plan = server.plan("m")
            seq = sequences_for(plan, 1)[0]
            # Same *payload bytes* submitted twice in one session: the
            # answers must differ (state advanced), so a cache hit would
            # be a correctness bug, not a missed optimization.
            sid = server.open_session("m")
            first = server.submit_stream("m", sid, seq[:4])
            server.drain()
            second = server.submit_stream("m", sid, seq[:4])
            server.drain()
            a, b = first.result(timeout=0), second.result(timeout=0)
            assert not np.array_equal(a, b)
            stats = server.stats()["m"]
            assert stats.cache_hits == 0
            assert stats.dedup_coalesced == 0
            # The cache itself still works for stateless traffic on the
            # same server — streaming is excluded, not the whole model.
            for _ in range(2):
                server.submit("m", seq)
                server.drain()
            assert server.stats()["m"].cache_hits == 1
            # ... and the stateless hits did not corrupt the session.
            third = server.submit_stream("m", sid, seq[4:])
            server.drain()
            streamed = np.concatenate(
                [a, b[:0], third.result(timeout=0)], axis=0)
            del streamed  # equality is covered by TestChunkedBitExact
        finally:
            server.close()


# ----------------------------------------------------------------------
# Satellite: stats fields, wire shape, cluster merge
# ----------------------------------------------------------------------
class TestSessionStats:
    def test_server_reports_session_gauges(self, artifacts):
        server = ModelServer(workers=0)
        try:
            server.load("m", artifacts["gru_speech"])
            plan = server.plan("m")
            seq = sequences_for(plan, 1)[0]
            sids = [server.open_session("m") for _ in range(3)]
            for sid in sids:
                server.submit_stream("m", sid, seq[:6])
            server.drain()
            stats = server.stats()["m"]
            assert stats.active_sessions == 3
            assert stats.session_bytes > 0
            assert stats.stream_chunks == 3
            assert stats.requests == 0      # stateless counter untouched
        finally:
            server.close()

    def test_wire_round_trip_and_merge(self):
        base = dict(model="m", backend="fused", max_batch=8, requests=4,
                    batches=2, errors=0, wall_seconds=1.0,
                    latencies_ms=[1.0], fpga_ms_total=0.5, queue_depth=0,
                    in_flight=0)
        left = ModelStats(**base, active_sessions=2, session_bytes=384,
                          stream_chunks=7)
        right = ModelStats(**base, active_sessions=1, session_bytes=192,
                           stream_chunks=3)
        wired = ModelStats.from_wire(left.to_wire())
        assert wired.active_sessions == 2
        assert wired.session_bytes == 384
        assert wired.stream_chunks == 7
        merged = left.merge(right)
        assert merged.active_sessions == 3
        assert merged.session_bytes == 576
        assert merged.stream_chunks == 10


# ----------------------------------------------------------------------
# Wire protocol: stream ops over JSON lines
# ----------------------------------------------------------------------
def run_protocol(server, lines):
    out = io.StringIO()
    served = serve_protocol(server, lines, out)
    return served, [json.loads(line)
                    for line in out.getvalue().splitlines()]


class TestProtocolStreamOps:
    def test_stream_session_round_trip(self, artifacts):
        server = ModelServer(workers=0)
        try:
            server.load("m", artifacts["gru_speech"])
            plan = server.plan("m")
            seq = sequences_for(plan, 1)[0]
            lines = [json.dumps({"op": "stream_open", "model": "m",
                                 "session": "s1", "id": 1})]
            lines += [json.dumps({"op": "stream_submit", "model": "m",
                                  "session": "s1", "id": 2 + index,
                                  "input": chunk.tolist()})
                      for index, chunk in enumerate(chunks_of(seq,
                                                              (4, 4, 4)))]
            served, responses = run_protocol(server, lines)
            # Close in a second protocol pass: session control answers
            # synchronously, so closing in the same pass would race the
            # not-yet-drained chunks by design.
            _, closing = run_protocol(
                server, [json.dumps({"op": "stream_close", "model": "m",
                                     "session": "s1", "id": 9})])
            by_id = {r.get("id"): r for r in responses + closing}
            assert by_id[1]["session"] == "s1"
            assert by_id[9]["chunks"] == 3
            streamed = np.concatenate(
                [np.asarray(by_id[i]["output"], dtype=np.float32)
                 for i in (2, 3, 4)], axis=0)
            assert np.array_equal(streamed, offline_output(plan, seq))
            # Stream responses carry no cache/coalesce fields: chunk
            # futures have no request record by construction.
            assert "cached" not in by_id[2]
        finally:
            server.close()

    @pytest.mark.parametrize("line, code", [
        ({"op": "stream_submit", "session": "ghost",
          "input": [[0.0] * 13]}, "unknown-session"),
        ({"op": "session_import", "session": "s", "state": {"0": {}}},
         "bad-request"),
        ({"op": "session_import", "session": "s", "state": [1]},
         "bad-request"),
    ], ids=["unknown-session", "state-missing-h", "state-not-object"])
    def test_bad_session_request_answers_typed(self, artifacts, line, code):
        server = ModelServer(workers=0)
        try:
            server.load("m", artifacts["gru_speech"])
            _, responses = run_protocol(
                server, [json.dumps({**line, "model": "m", "id": 1})])
            assert responses[0]["code"] == code
            assert responses[0]["retryable"] is False
        finally:
            server.close()

    def test_export_import_moves_session_between_servers(self, artifacts):
        source = ModelServer(workers=0)
        target = ModelServer(workers=0)
        try:
            source.load("m", artifacts["gru_speech"])
            target.load("m", artifacts["gru_speech"])
            plan = source.plan("m")
            seq = sequences_for(plan, 1)[0]
            sid = source.open_session("m")
            first = source.submit_stream("m", sid, seq[:6])
            source.drain()
            _, responses = run_protocol(
                source, [json.dumps({"op": "session_export", "model": "m",
                                     "id": 1})])
            snapshot = responses[0]["sessions"][sid]
            run_protocol(
                target, [json.dumps({"op": "session_import", "model": "m",
                                     "session": sid,
                                     "state": snapshot["state"],
                                     "chunks": snapshot["chunks"],
                                     "id": 2})])
            second = target.submit_stream("m", sid, seq[6:])
            target.drain()
            streamed = np.concatenate([first.result(timeout=0),
                                       second.result(timeout=0)], axis=0)
            assert np.array_equal(streamed, offline_output(plan, seq))
            assert target.close_session("m", sid) == 2
        finally:
            source.close()
            target.close()


# ----------------------------------------------------------------------
# Cluster: sticky placement, crash semantics, rolling restart
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def deployed_mlp():
    from repro.api import Pipeline, PipelineConfig
    from tests.conftest import make_mlp
    rng = np.random.default_rng(1007)
    pipeline = Pipeline(PipelineConfig(batch=4), model=make_mlp(7))
    pipeline.calibrate([rng.normal(size=(8, 12)).astype(np.float32)])
    return pipeline.deploy()


def make_stream_cluster(path, *, workers=2, plans=None, clock=None):
    clock = clock or ManualClock()
    plans = plans or {}
    fleet = [LocalWorker(f"w{index}", {"gru": path}, clock=clock,
                         max_batch=8, plan=plans.get(index))
             for index in range(workers)]
    return ClusterRouter(fleet, "least_loaded", clock=clock), fleet, clock


class TestClusterStreaming:
    def test_sessions_stick_and_reproduce_offline(self, artifacts):
        router, fleet, clock = make_stream_cluster(artifacts["gru_speech"])
        try:
            offline_server = ModelServer(workers=0)
            offline_server.load("gru", artifacts["gru_speech"])
            plan = offline_server.plan("gru")
            seqs = sequences_for(plan, 4)
            offline = [offline_output(plan, seq) for seq in seqs]
            offline_server.close()
            sids = [router.open_session("gru") for _ in seqs]
            owners = {sid: worker
                      for worker, owned in router.sessions().items()
                      for sid in owned}
            assert sorted(owners) == sorted(sids)
            futures = [[] for _ in sids]
            for start in range(0, 12, 3):
                for index, sid in enumerate(sids):
                    futures[index].append(router.submit_stream(
                        "gru", sid, seqs[index][start:start + 3]))
            router.drain()
            for index, sid in enumerate(sids):
                streamed = np.concatenate(
                    [f.result(timeout=0) for f in futures[index]], axis=0)
                assert np.array_equal(streamed, offline[index])
                # Every chunk of a session went to one worker.
                assert owners[sid] in router.sessions()
            assert router.close_session("gru", sids[0]) == 4
        finally:
            router.close()

    def test_worker_crash_fails_only_its_sessions(self, artifacts):
        clock = ManualClock()
        # w0's reply stream dies at frame 1: frame 0 answers the first
        # stream_open, so the kill lands on its first chunk response.
        fleet = [LocalWorker("w0", {"gru": artifacts["gru_speech"]},
                             clock=clock,
                             plan=FaultPlan().kill("to_router", 1)),
                 LocalWorker("w1", {"gru": artifacts["gru_speech"]},
                             clock=clock)]
        router = ClusterRouter(fleet, "least_loaded", clock=clock)
        try:
            rng = np.random.default_rng(9)
            chunk = rng.normal(size=(3, 13)).astype(np.float32)
            doomed = router.open_session("gru")           # idle -> w0
            doomed_chunk = router.submit_stream("gru", doomed, chunk)
            # w0 now has a stream request in flight, so least_loaded
            # places the second session on w1.
            safe = router.open_session("gru")
            safe_chunk = router.submit_stream("gru", safe, chunk)
            owners = {sid: worker
                      for worker, owned in router.sessions().items()
                      for sid in owned}
            assert owners == {doomed: "w0", safe: "w1"}
            router.drain()
            with pytest.raises(SessionError) as info:
                doomed_chunk.result(timeout=0)
            assert info.value.code == "session-lost"
            assert safe_chunk.result(timeout=0).shape == (3, 12)
            # The lost session stays distinguishable from one that never
            # existed: typed session-lost, not unknown-session.
            replay = router.submit_stream("gru", doomed, chunk)
            with pytest.raises(SessionError) as info:
                replay.result(timeout=0)
            assert info.value.code == "session-lost"
            ghost = router.submit_stream("gru", "never-opened", chunk)
            with pytest.raises(SessionError) as info:
                ghost.result(timeout=0)
            assert info.value.code == "unknown-session"
        finally:
            router.close()

    def test_rolling_restart_migrates_sessions_bit_exactly(self,
                                                           artifacts):
        router, fleet, clock = make_stream_cluster(artifacts["gru_speech"])
        try:
            offline_server = ModelServer(workers=0)
            offline_server.load("gru", artifacts["gru_speech"])
            plan = offline_server.plan("gru")
            seqs = sequences_for(plan, 4, seed=21)
            offline = [offline_output(plan, seq) for seq in seqs]
            offline_server.close()
            sids = [router.open_session("gru") for _ in seqs]
            futures = [[router.submit_stream("gru", sid, seqs[i][:6])]
                       for i, sid in enumerate(sids)]
            router.drain()
            router.rolling_restart()
            # Every session survived the restart with its state intact.
            survivors = {sid for owned in router.sessions().values()
                         for sid in owned}
            assert survivors == set(sids)
            for i, sid in enumerate(sids):
                futures[i].append(
                    router.submit_stream("gru", sid, seqs[i][6:]))
            router.drain()
            for i, sid in enumerate(sids):
                streamed = np.concatenate(
                    [f.result(timeout=0) for f in futures[i]], axis=0)
                assert np.array_equal(streamed, offline[i])
        finally:
            router.close()

    def test_cluster_stats_sum_sessions_across_workers(self, artifacts):
        router, fleet, clock = make_stream_cluster(artifacts["gru_speech"])
        try:
            sids = [router.open_session("gru") for _ in range(3)]
            rng = np.random.default_rng(2)
            for sid in sids:
                router.submit_stream(
                    "gru", sid, rng.normal(size=(3, 13)).astype(np.float32))
            router.drain()
            merged = router.stats()["gru"]
            assert merged.active_sessions == 3
            assert merged.stream_chunks == 3
            assert merged.session_bytes > 0
        finally:
            router.close()


# ----------------------------------------------------------------------
# Session-state isolation: every session owns its rows
# ----------------------------------------------------------------------
def _stored_rows(server, model="m"):
    """Every row array the live sessions of ``model`` hold."""
    return [row for live in server._models[model].sessions.entries()
            for entry in live.state.values()
            for key in ("h", "c") for row in entry.get(key) or ()]


def _pooled_scratch(plan):
    ctx = plan.compiled.ctx
    return [buffer for pool, _ in ctx._shapes.values()
            for buffer in pool.values()] if ctx is not None else []


def _assert_rows_isolated(server, plan, returned):
    """No stored row views another array: it owns its memory, shares
    none with another session's row, with pooled scratch or with what
    the kernels returned, and ``session_bytes`` is what the rows hold."""
    rows = _stored_rows(server)
    assert all(row.base is None and row.dtype == np.float32
               for row in rows)
    for index, row in enumerate(rows):
        for other in rows[index + 1:] + _pooled_scratch(plan) + returned:
            assert not np.shares_memory(row, other)
    assert server.stats()["m"].session_bytes == \
        sum(row.nbytes for row in rows)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("name", RNN_MODELS)
def test_sixteen_sessions_own_their_state(artifacts, backend, name,
                                          monkeypatch):
    """16 sessions fed ragged chunks in shared micro-batches; one is
    exported and re-imported mid-stream, and a 17th session opened under
    a 16-session byte budget evicts the idle one. Every session's
    outputs equal its offline run (the evicted one's up to where it
    stopped), and no stored row shares memory with anything."""
    _require(backend)
    per_session = state_nbytes(
        fresh_state(ExecutionPlan.load(artifacts[name]).graph))
    server = ModelServer(workers=0, max_batch=16, clock=ManualClock(),
                         session_mb=16 * per_session / 2 ** 20)
    try:
        server.load("m", artifacts[name], backend=backend)
        plan = server.plan("m")
        assert plan.per_step_output
        returned = []
        run_stateful = plan.compiled.run_stateful

        def capturing(batch, state):
            outputs, new_state = run_stateful(batch, state)
            returned.append(outputs)
            returned.extend(row for entry in new_state.values()
                            for key in ("h", "c")
                            for row in entry.get(key) or ())
            return outputs, new_state

        monkeypatch.setattr(plan.compiled, "run_stateful", capturing)
        rng = np.random.default_rng(21)
        seqs = sequences_for(plan, 17, seed=9)
        steps = plan.input_shape[0]
        chunks = []
        for seq in seqs:
            sizes = []
            while sum(sizes) < steps:
                sizes.append(min(int(rng.integers(1, 4)),
                                 steps - sum(sizes)))
            chunks.append(chunks_of(seq, sizes))
        sids = [server.open_session("m") for _ in range(16)]
        outputs = [[] for _ in seqs]
        for rounds in range(steps + 3):
            if rounds == 2:
                # Mid-stream migration of session 1 onto the same id.
                snapshot = server.export_sessions("m")[sids[1]]
                server.close_session("m", sids[1])
                server.import_session("m", sids[1], snapshot["state"],
                                      snapshot["chunks"])
            if rounds == 3:
                # Session 0 has been idle since round 0: it is evicted.
                sids.append(server.open_session("m"))
                assert len(server._models["m"].sessions) == 16
                late = server.submit_stream("m", sids[0], chunks[0][1])
                assert isinstance(late.exception(timeout=0), SessionError)
            futures = []
            for index, sid in enumerate(sids):
                first = 3 if index == 16 else 0
                turn = rounds - first
                if (index == 0 and rounds) or turn < 0 \
                        or turn >= len(chunks[index]):
                    continue
                futures.append((index, server.submit_stream(
                    "m", sid, chunks[index][turn])))
            server.drain()
            for index, future in futures:
                outputs[index].append(future.result(timeout=0))
            _assert_rows_isolated(server, plan, returned)
            returned.clear()
        for index, seq in enumerate(seqs):
            expected = offline_output(plan, seq)
            served = np.concatenate(outputs[index])
            if index == 0:
                expected = expected[:len(served)]
            assert np.array_equal(served, expected), index
    finally:
        server.close()


# ----------------------------------------------------------------------
# State batching helpers keep per-session layout
# ----------------------------------------------------------------------
class TestStateBatching:
    def test_stack_unstack_round_trip(self):
        rng = np.random.default_rng(0)
        states = []
        for _ in range(3):
            states.append({
                1: {"h": [rng.normal(size=(8,)).astype(np.float32)
                          for _ in range(2)],
                    "c": [rng.normal(size=(8,)).astype(np.float32)
                          for _ in range(2)]},
            })
        stacked = stack_states(states)
        assert stacked[1]["h"][0].shape == (3, 8)
        for index, original in enumerate(states):
            back = unstack_state(stacked, index)
            for layer in range(2):
                assert np.array_equal(back[1]["h"][layer],
                                      original[1]["h"][layer])
                assert np.array_equal(back[1]["c"][layer],
                                      original[1]["c"][layer])


# ----------------------------------------------------------------------
# Meta: determinism — nothing in this file sleeps
# ----------------------------------------------------------------------
class TestNoSleeps:
    def test_no_time_sleep_in_this_file(self):
        source = pathlib.Path(__file__).read_text()
        assert not re.search(r"time\.sleep", source.replace(
            "time_dot_sleep", ""))
