"""``InferenceFuture`` semantics and the per-request cost of serving.

The future's contract, pinned without sleeps: timeouts (``None`` blocks,
``<= 0`` never blocks, a positive one raises ``TimeoutError``), many
waiters on one future, exactly-once resolution, callbacks that run
exactly once however they race resolution, ``repr`` states and
``gather``. Around it: a served request costs exactly one future, every
rejected submit still returns a failed future with a typed error, and a
served request is freed by reference counting alone (its record does
not point back at the future that holds it).
"""

import gc
import pathlib
import re
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.api import Pipeline, PipelineConfig
from repro.errors import ConfigurationError, ServingError, SessionError
from repro.serve import (
    ModelServer,
    PipelineEngine,
    build_artifact,
    gather,
    post_training_quantize,
)
from repro.serve import server as server_module
from repro.serve.cli import build_model
from repro.serve.futures import InferenceFuture
from tests.conftest import make_mlp

#: Generous bound on every cross-thread wait; a correct run never gets
#: near it.
JOIN_S = 10.0


def resolved(value=None, model=None) -> InferenceFuture:
    future = InferenceFuture(model)
    future._resolve(np.arange(3.0) if value is None else value)
    return future


def failed(error=None) -> InferenceFuture:
    future = InferenceFuture()
    future._fail(error or ServingError("boom"))
    return future


def run_thread(target) -> threading.Thread:
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


# ----------------------------------------------------------------------
# Timeouts
# ----------------------------------------------------------------------
class TestTimeouts:
    @pytest.mark.parametrize("timeout", [0, 0.0, -1, -0.5])
    def test_pending_never_blocks_at_non_positive_timeout(self, timeout):
        future = InferenceFuture("m")
        with pytest.raises(TimeoutError, match="model 'm'"):
            future.result(timeout)
        with pytest.raises(TimeoutError):
            future.exception(timeout)
        assert not future.done()

    def test_pending_positive_timeout_raises(self):
        future = InferenceFuture()
        with pytest.raises(TimeoutError):
            future.result(0.01)
        with pytest.raises(TimeoutError):
            future.exception(0.01)
        # A timed-out wait leaves the future resolvable and waitable.
        future._resolve(np.ones(2))
        assert np.array_equal(future.result(0), np.ones(2))

    @pytest.mark.parametrize("timeout", [None, 0, -1, 5.0])
    def test_settled_returns_at_any_timeout(self, timeout):
        value = np.arange(4.0)
        future = resolved(value)
        assert future.result(timeout) is value
        assert future.exception(timeout) is None
        error = ServingError("typed")
        bad = failed(error)
        with pytest.raises(ServingError) as info:
            bad.result(timeout)
        assert info.value is error
        assert bad.exception(timeout) is error

    @pytest.mark.parametrize("method", ["result", "exception"])
    def test_none_timeout_blocks_until_resolved(self, method):
        future = InferenceFuture()
        box = []
        entered = threading.Event()

        def wait():
            entered.set()
            box.append(getattr(future, method)(None))

        thread = run_thread(wait)
        assert entered.wait(JOIN_S)
        # Unresolved, the waiter cannot have returned (a non-blocking
        # wait would have raised TimeoutError and left no result).
        assert box == []
        value = np.zeros(2)
        future._resolve(value)
        thread.join(JOIN_S)
        assert not thread.is_alive()
        assert box == [value if method == "result" else None]


# ----------------------------------------------------------------------
# Waiters, resolution, callbacks
# ----------------------------------------------------------------------
class TestWaitersAndResolution:
    def test_eight_waiters_get_the_same_object(self):
        future = InferenceFuture()
        ready = threading.Barrier(9)
        results = [None] * 8

        def waiter(index):
            def wait():
                ready.wait(JOIN_S)
                results[index] = future.result(JOIN_S)
            return wait

        threads = [run_thread(waiter(index)) for index in range(8)]
        ready.wait(JOIN_S)
        value = np.arange(5.0)
        future._resolve(value)
        for thread in threads:
            thread.join(JOIN_S)
            assert not thread.is_alive()
        assert all(result is value for result in results)

    def test_eight_waiters_all_see_the_failure(self):
        future = InferenceFuture()
        ready = threading.Barrier(9)
        errors = [None] * 8

        def waiter(index):
            def wait():
                ready.wait(JOIN_S)
                errors[index] = future.exception(JOIN_S)
            return wait

        threads = [run_thread(waiter(index)) for index in range(8)]
        ready.wait(JOIN_S)
        error = ServingError("shared")
        future._fail(error)
        for thread in threads:
            thread.join(JOIN_S)
        assert all(seen is error for seen in errors)

    @pytest.mark.parametrize("second", ["resolve", "fail"])
    @pytest.mark.parametrize("first", ["resolve", "fail"])
    def test_second_resolution_raises_and_first_stands(self, first,
                                                       second):
        future = InferenceFuture()
        value, error = np.ones(1), ServingError("first")
        if first == "resolve":
            future._resolve(value)
        else:
            future._fail(error)
        with pytest.raises(ServingError, match="resolved twice"):
            if second == "resolve":
                future._resolve(np.zeros(1))
            else:
                future._fail(ServingError("second"))
        if first == "resolve":
            assert future.result(0) is value
        else:
            assert future.exception(0) is error

    def test_callbacks_run_once_in_order_after_resolution(self):
        future = InferenceFuture()
        calls = []
        future.add_done_callback(lambda f: calls.append(("a", f)))
        future.add_done_callback(lambda f: calls.append(("b", f)))
        assert calls == []
        future._resolve(np.ones(1))
        assert calls == [("a", future), ("b", future)]

    def test_callback_added_after_resolution_runs_immediately(self):
        for future in (resolved(), failed()):
            calls = []
            future.add_done_callback(calls.append)
            assert calls == [future]

    def test_callback_sees_the_settled_future(self):
        future = InferenceFuture()
        seen = []
        future.add_done_callback(
            lambda f: seen.append((f.done(), f.exception(0))))
        error = ServingError("x")
        future._fail(error)
        assert seen == [(True, error)]

    @pytest.mark.parametrize("settle", ["resolve", "fail"])
    def test_callback_racing_resolution_runs_exactly_once(self, settle):
        # A short switch interval makes the interpreter hand over between
        # the registration's check and its append as often as it can.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(300):
                future = InferenceFuture()
                calls = []
                start = threading.Barrier(2)

                def register():
                    start.wait(JOIN_S)
                    future.add_done_callback(lambda f: calls.append("x"))
                    future.add_done_callback(lambda f: calls.append("y"))

                thread = run_thread(register)
                start.wait(JOIN_S)
                if settle == "resolve":
                    future._resolve(np.ones(1))
                else:
                    future._fail(ServingError("raced"))
                thread.join(JOIN_S)
                assert not thread.is_alive()
                assert sorted(calls) == ["x", "y"]
                assert calls.index("x") < calls.index("y")
        finally:
            sys.setswitchinterval(interval)

    def test_resolution_cannot_slip_inside_a_registration(self):
        # Widen the race window deterministically: while the callback is
        # being appended, another thread tries to resolve the future.
        # It must wait for the registration to finish (and then run the
        # callback), not swap the callback list out from under it.
        future = InferenceFuture()
        calls = []

        class Stalling(list):
            def append(self, fn):
                resolver.start()
                resolver.join(0.2)      # blocked on the settle lock
                super().append(fn)

        resolver = threading.Thread(
            target=lambda: future._resolve(np.ones(1)), daemon=True)
        future._callbacks = Stalling()
        future.add_done_callback(calls.append)
        resolver.join(JOIN_S)
        assert not resolver.is_alive()
        assert calls == [future]

    def test_many_threads_settle_and_wait_on_shared_futures(self):
        # More threads than cores share the one settle lock: resolvers,
        # callback registrars and waiters over 64 futures. Every future
        # resolves once, every callback runs once, every waiter sees the
        # resolver's object.
        futures = [InferenceFuture() for _ in range(64)]
        values = [np.full(1, float(index)) for index in range(64)]
        calls = [[] for _ in futures]
        seen = [[] for _ in futures]
        start = threading.Barrier(12)

        def resolver(part):
            def run():
                start.wait(JOIN_S)
                for index in range(part, 64, 4):
                    futures[index]._resolve(values[index])
            return run

        def registrar(part):
            def run():
                start.wait(JOIN_S)
                for index in range(part, 64, 4):
                    futures[index].add_done_callback(
                        lambda f, index=index: calls[index].append(f))
            return run

        def waiter(part):
            def run():
                start.wait(JOIN_S)
                for index in range(part, 64, 4):
                    seen[index].append(futures[index].result(JOIN_S))
            return run

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [run_thread(make(part))
                       for make in (resolver, registrar, waiter)
                       for part in range(4)]
            for thread in threads:
                thread.join(JOIN_S)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for index, future in enumerate(futures):
            assert calls[index] == [future]
            assert len(seen[index]) == 1 and seen[index][0] is values[index]

    def test_done_and_request_accessors(self):
        future = InferenceFuture()
        assert not future.done() and future.request is None
        assert not future.cached and not future.coalesced
        with pytest.raises(ServingError, match="not served"):
            future.latency_ms
        record = type("Record", (), {"latency_ms": 1.5, "cached": True,
                                     "coalesced": False})()
        future._resolve(np.ones(1), record)
        assert future.done() and future.request is record
        assert future.latency_ms == 1.5 and future.cached


class TestReprAndGather:
    def test_repr_states(self):
        assert repr(InferenceFuture()) == "<InferenceFuture pending>"
        assert repr(InferenceFuture("m")) == \
            "<InferenceFuture model='m' pending>"
        assert repr(resolved(model="m")) == \
            "<InferenceFuture model='m' done>"
        assert repr(failed()) == "<InferenceFuture error>"

    def test_gather_returns_results_in_order(self):
        values = [np.full(2, float(index)) for index in range(4)]
        futures = [resolved(value) for value in values]
        gathered = gather(futures, timeout=0)
        assert all(got is want for got, want in zip(gathered, values))
        assert gather([]) == []

    def test_gather_raises_the_first_failure(self):
        first, second = ServingError("first"), ServingError("second")
        futures = [resolved(), failed(first), failed(second)]
        with pytest.raises(ServingError) as info:
            gather(futures, timeout=0)
        assert info.value is first

    def test_gather_times_out_on_a_pending_future(self):
        with pytest.raises(TimeoutError):
            gather([resolved(), InferenceFuture()], timeout=0)


# ----------------------------------------------------------------------
# Per-request cost on a live server
# ----------------------------------------------------------------------
class ManualClock:
    """A clock tests advance explicitly; reading it never moves it."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


@pytest.fixture(scope="module")
def gru_artifact(tmp_path_factory):
    model, sample = build_model("gru_speech", seed=0)
    rng = np.random.default_rng(11)
    results = post_training_quantize(model, [sample(rng, 8)])
    path = tmp_path_factory.mktemp("futures") / "gru_speech.npz"
    build_artifact(model, sample(rng, 4), layer_results=results,
                   name="gru_speech").save(path)
    return str(path)


@pytest.fixture
def count_futures(monkeypatch):
    """Counts ``InferenceFuture`` constructions once started."""
    counter = {"n": 0, "on": False}
    original = InferenceFuture.__init__

    def counting(self, *args, **kwargs):
        if counter["on"]:
            counter["n"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(InferenceFuture, "__init__", counting)
    return counter


def rnn_inputs(plan, count, steps=None, seed=0):
    rng = np.random.default_rng(seed)
    shape = plan.input_shape if steps is None \
        else (steps,) + plan.input_shape[1:]
    return [rng.normal(size=shape).astype(np.float32)
            for _ in range(count)]


class TestOneFuturePerRequest:
    def test_live_server_builds_one_future_per_accepted_request(
            self, gru_artifact, count_futures):
        server = ModelServer(workers=1)
        try:
            server.load("m", gru_artifact)
            plan = server.plan("m")
            sid = server.open_session("m")
            requests = rnn_inputs(plan, 100, seed=1)
            chunks = rnn_inputs(plan, 100, steps=2, seed=2)
            count_futures["on"] = True
            futures = [server.submit("m", x) for x in requests]
            streamed = [server.submit_stream("m", sid, chunk)
                        for chunk in chunks]
            count_futures["on"] = False
            assert count_futures["n"] == 200
            assert all(isinstance(out, np.ndarray)
                       for out in gather(futures + streamed, JOIN_S))
        finally:
            server.close()

    def test_rejected_stream_submits_fail_typed(self, gru_artifact,
                                                count_futures):
        clock = ManualClock()
        server = ModelServer(workers=0, clock=clock, session_ttl_s=10.0)
        try:
            server.load("m", gru_artifact)
            plan = server.plan("m")
            sid = server.open_session("m")
            chunk = rnn_inputs(plan, 1, steps=3)[0]
            count_futures["on"] = True
            bad = server.submit_stream("m", sid, chunk[:, :-1])
            assert isinstance(bad.exception(0), ConfigurationError)
            ghost = server.submit_stream("m", "ghost", chunk)
            assert ghost.exception(0).code == "unknown-session"
            assert count_futures["n"] == 2
            queued = server.submit_stream("m", sid, chunk)
            clock.now += 11.0
            late = server.submit_stream("m", sid, chunk)
            error = late.exception(0)
            assert isinstance(error, SessionError)
            assert error.code == "session-expired"
            # The expired session's queued chunk fails with it.
            assert queued.exception(0) is error
            assert count_futures["n"] == 4
        finally:
            server.close()

    @pytest.mark.parametrize("stream", [False, True])
    @pytest.mark.parametrize("cache_mb", [None, 1.0])
    def test_model_unloaded_mid_submit_fails_typed(
            self, gru_artifact, monkeypatch, count_futures, stream,
            cache_mb):
        server = ModelServer(workers=0, cache_mb=cache_mb)
        try:
            server.load("m", gru_artifact)
            plan = server.plan("m")
            sid = server.open_session("m")
            name = "coerce_chunk" if stream else "coerce_payload"
            coerce = getattr(server_module, name)

            def unloading(plan, x):
                # The model goes away between validation (outside the
                # server lock) and enqueueing (inside it).
                server.unload("m")
                return coerce(plan, x)

            monkeypatch.setattr(server_module, name, unloading)
            count_futures["on"] = True
            if stream:
                future = server.submit_stream(
                    "m", sid, rnn_inputs(plan, 1, steps=2)[0])
            else:
                future = server.submit("m", rnn_inputs(plan, 1)[0])
            assert count_futures["n"] == 1
            error = future.exception(0)
            assert isinstance(error, ServingError)
            assert "unloaded" in str(error)
        finally:
            server.close()


# ----------------------------------------------------------------------
# Concurrent submitters: one lock hold per submit, rows copied back
# ----------------------------------------------------------------------
def test_concurrent_submitters_get_every_answer(gru_artifact):
    """Four client threads against three workers, more threads than this
    suite's hosts have cores, under a short switch interval: every
    request equals its answer alone, every session's chunks equal its
    offline run, and submits that race an unload are served or fail
    typed."""
    server = ModelServer(workers=3, max_batch=8)
    interval = sys.getswitchinterval()
    try:
        server.load("m", gru_artifact)
        server.load("gone", gru_artifact)
        plan = server.plan("m")
        seqs = rnn_inputs(plan, 8, seed=4)
        requests = rnn_inputs(plan, 16, seed=5)
        # Computed before any worker shares the plan.
        offline = [plan.stream_outputs(plan.forward(seq[None]), 1)[0]
                   for seq in seqs]
        alone = [plan.per_request_outputs(plan.forward(x[None]), 1)[0]
                 for x in requests]
        sids = [server.open_session("m") for _ in seqs]
        served, raced = {}, []

        def client(k):
            for step in range(4):
                chunks = [(i, server.submit_stream(
                    "m", sids[i], seqs[i][3 * step:3 * step + 3]))
                    for i in (2 * k, 2 * k + 1)]
                index = 4 * k + step
                request = server.submit("m", requests[index])
                for i, future in chunks:
                    served.setdefault(i, []).append(
                        future.result(timeout=JOIN_S))
                served[("request", index)] = request.result(timeout=JOIN_S)

        def racer():
            for _ in range(200):
                try:
                    raced.append(server.submit("gone", requests[0]))
                except ServingError:        # unknown once unloaded
                    return

        sys.setswitchinterval(1e-5)
        threads = [run_thread(lambda k=k: client(k)) for k in range(4)]
        threads.append(run_thread(racer))
        server.unload("gone")
        for thread in threads:
            thread.join(JOIN_S)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        server.close()
    for i, expected in enumerate(offline):
        assert np.array_equal(np.concatenate(served[i]), expected)
    for index, expected in enumerate(alone):
        assert np.array_equal(served[("request", index)], expected)
    for future in raced:
        error = future.exception(timeout=JOIN_S)
        if error is None:
            assert np.array_equal(future.result(timeout=0), alone[0])
        else:
            assert isinstance(error, ServingError)


# ----------------------------------------------------------------------
# No request <-> future cycle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mlp_deployment():
    rng = np.random.default_rng(1007)
    pipeline = Pipeline(PipelineConfig(batch=4), model=make_mlp(7))
    pipeline.calibrate([rng.normal(size=(8, 12)).astype(np.float32)])
    return pipeline.deploy()


@pytest.fixture
def gc_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def payload(seed=0):
    return np.random.default_rng(seed).normal(size=(12,)).astype(
        np.float32)


class TestNoRequestCycle:
    @pytest.mark.parametrize("cache_mb", [None, 1.0])
    def test_dropped_future_frees_its_request(self, mlp_deployment,
                                              gc_off, cache_mb):
        server = ModelServer(workers=0, cache_mb=cache_mb)
        try:
            server.add("mlp", mlp_deployment)
            future = server.submit("mlp", payload())
            server.drain()
            request = weakref.ref(future.request)
            output = weakref.ref(future.result(0).base)
            assert request() is not None and request().future is None
            del future
            assert request() is None
            assert output() is None
        finally:
            server.close()

    def test_failed_batch_frees_its_request(self, mlp_deployment, gc_off):
        server = ModelServer(workers=0)
        try:
            server.add("mlp", mlp_deployment)
            future = server.submit("mlp", payload())
            entry = server._models["mlp"]
            queued = weakref.ref(entry.batcher._queue[0])
            server.unload("mlp", drain=False)
            assert isinstance(future.exception(0), ServingError)
            assert queued() is None
        finally:
            server.close()

    def test_pipeline_dropped_future_frees_its_request(self, gc_off):
        rng = np.random.default_rng(11)
        artifact = build_artifact(
            make_mlp(7), rng.normal(size=(4, 12)).astype(np.float32),
            name="mlp")
        engine = PipelineEngine.from_artifact(artifact, stages=2,
                                              workers=0, max_batch=4)
        with engine:
            future = engine.submit("mlp", payload())
            engine.drain()
            request = weakref.ref(future.request)
            assert request() is not None
            del future
            assert request() is None


# ----------------------------------------------------------------------
# Meta: determinism — nothing in this file sleeps
# ----------------------------------------------------------------------
def test_no_time_sleep_in_this_file():
    source = pathlib.Path(__file__).read_text()
    assert not re.search(r"\btime\.sleep\b", source)
