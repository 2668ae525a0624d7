"""One contract, four front ends: ``ModelServer``, ``ClusterRouter``,
``PipelineEngine`` and ``PipelineCluster`` all implement
:class:`repro.serve.frontend.Server`.

Every test runs against each front end, built in process with a manual
clock (no sockets, threads or sleeps). Results must be bit-exact against
``Deployment.predict`` on the same batch, errors must carry the same wire
``code``, ``drain()`` and ``close()`` mean one thing, ``stats()`` has one
shape, and ``serve_protocol`` answers every op with a reply line or a
typed error line.
"""

import io
import json

import numpy as np
import pytest

from repro.api import Pipeline, PipelineConfig
from repro.errors import ReproError, ServingError
from repro.serve import (
    ClusterRouter,
    LocalWorker,
    ModelServer,
    ModelStats,
    Server,
)
from repro.serve.cli import _error_fields, serve_protocol
from repro.serve.partition import (
    PipelineEngine,
    auto_cuts,
    local_pipeline_cluster,
    split_artifact,
)
from tests.conftest import make_mlp

MODEL = "mlp"
BATCH = 4
FRONT_ENDS = ("server", "cluster", "pipeline", "pipeline_cluster")
SESSION_OPS = ("stream_open", "stream_submit", "stream_close",
               "session_export", "session_import")


class ManualClock:
    """A clock tests advance explicitly; reading it never moves it."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


@pytest.fixture(scope="module")
def deployment():
    """A small MLP (input (12,), 3 logits) that splits into two stages."""
    rng = np.random.default_rng(1007)
    pipeline = Pipeline(PipelineConfig(batch=BATCH), model=make_mlp(7))
    pipeline.calibrate([rng.normal(size=(8, 12)).astype(np.float32)])
    return pipeline.deploy()


def build(kind, deployment):
    clock = ManualClock()
    if kind == "server":
        server = ModelServer(workers=0, max_batch=BATCH, clock=clock)
        server.add(MODEL, deployment)
        return server
    if kind == "cluster":
        return deployment.cluster(MODEL, workers=1, clock=clock)
    if kind == "pipeline":
        return PipelineEngine.from_artifact(
            deployment.artifact, stages=2, name=MODEL, workers=0,
            max_batch=BATCH, clock=clock)
    partition = split_artifact(deployment.artifact,
                               auto_cuts(deployment.artifact))
    return local_pipeline_cluster(partition, name=MODEL, max_batch=BATCH,
                                  clock=clock)


@pytest.fixture(params=FRONT_ENDS)
def front_end(request, deployment):
    server = build(request.param, deployment)
    yield server
    server.close(drain=False)


def payloads(count, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(12,)).astype(np.float32)
            for _ in range(count)]


def wire_code(error) -> str:
    return _error_fields(error)["code"]


def run_protocol(server, messages):
    """Feed JSON-lines requests through ``serve_protocol``; returns the
    parsed response lines."""
    out = io.StringIO()
    serve_protocol(server, [line if isinstance(line, str)
                            else json.dumps(line) for line in messages],
                   out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
class TestResults:
    def test_declares_the_server_surface(self, front_end):
        assert isinstance(front_end, Server)
        assert front_end.models() == [MODEL]
        assert front_end.aliases() == {}

    def test_submit_and_submit_many_bit_exact(self, front_end, deployment):
        xs = payloads(BATCH)
        futures = [front_end.submit(MODEL, xs[0])]
        futures += front_end.submit_many(MODEL, xs[1:])
        assert front_end.drain() is None
        served = np.stack([future.result(timeout=0) for future in futures])
        assert np.array_equal(served, deployment.predict(np.stack(xs)))

    def test_predict_bit_exact(self, front_end, deployment):
        x = payloads(1, seed=3)[0]
        assert np.array_equal(front_end.predict(MODEL, x),
                              deployment.predict(x))


# ----------------------------------------------------------------------
# Typed errors: one code per failure, whichever front end answers
# ----------------------------------------------------------------------
class TestTypedErrors:
    @pytest.mark.parametrize("op", ["submit", "open_session",
                                    "export_sessions"])
    def test_unknown_model(self, front_end, op):
        call = {"submit": lambda: front_end.submit("nope", payloads(1)[0]),
                "open_session": lambda: front_end.open_session("nope"),
                "export_sessions":
                    lambda: front_end.export_sessions("nope")}[op]
        with pytest.raises(ServingError) as info:
            call()
        assert wire_code(info.value) == "unknown-model"

    def test_bad_shape_fails_the_future_not_the_front_end(self, front_end,
                                                          deployment):
        bad = front_end.submit(MODEL, np.zeros((5, 5), dtype=np.float32))
        x = payloads(1)[0]
        good = front_end.submit(MODEL, x)
        front_end.drain()
        error = bad.exception(timeout=0)
        assert isinstance(error, ReproError)
        assert wire_code(error) == "bad-request"
        assert np.array_equal(good.result(timeout=0), deployment.predict(x))

    @pytest.mark.parametrize("kind", ["pipeline", "pipeline_cluster"])
    def test_pipelines_answer_not_streamable(self, kind, deployment):
        with build(kind, deployment) as server:
            for call in (lambda: server.open_session(MODEL),
                         lambda: server.submit_stream(MODEL, "s", None),
                         lambda: server.close_session(MODEL, "s"),
                         lambda: server.export_sessions(MODEL),
                         lambda: server.import_session(MODEL, "s", {})):
                with pytest.raises(ServingError) as info:
                    call()
                assert wire_code(info.value) == "not-streamable"

    def test_closed_front_end_raises_on_submit(self, front_end):
        front_end.close()
        with pytest.raises(ServingError) as info:
            front_end.submit(MODEL, payloads(1)[0])
        assert wire_code(info.value) == "serving-error"


# ----------------------------------------------------------------------
# drain() and close()
# ----------------------------------------------------------------------
class TestDrainAndClose:
    def test_drain_returns_none_with_every_future_resolved(self,
                                                           front_end):
        futures = front_end.submit_many(MODEL, payloads(BATCH + 2))
        assert front_end.drain() is None
        assert all(future.done() for future in futures)
        assert all(future.exception(timeout=0) is None
                   for future in futures)

    def test_close_serves_pending_and_is_idempotent(self, front_end):
        futures = front_end.submit_many(MODEL, payloads(3))
        front_end.close()
        front_end.close()
        assert all(future.exception(timeout=0) is None
                   for future in futures)

    def test_close_without_drain_fails_pending_typed(self, front_end):
        futures = front_end.submit_many(MODEL, payloads(3))
        front_end.close(drain=False)
        for future in futures:
            assert isinstance(future.exception(timeout=0), ServingError)

    @pytest.mark.parametrize("kind", FRONT_ENDS)
    def test_context_manager_closes(self, kind, deployment):
        with build(kind, deployment) as server:
            futures = server.submit_many(MODEL, payloads(2))
        assert all(future.exception(timeout=0) is None
                   for future in futures)
        with pytest.raises(ServingError):
            server.submit(MODEL, payloads(1)[0])


# ----------------------------------------------------------------------
# stats()
# ----------------------------------------------------------------------
class TestStats:
    def test_stats_shape(self, front_end):
        front_end.submit_many(MODEL, payloads(BATCH))
        front_end.drain()
        stats = front_end.stats()
        assert stats[MODEL].requests == BATCH
        assert stats[MODEL].model == MODEL
        for row in stats.values():
            assert isinstance(row, ModelStats)
            wire = json.loads(json.dumps(row.to_wire()))
            assert ModelStats.from_wire(wire) == row
        assert MODEL in front_end.format_stats()


class TestStatsWire:
    @pytest.mark.parametrize("wire", [
        {"requests": "x"}, {"latencies_ms": None},
        {"requests": float("inf")}, [1, 2], "stats", None])
    def test_malformed_stats_raise_bad_response(self, wire):
        with pytest.raises(ServingError) as info:
            ModelStats.from_wire(wire)
        assert info.value.code == "bad-response"

    def test_absent_fields_take_their_defaults(self):
        assert ModelStats.from_wire({}) == ModelStats()
        assert ModelStats.from_wire({"requests": 3, "extra": 1}) \
            == ModelStats(requests=3)

    def test_worker_with_malformed_stats_is_skipped(self, deployment):
        clock = ManualClock()
        fleet = [LocalWorker(f"w{index}", {MODEL: deployment}, clock=clock,
                             max_batch=BATCH) for index in range(2)]
        with ClusterRouter(fleet, clock=clock) as router:
            router.submit_many(MODEL, payloads(BATCH))
            router.drain()

            class Garbled:
                def to_wire(self):
                    return {"requests": "x"}

            fleet[0]._server.stats = lambda: {f"{MODEL}@v1": Garbled()}
            assert set(router.worker_stats()) == {"w1"}
            assert router.stats()[MODEL].requests \
                == router.worker_stats()["w1"][MODEL].requests


# ----------------------------------------------------------------------
# serve_protocol: every op answers, nothing kills the loop
# ----------------------------------------------------------------------
def session_line(op, request_id=1):
    line = {"op": op, "model": MODEL, "session": "s1", "id": request_id}
    if op == "stream_submit":
        line["input"] = np.zeros((2, 12)).tolist()
    if op == "session_import":
        line["state"] = {"0": {}}               # malformed state
    return line


def assert_typed(response):
    assert isinstance(response, dict)
    if "error" in response:
        assert isinstance(response["code"], str) and response["code"]


class TestProtocol:
    @pytest.mark.parametrize("op", SESSION_OPS)
    def test_session_op_answers_a_typed_line(self, front_end, op):
        responses = run_protocol(front_end, [session_line(op)])
        assert [response.get("id") for response in responses] == [1]
        assert_typed(responses[0])

    def test_every_op_answers_exactly_once(self, front_end, deployment):
        x = payloads(1)[0]
        lines = [
            {"id": 0, "model": MODEL, "input": x.tolist()},
            {"id": 1, "model": MODEL, "input": [[0.0] * 5] * 5},
            {"id": 2, "model": "nope", "input": x.tolist()},
            {"id": 3, "op": "stats"},
            {"id": 4, "op": "stats", "detail": True},
            {"id": 5, "op": "bogus"},
            {"id": 6, "model": MODEL},
            *[session_line(op, request_id=7 + index)
              for index, op in enumerate(SESSION_OPS)],
            "not json",
        ]
        responses = run_protocol(front_end, lines)
        for response in responses:
            assert_typed(response)
        by_id = {}
        for response in responses:
            by_id.setdefault(response.get("id"), []).append(response)
        assert sorted(by_id, key=str) == sorted(
            [None, *range(7 + len(SESSION_OPS))], key=str)
        assert all(len(answers) == 1 for answers in by_id.values())
        assert np.array_equal(np.asarray(by_id[0][0]["output"],
                                         dtype=np.float32),
                              deployment.predict(x))
        assert by_id[1][0]["code"] == "bad-request"
        assert by_id[2][0]["code"] == "unknown-model"
        assert MODEL in by_id[3][0]["models"]
        assert ModelStats.from_wire(by_id[4][0]["models"][MODEL]).model \
            == MODEL
        assert by_id[5][0]["code"] == "unknown-op"
        assert by_id[6][0]["code"] == "bad-request"
        assert by_id[None][0]["code"] == "bad-json"
