"""The serving input contract: checked once, at the plan.

:class:`~repro.serve.plan.ExecutionPlan` is the one place serving input
is checked, and the kernels of every backend trust what it hands them:

- floating input is served as float32, whatever dtype the caller sent;
- token ids lie inside the embedding table they index;
- a carried recurrent state fits the plan's geometry (node ids, layer
  count, ``(n, hidden)`` rows, ``c`` only on an LSTM).

So the same bad input raises the same typed error on every backend, a
bad request fails only its own future, and a malformed imported session
is refused before it can reach a batch.
"""

import io
import json
import warnings

import numpy as np
import pytest

from repro.errors import ConfigurationError, ReproError, ServingError, \
    SessionError, ShapeError
from repro.serve import (
    ClusterRouter,
    ExecutionPlan,
    LocalWorker,
    ModelServer,
    ServeArtifact,
    build_artifact,
    post_training_quantize,
    state_to_wire,
)
from repro.serve import server as server_module
from repro.serve.backends import backend_availability
from repro.serve.cli import build_model, serve_protocol, synthetic_payloads
from repro.serve.streaming import check_state, fresh_state, rnn_state_spec

ALL_BACKENDS = ("reference", "fused", "compiled")

#: Long enough for any batch on a loaded host, short enough that a dead
#: worker thread fails the test instead of hanging the suite.
RESULT_TIMEOUT = 20.0


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


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Saved zoo artifacts: a CNN, a float-input RNN, a token RNN."""
    root = tmp_path_factory.mktemp("input_artifacts")
    saved = {}
    for name in ("resnet_tiny", "gru_speech", "lstm_lm"):
        model, sample = build_model(name, seed=0)
        rng = np.random.default_rng(11)
        results = post_training_quantize(model, [sample(rng, 8)])
        saved[name] = str(root / f"{name}.npz")
        build_artifact(model, sample(rng, 4), layer_results=results,
                       name=name, path=saved[name])
    return saved


def _gru_state(graph, width=None, rows=1, **extra):
    """A carried state for ``graph``'s one GRU node, ``width`` units wide
    (its hidden size by default)."""
    (spec,) = rnn_state_spec(graph)
    shape = (rows, width or spec["hidden"])
    layers = [np.zeros(shape, np.float32) for _ in range(spec["layers"])]
    return {spec["node"]: {"h": layers, **extra}}


def _bad_state(graph, what):
    if what == "one-unit-wide":
        return _gru_state(graph, width=1)
    if what == "wrong-row-count":
        return _gru_state(graph, rows=2)
    if what == "unknown-node":
        return {node + 99: entry
                for node, entry in _gru_state(graph).items()}
    assert what == "c-on-gru"
    (entry,) = _gru_state(graph).values()
    return _gru_state(graph, c=entry["h"])


def _with_token(payload, token):
    bad = payload.copy()
    bad[3] = token
    return bad


# ----------------------------------------------------------------------
# One boundary, every backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestPlanBoundary:
    @pytest.mark.parametrize("name", ["resnet_tiny", "gru_speech"])
    def test_float64_batch_is_served_as_float32(self, paths, backend, name):
        _require(backend)
        plan = ExecutionPlan.load(paths[name], backend=backend)
        batch = np.stack(synthetic_payloads(plan, 3, seed=4))
        doubled = batch.astype(np.float64)
        served = plan.forward(doubled)
        assert served.dtype == np.float32
        assert np.array_equal(served, plan.forward(batch))
        server = ModelServer(workers=0)
        try:
            server.load("m", paths[name], backend=backend)
            one_by_one = np.stack([server.predict("m", row)
                                   for row in doubled])
        finally:
            server.close()
        assert np.array_equal(plan.per_request_outputs(served, 3),
                              one_by_one)

    def test_float64_artifact_loads_as_float32(self, paths, backend,
                                              tmp_path):
        """An artifact that recorded a float64 input (as exports before
        float32 serving could) loads and serves as float32."""
        _require(backend)
        artifact = ServeArtifact.load(paths["gru_speech"])
        artifact.manifest["input_dtype"] = "float64"
        artifact.save(tmp_path / "float64.npz")
        plan = ExecutionPlan.load(tmp_path / "float64.npz", backend=backend)
        assert plan.input_dtype == np.float32
        batch = np.stack(synthetic_payloads(plan, 2)).astype(np.float64)
        expected = ExecutionPlan.load(paths["gru_speech"]).forward(batch)
        assert np.array_equal(plan.forward(batch), expected)

    @pytest.mark.parametrize("what", ["one-unit-wide", "wrong-row-count",
                                      "unknown-node", "c-on-gru"])
    def test_stream_state_that_does_not_fit_raises_typed(
            self, paths, backend, what):
        _require(backend)
        plan = ExecutionPlan.load(paths["gru_speech"], backend=backend)
        state = _bad_state(plan.graph, what)
        with pytest.raises(ShapeError) as expected:
            check_state(plan.state_spec, state, rows=1)
        chunk = np.stack(synthetic_payloads(plan, 1))[:, :4]
        with pytest.raises(ShapeError) as raised:
            plan.forward_stream(chunk, state)
        assert str(raised.value) == str(expected.value)


# ----------------------------------------------------------------------
# Token ids
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_out_of_range_token_fails_only_its_request(paths, backend):
    _require(backend)
    server = ModelServer(workers=0, max_batch=8)
    try:
        server.load("m", paths["lstm_lm"], backend=backend)
        plan = server.plan("m")
        assert plan.token_bound == 40
        valid = synthetic_payloads(plan, 1, seed=2)[0]
        alone = server.predict("m", valid)
        sid = server.open_session("m")
        for token in (-1, plan.token_bound):
            bad = _with_token(valid, token)
            neighbour = server.submit("m", valid)
            failed = server.submit("m", bad)
            chunk = server.submit_stream("m", sid, bad[:5])
            server.drain()
            assert np.array_equal(neighbour.result(timeout=0), alone)
            error = failed.exception(timeout=0)
            assert isinstance(error, ConfigurationError)
            assert isinstance(chunk.exception(timeout=0),
                              ConfigurationError)
            with pytest.raises(ConfigurationError) as direct:
                plan.forward(bad[None])
            assert str(direct.value) == str(error)
    finally:
        server.close()


def test_cluster_answers_bad_request_for_an_out_of_range_token(paths):
    clock = ManualClock()
    router = ClusterRouter(
        [LocalWorker("w0", {"lm": paths["lstm_lm"]}, clock=clock)],
        "least_loaded", clock=clock)
    try:
        plan = ExecutionPlan.load(paths["lstm_lm"])
        valid = synthetic_payloads(plan, 1, seed=2)[0]
        expected = plan.per_request_outputs(plan.forward(valid[None]), 1)[0]
        good = router.submit("lm", valid)
        bad = [router.submit("lm", _with_token(valid, token))
               for token in (-1, 40)]
        router.drain()
        assert np.array_equal(good.result(timeout=0), expected)
        for future in bad:
            error = future.exception(timeout=0)
            assert isinstance(error, ServingError)
            assert error.code == "bad-request"
    finally:
        router.close()


# ----------------------------------------------------------------------
# Imported sessions
# ----------------------------------------------------------------------
def _two_wide(graph):
    state = fresh_state(graph)
    for entry in state.values():
        entry["h"] = [np.zeros(2, np.float32) for _ in entry["h"]]
    return state_to_wire(state)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_rejected_import_leaves_the_worker_serving(paths, backend):
    _require(backend)
    server = ModelServer(workers=1, max_batch=8)
    try:
        server.load("m", paths["gru_speech"], backend=backend)
        plan = server.plan("m")
        chunk = synthetic_payloads(plan, 1)[0][:4]
        # Computed before the worker thread shares the plan.
        expected = plan.stream_outputs(
            plan.forward_stream(chunk[None], {})[0], 1)[0]
        with pytest.raises(ShapeError):
            server.import_session("m", "bad", _two_wide(plan.graph))
        good = server.open_session("m")
        rejected = server.submit_stream("m", "bad", chunk)
        served = server.submit_stream("m", good, chunk)
        assert np.array_equal(served.result(timeout=RESULT_TIMEOUT),
                              expected)
        error = rejected.exception(timeout=RESULT_TIMEOUT)
        assert isinstance(error, SessionError)
        assert error.code == "unknown-session"
    finally:
        server.close()


def test_protocol_answers_bad_request_for_a_malformed_import(paths):
    server = ModelServer(workers=0)
    try:
        server.load("m", paths["gru_speech"])
        out = io.StringIO()
        line = json.dumps({"op": "session_import", "model": "m",
                           "session": "s", "id": 1,
                           "state": _two_wide(server.plan("m").graph)})
        serve_protocol(server, [line], out)
        (response,) = [json.loads(text)
                       for text in out.getvalue().splitlines()]
        assert response["id"] == 1
        assert response["code"] == "bad-request"
        assert response["retryable"] is False
        assert server.export_sessions("m") == {}
    finally:
        server.close()


def test_unstackable_sessions_fail_their_batch_typed(paths, monkeypatch):
    """A state that cannot stack with its batch mates fails that batch's
    futures; the server serves on."""
    monkeypatch.setattr(server_module, "check_state",
                        lambda spec, state: state)
    server = ModelServer(workers=0)
    try:
        server.load("m", paths["gru_speech"])
        plan = server.plan("m")
        chunk = synthetic_payloads(plan, 1)[0][:4]
        server.import_session("m", "bad", _two_wide(plan.graph))
        good = server.open_session("m")
        futures = [server.submit_stream("m", sid, chunk)
                   for sid in ("bad", good)]
        server.drain()
        for future in futures:
            assert isinstance(future.exception(timeout=0), ServingError)
        fresh = server.open_session("m")
        served = server.submit_stream("m", fresh, chunk)
        server.drain()
        expected, _ = plan.forward_stream(chunk[None], {})
        assert np.array_equal(served.result(timeout=0),
                              plan.stream_outputs(expected, 1)[0])
    finally:
        server.close()


# ----------------------------------------------------------------------
# Float ids: whole and finite, or refused
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_fractional_or_nan_ids_fail_only_their_request(paths, backend):
    """A float payload for a token plan is cast only when every value is
    a whole finite number; ``ids + 0.7`` is not served as ``ids``."""
    _require(backend)
    server = ModelServer(workers=0, max_batch=8)
    try:
        server.load("m", paths["lstm_lm"], backend=backend)
        plan = server.plan("m")
        valid = synthetic_payloads(plan, 1, seed=2)[0]
        alone = server.predict("m", valid)
        assert np.array_equal(server.predict("m", valid.astype(np.float64)),
                              alone)
        nan = valid.astype(np.float64)
        nan[3] = np.nan
        sid = server.open_session("m")
        for bad in (valid + 0.7, nan):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                neighbour = server.submit("m", valid)
                failed = server.submit("m", bad)
                chunk = server.submit_stream("m", sid, bad[:5])
                server.drain()
                with pytest.raises(ConfigurationError) as direct:
                    plan.forward(bad[None])
            assert np.array_equal(neighbour.result(timeout=0), alone)
            error = failed.exception(timeout=0)
            assert isinstance(error, ConfigurationError)
            assert str(error) == str(direct.value)
            assert "whole finite" in str(error)
            assert isinstance(chunk.exception(timeout=0),
                              ConfigurationError)
    finally:
        server.close()


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_bad_chunk_leaves_its_session_where_it_was(paths, backend):
    """A chunk with an out-of-range id, batched beside a good session's
    chunk, fails alone: the good session advances, the bad one's state
    does not, and both go on to match the offline run."""
    _require(backend)
    server = ModelServer(workers=0, max_batch=8)
    try:
        server.load("m", paths["lstm_lm"], backend=backend)
        plan = server.plan("m")
        seq = synthetic_payloads(plan, 1, seed=6)[0]
        offline = plan.stream_outputs(plan.forward(seq[None]), 1)[0]
        good, bad = server.open_session("m"), server.open_session("m")
        first = server.submit_stream("m", good, seq[:5])
        rejected = server.submit_stream("m", bad,
                                        _with_token(seq, 40)[:5])
        server.drain()
        assert isinstance(rejected.exception(timeout=0),
                          ConfigurationError)
        futures = [server.submit_stream("m", good, seq[5:]),
                   server.submit_stream("m", bad, seq[:5])]
        server.drain()
        assert np.array_equal(first.result(timeout=0), offline[:5])
        assert np.array_equal(futures[0].result(timeout=0), offline[5:])
        assert np.array_equal(futures[1].result(timeout=0), offline[:5])
    finally:
        server.close()


# ----------------------------------------------------------------------
# One failure rule for both batch paths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stream", [False, True], ids=["request", "stream"])
@pytest.mark.parametrize("raised", [
    ValueError("operands could not be broadcast"),
    ShapeError("engine shape"),
    ConfigurationError("engine configuration"),
], ids=["numpy", "shape", "configuration"])
def test_batch_failure_is_typed_on_both_paths(paths, monkeypatch, stream,
                                              raised):
    """A ReproError from the engine reaches every future of the batch
    unchanged; anything else becomes a ServingError that names the model
    and the batch. The server serves on."""
    server = ModelServer(workers=0, max_batch=4)
    try:
        server.load("m", paths["gru_speech"])
        plan = server.plan("m")
        payloads = synthetic_payloads(plan, 2)
        sid = server.open_session("m")
        engine = server._models["m"].engine
        method = "infer_stream" if stream else "infer"
        working = getattr(engine, method)

        def explode(*args):
            raise raised

        monkeypatch.setattr(engine, method, explode)
        if stream:
            futures = [server.submit_stream("m", server.open_session("m"),
                                            payload[:4])
                       for payload in payloads]
        else:
            futures = [server.submit("m", payload) for payload in payloads]
        server.drain()
        errors = [future.exception(timeout=0) for future in futures]
        assert errors[0] is errors[1]
        if isinstance(raised, ReproError):
            assert errors[0] is raised
        else:
            assert isinstance(errors[0], ServingError)
            assert "batch 0" in str(errors[0]) and "'m'" in str(errors[0])
            assert errors[0].__cause__ is raised
        assert server.stats()["m"].errors == 1
        monkeypatch.setattr(engine, method, working)
        chunk = payloads[0][:4]
        served = server.submit_stream("m", sid, chunk)
        server.drain()
        expected, _ = plan.forward_stream(chunk[None], {})
        assert np.array_equal(served.result(timeout=0),
                              plan.stream_outputs(expected, 1)[0])
    finally:
        server.close()
