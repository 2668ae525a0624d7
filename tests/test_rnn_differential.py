"""Seeded differential test of the RNN serving surfaces.

One oracle for every scenario: a stateless batch must equal the eager
model, and a chunked stream must equal the offline run, bitwise
(``np.array_equal(..., equal_nan=True)``). The scenario generator draws
the model (lstm_lm, gru_speech), the backend (reference, fused,
compiled), a batch size in 1..17 and a random chunking of the 12-step
sequence; every chunk of a stream runs on a freshly drawn backend, its
state handed over through the wire encoding, so streams move between
backends mid-sequence. Frame inputs mix normal values
with +-1e3 and a NaN row. ``BUDGET`` keeps the tier-1 cost at a couple
of seconds; a larger value runs a longer soak of the same generator.
"""

import numpy as np
import pytest

from repro.serve import (
    ExecutionPlan,
    build_artifact,
    post_training_quantize,
    state_from_wire,
    state_to_wire,
)
from repro.serve.backends import backend_availability
from repro.serve.cli import build_model
from repro.serve.export import eager_forward

MODELS = ("lstm_lm", "gru_speech")
BACKENDS = tuple(name for name in ("reference", "fused", "compiled")
                 if backend_availability()[name][0])
SEED = 20261017
#: Scenarios per kind (stateless, stream) in tier-1.
BUDGET = 16


@pytest.fixture(scope="module")
def zoo():
    """``{model: (eager model, sampler, {backend: plan})}``."""
    built = {}
    for name in MODELS:
        model, sample = build_model(name, seed=0)
        rng = np.random.default_rng(11)
        results = post_training_quantize(model, [sample(rng, 8)])
        artifact = build_artifact(model, sample(rng, 4),
                                  layer_results=results, name=name)
        plans = {backend: ExecutionPlan(artifact, backend=backend)
                 for backend in BACKENDS}
        built[name] = (model, sample, plans)
    return built


def _inputs(rng, plan, sample, n):
    """A batch of ``n`` requests; frame batches mix normal values with
    +-1e3 outliers and one all-NaN row (one request at one step)."""
    if plan.input_dtype.kind != "f":
        return sample(rng, n)
    batch = rng.normal(size=(n,) + plan.input_shape).astype(np.float32)
    outliers = rng.random(batch.shape) < 0.05
    batch[outliers] = rng.choice(np.float32([-1e3, 1e3]),
                                 size=int(outliers.sum()))
    batch[rng.integers(n), rng.integers(plan.input_shape[0])] = np.nan
    return batch


def _chunking(rng, steps):
    cuts = np.sort(rng.choice(np.arange(1, steps), replace=False,
                              size=rng.integers(0, steps)))
    return np.diff(np.concatenate(([0], cuts, [steps]))).tolist()


def _scenarios(kind):
    rng = np.random.default_rng([SEED, kind == "stream"])
    for index in range(BUDGET):
        yield (index, MODELS[rng.integers(len(MODELS))],
               int(rng.integers(1, 18)), int(rng.integers(2 ** 31)))


@pytest.mark.parametrize("index,model_name,n,seed", _scenarios("stateless"))
def test_stateless_equals_eager(zoo, index, model_name, n, seed):
    model, sample, plans = zoo[model_name]
    rng = np.random.default_rng(seed)
    backend = BACKENDS[rng.integers(len(BACKENDS))]
    plan = plans[backend]
    batch = _inputs(rng, plan, sample, n)
    got = plan.forward(batch)
    assert np.array_equal(got, eager_forward(model, batch),
                          equal_nan=True), (model_name, backend, n)


@pytest.mark.parametrize("index,model_name,n,seed", _scenarios("stream"))
def test_stream_across_backends_equals_offline(zoo, index, model_name, n,
                                               seed):
    model, sample, plans = zoo[model_name]
    rng = np.random.default_rng(seed)
    offline_plan = plans[BACKENDS[rng.integers(len(BACKENDS))]]
    batch = _inputs(rng, offline_plan, sample, n)
    offline = offline_plan.stream_outputs(offline_plan.forward(batch), n)
    steps = offline_plan.input_shape[0]
    state, outs, route = {}, [], []
    cursor = 0
    for size in _chunking(rng, steps):
        backend = BACKENDS[rng.integers(len(BACKENDS))]
        route.append((backend, size))
        plan = plans[backend]
        out, new_state = plan.forward_stream(
            batch[:, cursor:cursor + size], state)
        outs.append(plan.stream_outputs(out, n))
        # Hand the state over as a migrating session would.
        state = {int(k): v for k, v in
                 state_from_wire(state_to_wire(new_state)).items()}
        cursor += size
    assert np.array_equal(np.concatenate(outs, axis=1), offline,
                          equal_nan=True), (model_name, n, route)
