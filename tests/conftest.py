"""Shared fixtures.

Heavy artifacts (a trained tiny classifier, a finished QAT run) are session-
scoped so the many tests that inspect them pay the training cost once.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor


class BusyGate:
    """Holds a model busy from another thread: the engine's first pass
    blocks (``entered`` set) until ``release`` is set."""

    def __init__(self, engine):
        self.entered = threading.Event()
        self.release = threading.Event()
        infer = engine.infer

        def gated(batch):
            if not self.entered.is_set():
                self.entered.set()
                assert self.release.wait(60.0)
            return infer(batch)

        engine.infer = gated


class RecordingCondition(threading.Condition):
    """A Condition that records each ``wait`` timeout by thread name."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.waits = []

    def wait(self, timeout=None):
        self.waits.append((threading.current_thread().name, timeout))
        return super().wait(timeout)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


def make_mlp(seed: int = 7) -> nn.Module:
    gen = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(12, 24, rng=gen), nn.ReLU(),
        nn.Linear(24, 24, rng=gen), nn.ReLU(),
        nn.Linear(24, 3, rng=gen),
    )


def make_toy_task(n: int = 256, seed: int = 1):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, 12)).astype(np.float32)
    y = ((x[:, 0] + x[:, 1] * x[:, 2] > 0).astype(np.int64)
         + (x[:, 3] > 1.0).astype(np.int64))
    return x, y


@pytest.fixture(scope="session")
def toy_task():
    return make_toy_task()


@pytest.fixture(scope="session")
def trained_mlp(toy_task):
    """An MLP trained to high accuracy on the toy task (FP baseline)."""
    x, y = toy_task
    model = make_mlp()
    optimizer = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    for _ in range(150):
        loss = nn.cross_entropy(model(Tensor(x)), y)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    model.eval()
    return model


@pytest.fixture(scope="session")
def qat_result(toy_task, trained_mlp):
    """A finished MSQ quantization run starting from the FP baseline.

    Runs through the :mod:`repro.api` front door, so the many tests
    inspecting this fixture also exercise the ``QuantizedModel`` handle.
    """
    from repro.api import Pipeline, PipelineConfig

    x, y = toy_task
    model = make_mlp()
    model.load_state_dict(trained_mlp.state_dict())

    def make_batches(epoch):
        order = np.random.default_rng(50 + epoch).permutation(len(x))
        for start in range(0, len(order), 64):
            idx = order[start:start + 64]
            yield x[idx], y[idx]

    def loss_fn(m, batch):
        xb, yb = batch
        return nn.cross_entropy(m(Tensor(xb)), yb)

    config = PipelineConfig(scheme="msq", weight_bits=4, act_bits=4,
                            ratio="2:1", epochs=6, lr=0.05)
    return Pipeline(config, model=model).fit(make_batches, loss_fn)


def accuracy_of(model, x, y) -> float:
    was_training = model.training
    model.eval()
    acc = float((model(Tensor(x)).data.argmax(1) == y).mean())
    model.train(was_training)
    return acc


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "subprocess: spawns real worker subprocesses (cluster smoke "
        "tests; everything else is in-process and deterministic)")
