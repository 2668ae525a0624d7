"""Seeded differential test of the ``compiled`` backend's native code.

A generator draws small edge graphs that together cover every native
template: convs with kernel 1 or 3, stride 1 or 2 and padding 0 or 1,
depthwise and pointwise convs, linear layers, max-pooling, residual
adds and standalone epilogues, and GRU/LSTM stacks of one or two
layers (one of them behind a per-step ``Linear``). Each graph is
quantized with :func:`post_training_quantize`, exported, and run on
``compiled`` (unverified, so a wrong kernel shows as a wrong answer)
beside ``reference`` at every batch size 1..17 and, when recurrent,
over a chunked stream. One oracle for every run: the output equals the
reference bitwise (``np.array_equal(..., equal_nan=True)``) or the call
raises a typed :class:`~repro.errors.ReproError`. Any other exception,
a raw numpy error included, fails the test. ``GRAPHS`` keeps the
tier-1 cost to a few seconds; a larger value soaks the same generator.
"""

import numpy as np
import pytest

from repro import nn
from repro.errors import ReproError
from repro.serve import ExecutionPlan
from repro.serve.backends import backend_availability, compile_graph
from repro.serve.export import build_artifact
from repro.serve.ptq import post_training_quantize

SEED = 20261019
#: Convolutional graphs drawn per run (recurrent ones are fixed).
GRAPHS = 8
BATCHES = range(1, 18)
#: Every (kernel, stride, padding) the conv templates must cover.
CONV_COMBOS = tuple((k, s, p) for k in (1, 3) for s in (1, 2)
                    for p in (0, 1))

needs_compiled = pytest.mark.skipif(
    not backend_availability()["compiled"][0],
    reason="the compiled backend is unavailable here")


class _Residual(nn.Module):
    """``relu(conv1x1(relu(conv3x3(x))) + x)``: a residual add."""

    def __init__(self, channels, gen):
        super().__init__()
        self.conv1 = nn.Conv2d(channels, channels, 3, padding=1, rng=gen)
        self.relu = nn.ReLU()
        self.conv2 = nn.Conv2d(channels, channels, 1, rng=gen)

    def forward(self, x):
        return self.relu(self.conv2(self.relu(self.conv1(x))) + x)

    def export_structure(self):
        return ("residual", [self.conv1, "relu", self.conv2], None, "relu")


class _Recurrent(nn.Module):
    """An optional per-step ``Linear``, a GRU/LSTM stack, then a linear
    head over the merged time axis."""

    def __init__(self, cell, features, hidden, layers, pre, head, gen):
        super().__init__()
        self.pre = nn.Linear(features, pre, rng=gen) if pre else None
        rnn = nn.GRU if cell == "gru" else nn.LSTM
        self.rnn = rnn(pre or features, hidden, num_layers=layers, rng=gen)
        self.head = nn.Linear(hidden, head, rng=gen)

    def forward(self, x):
        if self.pre is not None:
            x = self.pre(x)
        out, _ = self.rnn(x)
        n, t, h = out.shape
        return self.head(out.reshape(n * t, h))

    def export_structure(self):
        items = [self.pre] if self.pre is not None else []
        return ("chain", items + [self.rnn, "merge_time", self.head])


def linear_gru_model(gen=None):
    """``Linear(13, 16)`` -> ``GRU(16, 24)`` -> ``merge_time`` ->
    ``Linear(24, 5)``: a per-step linear ahead of the recurrence."""
    gen = gen if gen is not None else np.random.default_rng(5)
    return _Recurrent("gru", 13, 24, 1, 16, 5, gen), (6, 13)


def _conv_graph(rng, index):
    """A conv chain whose first conv takes ``CONV_COMBOS[index % 8]``;
    the rest (depthwise-separable pair, residual block, max-pool,
    standalone batch-norm, a second linear) is drawn."""
    gen = np.random.default_rng(int(rng.integers(2 ** 31)))
    channels, size = int(rng.integers(1, 5)), int(rng.integers(5, 10))
    shape = (channels, size, size)
    kernel, stride, pad = CONV_COMBOS[index % len(CONV_COMBOS)]
    out = int(rng.integers(2, 7))
    layers = [nn.Conv2d(channels, out, kernel, stride=stride, padding=pad,
                        rng=gen), nn.ReLU()]
    features = {f"conv k{kernel} s{stride} p{pad}"}
    channels, size = out, (size + 2 * pad - kernel) // stride + 1
    if rng.random() < 0.6:
        dw_stride = int(rng.integers(1, 3))
        wide = int(rng.integers(2, 7))
        layers += [nn.Conv2d(channels, channels, 3, stride=dw_stride,
                             padding=1, groups=channels, rng=gen),
                   nn.ReLU6(), nn.Conv2d(channels, wide, 1, rng=gen)]
        features |= {"depthwise", "pointwise"}
        channels, size = wide, (size - 1) // dw_stride + 1
    if rng.random() < 0.5:
        layers.append(_Residual(channels, gen))
        features.add("add")
    if size >= 4 and rng.random() < 0.6:
        layers.append(nn.MaxPool2d(2))
        features.add("maxpool")
        size //= 2
    if rng.random() < 0.4:
        # No GEMM to fold into: a standalone batch-norm node.
        layers += [nn.MaxPool2d(1), nn.BatchNorm2d(channels), nn.ReLU6()]
        features.add("eltwise")
    classes = int(rng.integers(1, 6))
    layers += [nn.Flatten(), nn.Linear(channels * size * size, classes,
                                       rng=gen)]
    features.add("linear")
    return f"conv{index}", nn.Sequential(*layers), shape, features


def _recurrent_graphs():
    gen = np.random.default_rng(SEED)
    graphs = []
    for cell in ("gru", "lstm"):
        for layers in (1, 2):
            model = _Recurrent(cell, 7, 9, layers, 0, 3, gen)
            graphs.append((f"{cell}x{layers}", model, (5, 7),
                           {f"{cell}x{layers}"}))
    model, shape = linear_gru_model(gen)
    graphs.append(("linear_gru", model, shape, {"linear", "gru"}))
    return graphs


def _graphs():
    rng = np.random.default_rng(SEED)
    return ([_conv_graph(rng, index) for index in range(GRAPHS)]
            + _recurrent_graphs())


def _export(name, model, shape, seed):
    rng = np.random.default_rng(seed)
    calibration = [rng.normal(size=(8, *shape)).astype(np.float32)]
    results = post_training_quantize(model, calibration)
    return build_artifact(model, calibration[0][:4], layer_results=results,
                          name=name)


def _inputs(rng, n, shape):
    """A batch with +-1e3 outliers and one NaN element."""
    batch = rng.normal(size=(n, *shape)).astype(np.float32)
    outliers = rng.random(batch.shape) < 0.03
    batch[outliers] = rng.choice(np.float32([-1e3, 1e3]),
                                 size=int(outliers.sum()))
    batch.flat[rng.integers(batch.size)] = np.nan
    return batch


def _outcome(fn):
    """``fn()``'s result, or ``None`` for a typed error; any other
    exception propagates and fails the test."""
    try:
        return fn()
    except ReproError:
        return None


def _chunks(rng, steps):
    cuts = np.sort(rng.choice(np.arange(1, steps), replace=False,
                              size=int(rng.integers(1, steps))))
    bounds = np.concatenate(([0], cuts, [steps]))
    return list(zip(bounds[:-1], bounds[1:]))


def _stream(model, batch, chunks):
    state, outs = {}, []
    for start, stop in chunks:
        out, state = model.run_stateful(batch[:, start:stop], state)
        outs.append(out)
    return outs


def test_generator_covers_every_template():
    covered = set().union(*(features for *_, features in _graphs()))
    required = ({f"conv k{k} s{s} p{p}" for k, s, p in CONV_COMBOS}
                | {"depthwise", "pointwise", "linear", "maxpool", "add",
                   "eltwise", "grux1", "grux2", "lstmx1", "lstmx2"})
    assert required <= covered, required - covered


@needs_compiled
@pytest.mark.parametrize("index", range(GRAPHS + 5))
def test_compiled_equals_reference(index):
    name, model, shape, _ = _graphs()[index]
    artifact = _outcome(lambda: _export(name, model, shape, index))
    if artifact is None:
        return
    reference = compile_graph(artifact, "reference", verify=False)
    compiled = _outcome(
        lambda: compile_graph(artifact, "compiled", verify=False))
    if compiled is None:
        return
    rng = np.random.default_rng([SEED, index])
    for n in BATCHES:
        batch = _inputs(rng, n, shape)
        got = _outcome(lambda: compiled.run(batch))
        if got is not None:
            assert np.array_equal(got, reference.run(batch),
                                  equal_nan=True), (name, n)
    if len(shape) == 2:  # a sequence: stream it in random chunks
        for n in (1, 4, 17):
            batch = _inputs(rng, n, shape)
            chunks = _chunks(rng, shape[0])
            expected = _stream(reference, batch, chunks)
            got = _outcome(lambda: _stream(compiled, batch, chunks))
            if got is not None:
                for out, want, chunk in zip(got, expected, chunks):
                    assert np.array_equal(out, want, equal_nan=True), \
                        (name, n, chunk)


@pytest.mark.parametrize("backend", ["reference", "fused", "compiled"])
def test_linear_before_gru_serves_on_every_backend(backend):
    """The per-step ``Linear`` -> ``GRU`` model compiles and verifies on
    every backend and equals the reference at batches 1..17 and over a
    chunked stream."""
    model, shape = linear_gru_model()
    artifact = _export("linear_gru", model, shape, 0)
    plan = ExecutionPlan(artifact, backend=backend)
    oracle = ExecutionPlan(artifact, backend="reference")
    rng = np.random.default_rng(7)
    for n in BATCHES:
        batch = _inputs(rng, n, shape)
        assert np.array_equal(plan.forward(batch), oracle.forward(batch),
                              equal_nan=True), n
    for n in (1, 5):
        batch = _inputs(rng, n, shape)
        offline = oracle.stream_outputs(oracle.forward(batch), n)
        state, outs = {}, []
        for start, stop in ((0, 1), (1, 4), (4, 6)):
            out, state = plan.forward_stream(batch[:, start:stop], state)
            outs.append(plan.stream_outputs(out, n))
        assert np.array_equal(np.concatenate(outs, axis=1), offline,
                              equal_nan=True), n
