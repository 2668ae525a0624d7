"""Baseline quantization methods (Tables III/IV/VI comparators)."""

import numpy as np
import pytest

from repro import nn
from repro.api import get_method
from repro.errors import ConfigurationError
from repro.quant.baselines import available_baselines, train_baseline
from repro.quant.baselines.dorefa import dorefa_weight_projection
from repro.quant.baselines.dsq import dsq_hard, dsq_soft
from repro.quant.baselines.eqm import eqm_projection
from repro.quant.baselines.lqnets import lqnets_project, qem_fit
from repro.quant.baselines.lsq import lsq_project
from repro.quant.baselines.ul2q import ul2q_projection
from repro.tensor import Tensor
from tests.conftest import accuracy_of, make_mlp, make_toy_task

ALL_METHODS = ("dorefa", "pact", "dsq", "qil", "ul2q", "lq-nets", "lsq", "eqm")


class TestRegistry:
    def test_all_names_resolve(self):
        for name in ALL_METHODS:
            assert get_method(name).make() is not None

    def test_greek_mu_alias(self):
        assert get_method("µL2Q").make().name == "µL2Q"

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_method("binaryconnect")

    def test_available_list(self):
        assert "DoReFa" in available_baselines()


class TestProjections:
    def test_dorefa_levels(self, rng):
        w = rng.normal(size=512)
        q = dorefa_weight_projection(w, 4)
        # 2*Q_k(x)-1 lands on the odd uniform grid in [-1, 1].
        codes = (q + 1.0) / 2.0 * 15
        assert np.allclose(codes, np.round(codes), atol=1e-9)
        assert q.min() >= -1.0 and q.max() <= 1.0

    def test_dorefa_monotone(self, rng):
        w = np.sort(rng.normal(size=100))
        q = dorefa_weight_projection(w, 4)
        assert np.all(np.diff(q) >= -1e-12)

    def test_dsq_soft_converges_to_hard(self, rng):
        """As k -> inf the soft staircase matches hard rounding everywhere
        except an O(1/k) neighbourhood of the cell midpoints, where the
        tanh is still crossing; the error there is bounded by delta/2."""
        w = rng.uniform(-1, 1, size=256)
        hard = dsq_hard(w, 4, 1.0)
        soft_sharp = dsq_soft(w, 4, 1.0, temperature=500.0)
        diff = np.abs(soft_sharp - hard)
        delta = 1.0 / (2 ** 3 - 1)
        assert np.quantile(diff, 0.9) < 1e-3
        assert diff.max() <= delta / 2 + 1e-9

    def test_dsq_soft_is_smooth_interpolant(self, rng):
        w = rng.uniform(-1, 1, size=256)
        soft = dsq_soft(w, 4, 1.0, temperature=5.0)
        steps = 2 ** 3 - 1
        assert np.abs(soft - w).max() <= 1.0 / steps

    def test_ul2q_grid(self, rng):
        w = rng.normal(0, 0.5, size=4096)
        q = ul2q_projection(w, 4)
        sigma = w.std()
        offsets = (q - w.mean()) / (0.3352 * sigma) - 0.5
        assert np.allclose(offsets, np.round(offsets), atol=1e-6)

    def test_ul2q_level_count(self, rng):
        q = ul2q_projection(rng.normal(size=8192), 4)
        assert len(np.unique(q)) <= 16

    def test_ul2q_invalid_bits(self):
        with pytest.raises(KeyError):
            ul2q_projection(np.ones(4), 16)

    def test_lqnets_basis_fits_dyadic_weights(self, rng):
        """QEM on weights generated from a known basis recovers low error."""
        true_v = np.array([0.4, 0.2, 0.1])
        codes = rng.choice([-1.0, 1.0], size=(2048, 3))
        w = codes @ true_v + rng.normal(0, 0.01, size=2048)
        v = qem_fit(w, 4, iterations=10)
        q = lqnets_project(w, v)
        assert np.mean((w - q) ** 2) < 5e-4

    def test_lqnets_levels_count(self, rng):
        v = qem_fit(rng.normal(size=1024), 4)
        q = lqnets_project(rng.normal(size=256), v)
        assert len(np.unique(q)) <= 8  # 2^(m-1) sign patterns

    def test_lsq_grid(self, rng):
        w = rng.normal(size=512)
        q = lsq_project(w, step=0.1, bits=4)
        assert np.allclose(q / 0.1, np.round(q / 0.1), atol=1e-9)
        assert np.abs(q / 0.1).max() <= 7

    def test_eqm_balanced_population(self, rng):
        w = rng.normal(size=8192)
        q = eqm_projection(w, 4)
        _, counts = np.unique(q, return_counts=True)
        # Equal-population binning: no level holds more than ~2x its share.
        assert counts.max() < 2.0 * len(w) / 15


class TestTraining:
    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_short_training_preserves_accuracy(self, name):
        x, y = make_toy_task(n=192, seed=2)
        model = make_mlp()
        optimizer = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
        for _ in range(80):
            loss = nn.cross_entropy(model(Tensor(x)), y)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        fp_acc = accuracy_of(model, x, y)

        def make_batches(epoch):
            yield x, y

        def loss_fn(m, batch):
            xb, yb = batch
            return nn.cross_entropy(m(Tensor(xb)), yb)

        method = get_method(name).make(weight_bits=4, act_bits=4)
        history = train_baseline(model, make_batches, loss_fn, method,
                                 epochs=6, lr=0.05)
        assert len(history) == 6
        q_acc = accuracy_of(model, x, y)
        # DoReFa's tanh renormalization is the lossiest of the baselines
        # (it is also the weakest in the paper's Table III).
        budget = 0.40 if name == "dorefa" else 0.25
        assert q_acc >= fp_acc - budget, f"{name}: {fp_acc} -> {q_acc}"

    def test_hooks_removed_after_finalize(self):
        x, y = make_toy_task(n=64, seed=3)
        model = make_mlp()
        method = get_method("dsq").make()

        def make_batches(epoch):
            yield x, y

        def loss_fn(m, batch):
            xb, yb = batch
            return nn.cross_entropy(m(Tensor(xb)), yb)

        train_baseline(model, make_batches, loss_fn, method, epochs=1,
                       lr=0.01)
        for _, module in model.named_modules():
            if hasattr(module, "weight_quant"):
                assert module.weight_quant is None

    def test_pact_alpha_is_trainable_parameter(self):
        model = make_mlp()
        method = get_method("pact").make()
        method.prepare(model)
        names = [name for name, _ in model.named_parameters()]
        assert any("pact_alpha" in name for name in names)

    def test_lsq_step_positive_after_finalize(self):
        model = make_mlp()
        method = get_method("lsq").make()
        method.prepare(model)
        steps = method.finalize(model)
        assert all(step > 0 for step in steps.values())
