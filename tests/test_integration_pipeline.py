"""Integration: the full co-design loop on one small model.

characterize device -> train FP -> ADMM+STE MSQ at the characterized ratio
-> verify row split, level sets, accuracy -> run the quantized weights
through the bit-exact integer kernels -> simulate deployment throughput.
"""

import numpy as np
import pytest

from repro import nn
from repro.fpga import characterize_device, simulate_network
from repro.fpga.bitexact import float_reference, mixed_gemm_bitexact
from repro.fpga.gemm import GemmWorkload
from repro.quant import QATConfig, Scheme, run_qat, train_fp
from repro.quant.partition import to_gemm_matrix
from repro.quant.quantizers import project_to_levels
from repro.quant.schemes import fixed_point_levels, sp2_levels
from repro.quant.ste import ActivationQuantizer
from repro.tensor import Tensor
from tests.conftest import accuracy_of, make_mlp, make_toy_task


@pytest.fixture(scope="module")
def pipeline():
    characterization = characterize_device("XC7Z045", batch=4)
    ratio = characterization.partition_ratio
    x, y = make_toy_task(n=256, seed=11)
    model = make_mlp(seed=13)

    def make_batches(epoch):
        order = np.random.default_rng(60 + epoch).permutation(len(x))
        for start in range(0, len(order), 64):
            idx = order[start:start + 64]
            yield x[idx], y[idx]

    def loss_fn(m, batch):
        xb, yb = batch
        return nn.cross_entropy(m(Tensor(xb)), yb)

    fp_history = train_fp(model, make_batches, loss_fn, epochs=12, lr=0.1)
    fp_acc = accuracy_of(model, x, y)
    config = QATConfig(scheme=Scheme.MSQ, weight_bits=4, act_bits=4,
                       ratio=f"{ratio.sp2:g}:{ratio.fixed:g}",
                       epochs=6, lr=0.05)
    qat = run_qat(model, make_batches, loss_fn, config)
    return {
        "characterization": characterization,
        "model": model,
        "qat": qat,
        "fp_acc": fp_acc,
        "task": (x, y),
    }


class TestCoDesignLoop:
    def test_characterized_ratio_is_papers(self, pipeline):
        assert pipeline["characterization"].ratio_string == "1:2"

    def test_row_split_matches_hardware_ratio(self, pipeline):
        target = pipeline["characterization"].design.sp2_fraction
        achieved = pipeline["qat"].sp2_row_fraction()
        assert achieved == pytest.approx(target, abs=0.08)

    def test_every_row_on_its_level_set(self, pipeline):
        for result in pipeline["qat"].layer_results.values():
            matrix = to_gemm_matrix(result.values)
            for row in range(matrix.shape[0]):
                levels = (sp2_levels(4) if result.partition.sp2_mask[row]
                          else fixed_point_levels(4))
                unit = matrix[row] / result.row_alphas[row]
                assert np.allclose(unit, project_to_levels(unit, levels),
                                   atol=1e-9)

    def test_accuracy_preserved(self, pipeline):
        x, y = pipeline["task"]
        q_acc = accuracy_of(pipeline["model"], x, y)
        assert q_acc >= pipeline["fp_acc"] - 0.10

    def test_integer_datapath_matches_model(self, pipeline, rng):
        name, msq = next(iter(pipeline["qat"].layer_results.items()))
        act_quant = ActivationQuantizer(bits=4)
        x = np.abs(rng.normal(size=(8, msq.values.shape[1])))
        act_quant.observe(x)
        integer = mixed_gemm_bitexact(x, msq, act_quant)
        reference = float_reference(x, msq, act_quant)
        assert np.abs(integer["output"] - reference).max() < 1e-9

    def test_deployment_simulation(self, pipeline):
        design = pipeline["characterization"].design
        layers = [GemmWorkload(name, rows=msq.values.shape[0],
                               reduction=int(np.prod(msq.values.shape[1:])),
                               columns=64)
                  for name, msq in pipeline["qat"].layer_results.items()]
        perf = simulate_network(layers, design)
        assert perf.throughput_gops > 0
        assert perf.pe_utilization <= 1.0

    def test_msq_beats_dsp_only_deployment(self, pipeline):
        """The quantized model's own layers run faster on the heterogeneous
        design than on a DSP-only design of the same device."""
        from repro.fpga.resources import GemmDesign

        design = pipeline["characterization"].design
        dsp_only = GemmDesign(design.device, design.batch, design.block_in,
                              design.block_out_fixed, 0)
        # Large column count so tile compute dominates per-layer overhead.
        layers = [GemmWorkload(name, rows=msq.values.shape[0],
                               reduction=int(np.prod(msq.values.shape[1:])),
                               columns=8192)
                  for name, msq in pipeline["qat"].layer_results.items()]
        hetero = simulate_network(layers, design).throughput_gops
        base = simulate_network(layers, dsp_only).throughput_gops
        assert hetero > 1.3 * base
