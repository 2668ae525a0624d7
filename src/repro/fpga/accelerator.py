"""Whole-network performance simulation (paper Table VIII, §VI-B.2).

``AcceleratorSim`` runs a layer list through the tile model of
:mod:`repro.fpga.gemm` and adds the two system effects the tile model
cannot see:

- **pipeline efficiency** — load/compute/store dependency stalls of the
  VTA-style pipeline; a single calibrated factor (0.72) reproduces the
  paper's ~52-70% end-to-end PE utilization range for CNNs on top of the
  structural (tiling) losses;
- **DRAM traffic** — weights + input/output activations at the quantized
  bit-widths against a fixed effective bandwidth; each layer's time is
  ``max(compute, memory)`` (double-buffered overlap).

FPS figures assume one image per run (the paper reports per-image latency;
the Bat lanes of the XC7Z045 design are filled by output positions, not by
separate images — see gemm.py).

**Latency unit convention: milliseconds.** Every simulated latency in this
package is reported in ms — ``NetworkPerformance.latency_ms`` here, the
``fpga_ms_total`` counters of :mod:`repro.serve.engine` and
:mod:`repro.serve.server` (which are plain sums of this module's
``latency_ms`` over served micro-batches), and the autotuner's
``latency_ms`` columns. A regression test
(``tests/test_autotune.py::TestLatencyUnitConvention``) pins the served
and simulated numbers to each other on identical workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.fpga.gemm import GemmWorkload, TileStats, simulate_gemm
from repro.fpga.resources import GemmDesign, peak_throughput_gops

# Calibrated against Table VIII (see module docstring): the paper's CNNs all
# land at ~62-69% of peak (load/compute/store dependency stalls), RNNs at
# ~43-59% with the recurrent state dependency easing as batch lanes fill.
DEFAULT_PIPELINE_EFFICIENCY = 0.70
DEFAULT_DRAM_GBPS = 2.4
DEFAULT_LAYER_OVERHEAD_CYCLES = 500
RECURRENT_EFFICIENCY_BASE = 0.46
RECURRENT_EFFICIENCY_PER_BATCH = 0.03
ACT_BUFFER_FRACTION = 0.5  # share of design BRAM usable for feature maps


def recurrent_efficiency(batch: int) -> float:
    """Effective pipeline efficiency of recurrent (W_hh-style) GEMMs."""
    return min(RECURRENT_EFFICIENCY_BASE
               + RECURRENT_EFFICIENCY_PER_BATCH * (batch - 1),
               DEFAULT_PIPELINE_EFFICIENCY)


@dataclass
class LayerPerformance:
    """Per-layer simulation record."""

    stats: TileStats
    compute_cycles: int
    memory_cycles: int

    @property
    def cycles(self) -> int:
        return max(self.compute_cycles, self.memory_cycles)

    @property
    def memory_bound(self) -> bool:
        return self.memory_cycles > self.compute_cycles


@dataclass
class NetworkPerformance:
    """End-to-end results of one network on one design."""

    design: GemmDesign
    layers: List[LayerPerformance]
    total_cycles: int
    total_ops: int

    @property
    def latency_ms(self) -> float:
        """End-to-end latency in **milliseconds** (cycles / kHz).

        The one latency-unit convention of the whole stack: serve-side
        ``fpga_ms`` counters and autotune scores are sums of this value.
        """
        return self.total_cycles / (self.design.freq_mhz * 1e3)

    @property
    def throughput_gops(self) -> float:
        return self.total_ops / 1e9 / (self.latency_ms / 1e3)

    @property
    def fps(self) -> float:
        return 1000.0 / self.latency_ms

    @property
    def pe_utilization(self) -> float:
        return self.throughput_gops / peak_throughput_gops(self.design)

    def summary(self) -> Dict[str, float]:
        return {
            "latency_ms": self.latency_ms,
            "throughput_gops": self.throughput_gops,
            "fps": self.fps,
            "pe_utilization": self.pe_utilization,
            "memory_bound_layers": sum(l.memory_bound for l in self.layers),
        }


@dataclass
class AcceleratorSim:
    """Performance simulator for one accelerator design."""

    design: GemmDesign
    pipeline_efficiency: float = DEFAULT_PIPELINE_EFFICIENCY
    dram_gbps: float = DEFAULT_DRAM_GBPS
    layer_overhead_cycles: int = DEFAULT_LAYER_OVERHEAD_CYCLES

    def _act_buffer_bytes(self) -> float:
        """On-chip feature-map buffer: a share of the design's BRAM."""
        from repro.fpga.resources import design_resources

        bram_bytes = design_resources(self.design).bram36 * 36 * 1024 / 8.0
        return ACT_BUFFER_FRACTION * bram_bytes

    def _memory_cycles(self, workload: GemmWorkload) -> int:
        """DRAM time: weights always stream; activations only when the
        layer's in+out maps exceed the on-chip buffer (ping-pong reuse)."""
        design = self.design
        weight_bits = design.weight_bits
        act_bits = design.act_bits
        weight_bytes = (workload.rows * workload.reduction
                        * workload.kernel_positions * weight_bits) / 8.0
        act_bytes = (workload.reduction * workload.columns * act_bits) / 8.0
        out_bytes = (workload.rows * workload.columns * act_bits) / 8.0
        total_bytes = weight_bytes
        if act_bytes + out_bytes > self._act_buffer_bytes():
            total_bytes += act_bytes + out_bytes
        bytes_per_cycle = self.dram_gbps * 1e9 / (design.freq_mhz * 1e6)
        return int(total_bytes / bytes_per_cycle)

    def simulate_layer(self, workload: GemmWorkload,
                       sp2_fraction: Optional[float] = None
                       ) -> LayerPerformance:
        stats = simulate_gemm(workload, self.design, sp2_fraction)
        efficiency = (recurrent_efficiency(self.design.batch)
                      if workload.sequential_columns
                      else self.pipeline_efficiency)
        compute = int(stats.cycles / efficiency) + self.layer_overhead_cycles
        return LayerPerformance(stats=stats, compute_cycles=compute,
                                memory_cycles=self._memory_cycles(workload))

    def simulate(self, workloads: Sequence[GemmWorkload],
                 sp2_fraction: Optional[float] = None) -> NetworkPerformance:
        layers = [self.simulate_layer(w, sp2_fraction) for w in workloads]
        return NetworkPerformance(
            design=self.design,
            layers=layers,
            total_cycles=sum(layer.cycles for layer in layers),
            total_ops=sum(w.ops for w in workloads),
        )


def simulate_network(workloads: Sequence[GemmWorkload], design: GemmDesign,
                     sp2_fraction: Optional[float] = None,
                     **sim_kwargs) -> NetworkPerformance:
    """One-call wrapper: simulate ``workloads`` on ``design``."""
    return AcceleratorSim(design, **sim_kwargs).simulate(
        workloads, sp2_fraction=sp2_fraction)
