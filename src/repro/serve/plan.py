"""Execution plan: a compiled, ready-to-serve view of an exported model.

``ExecutionPlan`` is a thin façade over the serving compile pipeline::

    ServeArtifact --lower--> graph IR --passes--> kernels --> CompiledModel
                  (serve.ir)          (serve.passes)   (serve.backends)

All per-model work happens once at compile time: weight words are unpacked
and dequantized into cached GEMM matrices, activation ranges become level
tables, shapes are inferred for every node, and the selected backend builds
one kernel per node. Per-request work is then pure batched numpy.

The ``backend`` argument picks the kernel set (see
:func:`repro.serve.backends.list_backends`); any non-reference backend is
verified bit-identical to the reference oracle at compile time, and the
reference backend is verified against eager inference at export — so
``forward`` output is bit-identical to the eager quantized model no matter
which backend serves it.

GEMM workload dimensions come from IR node shapes, so
:meth:`ExecutionPlan.workloads` and :meth:`ExecutionPlan.simulate` work on
a freshly loaded plan — no warm-up forward pass required.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError, ExportError, ShapeError
from repro.fpga.accelerator import NetworkPerformance, simulate_network
from repro.fpga.gemm import GemmWorkload
from repro.fpga.resources import GemmDesign, reference_designs
from repro.serve.artifact import ServeArtifact
from repro.serve.backends import DEFAULT_BACKEND, compile_graph
from repro.serve.streaming.state import check_state, rnn_state_spec


class ExecutionPlan:
    """Loaded, ready-to-serve form of an exported model."""

    def __init__(self, artifact: ServeArtifact,
                 backend: str = DEFAULT_BACKEND,
                 verify: Optional[bool] = None):
        self.artifact = artifact
        self.compiled = compile_graph(artifact, backend=backend,
                                      verify=verify)
        self.graph = self.compiled.source_graph
        self.input_shape = tuple(artifact.manifest["input_shape"])
        self.input_dtype = np.dtype(artifact.manifest["input_dtype"])
        self.token_bound = self.graph.token_bound()
        self.state_spec = rnn_state_spec(self.graph)

    @classmethod
    def load(cls, path, backend: str = DEFAULT_BACKEND,
             verify: Optional[bool] = None) -> "ExecutionPlan":
        return cls(ServeArtifact.load(path), backend=backend, verify=verify)

    @property
    def backend(self) -> str:
        return self.compiled.backend_name

    # ------------------------------------------------------------------
    def coerce(self, x) -> np.ndarray:
        """``x`` in serving form: the plan's input dtype, C-contiguous
        (copied only when it is not already), and every token id inside
        the embedding tables it indexes. Floating input is served as
        float32, the dtype ``build_artifact`` records, so the kernels
        behind the plan see one input format.

        :meth:`forward` and :meth:`forward_stream` run this once per
        batch. The server checks shapes per request, runs this on a
        request only when it needs a cast, and re-checks a failed batch
        row by row, so a bad id fails only its own request. Floating
        values cast to an integer input must be whole and finite: a
        fractional or NaN id raises
        :class:`~repro.errors.ConfigurationError` instead of being
        truncated into another token."""
        x = np.asarray(x)
        if x.dtype != self.input_dtype or not x.flags["C_CONTIGUOUS"]:
            if x.dtype.kind == "f" and self.input_dtype.kind in "iu" \
                    and not (np.isfinite(x) & (np.trunc(x) == x)).all():
                raise ConfigurationError(
                    f"{self.input_dtype} input must hold whole finite "
                    "numbers, got a fractional, infinite or NaN value")
            x = np.ascontiguousarray(x, dtype=self.input_dtype)
        if self.token_bound is not None and x.size \
                and (x.min() < 0 or x.max() >= self.token_bound):
            raise ConfigurationError(
                f"token ids must lie in [0, {self.token_bound}), got "
                f"{x.min()}..{x.max()}")
        return x

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """Run a (N, ...) request batch through the compiled kernels
        (checked once, as a batch: :meth:`coerce`)."""
        x = np.asarray(batch)
        if tuple(x.shape[1:]) != self.input_shape:
            raise ShapeError(
                f"plan expects per-request shape {self.input_shape}, got "
                f"{tuple(x.shape[1:])}")
        return self.compiled.run(self.coerce(x))

    __call__ = forward

    def per_request_outputs(self, outputs: np.ndarray,
                            batch_size: int) -> np.ndarray:
        """View of a ``forward`` result with the request axis leading.

        Most plans already return ``(N, ...)``. Time-merged RNN decoders
        return ``(N*T, ...)`` (the leading per-request dim is folded into
        the batch axis for one big GEMM); this reshapes — a view, no copy
        — to ``(N, T, ...)`` so ``[i]`` is request ``i``'s full output.
        """
        node = self.graph.node(self.graph.output_id)
        if node.merged_time:
            return outputs.reshape((batch_size,)
                                   + tuple(node.output_shape))
        return outputs

    # ------------------------------------------------------------------
    # Streaming (state-carrying) execution
    # ------------------------------------------------------------------
    @property
    def streamable(self) -> bool:
        """True when the plan has recurrent layers to carry state for."""
        return bool(self.state_spec)

    def forward_stream(self, batch: np.ndarray, state: dict):
        """Run one (N, T, ...) chunk batch from carried recurrent state.

        ``T`` (the chunk's timestep count) may differ from the exported
        sequence length — the trailing per-step dims must match. Returns
        ``(outputs, new_state)``; feeding a sequence chunk by chunk,
        threading the state through, is bit-identical to one
        full-sequence :meth:`forward` call on every backend. ``state``
        must fit the plan's recurrent geometry ``state_spec``
        (:func:`~repro.serve.streaming.state.check_state`, one
        ``(N, hidden)`` row block per layer); a ``ShapeError`` says why
        it does not.
        """
        if not self.streamable:
            raise ExportError(
                "plan has no recurrent layers; streaming execution needs "
                "an RNN")
        x = np.asarray(batch)
        step_shape = self.input_shape[1:]
        if x.ndim != len(self.input_shape) + 1 \
                or tuple(x.shape[2:]) != step_shape or x.shape[1] < 1:
            raise ShapeError(
                f"stream chunk expects per-request shape (T,)"
                f" + {step_shape} with T >= 1, got {tuple(x.shape[1:])}")
        return self.compiled.run_stateful(
            self.coerce(x), check_state(self.state_spec, state,
                                        rows=x.shape[0]))

    @property
    def per_step_output(self) -> bool:
        """True when every timestep emits an output row (a time-merged
        decoder): concatenating a session's chunk outputs reproduces the
        offline full-sequence output. False for running-output heads
        (e.g. a take-last classifier), where each chunk yields the
        prediction for the sequence *so far* and only the final chunk's
        output matches the offline run.
        """
        return bool(self.graph.node(self.graph.output_id).merged_time)

    def stream_outputs(self, outputs: np.ndarray,
                       batch_size: int) -> np.ndarray:
        """:meth:`per_request_outputs` for variable-length chunks.

        Time-merged decoders return ``(N*T, ...)`` with ``T`` set by the
        chunk, not the exported sequence length, so the time axis is
        recovered dynamically instead of from the static node shape.
        """
        node = self.graph.node(self.graph.output_id)
        if node.merged_time:
            return outputs.reshape((batch_size, -1)
                                   + tuple(node.output_shape[1:]))
        return outputs

    # ------------------------------------------------------------------
    # FPGA cost model
    # ------------------------------------------------------------------
    def workloads(self, batch: int = 1) -> List[GemmWorkload]:
        """GEMM workloads of one plan pass serving ``batch`` requests.

        Derived from IR node shapes at compile time — available on a
        freshly loaded plan, no forward pass needed. Batched requests fill
        additional output-position lanes, so ``columns`` scales with the
        micro-batch size — the cycle-level source of the serving
        throughput win.
        """
        return self.graph.workloads(batch)

    def simulate(self, design: Optional[GemmDesign] = None,
                 batch: int = 1, **sim_kwargs) -> NetworkPerformance:
        """Price one plan pass on an accelerator design (default: the
        paper's D2-3 XC7Z045 point, Table VII)."""
        if design is None:
            design = reference_designs()["D2-3"]
        return simulate_network(self.workloads(batch), design, **sim_kwargs)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        lines = [self.artifact.summary(), self.compiled.describe()]
        try:
            workloads = self.workloads()
        except ExportError:
            return "\n".join(lines)
        total_macs = sum(w.macs for w in workloads)
        lines.append(f"gemm layers:  {len(workloads)} "
                     f"({total_macs / 1e6:.2f} MMACs/request)")
        return "\n".join(lines)
