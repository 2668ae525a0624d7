"""Backend plumbing: kernels, scratch pools, and the compiled executor.

A :class:`KernelBackend` turns each IR node into a :class:`Kernel` — a
callable holding everything precomputed at compile time (decoded weights,
activation level tables, einsum paths, scratch shape annotations). The
:class:`CompiledModel` executes the kernels in topological order over a
value table, freeing intermediates at their last use.

The scratch pool (:class:`ExecContext`) is shared by all kernels of one
compiled model: buffers are keyed by (tag, shape, dtype) so two layers with
identically shaped im2col columns transparently share one allocation —
safe, because scratch is only live inside its node's kernel invocation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExportError
from repro.serve.artifact import ServeArtifact
from repro.serve.ir import Graph, IRNode
# Streaming makes GEMM row counts an accident of chunk size and session
# coalescing, so every serving GEMM (and the eager Tensor matmul) funnels
# through the shared row-stable primitive; re-exported here because the
# kernels treat base as their toolbox.
from repro.tensor.tensor import row_stable_matmul  # noqa: F401


#: Run-input shapes whose scratch one :class:`ExecContext` keeps, least
#: recently run evicted first. Above the 16 batch sizes plus 16 stream
#: shapes a warmed server runs per model, so a steady mix never evicts;
#: a stream of ragged chunk lengths cycles through it. The same bound caps
#: the stream shapes a :class:`CompiledModel` remembers as verified.
SCRATCH_SHAPES = 36


class ExecContext:
    """Shared mutable execution state: the scratch buffer pool, plus the
    recurrent-state channels used by streaming execution.

    The pool is kept per run-input shape (:meth:`enter`, called once per
    graph walk) for the :data:`SCRATCH_SHAPES` most recent shapes.
    ``bound`` holds what kernels derive from pooled buffers for the
    current shape (views, pointer tables), so those go with the buffers
    they reference when a shape is evicted, and a re-entered shape gets
    freshly zeroed buffers.

    ``carry_state`` is normally False and RNN kernels behave exactly as
    they always have (implicit zero initial state, no state emission).
    :meth:`CompiledModel.run_stateful` flips it on around one graph walk:
    each RNN kernel then reads its initial per-layer hidden (and cell)
    arrays from ``state_in[node.id]`` — missing entries still mean zeros —
    and deposits fresh copies of its final per-layer state into
    ``state_out[node.id]``. The channels are plain dicts rather than
    kernel arguments so the slot program and every non-RNN kernel stay
    untouched.
    """

    def __init__(self):
        self._shapes: "OrderedDict[tuple, Tuple[dict, dict]]" = \
            OrderedDict()
        self._shape: Optional[tuple] = None
        self.enter(())      # scratch taken outside a graph walk
        self.carry_state: bool = False
        self.state_in: Dict[int, dict] = {}
        self.state_out: Dict[int, dict] = {}

    def enter(self, shape: tuple) -> None:
        """Make ``shape``'s pool current, evicting the least recently
        entered shape's pool past :data:`SCRATCH_SHAPES`."""
        if shape == self._shape:
            return
        entry = self._shapes.get(shape)
        if entry is None:
            if len(self._shapes) >= SCRATCH_SHAPES:
                self._shapes.popitem(last=False)
            entry = self._shapes[shape] = ({}, {})
        else:
            self._shapes.move_to_end(shape)
        self._shape = shape
        self._pool, self.bound = entry

    def scratch(self, tag: str, shape: Tuple[int, ...],
                dtype=np.float32, zeroed: bool = False) -> np.ndarray:
        """A reusable buffer; ``zeroed`` guarantees zero-initialized memory
        at allocation (padded-input borders rely on it staying zero —
        kernels must only ever write the interior)."""
        key = (tag, shape, np.dtype(dtype).str)
        buffer = self._pool.get(key)
        if buffer is None:
            buffer = (np.zeros if zeroed else np.empty)(shape, dtype=dtype)
            self._pool[key] = buffer
        return buffer

    def scratch_bytes(self) -> int:
        return sum(b.nbytes for pool, _ in self._shapes.values()
                   for b in pool.values())


class Kernel:
    """Compiled form of one IR node. Subclasses bind node + arrays at
    compile time and implement ``run``, which takes the values of
    ``sources`` (the node's inputs, unless the kernel covers a run of
    nodes ending at ``node``)."""

    def __init__(self, node: IRNode, ctx: ExecContext):
        self.node = node
        self.ctx = ctx
        self.sources: Tuple[int, ...] = tuple(node.inputs)

    def run(self, *inputs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class KernelBackend:
    """A named kernel set plus the graph passes it wants run first.

    ``copy_output = True`` declares that kernels may return views of pooled
    scratch; the executor then copies the final graph output so results
    survive the next ``run`` call.

    Backends with environmental requirements (the ``compiled`` backend
    needs a C compiler) override :meth:`availability` and name a
    ``fallback`` backend; resolution then degrades gracefully instead of
    failing on machines that lack the requirement.
    """

    name: str = ""
    passes: Tuple[str, ...] = ()
    copy_output: bool = False
    fallback: Optional[str] = None

    def availability(self) -> Tuple[bool, str]:
        """(usable right now?, human-readable note)."""
        return True, "always available"

    def compile_node(self, node: IRNode, graph: Graph,
                     artifact: ServeArtifact, ctx: ExecContext) -> Kernel:
        raise NotImplementedError

    def compile_kernels(self, graph: Graph, artifact: ServeArtifact,
                        ctx: ExecContext, log: List[str]) -> Dict[int, Kernel]:
        """Kernels keyed by node id: one per node by default. A kernel
        may cover a run of nodes — keyed by the run's last node, reading
        its ``sources`` — and the nodes it absorbs get no entry.
        ``log`` collects compile-log lines."""
        return {node.id: self.compile_node(node, graph, artifact, ctx)
                for node in graph.nodes if node.id != graph.input_id}

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class CompiledModel:
    """An executable graph: one kernel per node, run in topological order."""

    def __init__(self, artifact: ServeArtifact, graph: Graph,
                 source_graph: Graph, kernels: Dict[int, Kernel],
                 backend_name: str, pass_log: Optional[List[str]] = None,
                 copy_output: bool = False):
        self.artifact = artifact
        self.graph = graph                # optimized (what executes)
        self.source_graph = source_graph  # pristine lowering (cost model)
        self.kernels = kernels
        self.backend_name = backend_name
        self.pass_log = list(pass_log or [])
        self.copy_output = copy_output
        self._order = [n for n in graph.nodes if n.id != graph.input_id]
        # Compile the graph walk into a flat slot program: one (run, input
        # slots, output slot, slots-to-free) step per kernel (a kernel
        # covering a run of nodes is one step). Freeing intermediates at
        # their last use keeps peak memory at the widest node, not the
        # whole network.
        steps = [kernels[n.id] for n in self._order if n.id in kernels]
        slot = {graph.input_id: 0}
        for index, node in enumerate(self._order, start=1):
            slot[node.id] = index
        last_use: Dict[int, int] = {}
        for index, kernel in enumerate(steps):
            for source in kernel.sources:
                last_use[source] = index
        free_after: Dict[int, List[int]] = {}
        for source, index in last_use.items():
            if source != graph.output_id:
                free_after.setdefault(index, []).append(slot[source])
        self._program = [
            (kernel.run,
             tuple(slot[i] for i in kernel.sources),
             slot[kernel.node.id],
             tuple(free_after.get(index, ())))
            for index, kernel in enumerate(steps)
        ]
        self._out_slot = slot[graph.output_id]
        self._slots = len(self._order) + 1
        # Optional bit-exactness guardrail: when set (by compile_graph, for
        # every non-reference backend), the first batch of each new size is
        # also run through a reference oracle and compared bitwise. The
        # oracle is compiled lazily per check and discarded, so steady-state
        # serving never holds two decoded copies of the weights.
        self.runtime_oracle_factory: Optional[Callable] = None
        self._verified_sizes: set = set()
        # Stream shapes are (batch, timesteps) pairs, unbounded under
        # ragged chunking: keep the SCRATCH_SHAPES most recently run, so
        # an evicted shape is verified again on its next use.
        self._verified_stream_shapes: "OrderedDict[tuple, None]" = \
            OrderedDict()
        # The shared ExecContext, stamped by compile_graph; run_stateful
        # threads recurrent state through it.
        self.ctx: Optional[ExecContext] = None

    def _execute(self, batch: np.ndarray) -> np.ndarray:
        if self.ctx is not None:
            self.ctx.enter(batch.shape)
        values: List[Optional[np.ndarray]] = [None] * self._slots
        values[0] = batch
        for run, sources, target, frees in self._program:
            values[target] = run(*(values[s] for s in sources))
            for dead in frees:
                values[dead] = None
        out = values[self._out_slot] if self._program else batch
        return out.copy() if self.copy_output else out

    def run(self, batch: np.ndarray) -> np.ndarray:
        out = self._execute(batch)
        if self.runtime_oracle_factory is not None \
                and batch.shape[0] not in self._verified_sizes:
            # Kernel/BLAS paths are chosen per shape, so each batch size is
            # its own code path; verify it once, then trust it (the kernels
            # are deterministic for a fixed shape).
            verify_compiled(self, self.runtime_oracle_factory(), [batch],
                            precomputed=out)
            self._verified_sizes.add(batch.shape[0])
        return out

    def run_stateful(self, batch: np.ndarray,
                     state: Dict[int, dict]) -> Tuple[np.ndarray,
                                                      Dict[int, dict]]:
        """One graph walk starting from supplied recurrent state.

        ``state`` maps RNN node id -> ``{"h": [per-layer (n, hidden)
        float32], "c": [...] or None}``; an empty dict (or missing node
        entries) means the usual zero initial state, making
        ``run_stateful(x, {})`` bit-identical to ``run(x)``. Returns the
        output plus the final state in the same layout (fresh arrays,
        never views of pooled scratch). The runtime bit-exactness
        guardrail applies here too: each new (batch, timesteps) shape is
        verified once against a reference oracle fed the same state.
        """
        if self.ctx is None:
            raise ExportError(
                f"backend {self.backend_name!r} model was compiled without "
                "an execution context; stateful runs are unavailable")
        ctx = self.ctx
        ctx.carry_state = True
        ctx.state_in = state
        ctx.state_out = {}
        try:
            out = self._execute(batch)
            new_state = ctx.state_out
        finally:
            ctx.carry_state = False
            ctx.state_in = {}
            ctx.state_out = {}
        shape = batch.shape[:2]
        verified = self._verified_stream_shapes
        if shape in verified:
            verified.move_to_end(shape)
        elif self.runtime_oracle_factory is not None:
            # Same semantics as the stateless guardrail: outputs must be
            # bit-exact. Raw carried state is *not* compared — backends
            # legitimately differ in the last ULP of the hidden state
            # (hoisted n*T-row GEMM vs per-step GEMM accumulation order)
            # while post-quantization outputs agree; the contract that
            # matters (chunked == offline on the same backend) is enforced
            # end-to-end by the streaming test suite.
            oracle = self.runtime_oracle_factory()
            expected, _ = oracle.run_stateful(batch, copy_state(state))
            if not np.array_equal(out, expected, equal_nan=True):
                raise ExportError(
                    f"backend {self.backend_name!r} deviates from the "
                    "reference backend under carried recurrent state; its "
                    "kernels are not bit-exact")
            verified[shape] = None
            if len(verified) > SCRATCH_SHAPES:
                verified.popitem(last=False)
        return out, new_state

    def mark_verified(self, batch_size: int) -> None:
        self._verified_sizes.add(batch_size)

    def describe(self) -> str:
        lines = [f"backend:      {self.backend_name} "
                 f"({len(self._program)} steps, {len(self._order)} nodes)"]
        lines.extend(f"  {entry}" for entry in self.pass_log)
        return "\n".join(lines)


def copy_state(state: Dict[int, dict]) -> Dict[int, dict]:
    """Deep-copy a recurrent-state mapping (node id -> {"h", "c"})."""
    out: Dict[int, dict] = {}
    for node_id, entry in state.items():
        out[node_id] = {
            "h": [np.array(layer, copy=True) for layer in entry["h"]],
            "c": (None if entry.get("c") is None else
                  [np.array(layer, copy=True) for layer in entry["c"]]),
        }
    return out


def verify_compiled(candidate: CompiledModel, reference: CompiledModel,
                    batches: Sequence[np.ndarray],
                    precomputed: Optional[np.ndarray] = None) -> None:
    """Assert ``candidate`` output == ``reference`` output, bitwise (a
    NaN matches a NaN in the same place; payloads are not compared).

    ``precomputed`` short-circuits the candidate run for the first batch
    (used by the runtime guardrail, which already holds the output).
    """
    for index, batch in enumerate(batches):
        if index == 0 and precomputed is not None:
            got = precomputed
        else:
            got = candidate.run(batch)
        expected = reference.run(batch)
        if not np.array_equal(got, expected, equal_nan=True):
            worst = float(np.max(np.abs(
                np.asarray(got, dtype=np.float64)
                - np.asarray(expected, dtype=np.float64))))
            raise ExportError(
                f"backend {candidate.backend_name!r} deviates from the "
                f"reference backend (max |error| {worst:.3e}); its kernels "
                "or passes are not bit-exact")
