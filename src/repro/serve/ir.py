"""Typed graph IR for the serving compiler.

``lower_artifact`` turns the flat/nested op-spec list stored in a
:class:`~repro.serve.artifact.ServeArtifact` manifest into a small DAG of
:class:`IRNode` objects with inferred per-request output shapes, dtypes and
quantization metadata. Residual blocks are flattened into explicit branch
chains joined by an ``add`` node, so optimization passes
(:mod:`repro.serve.passes`) and kernel backends
(:mod:`repro.serve.backends`) see one uniform node structure instead of
nested spec dicts.

Shape inference is what frees the FPGA cost model from runtime side
effects: every GEMM-bearing node's workload dimensions (rows, reduction,
columns, sequentiality) are derived here from the node geometry and shapes
— :meth:`Graph.workloads` prices a freshly loaded plan without ever running
``forward()``.

The IR is deliberately *descriptive*, not executable: nodes reference the
manifest spec dicts read-only, and backends compile each node into a kernel.
Passes may rewrite graph structure (remove nodes, attach epilogues) but
never mutate the underlying manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ExportError
from repro.fpga.gemm import GemmWorkload
from repro.serve.artifact import ServeArtifact
from repro.tensor.conv import _output_size


@dataclass
class IRNode:
    """One typed node of the serving graph.

    ``spec`` is the (read-only) manifest op dict; ``epilogues`` is filled by
    fusion passes with follow-on element-wise stages (bias/batch-norm/ReLU)
    the backend executes inside this node's kernel, in list order.
    """

    id: int
    kind: str
    spec: dict
    inputs: List[int]
    output_shape: Tuple[int, ...]   # per-request, no batch dimension
    output_dtype: str = "float32"
    name: str = ""
    merged_time: bool = False       # leading per-request dim folded into batch
    epilogues: List[dict] = field(default_factory=list)
    scratch: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    # Index of the top-level manifest op this node was lowered from
    # (residual internals share their block's index). The partition
    # splitter cuts only at top-level op boundaries, so this is the
    # coordinate system for legal cut points. None on the input node
    # and on graphs lowered before partitioning existed.
    op_index: Optional[int] = None
    # Codegen hook, stamped by the ``annotate_codegen`` pass: "native"
    # (the kernel library covers this node) or "fallback" (served by
    # the fused kernels inside a compiled plan). Empty until annotated.
    codegen: str = ""

    @property
    def act_quant(self) -> Optional[dict]:
        """Activation fake-quant prologue spec (or None)."""
        return self.spec.get("act_quant")

    def describe(self) -> str:
        label = self.name or self.kind
        extra = ""
        if self.epilogues:
            extra = " + " + "+".join(e["op"] for e in self.epilogues)
        return (f"{label:24s} {self.kind:14s} -> {self.output_shape}"
                f"{extra}")


class Graph:
    """A topologically ordered DAG of :class:`IRNode` (single input/output).

    Nodes are stored in execution order; ``inputs`` reference earlier node
    ids only. The synthetic ``input`` node (id 0) carries the artifact's
    per-request input shape/dtype.
    """

    def __init__(self, input_shape: Tuple[int, ...], input_dtype: str):
        self._nodes: Dict[int, IRNode] = {}
        self._order: List[int] = []
        self._next_id = 0
        self.input_id = self.add(IRNode(
            id=-1, kind="input", spec={}, inputs=[],
            output_shape=tuple(input_shape), output_dtype=input_dtype,
            name="input")).id
        self.output_id = self.input_id

    # ------------------------------------------------------------------
    def add(self, node: IRNode) -> IRNode:
        node.id = self._next_id
        self._next_id += 1
        self._nodes[node.id] = node
        self._order.append(node.id)
        self.output_id = node.id
        return node

    def node(self, node_id: int) -> IRNode:
        return self._nodes[node_id]

    @property
    def nodes(self) -> List[IRNode]:
        """Nodes in execution (topological) order, input node included."""
        return [self._nodes[i] for i in self._order]

    def consumers(self, node_id: int) -> List[IRNode]:
        return [n for n in self.nodes if node_id in n.inputs]

    def producer(self, node: IRNode) -> Optional[IRNode]:
        """Single-input node's producer (None for the input node)."""
        return self._nodes[node.inputs[0]] if node.inputs else None

    def remove(self, node: IRNode) -> None:
        """Remove a single-input node, rewiring its consumers to its input."""
        if len(node.inputs) != 1:
            raise ExportError(
                f"cannot splice out node {node.id} with {len(node.inputs)} "
                "inputs")
        source = node.inputs[0]
        for consumer in self.consumers(node.id):
            consumer.inputs = [source if i == node.id else i
                               for i in consumer.inputs]
        if self.output_id == node.id:
            self.output_id = source
        del self._nodes[node.id]
        self._order.remove(node.id)

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[IRNode]:
        return iter(self.nodes)

    # ------------------------------------------------------------------
    def rnn_nodes(self) -> List[IRNode]:
        """Recurrent nodes, i.e. the state sites of streaming execution.

        Node ids are assigned by the deterministic lowering order, so the
        same artifact yields the same rnn node ids on every backend —
        which is what lets a recurrent-state mapping (node id -> h/c
        arrays) travel between backends, workers, and the wire.
        """
        return [n for n in self.nodes if n.kind == "rnn"]

    def workloads(self, batch: int = 1) -> List[GemmWorkload]:
        """GEMM workloads of one graph pass serving ``batch`` requests.

        Derived entirely from IR node shapes — no forward pass needed.
        Batched requests fill additional output-position lanes, so
        ``columns`` scales with the micro-batch size.
        """
        specs: List[dict] = []
        for node in self.nodes:
            specs.extend(node_workloads(node, self))
        if not specs:
            raise ExportError("plan has no GEMM workloads")
        return [GemmWorkload(name=s["name"], rows=s["rows"],
                             reduction=s["reduction"],
                             columns=s["columns"] * batch,
                             sequential_columns=s["sequential"])
                for s in specs]

    def token_bound(self) -> Optional[int]:
        """Token ids lie in ``[0, token_bound)``: the smallest embedding
        table that reads the graph input (None when none does)."""
        bounds = [n.spec["table_size"] for n in self.nodes
                  if n.kind == "embedding" and n.inputs == [self.input_id]]
        return min(bounds) if bounds else None

    def describe(self) -> str:
        return "\n".join(node.describe() for node in self.nodes)


# ----------------------------------------------------------------------
# Workload derivation (mirrors what the execution plan used to record on
# its first forward pass, now computed from static shapes)
# ----------------------------------------------------------------------
def node_workloads(node: IRNode, graph: Graph) -> List[dict]:
    """Per-request GEMM dims of one node (empty for non-GEMM nodes)."""
    spec = node.spec
    if node.kind == "conv":
        k = spec["kernel"]
        groups = spec["groups"]
        cg = spec["in_channels"] // groups
        # im2col packs channels and kernel taps jointly into the reduction
        # lanes; depthwise convs reduce only over their own k*k taps.
        depthwise = groups == spec["in_channels"] > 1
        oh, ow = node.output_shape[1], node.output_shape[2]
        return [{"name": node.name, "rows": spec["out_channels"],
                 "reduction": (k * k if depthwise else cg * k * k),
                 "columns": oh * ow, "sequential": False}]
    if node.kind == "linear":
        producer = graph.node(node.inputs[0])
        # After merge_time the leading per-request dim (T) is folded into
        # the batch: this layer computes T output columns per request.
        columns = producer.output_shape[0] if producer.merged_time else 1
        return [{"name": node.name, "rows": spec["out_features"],
                 "reduction": spec["in_features"], "columns": columns,
                 "sequential": False}]
    if node.kind == "rnn":
        steps = graph.node(node.inputs[0]).output_shape[0]
        out: List[dict] = []
        for cell in spec["cells"]:
            rows_ih = cell["weight_ih"]["shape"][0]
            rows_hh = cell["weight_hh"]["shape"][0]
            out.append({"name": f"{node.name}.{len(out)}", "rows": rows_ih,
                        "reduction": cell["weight_ih"]["shape"][1],
                        "columns": steps, "sequential": False})
            # The W_hh GEMM serializes over timesteps (h_{t} needs h_{t-1}).
            out.append({"name": f"{node.name}.{len(out)}", "rows": rows_hh,
                        "reduction": cell["weight_hh"]["shape"][1],
                        "columns": steps, "sequential": True})
        return out
    return []


# ----------------------------------------------------------------------
# Shape inference
# ----------------------------------------------------------------------
def _infer_shape(kind: str, spec: dict,
                 shape: Tuple[int, ...]) -> Tuple[int, ...]:
    """Per-request output shape of one op applied to input ``shape``."""
    if kind == "conv":
        if len(shape) != 3:
            raise ExportError(f"conv expects (C, H, W) input, got {shape}")
        k, s, p = spec["kernel"], spec["stride"], spec["padding"]
        return (spec["out_channels"],
                _output_size(shape[1], k, s, p),
                _output_size(shape[2], k, s, p))
    if kind == "linear":
        return shape[:-1] + (spec["out_features"],)
    if kind in ("batchnorm2d", "batchnorm1d", "relu", "relu6"):
        return shape
    if kind == "flatten":
        return (int(np.prod(shape)),)
    if kind == "globalavgpool":
        return (shape[0],)
    if kind == "maxpool":
        k, s = spec["kernel"], spec["stride"]
        p = spec.get("padding", 0)
        return (shape[0], _output_size(shape[1], k, s, p),
                _output_size(shape[2], k, s, p))
    if kind == "avgpool":
        k, s = spec["kernel"], spec["stride"]
        return (shape[0], _output_size(shape[1], k, s, 0),
                _output_size(shape[2], k, s, 0))
    if kind == "embedding":
        return shape + (spec["embed_dim"],)
    if kind == "merge_time":
        return shape
    if kind == "take_last":
        return shape[1:]
    if kind == "rnn":
        return (shape[0], spec["hidden_size"])
    raise ExportError(f"no shape rule for IR node kind {kind!r}")


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------
def lower_artifact(artifact: ServeArtifact) -> Graph:
    """Lower a manifest's op-spec list into a typed :class:`Graph`."""
    manifest = artifact.manifest
    graph = Graph(tuple(manifest["input_shape"]), manifest["input_dtype"])
    source = graph.input_id
    for index, spec in enumerate(manifest["ops"]):
        before = graph._next_id
        source = _lower_op(graph, artifact, spec, source)
        for node_id in range(before, graph._next_id):
            graph.node(node_id).op_index = index
    graph.output_id = source
    return graph


def _lower_chain(graph: Graph, artifact: ServeArtifact, specs: List[dict],
                 source: int) -> int:
    for spec in specs:
        source = _lower_op(graph, artifact, spec, source)
    return source


def _lower_op(graph: Graph, artifact: ServeArtifact, spec: dict,
              source: int) -> int:
    kind = spec["kind"]
    if kind == "residual":
        main = _lower_chain(graph, artifact, spec["main"], source)
        shortcut = _lower_chain(graph, artifact, spec["shortcut"] or [],
                                source)
        node = graph.add(IRNode(
            id=-1, kind="add", spec={"post": spec["post"]},
            inputs=[main, shortcut],
            output_shape=graph.node(main).output_shape,
            name="residual-add"))
        return node.id

    producer = graph.node(source)
    shape = producer.output_shape
    if kind == "embedding":
        # The lowered spec gains the table geometry so shape inference and
        # synthetic-batch generation need no array access.
        table = artifact.arrays[spec["weight"]]
        spec = dict(spec, table_size=int(table.shape[0]),
                    embed_dim=int(table.shape[1]))
    node = graph.add(IRNode(
        id=-1, kind=kind, spec=spec, inputs=[source],
        output_shape=_infer_shape(kind, spec, shape),
        name=spec.get("name", ""),
        merged_time=(kind == "merge_time") or
                    (producer.merged_time and kind in ("linear", "relu"))))
    return node.id


def record_workloads(graph: Graph) -> None:
    """Write IR-derived workload dims into the manifest op specs.

    Keeps exported artifacts self-describing in the ``repro-serve/1``
    format (``workload`` keys on GEMM ops) — emitted from the IR at export
    time instead of as a first-forward side effect. Loaders never read
    these back; they re-derive workloads from shapes.
    """
    for node in graph.nodes:
        dims = node_workloads(node, graph)
        if not dims:
            continue
        stripped = [{k: v for k, v in d.items() if k != "name"}
                    for d in dims]
        node.spec["workload"] = stripped if node.kind == "rnn" \
            else stripped[0]


# ----------------------------------------------------------------------
# Synthetic inputs (compile-time backend verification)
# ----------------------------------------------------------------------
def synthetic_batch(graph: Graph, n: int = 2, seed: int = 0) -> np.ndarray:
    """A deterministic (n, ...) batch matching the graph's input signature.

    Used to verify a compiled backend against the reference backend at
    compile time; token inputs are drawn below the smallest embedding
    table so index lookups stay valid.
    """
    rng = np.random.default_rng(seed)
    node = graph.node(graph.input_id)
    dtype = np.dtype(node.output_dtype)
    shape = (n,) + node.output_shape
    if np.issubdtype(dtype, np.floating):
        return rng.normal(size=shape).astype(dtype)
    return rng.integers(0, graph.token_bound(), size=shape).astype(dtype)
