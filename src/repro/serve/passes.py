"""Load-time optimization passes over the serving graph IR.

Each pass rewrites a :class:`~repro.serve.ir.Graph` in place and returns a
short human-readable stat ("folded 8") for the compile log. Passes are
**bit-exactness preserving by construction**: they only move work between
nodes (epilogue fusion keeps the original numpy ops in the original
evaluation order inside one kernel) or remove work whose result is provably
identical under ``np.array_equal`` (a ReLU immediately re-clipped by an
unsigned activation quantizer). Nothing here may change a single output
bit — the compile pipeline verifies every optimized backend against the
reference backend afterwards, and a pass that trips that check is a bug.

Pass inventory (run in registry order):

- ``fold_batchnorm``      — BatchNorm following Conv/Linear becomes a kernel
  epilogue of the producer (same 4 numpy ops, no separate graph step).
- ``fuse_activations``    — ReLU/ReLU6 following Conv/Linear becomes a
  kernel epilogue (fused GEMM epilogue).
- ``eliminate_subsumed_relu`` — a ReLU whose only consumer re-clips to
  ``[0, alpha]`` (unsigned activation fake-quant; ``alpha <= 6`` for ReLU6)
  is dead work: ``clip(relu(x), 0, a) == clip(x, 0, a)``. Dropped.
- ``eliminate_dead_ops``  — identity reshapes and nodes unreachable from
  the graph output are removed.
- ``plan_scratch``        — annotates conv nodes with the per-request
  padded-input / im2col-column / GEMM-output scratch shapes so backends can
  preallocate and share buffers across same-shaped layers.
- ``annotate_codegen``    — stamps each node with the kernel library's
  coverage verdict (``native`` vs ``fallback``) so the ``compiled``
  backend's kernel split is decided in one place and visible in the
  compile log.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.errors import ExportError
from repro.serve.ir import Graph, IRNode

PASSES: Dict[str, Callable[[Graph], str]] = {}


def register_pass(fn: Callable[[Graph], str]) -> Callable[[Graph], str]:
    PASSES[fn.__name__] = fn
    return fn


def run_passes(graph: Graph, names: Sequence[str]) -> List[str]:
    """Run ``names`` in order; returns the compile log."""
    log = []
    for name in names:
        if name not in PASSES:
            raise ExportError(f"unknown graph pass {name!r}; "
                              f"available: {sorted(PASSES)}")
        log.append(f"{name}: {PASSES[name](graph)}")
    return log


# ----------------------------------------------------------------------
def _single_consumer(graph: Graph, node: IRNode):
    consumers = graph.consumers(node.id)
    if len(consumers) == 1 and graph.output_id != node.id:
        return consumers[0]
    return None


def _unsigned_act_clip(node: IRNode) -> float:
    """The [0, alpha] re-clip this node applies to its input, or 0.0.

    Conv/Linear nodes with an unsigned activation fake-quant prologue clip
    their input to ``[0, alpha]`` before quantizing — exactly subsuming a
    preceding ReLU (and a ReLU6 when ``alpha <= 6``).
    """
    if node.kind not in ("conv", "linear"):
        return 0.0
    act = node.act_quant
    if act and not act["signed"] and act["alpha"] > 0.0:
        return float(act["alpha"])
    return 0.0


@register_pass
def fold_batchnorm(graph: Graph) -> str:
    folded = 0
    for node in list(graph.nodes):
        if node.kind not in ("batchnorm2d", "batchnorm1d"):
            continue
        producer = graph.producer(node)
        if producer is None or producer.kind not in ("conv", "linear"):
            continue
        if _single_consumer(graph, producer) is not node:
            continue
        # The epilogue replays the exact eager BN arithmetic inside the
        # producer's kernel; only the op-list step disappears.
        producer.epilogues.append({"op": node.kind, "spec": node.spec})
        producer.output_shape = node.output_shape
        graph.remove(node)
        folded += 1
    return f"folded {folded}"


@register_pass
def fuse_activations(graph: Graph) -> str:
    fused = 0
    for node in list(graph.nodes):
        if node.kind not in ("relu", "relu6"):
            continue
        producer = graph.producer(node)
        if producer is None or producer.kind not in ("conv", "linear"):
            continue
        if _single_consumer(graph, producer) is not node:
            continue
        producer.epilogues.append({"op": node.kind})
        graph.remove(node)
        fused += 1
    return f"fused {fused}"


@register_pass
def eliminate_subsumed_relu(graph: Graph) -> str:
    eliminated = 0
    for node in list(graph.nodes):
        consumer = _single_consumer(graph, node)
        if consumer is None:
            continue
        alpha = _unsigned_act_clip(consumer)
        if alpha <= 0.0:
            continue
        # Standalone ReLU/ReLU6 node feeding the quantized consumer.
        if node.kind == "relu" or (node.kind == "relu6" and alpha <= 6.0):
            graph.remove(node)
            eliminated += 1
            continue
        # ReLU/ReLU6 living as the producer's trailing fused epilogue.
        if node.epilogues:
            last = node.epilogues[-1]["op"]
            if last == "relu" or (last == "relu6" and alpha <= 6.0):
                node.epilogues.pop()
                eliminated += 1
        # Residual post-ReLU.
        if node.kind == "add" and node.spec.get("post") == "relu":
            node.spec = dict(node.spec, post=None)
            eliminated += 1
    return f"eliminated {eliminated}"


@register_pass
def eliminate_dead_ops(graph: Graph) -> str:
    removed = 0
    # Identity reshapes: flattening an already-flat per-request tensor.
    for node in list(graph.nodes):
        if node.kind == "flatten" \
                and graph.producer(node).output_shape == node.output_shape:
            graph.remove(node)
            removed += 1
    # Unreachable nodes (e.g. an orphaned branch after other rewrites).
    live = set()
    stack = [graph.output_id]
    while stack:
        node_id = stack.pop()
        if node_id in live:
            continue
        live.add(node_id)
        stack.extend(graph.node(node_id).inputs)
    for node in list(graph.nodes):
        if node.id not in live and node.id != graph.input_id:
            node.inputs = node.inputs[:1]  # make removable
            graph.remove(node)
            removed += 1
    return f"removed {removed}"


@register_pass
def plan_scratch(graph: Graph) -> str:
    """Annotate conv nodes with per-request scratch shapes.

    Backends allocate these once per observed batch size and share buffers
    between nodes with identical shapes (the buffers are dead outside their
    node's kernel, so reuse across layers is safe).
    """
    planned = 0
    for node in graph.nodes:
        if node.kind != "conv":
            continue
        spec = node.spec
        cin, h, w = graph.producer(node).output_shape
        k, pad = spec["kernel"], spec["padding"]
        oc, oh, ow = node.output_shape
        node.scratch = {
            "padded": (cin, h + 2 * pad, w + 2 * pad),
            "cols": (cin * k * k, oh * ow),
            "gemm_out": (oc, oh * ow),
        }
        planned += 1
    return f"planned {planned}"


@register_pass
def annotate_codegen(graph: Graph) -> str:
    """Stamp each node with the native-code coverage verdict.

    ``node.codegen`` becomes ``"native"`` when the kernel library has a
    bit-exact template for the node (see
    :func:`repro.serve.codegen.renderer.supports`) and ``"fallback"``
    otherwise — the ``compiled`` backend serves fallback nodes on the
    fused kernels. Purely descriptive: annotating never changes outputs.
    """
    from repro.serve.codegen.renderer import supports

    native = fallback = 0
    for node in graph.nodes:
        if node.id == graph.input_id:
            continue
        if supports(node):
            node.codegen = "native"
            native += 1
        else:
            node.codegen = "fallback"
            fallback += 1
    return f"native {native}, fallback {fallback}"
