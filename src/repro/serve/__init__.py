"""Batched quantized-inference serving (the deployment layer, paper §V).

Where :mod:`repro.quant` produces a quantized model and :mod:`repro.fpga`
prices it on an accelerator, this package actually *serves* it: a trained
model is frozen into a packed-weight artifact, compiled through a graph IR
and optimization passes into a backend's kernels, and driven by a
micro-batching server whose reports pair wall-clock numbers with the
accelerator cycle model's simulated latency.

Compile-and-serve pipeline and the module implementing each stage::

    Pipeline.fit / post_training_quantize        (repro.api / serve.ptq)
        -> build_artifact -> ServeArtifact (.npz) (serve.export / serve.artifact)
        -> graph IR (typed nodes, shapes)        (serve.ir)
        -> optimization passes (fold/fuse/DCE)   (serve.passes)
        -> kernel backend                        (serve.backends)
           (reference | fused | compiled via serve.codegen C kernels)
        -> ExecutionPlan facade                  (serve.plan)
        -> InferenceEngine                       (serve.engine)
        -> DynamicBatcher                        (serve.batcher)
        -> ModelServer -> InferenceFuture        (serve.server / futures)

The artifact stores exactly what the FPGA datapath would: packed integer
weight words (Table I encodings via :mod:`repro.quant.encoding`), the
SP2/fixed row partition of every MSQ layer (:mod:`repro.quant.partition`),
per-row scales, and frozen activation clipping ranges. Compiling
dequantizes once; per-request work is pure batched numpy, bit-identical to
the eager quantized model on **every** backend — the reference backend is
verified against eager at export, and every other backend is verified
against the reference at compile time.

Requests are served through :class:`~repro.serve.server.ModelServer`: an
async multi-model front end — ``submit(model, x)`` returns an
:class:`~repro.serve.futures.InferenceFuture`, per-model
:class:`~repro.serve.batcher.DynamicBatcher`\\ s queue requests, and a
model that is not busy takes what is queued, up to ``max_batch`` (no
batching deadline). Background workers execute one in-flight batch per
model, and ``load``/``unload``/``alias``/``warmup`` manage the hosted
set. With ``cache_mb`` set, submits run cache → in-flight table → batcher
(:mod:`repro.serve.cache`): byte-identical repeat payloads are answered
from a content-addressed LRU (sound because serving is bit-exact), and
concurrent identical submits coalesce onto one batcher slot.

Every model-addressed front end — ``ModelServer``, ``ClusterRouter``,
``PipelineEngine``, ``PipelineCluster`` — implements one declared
:class:`~repro.serve.frontend.Server` protocol (submit/predict/drain,
stats, close, session ops, with one error vocabulary), which is what the
JSON-lines protocol and the CLI drive.

``python -m repro serve`` exposes the info/run loop on the command line
(``run --backend fused`` picks the kernels; ``up`` starts a multi-model
server speaking JSON-lines on stdin/stdout); see :mod:`repro.serve.cli`.

Above the single process sits the distributed tier
(:mod:`repro.serve.cluster`): a :class:`ClusterRouter` places requests
across N worker processes (each a full ``ModelServer`` speaking the same
protocol over the length-framed transport of
:mod:`repro.serve.transport`), with pluggable placement policies
(:mod:`repro.serve.placement`), admission control, rolling restarts, and
deterministic fault injection (:class:`FaultPlan` + in-process
:class:`FakeTransport`) for chaos testing without sockets or sleeps.
``python -m repro serve cluster`` is the CLI front door.

RNN models also serve *statefully* (:mod:`repro.serve.streaming`): a
client opens a session (``open_session``), feeds its input incrementally
in arbitrary chunk sizes (``submit_stream``), and the recurrent state
between chunks lives server-side in a :class:`SessionStore` (sliding TTL
+ LRU byte budget). A :class:`StreamBatcher` coalesces chunks from
distinct sessions into one time-major micro-batch, and the backends
thread state through the same kernels — feeding any chunking is
``np.array_equal`` to the offline full-sequence run on every backend.
On the cluster, sessions get sticky worker placement, typed
:class:`~repro.errors.SessionError` on worker loss, and migration across
rolling restarts.

Models too large for any one device partition across several
(:mod:`repro.serve.partition`): ``split_artifact`` cuts the lowered IR at
legal stage boundaries into per-stage sub-artifacts that re-enter the
compile path unchanged, and ``PipelineEngine`` / ``PipelineCluster``
serve the stages as a pipeline (bounded inter-stage queues in-process,
or one cluster worker per stage with activations on the framed
transport) — bit-identical to the single-device plan, with steady-state
throughput set by the slowest stage. ``python -m repro serve pipeline``
demos the loop.
"""

from repro.serve.artifact import ServeArtifact
from repro.serve.backends import (
    backend_availability,
    compile_graph,
    get_backend,
    list_backends,
    register_backend,
    resolve_backend,
)
from repro.serve.batcher import DynamicBatcher, ServedRequest, coerce_payload
from repro.serve.cache import InflightTable, ResponseCache
from repro.serve.engine import EngineStats, InferenceEngine, ThroughputStats
from repro.serve.export import build_artifact, eager_forward
from repro.serve.frontend import Server
from repro.serve.futures import InferenceFuture, gather
from repro.serve.ir import Graph, IRNode, lower_artifact
from repro.serve.plan import ExecutionPlan
from repro.serve.ptq import post_training_quantize
from repro.serve.cluster import (
    ClusterRouter,
    LocalWorker,
    ProcessWorker,
    RoutedRequest,
    RouterStats,
)
from repro.serve.partition import (
    CutPoint,
    PartitionPlan,
    PipelineCluster,
    PipelineEngine,
    auto_cuts,
    legal_cut_points,
    local_pipeline_cluster,
    process_pipeline_cluster,
    split_artifact,
)
from repro.serve.placement import (
    PlacementPolicy,
    WorkerView,
    get_placement,
    list_placements,
    register_placement,
)
from repro.serve.server import ModelServer, ModelStats
from repro.serve.streaming import (
    SessionEntry,
    SessionStore,
    StreamBatcher,
    StreamChunk,
    fresh_state,
    rnn_state_spec,
    stack_states,
    state_from_wire,
    state_nbytes,
    state_to_wire,
    unstack_state,
)
from repro.serve.transport import (
    FakeTransport,
    FaultPlan,
    SocketTransport,
    array_from_wire,
    array_to_wire,
)

__all__ = [
    "ServeArtifact",
    "EngineStats",
    "InferenceEngine",
    "ThroughputStats",
    "build_artifact",
    "eager_forward",
    "ExecutionPlan",
    "Graph",
    "IRNode",
    "backend_availability",
    "compile_graph",
    "get_backend",
    "list_backends",
    "resolve_backend",
    "lower_artifact",
    "register_backend",
    "post_training_quantize",
    "DynamicBatcher",
    "coerce_payload",
    "ResponseCache",
    "InflightTable",
    "InferenceFuture",
    "gather",
    "ModelServer",
    "ModelStats",
    "Server",
    "ServedRequest",
    "ClusterRouter",
    "LocalWorker",
    "ProcessWorker",
    "RoutedRequest",
    "RouterStats",
    "CutPoint",
    "PartitionPlan",
    "PipelineCluster",
    "PipelineEngine",
    "auto_cuts",
    "legal_cut_points",
    "local_pipeline_cluster",
    "process_pipeline_cluster",
    "split_artifact",
    "PlacementPolicy",
    "WorkerView",
    "register_placement",
    "get_placement",
    "list_placements",
    "FaultPlan",
    "FakeTransport",
    "SocketTransport",
    "array_to_wire",
    "array_from_wire",
    "SessionEntry",
    "SessionStore",
    "StreamBatcher",
    "StreamChunk",
    "fresh_state",
    "rnn_state_spec",
    "stack_states",
    "state_from_wire",
    "state_nbytes",
    "state_to_wire",
    "unstack_state",
]
