"""Recurrent-state containers and helpers for streaming sessions.

A *session state* is the per-session form of the state mapping that
:meth:`repro.serve.backends.base.CompiledModel.run_stateful` threads
through a graph walk: ``{rnn node id: {"h": [per-layer (hidden,) float32
rows], "c": [...] or None}}``. Node ids come from the deterministic
lowering order (:meth:`repro.serve.ir.Graph.rnn_nodes`), so the same
artifact produces the same ids on every backend — a state captured under
one backend (or exported over the wire for migration) seeds any other
bit-exactly.

Batched execution stacks one row per session into the ``(n, hidden)``
arrays the kernels consume (:func:`stack_states`) and splits the returned
final state back into per-session rows (:func:`unstack_state`). Row i of
every GEMM depends only on row i of its input, so a session's trajectory
is bit-identical whatever other sessions share its micro-batches — the
same row-wise invariant the fused backend's hoisted input GEMM rests on.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import ShapeError
from repro.serve.ir import Graph

SessionStateDict = Dict[int, dict]


def rnn_state_spec(graph: Graph) -> List[dict]:
    """Per-RNN-node state geometry: node id, cell kind, layers, width."""
    return [{"node": node.id, "cell": node.spec["cell"],
             "layers": len(node.spec["cells"]),
             "hidden": node.spec["hidden_size"]}
            for node in graph.rnn_nodes()]


def check_state(spec: List[dict], state: SessionStateDict,
                rows: Optional[int] = None) -> SessionStateDict:
    """``state`` checked against the recurrent geometry ``spec``
    (:func:`rnn_state_spec`) and completed: an entry for every RNN node,
    rows as C-contiguous float32 (no copy when they already are).

    ``rows=None`` checks the per-session form (``(hidden,)`` rows) and
    ``rows=n`` the batched ``(n, hidden)`` form. Each entry must name an
    RNN node of ``spec``, hold one floating row block per layer, and
    carry ``c`` only for an LSTM; a node, ``h`` or ``c`` left out starts
    from zeros. Anything else raises :class:`~repro.errors.ShapeError`.
    """
    checked: SessionStateDict = {}
    for node in spec:
        node_id, lstm = node["node"], node["cell"] == "lstm"
        entry = state.get(node_id, {})
        if entry.get("c") is not None and not lstm:
            raise ShapeError(f"state of GRU node {node_id} carries 'c'; "
                             "only an LSTM has a cell state")
        width = (node["hidden"],) if rows is None else (rows, node["hidden"])
        out = checked[node_id] = {"h": None, "c": None}
        for key in ("h", "c") if lstm else ("h",):
            layers = entry.get(key)
            if layers is None:
                layers = [np.zeros(width, np.float32)
                          for _ in range(node["layers"])]
            if len(layers) != node["layers"]:
                raise ShapeError(f"state {key} of node {node_id} has "
                                 f"{len(layers)} layers, not {node['layers']}")
            out[key] = []
            for layer in layers:
                layer = np.asarray(layer)
                if layer.shape != width or layer.dtype.kind != "f":
                    raise ShapeError(
                        f"state {key} of node {node_id}: rows must be "
                        f"floating {width}, got {layer.dtype} {layer.shape}")
                out[key].append(np.ascontiguousarray(layer, dtype=np.float32))
    unknown = state.keys() - checked.keys()
    if unknown:
        raise ShapeError(f"state names nodes {sorted(unknown, key=repr)}; "
                         f"the plan's recurrent nodes are {list(checked)}")
    return checked


def fresh_state(graph: Graph) -> SessionStateDict:
    """A zero per-session state for every RNN node of ``graph``."""
    return check_state(rnn_state_spec(graph), {})


def state_nbytes(state: SessionStateDict) -> int:
    """Bytes held by one state mapping (the session-store budget unit)."""
    total = 0
    for entry in state.values():
        total += sum(layer.nbytes for layer in entry["h"])
        if entry.get("c") is not None:
            total += sum(layer.nbytes for layer in entry["c"])
    return total


def stack_states(states: List[SessionStateDict]) -> SessionStateDict:
    """Stack per-session rows into the batched (n, hidden) kernel form."""
    first = states[0]
    batched: SessionStateDict = {}
    for node_id, entry in first.items():
        batched[node_id] = {
            "h": [np.stack([s[node_id]["h"][layer] for s in states])
                  for layer in range(len(entry["h"]))],
            "c": (None if entry.get("c") is None else
                  [np.stack([s[node_id]["c"][layer] for s in states])
                   for layer in range(len(entry["c"]))]),
        }
    return batched


def unstack_state(batched: SessionStateDict, index: int) -> SessionStateDict:
    """Session ``index``'s rows of a batched final state (fresh copies)."""
    state: SessionStateDict = {}
    for node_id, entry in batched.items():
        state[node_id] = {
            "h": [layer[index].copy() for layer in entry["h"]],
            "c": (None if entry.get("c") is None else
                  [layer[index].copy() for layer in entry["c"]]),
        }
    return state


def state_to_wire(state: SessionStateDict) -> dict:
    """JSON-safe encoding of a session state (session migration)."""
    wire = {}
    for node_id, entry in state.items():
        wire[str(node_id)] = {
            "h": [layer.tolist() for layer in entry["h"]],
            "c": (None if entry.get("c") is None else
                  [layer.tolist() for layer in entry["c"]]),
        }
    return wire


def state_from_wire(wire: dict) -> SessionStateDict:
    """Inverse of :func:`state_to_wire`.

    float32 -> Python float -> float32 round-trips exactly (every float32
    is representable as a double), so migration preserves bit-exactness.
    A malformed encoding raises ``ValueError``.
    """
    state: SessionStateDict = {}
    try:
        for node_key, entry in wire.items():
            state[int(node_key)] = {
                "h": [np.asarray(layer, dtype=np.float32)
                      for layer in entry["h"]],
                "c": (None if entry.get("c") is None else
                      [np.asarray(layer, dtype=np.float32)
                       for layer in entry["c"]]),
            }
    except (AttributeError, KeyError) as error:
        raise ValueError(f"malformed session state: {error!r}") from None
    return state
