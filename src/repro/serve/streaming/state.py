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
arrays the kernels consume (:func:`stack_states`) and copies the returned
final state back into each session's own rows (:func:`store_rows`;
:func:`unstack_state` returns one session's rows as new arrays). Row i of
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
    return sum(layer.nbytes for entry in state.values()
               for key in ("h", "c") for layer in entry.get(key) or ())


def stack_states(states: List[SessionStateDict]) -> SessionStateDict:
    """Stack per-session rows into the batched (n, hidden) kernel form
    (one copy per layer)."""
    batched: SessionStateDict = {}
    for node_id, entry in states[0].items():
        batched[node_id] = {
            key: None if entry.get(key) is None else
            [np.array([state[node_id][key][layer] for state in states])
             for layer in range(len(entry[key]))]
            for key in ("h", "c")}
    return batched


def store_rows(batched: SessionStateDict,
               states: List[SessionStateDict]) -> None:
    """Copy row ``i`` of a batched final state into ``states[i]``'s own
    row arrays, in place: one copy per row and no allocation. A session
    keeps the rows it was opened with, so no session row views (and so
    pins) a batch array or another session's row."""
    for node_id, entry in batched.items():
        for key in ("h", "c"):
            for layer, rows in enumerate(entry.get(key) or ()):
                for state, row in zip(states, rows):
                    state[node_id][key][layer][...] = row


def _map_layers(state: dict, fn, key=lambda node_id: node_id) -> dict:
    """``state`` with ``fn`` applied to every per-layer row block and
    ``key`` to every node id; ``c`` stays None where it is None."""
    return {key(node_id): {
                "h": [fn(layer) for layer in entry["h"]],
                "c": (None if entry.get("c") is None else
                      [fn(layer) for layer in entry["c"]])}
            for node_id, entry in state.items()}


def unstack_state(batched: SessionStateDict, index: int) -> SessionStateDict:
    """Session ``index``'s rows of a batched final state (fresh copies)."""
    return _map_layers(batched, lambda layer: layer[index].copy())


def state_to_wire(state: SessionStateDict) -> dict:
    """JSON-safe encoding of a session state (session migration)."""
    return _map_layers(state, lambda layer: layer.tolist(), str)


def state_from_wire(wire: dict) -> SessionStateDict:
    """Inverse of :func:`state_to_wire`.

    float32 -> Python float -> float32 round-trips exactly (every float32
    is representable as a double), so migration preserves bit-exactness.
    Every row is a fresh array, even one decoded from an array: a
    session updates its rows in place (:func:`store_rows`). A malformed
    encoding raises ``ValueError``.
    """
    try:
        return _map_layers(
            wire, lambda layer: np.array(layer, dtype=np.float32), int)
    except (AttributeError, KeyError) as error:
        raise ValueError(f"malformed session state: {error!r}") from None
