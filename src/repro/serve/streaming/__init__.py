"""Stateful streaming sessions over the batched serving engine.

This package is the session tier in front of the stateless serving
pipeline: it lets a client feed an RNN model its input *incrementally* —
chunk by chunk, in arbitrary chunk sizes — while the recurrent state
between chunks lives server-side. Three pieces compose:

- :class:`~repro.serve.streaming.store.SessionStore` — per-session
  recurrent state (per-layer hidden/cell arrays keyed by session id) with
  sliding TTL and LRU byte-budget eviction against the injectable clock;
- :class:`~repro.serve.streaming.batcher.StreamBatcher` — coalesces the
  head chunks of distinct sessions into one time-major micro-batch
  (same-length heads only; one chunk per session per batch);
- :mod:`~repro.serve.streaming.state` — the state containers: fresh/zero
  state from a graph, batch stacking and the in-place hand-back of each
  session's final rows, byte accounting, and an exact wire encoding for
  session migration.

The execution side lives in the backends
(:meth:`~repro.serve.backends.base.CompiledModel.run_stateful` plus the
state-aware RNN kernels) and in
:meth:`~repro.serve.plan.ExecutionPlan.forward_stream`. The correctness
contract, enforced by the test suite on every backend: feeding a sequence
in any chunking, threading state through, is ``np.array_equal`` to the
offline full-sequence run.

Server surface: ``ModelServer.open_session / submit_stream /
close_session``; wire surface: the ``stream_open`` / ``stream_submit`` /
``stream_close`` JSON-lines ops; cluster surface: session-sticky
placement on :class:`~repro.serve.cluster.ClusterRouter` with typed
:class:`~repro.errors.SessionError` on worker loss and session migration
across rolling restarts.
"""

from repro.serve.streaming.batcher import StreamBatcher, StreamChunk
from repro.serve.streaming.state import (
    check_state,
    fresh_state,
    rnn_state_spec,
    stack_states,
    state_from_wire,
    state_nbytes,
    state_to_wire,
    unstack_state,
)
from repro.serve.streaming.store import SessionEntry, SessionStore

__all__ = [
    "SessionEntry",
    "SessionStore",
    "StreamBatcher",
    "StreamChunk",
    "check_state",
    "fresh_state",
    "rnn_state_spec",
    "stack_states",
    "state_from_wire",
    "state_nbytes",
    "state_to_wire",
    "unstack_state",
]
