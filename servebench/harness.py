"""Load generation and summary statistics for the serving benchmark.

One generator thread drives every phase:

- :func:`run_burst` submits a fixed number of operations back to back
  (or through an in-flight window, for a front end with admission
  control) and awaits them all, one round at a time;
- :func:`run_open_loop` sends on a precomputed Poisson schedule whatever
  the system's state, with the operator ``stats()`` poll mixed into the
  same schedule, so a slow poll delays later sends exactly as it would
  delay a real client.

Each operation's completion time is stamped by a done-callback on the
thread that resolves it. Open-loop latency is measured from the
operation's *scheduled* send time, so a generator stall counts against
every request it delays; :attr:`Phase.lag_ms` reports how late the
generator actually sent.

Both phases are cut into intervals (burst rounds, half-second open-loop
windows), and each interval records the share of machine time the
hypervisor gave to other guests (steal, from ``/proc/stat``). On a
shared host that share swings from 0 to 30% within seconds and moves
every timing here with it, so the reported figures are taken over the
intervals that were disturbed least (:func:`quiet`): the benchmark
measures the program, not its neighbours, as far as the host allows.

The generator holds an operation's future only while it is in flight:
its done-callback copies out what the output checks need (plain values
and the output array) and drops it, so the program's objects live and
die exactly as they would for a client that forgets answered requests.
"""

from __future__ import annotations

import threading
import time
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

clock = time.perf_counter

#: Seconds to wait for one operation after its phase stopped sending.
RESULT_TIMEOUT_S = 60.0

#: Steal share at or below which an interval counts as undisturbed.
QUIET_STEAL = 0.02

#: Fewest intervals a reported figure is taken over.
MIN_QUIET = 3

#: Length of one open-loop window, seconds.
WINDOW_S = 0.5

#: Period of the open loop's operator ``stats()`` poll, seconds.
POLL_PERIOD_S = 1.0


def steal_ticks() -> Tuple[int, int]:
    """(steal, total) jiffies of the whole machine from ``/proc/stat``;
    (0, 0) where that is unavailable."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    return (after[0] - before[0]) / max(1, after[1] - before[1])


def quiet(steal: Sequence[float]) -> np.ndarray:
    """Mask of the intervals the host disturbed least: every interval
    with steal at or below :data:`QUIET_STEAL` when there are at least
    :data:`MIN_QUIET` of them, else the :data:`MIN_QUIET` intervals with
    the least steal."""
    steal = np.asarray(steal, dtype=np.float64)
    calm = steal <= QUIET_STEAL
    if calm.sum() >= min(MIN_QUIET, steal.size):
        return calm
    calm[np.argsort(steal, kind="stable")[:MIN_QUIET]] = True
    return calm


class Phase:
    """Per-operation records of one timed phase.

    :meth:`record` fills one row when the operation's future resolves;
    rows of operations that failed or never resolved keep ``failed``.
    Request columns hold -1 / None / NaN where the front end reports no
    request record (session chunks).
    """

    def __init__(self, name: str, count: int):
        self.name = name
        self.scheduled = np.zeros(count)
        self.sent = np.zeros(count)
        self.done = np.full(count, np.nan)
        self.failed = np.ones(count, dtype=bool)
        self.outputs: List[Optional[np.ndarray]] = [None] * count
        self.payload: List[Optional[np.ndarray]] = [None] * count
        self.model: List[Optional[str]] = [None] * count
        self.worker: List[Optional[str]] = [None] * count
        self.rid = np.full(count, -1, dtype=np.int64)
        self.batch_id = np.full(count, -1, dtype=np.int64)
        self.batch_size = np.zeros(count, dtype=np.int64)
        self.cached = np.zeros(count, dtype=bool)
        self.coalesced = np.zeros(count, dtype=bool)
        self.served_ms = np.full(count, np.nan)   # the request's own latency
        self.start = 0.0
        self.end = 0.0
        self.round_rps: List[float] = []
        self.steal: List[float] = []    # per round / per window
        self.pending: dict = {}         # index -> future still in flight
        self.settled = threading.Condition()

    def __len__(self) -> int:
        return len(self.failed)

    @property
    def window(self) -> tuple:
        return (self.start, self.end)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def throughput_rps(self) -> float:
        """Operations completed per second over the least-disturbed burst
        rounds: their operations over their time (rounds are equal in
        size, so the harmonic mean of their rates)."""
        rates = np.asarray(self.round_rps)[quiet(self.steal)]
        return float(1.0 / np.mean(1.0 / rates))

    @property
    def lag_ms(self) -> np.ndarray:
        return (self.sent - self.scheduled) * 1e3

    def latency_ms(self) -> np.ndarray:
        """Scheduled send -> done-callback, per operation (ms)."""
        return (self.done - self.scheduled) * 1e3

    def record(self, index: int, future) -> None:
        """Done-callback: copy out operation ``index``'s outcome, then
        forget its future."""
        self.done[index] = clock()
        if future.exception() is None:
            self.outputs[index] = future.result()
            self.model[index] = future.model
            request = future.request
            if request is not None:
                self.rid[index] = request.id
                self.payload[index] = getattr(request, "payload", None)
                self.worker[index] = getattr(request, "worker", None)
                if request.batch_id is not None:
                    self.batch_id[index] = request.batch_id
                    self.batch_size[index] = request.batch_size
                self.cached[index] = request.cached
                self.coalesced[index] = request.coalesced
                self.served_ms[index] = request.latency_ms
            self.failed[index] = False
        with self.settled:
            self.pending.pop(index, None)
            if not self.pending:
                self.settled.notify_all()


def _await(phase: Phase) -> None:
    """Wait until every operation sent so far is recorded (or
    :data:`RESULT_TIMEOUT_S` passed; what is left counts as failed)."""
    with phase.settled:
        phase.settled.wait_for(lambda: not phase.pending,
                               timeout=RESULT_TIMEOUT_S)


def _send(phase: Phase, index: int, send: Callable, tracer,
          release: Optional[Callable] = None) -> None:
    phase.sent[index] = clock()
    tracer.set_rid(index)
    try:
        future = send(index)
    finally:
        tracer.set_rid(None)
    phase.pending[index] = future
    future.add_done_callback(partial(phase.record, index))
    if release is not None:
        future.add_done_callback(release)


def run_burst(name: str, rounds: Sequence[Sequence[int]], send: Callable,
              tracer, window: Optional[int] = None) -> Phase:
    """Submit each round's operations back to back and await them.

    With ``window`` set, at most that many operations are in flight at
    once (the generator blocks on a completion before sending more), so
    a front end that sheds above its admission capacity never sheds.
    Each round's rate is ``len(round) / (last completion - first
    send)``; :attr:`Phase.round_rps` keeps them all.
    """
    count = sum(len(indices) for indices in rounds)
    phase = Phase(name, count)
    gate = threading.BoundedSemaphore(window) if window else None
    release = (lambda _future: gate.release()) if gate else None
    phase.start = clock()
    for indices in rounds:
        ticks = steal_ticks()
        started = clock()
        for index in indices:
            if gate is not None:
                gate.acquire()
            phase.scheduled[index] = clock()
            _send(phase, index, send, tracer, release)
        _await(phase)
        finished = np.nanmax(phase.done[list(indices)])
        phase.round_rps.append(len(indices) / (finished - started))
        phase.steal.append(steal_share(ticks, steal_ticks()))
    phase.end = clock()
    return phase


def run_open_loop(name: str, offsets: np.ndarray, send: Callable,
                  poll: Callable, tracer) -> Phase:
    """Send operation ``i`` at ``start + offsets[i]``; call ``poll()``
    every :data:`POLL_PERIOD_S` on the same schedule; await everything.

    ``phase.steal[k]`` is the steal share of window ``k``: scheduled
    offsets ``[k, k + 1) * WINDOW_S``."""
    count = len(offsets)
    phase = Phase(name, count)
    horizon = float(offsets[-1]) if count else 0.0
    events = sorted(
        [(float(offset), 0, index) for index, offset in enumerate(offsets)]
        + [(float(offset), 1, 0)
           for offset in np.arange(WINDOW_S, horizon, WINDOW_S)]
        + [(float(offset), 2, 0)
           for offset in np.arange(POLL_PERIOD_S, horizon, POLL_PERIOD_S)])
    ticks = [steal_ticks()]
    start = clock() + 0.01
    phase.start = start
    for offset, kind, index in events:
        due = start + offset
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        if kind == 1:
            ticks.append(steal_ticks())
        elif kind == 2:
            poll()
        else:
            phase.scheduled[index] = due
            _send(phase, index, send, tracer)
    ticks.append(steal_ticks())
    phase.steal = [steal_share(before, after)
                   for before, after in zip(ticks, ticks[1:])]
    _await(phase)
    phase.end = float(np.nanmax(phase.done)) if count else clock()
    return phase


def poisson_offsets(rng: np.random.Generator, rate: float,
                    duration_s: float) -> np.ndarray:
    """Arrival offsets of a Poisson process at ``rate`` over
    ``duration_s`` seconds."""
    expected = int(rate * duration_s * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, expected))
    return offsets[offsets < duration_s]


def window_percentiles(phase: Phase, keep: np.ndarray,
                       q: float) -> List[Optional[float]]:
    """Each window's ``q``-th latency percentile over the operations
    flagged in ``keep`` (None for a window with under 100 of them)."""
    window = (phase.scheduled - phase.start) // WINDOW_S
    latency = phase.latency_ms()
    values = []
    for index in range(len(phase.steal)):
        inside = keep & (window == index)
        values.append(percentile(latency[inside], q)
                      if inside.sum() >= 100 else None)
    return values


def windowed_percentile(phase: Phase, keep: np.ndarray, q: float) -> float:
    """Median, over the phase's least-disturbed windows, of each
    window's ``q``-th latency percentile."""
    windows = [(value, steal) for value, steal in
               zip(window_percentiles(phase, keep, q), phase.steal)
               if value is not None]
    if not windows:
        return percentile(phase.latency_ms()[keep], q)
    values, steal = np.array(windows).T
    return float(np.median(values[quiet(steal)]))


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    values = values[np.isfinite(values)]
    return float(np.percentile(values, q)) if values.size else 0.0


def mean(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    values = values[np.isfinite(values)]
    return float(values.mean()) if values.size else 0.0
