"""Pluggable request placement for the cluster router.

A placement policy answers one question: *given a request for model M,
in which order should the router try the workers that host M?* The
router then admits the request to the first worker in that order that
is alive, accepting, and under its in-flight capacity — so a policy
expresses preference, and admission control stays in one place.

Policies register by name, same decorator idiom as the scheme/method/
strategy/backend registries::

    @register_placement("sticky")
    class StickyPlacement(PlacementPolicy):
        \"\"\"Route every request for a model to its lowest-index host.\"\"\"
        def order(self, model, workers):
            return sorted(workers, key=lambda w: w.index)

Each policy sees :class:`WorkerView` snapshots (name, index, hosted
models, liveness, in-flight load, capacity) — never the transport — so
policies are trivially unit-testable and deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Type

from repro.errors import ConfigurationError
from repro.util.hashing import ring_hash

__all__ = [
    "WorkerView",
    "PlacementPolicy",
    "register_placement",
    "get_placement",
    "list_placements",
]


@dataclass(frozen=True)
class WorkerView:
    """What a placement policy may observe about one worker."""

    name: str
    index: int
    models: FrozenSet[str]
    alive: bool = True
    accepting: bool = True
    in_flight: int = 0
    capacity: int = 0

    @property
    def load(self) -> float:
        """In-flight requests as a fraction of capacity (0 when
        uncapped)."""
        return self.in_flight / self.capacity if self.capacity else 0.0


class PlacementPolicy:
    """Base class: subclass, implement ``order``, register by name.

    One policy instance lives per router, so stateful policies (e.g. a
    round-robin cursor) are supported and isolated per cluster.
    """

    name = "base"

    #: Set by policies whose ordering depends on the request *payload*
    #: (e.g. cache-affinity routing). The router only computes a payload
    #: digest when the policy asks for one, so digest cost is never paid
    #: by policies that ignore it.
    wants_request_key = False

    def order(self, model: str,
              workers: Sequence[WorkerView]) -> List[WorkerView]:
        """Preference-ordered workers to try for one request.

        ``workers`` are the alive workers hosting ``model``; returning a
        prefix (or an empty list) is allowed — the router sheds the
        request if no returned worker admits it.
        """
        raise NotImplementedError

    def order_request(self, model: str, key: Optional[str],
                      workers: Sequence[WorkerView]) -> List[WorkerView]:
        """Preference order for one *request*, with its routing key.

        ``key`` is a digest of the request payload when the router has
        one (response caching enabled and ``wants_request_key`` set),
        else ``None``. The default ignores it and delegates to
        :meth:`order`, so existing policies keep working unchanged;
        cache-affinity policies override this to pin identical payloads
        to the worker whose response cache is already warm.
        """
        return self.order(model, workers)


_PLACEMENTS: Dict[str, Type[PlacementPolicy]] = {}


def register_placement(name: str):
    """Class decorator: register a :class:`PlacementPolicy` under
    ``name`` (its docstring's first line becomes the description)."""

    def deco(cls: Type[PlacementPolicy]) -> Type[PlacementPolicy]:
        if not (isinstance(cls, type)
                and issubclass(cls, PlacementPolicy)):
            raise ConfigurationError(
                f"@register_placement expects a PlacementPolicy subclass, "
                f"got {cls!r}")
        cls.name = name
        _PLACEMENTS[name] = cls
        return cls

    return deco


def get_placement(name: str) -> PlacementPolicy:
    """A fresh policy instance for a router."""
    if name not in _PLACEMENTS:
        raise ConfigurationError(
            f"unknown placement {name!r}; "
            f"available: {sorted(_PLACEMENTS)}")
    return _PLACEMENTS[name]()


def list_placements() -> Dict[str, str]:
    """name -> one-line description of every registered policy."""
    return {name: (cls.__doc__ or "").strip().splitlines()[0]
            for name, cls in sorted(_PLACEMENTS.items())}


# ----------------------------------------------------------------------
# Built-in policies
# ----------------------------------------------------------------------
@register_placement("least_loaded")
class LeastLoadedPlacement(PlacementPolicy):
    """Prefer the worker with the fewest in-flight requests (ties break
    by worker index, so the order is deterministic)."""

    def order(self, model: str,
              workers: Sequence[WorkerView]) -> List[WorkerView]:
        return sorted(workers, key=lambda w: (w.in_flight, w.index))


@register_placement("replicated")
class ReplicatedPlacement(PlacementPolicy):
    """Round-robin across every replica of the model (hot models
    replicated on all workers get an even request spread)."""

    def __init__(self):
        self._cursor: Dict[str, int] = {}

    def order(self, model: str,
              workers: Sequence[WorkerView]) -> List[WorkerView]:
        if not workers:
            return []
        ranked = sorted(workers, key=lambda w: w.index)
        start = self._cursor.get(model, 0) % len(ranked)
        self._cursor[model] = start + 1
        return ranked[start:] + ranked[:start]


@register_placement("consistent_hash")
class ConsistentHashPlacement(PlacementPolicy):
    """Hash the model name — or, when the router provides one, the
    request's payload digest — onto a ring of workers: repeats of the
    same key stick to one home worker (response-cache/scratch
    affinity), spilling to the next ring successor only when the home
    is down or full.

    The ring depends only on the membership — the ``(name, index)`` of
    the workers passed in — so it is built once per membership and
    memoized (one entry: a membership change rebuilds it). A request
    then costs one hash and a bisect. The ring holds points and slots,
    never the views, so each call orders the *current* views and their
    liveness and load stay fresh."""

    VNODES = 32    # virtual nodes per worker smooth the ring

    #: With response caching on, identical payloads must land on the
    #: worker whose cache already holds the answer — so this policy
    #: asks the router for the payload digest.
    wants_request_key = True

    # Kept as a method for tests/subclasses; byte-compatible ring_hash
    # lives in repro.util.hashing now.
    _hash = staticmethod(ring_hash)

    def __init__(self):
        # (membership, sorted points, slots) — one tuple, swapped whole,
        # so concurrent callers never see a mix of two rings.
        self._ring_memo: Optional[tuple] = None

    def _ring(self, workers: Sequence[WorkerView]) -> tuple:
        """``(points, slots)`` of the ring: sorted vnode points and, per
        point, ``(worker index, position in workers)``."""
        members = tuple((worker.name, worker.index) for worker in workers)
        memo = self._ring_memo
        if memo is None or memo[0] != members:
            ring = sorted(
                (self._hash(f"{name}#{vnode}"), index, position)
                for position, (name, index) in enumerate(members)
                for vnode in range(self.VNODES))
            memo = (members, [point for point, _, _ in ring],
                    [(index, position) for _, index, position in ring])
            self._ring_memo = memo
        return memo[1:]

    def order(self, model: str,
              workers: Sequence[WorkerView]) -> List[WorkerView]:
        return self.order_request(model, None, workers)

    def order_request(self, model: str, key: Optional[str],
                      workers: Sequence[WorkerView]) -> List[WorkerView]:
        if not workers:
            return []
        points, slots = self._ring(workers)
        point = self._hash(model if key is None else f"{model}|{key}")
        start = bisect_left(points, point)
        ordered, seen = [], set()
        for step in range(len(slots)):
            index, position = slots[(start + step) % len(slots)]
            if index not in seen:
                seen.add(index)
                ordered.append(workers[position])
                if len(ordered) == len(workers):
                    break
        return ordered
