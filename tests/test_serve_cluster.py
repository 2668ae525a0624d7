"""Chaos suite for the distributed serving tier.

Every scenario runs a real cluster — router, placement, admission
control, a ``ModelServer`` per worker behind the verbatim PR 4 wire
protocol — entirely in process, on a :class:`FakeTransport` pair per
worker with one injected manual clock. Faults are *scheduled*
(:class:`FaultPlan` keys them by direction + frame index), so worker
crashes mid-batch, dropped/delayed/corrupted frames, refused admission
and overload shed are exact, repeatable events, not race outcomes.
There is no sleeping anywhere in this file (a meta-test enforces it)
and no real socket outside the explicitly-marked subprocess smoke test.
"""

import io
import json
import pathlib
import re

import numpy as np
import pytest

from repro.api import Pipeline, PipelineConfig
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ServingError,
    WorkerError,
)
from repro.serve import (
    ClusterRouter,
    FaultPlan,
    LocalWorker,
    ModelServer,
    PlacementPolicy,
    ProcessWorker,
    WorkerView,
    build_artifact,
    get_placement,
    list_placements,
    post_training_quantize,
    register_placement,
)
from repro.serve import cli, transport
from repro.serve.cli import build_model, serve_protocol
from repro.serve.futures import InferenceFuture
from repro.serve.placement import ConsistentHashPlacement
from repro.util.hashing import ring_hash
from tests.conftest import make_mlp


class ManualClock:
    """A clock tests advance explicitly; reading it never moves it."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> "ManualClock":
        self.now += seconds
        return self


def build_deployment(seed=7, batch=4):
    rng = np.random.default_rng(seed + 1000)
    pipeline = Pipeline(PipelineConfig(batch=batch), model=make_mlp(seed))
    pipeline.calibrate([rng.normal(size=(8, 12)).astype(np.float32)])
    return pipeline.deploy(), pipeline.result


@pytest.fixture(scope="module")
def deployed():
    return build_deployment()


def payloads(count, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(12,)).astype(np.float32)
            for _ in range(count)]


def make_cluster(deployment, *, workers=2, clock=None, placement="least_loaded",
                 plans=None, max_batch=4, cache_mb=None, **router_kwargs):
    clock = clock or ManualClock()
    plans = plans or {}
    fleet = [LocalWorker(f"w{index}", {"mlp": deployment}, clock=clock,
                         max_batch=max_batch, plan=plans.get(index),
                         cache_mb=cache_mb)
             for index in range(workers)]
    return ClusterRouter(fleet, placement, clock=clock,
                         **router_kwargs), fleet, clock


# ----------------------------------------------------------------------
# Placement policies
# ----------------------------------------------------------------------
def view(name, index, in_flight=0, capacity=8, **kwargs):
    return WorkerView(name=name, index=index, models=frozenset({"m"}),
                      in_flight=in_flight, capacity=capacity, **kwargs)


class TestPlacement:
    def test_least_loaded_orders_by_in_flight_then_index(self):
        policy = get_placement("least_loaded")
        workers = [view("a", 0, in_flight=3), view("b", 1, in_flight=1),
                   view("c", 2, in_flight=1)]
        assert [w.name for w in policy.order("m", workers)] == \
            ["b", "c", "a"]

    def test_replicated_round_robins_per_model(self):
        policy = get_placement("replicated")
        workers = [view("a", 0), view("b", 1), view("c", 2)]
        firsts = [policy.order("m", workers)[0].name for _ in range(4)]
        assert firsts == ["a", "b", "c", "a"]
        # an independent cursor per model
        assert policy.order("other", workers)[0].name == "a"

    def test_consistent_hash_is_sticky_and_complete(self):
        policy = get_placement("consistent_hash")
        workers = [view("a", 0), view("b", 1), view("c", 2)]
        order1 = [w.name for w in policy.order("m", workers)]
        order2 = [w.name for w in policy.order("m", workers)]
        assert order1 == order2              # sticky home + spill order
        assert sorted(order1) == ["a", "b", "c"]   # every worker, once
        # different models spread across homes (not all on one worker)
        homes = {policy.order(f"model-{i}", workers)[0].name
                 for i in range(16)}
        assert len(homes) > 1

    def test_consistent_hash_survives_home_removal(self):
        policy = get_placement("consistent_hash")
        workers = [view("a", 0), view("b", 1), view("c", 2)]
        full = [w.name for w in policy.order("m", workers)]
        without_home = [w for w in workers if w.name != full[0]]
        reduced = [w.name for w in policy.order("m", without_home)]
        # remaining workers keep their relative ring order
        assert reduced == [name for name in full if name != full[0]]

    def test_consistent_hash_ring_matches_per_request_rebuild(self):
        # Oracle: the ring as it was built for every request before it
        # was memoized. Assignments decide which worker's cache is warm
        # and where sessions stick, so they must not move.
        def oracle(model, key, workers):
            ring = sorted(
                (ring_hash(f"{worker.name}#{vnode}"), worker.index, worker)
                for worker in workers
                for vnode in range(ConsistentHashPlacement.VNODES))
            if not ring:
                return []
            point = ring_hash(model if key is None else f"{model}|{key}")
            start = next((position for position, entry in enumerate(ring)
                          if entry[0] >= point), 0)
            ordered, seen = [], set()
            for _, _, worker in ring[start:] + ring[:start]:
                if worker.index not in seen:
                    seen.add(worker.index)
                    ordered.append(worker)
            return ordered

        rng = np.random.default_rng(14)
        keys = [None] + [rng.bytes(8).hex() for _ in range(500)]
        fleet = [view(f"w{index}", index) for index in range(4)]
        subsets = [[w for w in fleet if mask >> w.index & 1]
                   for mask in range(1, 16)]
        policy = get_placement("consistent_hash")
        for workers in subsets:
            for key in keys:
                got = policy.order_request("mlp", key, workers)
                want = oracle("mlp", key, workers)
                # the very view objects passed in, in the oracle's order
                assert [id(w) for w in got] == [id(w) for w in want]
        # interleaved memberships (every call a rebuild) agree too
        for key in keys[:50]:
            for workers in subsets:
                assert policy.order_request("mlp", key, workers) == \
                    oracle("mlp", key, workers)
        assert policy.order_request("mlp", "k", []) == []

    def test_consistent_hash_ring_is_built_once_per_membership(self):
        class CountingPlacement(ConsistentHashPlacement):
            hashes = 0

            @staticmethod
            def _hash(key):
                CountingPlacement.hashes += 1
                return ring_hash(key)

        policy = CountingPlacement()
        vnodes = CountingPlacement.VNODES
        workers = [view("a", 0), view("b", 1), view("c", 2)]
        policy.order_request("m", "k0", workers)
        assert CountingPlacement.hashes == 3 * vnodes + 1
        # steady state: one hash (the request's point) per request, even
        # with fresh views of the same membership
        for step in range(1, 11):
            fresh = [view(w.name, w.index, in_flight=step) for w in workers]
            got = policy.order_request("m", f"k{step}", fresh)
            assert all(any(g is w for w in fresh) for g in got)
        assert CountingPlacement.hashes == 3 * vnodes + 1 + 10
        # a worker leaving changes the membership: the ring is rebuilt
        before = CountingPlacement.hashes
        policy.order_request("m", "k0", workers[1:])
        assert CountingPlacement.hashes == before + 2 * vnodes + 1

    def test_register_placement_and_fresh_instances(self):
        @register_placement("test_sticky_lowest")
        class StickyLowest(PlacementPolicy):
            """Always the lowest-index worker (test-only)."""

            def order(self, model, workers):
                return sorted(workers, key=lambda w: w.index)

        try:
            assert "test_sticky_lowest" in list_placements()
            assert list_placements()["test_sticky_lowest"].startswith(
                "Always the lowest-index")
            one, two = (get_placement("test_sticky_lowest"),
                        get_placement("test_sticky_lowest"))
            assert one is not two            # per-router instances
            assert one.order("m", [view("b", 1), view("a", 0)])[0].name \
                == "a"
        finally:
            from repro.serve import placement as placement_module

            del placement_module._PLACEMENTS["test_sticky_lowest"]

    def test_registry_rejects_non_policy_and_unknown_name(self):
        with pytest.raises(ConfigurationError):
            register_placement("bogus")(dict)
        with pytest.raises(ConfigurationError, match="unknown placement"):
            get_placement("no-such-policy")


# ----------------------------------------------------------------------
# Healthy-cluster behavior
# ----------------------------------------------------------------------
class TestClusterServing:
    def test_serves_across_workers_correctly(self, deployed):
        deployment, quantized = deployed
        router, fleet, _ = make_cluster(deployment, workers=3)
        xs = payloads(10)
        futures = [router.submit("mlp", x) for x in xs]
        router.drain()
        for future, x in zip(futures, xs):
            assert np.allclose(future.result(timeout=0),
                               quantized.predict(x[None])[0])
        used = {future.request.worker for future in futures}
        assert used == {"w0", "w1", "w2"}    # least-loaded spreads
        stats = router.router_stats()
        assert stats.routed == stats.completed == 10
        assert stats.in_flight == 0
        router.close()

    def test_unsendable_payload_fails_typed_and_router_serves_on(
            self, deployed):
        # np.asarray rejects a ragged list; an object array converts but
        # cannot travel as an attachment. Both fail their future only.
        deployment, quantized = deployed
        router, _, _ = make_cluster(deployment, workers=1)
        ragged = router.submit("mlp", [[1.0], [2.0, 3.0]])
        objects = router.submit("mlp", np.array([None, {}], dtype=object))
        x = payloads(1)[0]
        good = router.submit("mlp", x)
        router.drain()
        for future in (ragged, objects):
            error = future.exception(timeout=0)
            assert isinstance(error, ServingError)
            assert error.code == "bad-request"
        assert np.array_equal(good.result(timeout=0),
                              quantized.predict(x[None])[0])
        assert router.router_stats().in_flight == 0
        router.close()

    def test_worker_validation(self, deployed):
        clock = ManualClock()
        workers = [LocalWorker("same", {"mlp": deployed[0]}, clock=clock),
                   LocalWorker("same", {"mlp": deployed[0]}, clock=clock)]
        with pytest.raises(ConfigurationError, match="unique"):
            ClusterRouter(workers, clock=clock)
        with pytest.raises(ConfigurationError, match="at least one"):
            ClusterRouter([], clock=clock)
        with pytest.raises(ConfigurationError, match="hosts no models"):
            LocalWorker("empty", {}, clock=clock)

    def test_cluster_behind_verbatim_wire_protocol(self, deployed):
        # The router duck-types ModelServer, so the PR 4 protocol loop
        # fronts a whole cluster unchanged.
        deployment, quantized = deployed
        router, _, _ = make_cluster(deployment, workers=2)
        xs = payloads(4)
        lines = [json.dumps({"id": i, "model": "mlp",
                             "input": x.tolist()})
                 for i, x in enumerate(xs)]
        lines.append(json.dumps({"op": "stats", "id": "s"}))
        out = io.StringIO()
        served = serve_protocol(router, lines, out)
        router.close()
        assert served == 4
        responses = [json.loads(line)
                     for line in out.getvalue().splitlines()]
        stats_lines = [r for r in responses if r.get("op") == "stats"]
        assert stats_lines and stats_lines[0]["id"] == "s"
        answers = {r["id"]: r for r in responses if r.get("op") != "stats"}
        assert sorted(answers) == [0, 1, 2, 3]
        for i, x in enumerate(xs):
            assert np.allclose(np.asarray(answers[i]["output"]),
                               quantized.predict(x[None])[0])

    def test_cluster_stats_merge_across_workers(self, deployed):
        deployment, _ = deployed
        clock = ManualClock()
        fleet = [LocalWorker("w0", {"mlp": deployment}, clock=clock,
                             max_batch=2),
                 LocalWorker("w1", {"mlp": deployment}, clock=clock,
                             max_batch=8)]
        router = ClusterRouter(fleet, "replicated", clock=clock)
        futures = [router.submit("mlp", x) for x in payloads(10)]
        router.drain()
        assert all(f.exception(timeout=0) is None for f in futures)
        per_worker = router.worker_stats()
        assert set(per_worker) == {"w0", "w1"}
        # worker stats are re-keyed to the public alias, not name@v1
        assert set(per_worker["w0"]) == {"mlp"}
        merged = router.stats()["mlp"]
        assert merged.requests == 10
        assert merged.requests == sum(
            stats["mlp"].requests for stats in per_worker.values())
        assert merged.batches == sum(
            stats["mlp"].batches for stats in per_worker.values())
        assert merged.max_batch == 8        # merge="max", not sum
        assert len(merged.latencies_ms) == 10   # windows concatenate
        total = router.total_stats()
        assert total is not None and total.requests == 10
        router.close()

    def test_deployment_cluster_helper(self, deployed):
        deployment, quantized = deployed
        clock = ManualClock()
        router = deployment.cluster(name="mlp", workers=2, clock=clock)
        x = payloads(1)[0]
        result = router.predict("mlp", x)
        assert np.allclose(result, quantized.predict(x[None])[0])
        router.close()

    def test_capacity_validation_and_close_idempotent(self, deployed):
        with pytest.raises(ConfigurationError, match="capacity"):
            make_cluster(deployed[0], capacity=0)
        router, _, _ = make_cluster(deployed[0])
        router.close()
        router.close()                       # second close is a no-op
        with pytest.raises(ServingError, match="closed"):
            router.submit("mlp", payloads(1)[0])


# ----------------------------------------------------------------------
# Chaos: every fault is a scheduled, deterministic event
# ----------------------------------------------------------------------
class TestChaos:
    def test_worker_crash_mid_batch_fails_typed_and_reroutes(self,
                                                             deployed):
        deployment, _ = deployed
        # Worker 0 executes its first batch, then dies emitting the
        # first response frame: requests were *served* but never
        # answered — the canonical crash-mid-batch.
        router, fleet, _ = make_cluster(
            deployment, workers=2, placement="consistent_hash",
            plans={0: FaultPlan().kill("to_router", 0)})
        xs = payloads(4)
        futures = [router.submit("mlp", x) for x in xs]
        router.drain()
        victims = [f for f in futures
                   if isinstance(f.exception(timeout=0), WorkerError)]
        survivors = [f for f in futures if f.exception(timeout=0) is None]
        # exactly the requests routed to w0 died, all with a typed,
        # retryable worker error
        assert victims and all(
            e.code == "worker-failed" and e.retryable
            for e in (f.exception(timeout=0) for f in victims))
        assert not fleet[0].alive
        stats = router.router_stats()
        assert stats.worker_failures == 1
        assert stats.workers_alive == 1
        # retrying routes around the corpse
        retry = [router.submit("mlp", x) for x in xs]
        router.drain()
        assert all(f.exception(timeout=0) is None for f in retry)
        assert {f.request.worker for f in retry} == {"w1"}
        assert len(survivors) + len(victims) == 4
        router.close()

    def test_all_workers_dead_fails_future_no_workers(self, deployed):
        router, fleet, _ = make_cluster(
            deployed[0], workers=1,
            plans={0: FaultPlan().kill("to_router", 0)})
        future = router.submit("mlp", payloads(1)[0])
        router.drain()
        assert isinstance(future.exception(timeout=0), WorkerError)
        follow_up = router.submit("mlp", payloads(1)[0])
        error = follow_up.exception(timeout=0)
        assert isinstance(error, WorkerError)
        assert error.code == "no-workers" and error.retryable
        router.close()

    def test_dropped_request_frame_times_out_typed(self, deployed):
        router, _, clock = make_cluster(
            deployed[0], workers=1, max_batch=2,
            plans={0: FaultPlan().drop("to_worker", 1)},
            request_timeout_ms=100.0)
        first, second = (router.submit("mlp", x) for x in payloads(2))
        router.pump()
        assert first.done() and first.exception(timeout=0) is None
        assert not second.done()             # its frame evaporated
        clock.advance(0.2)
        router.pump()
        error = second.exception(timeout=0)
        assert isinstance(error, WorkerError)
        assert error.code == "timeout" and error.retryable
        assert router.router_stats().timeouts == 1
        router.close()

    def test_dropped_frame_without_timeout_fails_lost_on_drain(self,
                                                               deployed):
        router, _, _ = make_cluster(
            deployed[0], workers=1, max_batch=2,
            plans={0: FaultPlan().drop("to_worker", 0)})
        future = router.submit("mlp", payloads(1)[0])
        router.drain()       # cannot hang: no progress -> typed failure
        error = future.exception(timeout=0)
        assert isinstance(error, WorkerError) and error.code == "lost"
        router.close()

    def test_delayed_frame_holds_fifo_until_clock_advances(self,
                                                           deployed):
        router, _, clock = make_cluster(
            deployed[0], workers=1, max_batch=1,
            plans={0: FaultPlan().delay("to_worker", 0, ms=50.0)})
        first, second = (router.submit("mlp", x) for x in payloads(2))
        router.pump()
        # frame 0 is in (virtual) flight and frame 1 queues behind it:
        # FIFO head-of-line, exactly like a TCP stream
        assert not first.done() and not second.done()
        clock.advance(0.049)
        router.pump()
        assert not first.done()
        clock.advance(0.002)
        router.pump()
        assert first.done() and second.done()
        assert first.exception(timeout=0) is None
        assert second.exception(timeout=0) is None
        router.close()

    def test_corrupted_frame_detected_never_misread(self, deployed):
        # Corruption flips the first payload byte -> the worker answers
        # a typed frame error (no id to route), the router counts it,
        # and the request itself times out retryably. Nothing is ever
        # silently mis-decoded.
        router, _, clock = make_cluster(
            deployed[0], workers=1,
            plans={0: FaultPlan().corrupt("to_worker", 0)},
            request_timeout_ms=50.0)
        future = router.submit("mlp", payloads(1)[0])
        router.pump()
        clock.advance(0.1)
        router.pump()
        assert router.router_stats().protocol_errors == 1
        error = future.exception(timeout=0)
        assert isinstance(error, WorkerError) and error.code == "timeout"
        router.close()

    def test_corrupted_response_frame_counted_router_side(self, deployed):
        router, _, clock = make_cluster(
            deployed[0], workers=1,
            plans={0: FaultPlan().corrupt("to_router", 0)},
            request_timeout_ms=50.0)
        future = router.submit("mlp", payloads(1)[0])
        router.pump()
        clock.advance(0.1)
        router.pump()
        assert router.router_stats().protocol_errors == 1
        assert future.exception(timeout=0).code == "timeout"
        router.close()

    @pytest.mark.parametrize("mangle", [
        lambda header, body: ({**header, "attachment": {
            **header["attachment"], "shape": [len(body) + 7]}}, body),
        lambda header, body: ({**header, "attachment": {
            **header["attachment"], "dtype": "|O"}}, body),
        lambda header, body: (header, body[:-3]),
    ], ids=["size-mismatch", "bad-dtype", "truncated-attachment"])
    def test_malformed_response_payload_fails_typed_and_reader_survives(
            self, deployed, mangle):
        # The bad-base64 / size-mismatch cases of the base64 encoding,
        # which the router no longer receives, are held against a b64
        # client of serve_protocol in test_serve_protocol.py.
        deployment, quantized = deployed
        router, fleet, _ = make_cluster(deployment, workers=1)
        endpoint = fleet[0]._endpoint
        send_raw, mangled = endpoint.send_raw, []

        def mangle_first_response(data):
            head, nul, body = data.partition(b"\0")
            if nul and not mangled:
                header = json.loads(head)
                mangled.append(header["id"])
                header, body = mangle(header, body)
                data = json.dumps(header).encode("utf-8") + b"\0" + body
            send_raw(data)

        endpoint.send_raw = mangle_first_response
        bad = router.submit("mlp", payloads(1)[0])
        router.pump()
        assert mangled
        error = bad.exception(timeout=0)
        assert isinstance(error, WorkerError)
        assert error.code == "bad-response"
        assert router.router_stats().protocol_errors == 1
        # the same worker keeps answering, and nothing raises
        x = payloads(1, seed=1)[0]
        good = router.submit("mlp", x)
        router.drain()
        assert np.allclose(good.result(timeout=0),
                           quantized.predict(x[None])[0])
        assert good.request.worker == "w0"
        assert router.router_stats().protocol_errors == 1
        router.close()

    def test_refused_admission_routes_to_other_worker(self, deployed):
        router, _, _ = make_cluster(
            deployed[0], workers=2, plans={0: FaultPlan().refuse()})
        futures = [router.submit("mlp", x) for x in payloads(4)]
        router.drain()
        assert all(f.exception(timeout=0) is None for f in futures)
        assert {f.request.worker for f in futures} == {"w1"}
        router.close()

    def test_shed_under_overload_is_retryable(self, deployed):
        router, _, _ = make_cluster(deployed[0], workers=1, capacity=3)
        futures = [router.submit("mlp", x) for x in payloads(5)]
        shed = [f for f in futures if f.done()
                and isinstance(f.exception(timeout=0), AdmissionError)]
        assert len(shed) == 2               # 3 admitted, 2 shed
        assert all(f.exception(timeout=0).retryable
                   and f.exception(timeout=0).code == "shed"
                   for f in shed)
        assert router.router_stats().shed == 2
        router.drain()
        # capacity freed: the retry is admitted and served
        retry = router.submit("mlp", payloads(1)[0])
        router.drain()
        assert retry.exception(timeout=0) is None
        router.close()

    def test_fault_order_is_reproducible(self, deployed):
        # Same plan, same clock, same submissions -> byte-identical
        # outcome classification, twice.
        def run():
            router, _, clock = make_cluster(
                deployed[0], workers=2, max_batch=2,
                placement="replicated",
                plans={0: FaultPlan().drop("to_worker", 0)
                                     .kill("to_router", 1)},
                request_timeout_ms=100.0)
            futures = [router.submit("mlp", x) for x in payloads(6)]
            router.pump()
            clock.advance(0.2)
            router.pump()
            router.drain()
            outcome = [getattr(f.exception(timeout=0), "code", "ok")
                       for f in futures]
            router.close()
            return outcome

        assert run() == run()


# ----------------------------------------------------------------------
# Response cache at the cluster tier: affinity routing, crash, rollover
# ----------------------------------------------------------------------
class TestClusterCache:
    def test_payload_affinity_keeps_repeats_on_the_warm_worker(self,
                                                               deployed):
        deployment, _ = deployed
        router, _, _ = make_cluster(deployment, workers=3,
                                    placement="consistent_hash",
                                    cache_mb=4.0)
        x = payloads(1, seed=9)[0]
        first = router.submit("mlp", x)
        router.drain()
        warm = router.submit("mlp", x)
        router.drain()
        # the repeat landed where the cache is warm and hit it
        assert warm.request.worker == first.request.worker
        assert warm.request.cached and not first.request.cached
        assert np.array_equal(warm.result(timeout=0),
                              first.result(timeout=0))
        # payload-keyed placement spreads distinct payloads across the
        # ring instead of parking every "mlp" request on one home
        spread = [router.submit("mlp", p) for p in payloads(12, seed=1)]
        router.drain()
        assert len({f.request.worker for f in spread}) > 1
        router.close()

    def test_no_cache_fleet_keeps_model_keyed_routing(self, deployed):
        # Without a cache anywhere there is nothing to keep warm, so
        # consistent_hash must stay byte-identical to its legacy
        # model-keyed behavior: one sticky home per model.
        router, _, _ = make_cluster(deployed[0], workers=3,
                                    placement="consistent_hash")
        futures = [router.submit("mlp", p) for p in payloads(6)]
        router.drain()
        assert len({f.request.worker for f in futures}) == 1
        router.close()

    def test_crash_mid_batch_fails_coalesced_requests_exactly_once(
            self, deployed):
        deployment, _ = deployed
        # Three identical submits coalesce onto one batcher slot inside
        # the worker; the worker computes the batch, then dies emitting
        # the first response frame. Every future — leader and followers
        # alike — must fail exactly once with the typed worker error.
        router, fleet, _ = make_cluster(
            deployment, workers=1, placement="consistent_hash",
            cache_mb=4.0, plans={0: FaultPlan().kill("to_router", 0)})
        x = payloads(1)[0]
        futures = [router.submit("mlp", x) for _ in range(3)]
        fail_counts = {id(f): 0 for f in futures}

        def counting_fail(future, original):
            def wrapped(error):
                fail_counts[id(future)] += 1
                original(error)
            return wrapped

        for future in futures:
            future._fail = counting_fail(future, future._fail)
        router.drain()
        for future in futures:
            error = future.exception(timeout=0)
            assert isinstance(error, WorkerError)
            assert error.code == "worker-failed" and error.retryable
            assert fail_counts[id(future)] == 1
        assert not fleet[0].alive
        # a rolling restart revives the worker with a fresh (empty)
        # cache; retries recompute and coalesce normally
        router.rolling_restart()
        retry = [router.submit("mlp", x) for _ in range(2)]
        router.drain()
        assert all(f.exception(timeout=0) is None for f in retry)
        assert retry[1].request.coalesced
        assert np.array_equal(retry[0].result(timeout=0),
                              retry[1].result(timeout=0))
        router.close()

    def test_rolling_restart_never_serves_stale_cache(self, deployed):
        deployment, _ = deployed
        other, other_quantized = build_deployment(seed=23)
        router, _, _ = make_cluster(deployment, workers=2,
                                    placement="consistent_hash",
                                    cache_mb=4.0)
        x = payloads(1, seed=5)[0]
        before = router.predict("mlp", x)
        warm = router.submit("mlp", x)
        router.drain()
        assert warm.request.cached           # the old artifact was cached
        router.rolling_restart(models={"mlp": other})
        after = router.predict("mlp", x)     # zero stale hits across the roll
        assert np.allclose(after, other_quantized.predict(x[None])[0])
        assert not np.allclose(before, after)
        router.close()


# ----------------------------------------------------------------------
# Rolling restart: lossless, alias-backed
# ----------------------------------------------------------------------
class TestRollingRestart:
    def test_restart_is_lossless_with_inflight_requests(self, deployed):
        deployment, quantized = deployed
        router, fleet, _ = make_cluster(deployment, workers=2,
                                        placement="replicated")
        xs = payloads(8)
        futures = [router.submit("mlp", x) for x in xs]
        router.rolling_restart()
        for future, x in zip(futures, xs):
            assert future.exception(timeout=0) is None
            assert np.allclose(future.result(timeout=0),
                               quantized.predict(x[None])[0])
        assert [worker.generation for worker in fleet] == [2, 2]
        # the rollover reused the alias machinery: public name now
        # points at generation 2
        assert fleet[0]._server.aliases() == {"mlp": "mlp@v2"}
        after = [router.submit("mlp", x) for x in xs[:4]]
        router.drain()
        assert all(f.exception(timeout=0) is None for f in after)
        router.close()

    def test_restart_rolls_fleet_onto_new_artifact(self, deployed):
        deployment, quantized = deployed
        other, other_quantized = build_deployment(seed=23)
        router, fleet, _ = make_cluster(deployment, workers=2)
        x = payloads(1, seed=5)[0]
        before = router.predict("mlp", x)
        assert np.allclose(before, quantized.predict(x[None])[0])
        router.rolling_restart(models={"mlp": other})
        after = router.predict("mlp", x)
        assert np.allclose(after, other_quantized.predict(x[None])[0])
        assert not np.allclose(before, after)
        assert fleet[0]._server.aliases() == {"mlp": "mlp@v2"}
        router.close()

    def test_restart_revives_a_crashed_worker(self, deployed):
        router, fleet, _ = make_cluster(
            deployed[0], workers=2,
            plans={0: FaultPlan().kill("to_router", 0)})
        futures = [router.submit("mlp", x) for x in payloads(4)]
        router.drain()
        assert not fleet[0].alive
        # the fault plan applies to the first incarnation only: the
        # restarted worker is healthy and takes traffic again
        router.rolling_restart()
        assert fleet[0].alive and fleet[0].generation == 2
        retry = [router.submit("mlp", x) for x in payloads(6)]
        router.drain()
        assert all(f.exception(timeout=0) is None for f in retry)
        assert {f.request.worker for f in retry} == {"w0", "w1"}
        del futures
        router.close()

    def test_update_models_rejects_unknown_name(self, deployed):
        router, fleet, _ = make_cluster(deployed[0], workers=1)
        with pytest.raises(ConfigurationError, match="does not host"):
            fleet[0].update_models({"other": deployed[0]})
        router.close()


# ----------------------------------------------------------------------
# Raw array attachments end to end: bit-exact, never base64
# ----------------------------------------------------------------------
ZOO = ("resnet_tiny", "lstm_lm", "gru_speech")


@pytest.fixture(scope="module")
def zoo(tmp_path_factory):
    """Saved artifacts of a float32 CNN, an int64-token LSTM and a GRU."""
    root = tmp_path_factory.mktemp("zoo")
    paths, samplers = {}, {}
    for name in ZOO:
        model, sample = build_model(name, seed=0)
        rng = np.random.default_rng(11)
        results = post_training_quantize(model, [sample(rng, 8)])
        path = root / f"{name}.npz"
        build_artifact(model, sample(rng, 4), layer_results=results,
                       name=name).save(path)
        paths[name], samplers[name] = str(path), sample
    return paths, samplers


def assert_zoo_bit_exact(router, zoo):
    """Every zoo model through ``router`` equals its single-request
    ``predict`` bitwise; gru_speech chunks equal the offline stream."""
    paths, samplers = zoo
    reference = ModelServer(workers=0)
    try:
        for name in ZOO:
            reference.load(name, paths[name])
        for name in ("resnet_tiny", "lstm_lm"):
            xs = samplers[name](np.random.default_rng(3), 4)
            assert xs.dtype == (np.int64 if name == "lstm_lm"
                                else np.float32)
            for x in xs:
                got = router.predict(name, x)
                want = reference.predict(name, x)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        plan = reference.plan("gru_speech")
        seq = samplers["gru_speech"](np.random.default_rng(4), 1)[0]
        offline = plan.stream_outputs(plan.forward(seq[None]), 1)[0]
    finally:
        reference.close()
    sid = router.open_session("gru_speech")
    chunks = [router.submit_stream("gru_speech", sid, seq[start:stop])
              for start, stop in ((0, 3), (3, 7), (7, 12))]
    router.drain()
    streamed = np.concatenate([f.result(timeout=60.0) for f in chunks])
    assert streamed.tobytes() == offline.tobytes()
    assert router.close_session("gru_speech", sid) == 3


@pytest.fixture
def no_base64(monkeypatch):
    """Make every base64 array encode/decode on the serving path raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("base64 on a framed transport")

    for module in (transport, cli):
        monkeypatch.setattr(module, "array_to_wire", refuse)
        monkeypatch.setattr(module, "array_from_wire", refuse)


class TestAttachmentWire:
    def test_router_never_base64_encodes(self, deployed, no_base64):
        deployment, quantized = deployed
        router, fleet, _ = make_cluster(deployment, workers=2)
        frames = {"to_worker": [], "to_router": []}
        for worker in fleet:
            for end, direction in ((worker.transport, "to_worker"),
                                   (worker._endpoint, "to_router")):
                send_raw = end.send_raw

                def spy(data, send_raw=send_raw, direction=direction):
                    frames[direction].append(data)
                    send_raw(data)

                end.send_raw = spy
        xs = payloads(6)
        futures = [router.submit("mlp", x) for x in xs]
        router.drain()
        for future, x in zip(futures, xs):
            assert future.result(timeout=0).tobytes() == \
                quantized.predict(x[None])[0].tobytes()
        router.close()
        for direction, sent in frames.items():
            assert len(sent) == 6
            for data in sent:
                header = json.loads(data.partition(b"\0")[0])
                key = "input" if direction == "to_worker" else "output"
                assert header["attachment"]["key"] == key
                assert header["attachment"]["dtype"] == "<f4"
                assert not any(name.endswith("_b64") for name in header)

    def test_local_workers_are_bit_exact(self, zoo, no_base64):
        paths, _ = zoo
        clock = ManualClock()
        fleet = [LocalWorker(f"w{index}", paths, clock=clock, max_batch=4)
                 for index in range(2)]
        router = ClusterRouter(fleet, "consistent_hash", clock=clock)
        try:
            assert_zoo_bit_exact(router, zoo)
        finally:
            router.close()


# ----------------------------------------------------------------------
# The pending table: every kind of entry settles on every exit
# ----------------------------------------------------------------------
def issue(router, kind):
    """Open session ``s`` (frame 0 each way), then send one op of
    ``kind`` (frame 1) and return its future. Control and stats ops go
    through the router's one send path directly: ``close_session`` and
    ``worker_stats`` wait for their own answer."""
    sid = router.open_session("gru", "s")
    rng = np.random.default_rng(3)
    if kind == "infer":
        return router.submit(
            "gru", rng.normal(size=(12, 13)).astype(np.float32))
    if kind == "stream":
        return router.submit_stream(
            "gru", sid, rng.normal(size=(3, 13)).astype(np.float32))
    message = ({"op": "stats", "detail": True} if kind == "stats"
               else {"op": "stream_open", "model": "gru", "session": "t"})
    worker = router._by_name["w0"]
    return router._dispatch(kind, message, InferenceFuture(model=kind),
                            lambda: worker).future


# The cells no other test covers, with the code each future fails with
# (None: answered).
PENDING_CELLS = [
    ("infer", "closed", "serving-error"),
    ("stream", "dropped", "lost"),
    ("stream", "closed", "serving-error"),
    *[(kind, exit_, code)
      for kind in ("control", "stats")
      for exit_, code in (("answered", None), ("killed", "worker-failed"),
                          ("dropped", "lost"),
                          ("closed", "serving-error"))],
]


class TestPendingTable:
    @pytest.mark.parametrize("kind, exit_, code", PENDING_CELLS,
                             ids=[f"{kind}-{exit_}"
                                  for kind, exit_, _ in PENDING_CELLS])
    def test_every_exit_settles_typed_and_empties_the_table(
            self, zoo, kind, exit_, code):
        plan = {"killed": FaultPlan().kill("to_router", 1),
                "dropped": FaultPlan().drop("to_worker", 1)}.get(exit_)
        clock = ManualClock()
        router = ClusterRouter([LocalWorker(
            "w0", {"gru": zoo[0]["gru_speech"]}, clock=clock, plan=plan)],
            clock=clock)
        future = issue(router, kind)
        if exit_ == "closed":
            router.close(drain=False)
        else:
            router.drain()
        try:
            error = future.exception(timeout=0)
            assert (error if error is None else error.code) == code
            if code is None and kind == "stats":
                assert "gru@v1" in future.result(timeout=0)["models"]
            elif code is None and kind == "control":
                assert future.result(timeout=0)["session"] == "t"
            assert router._pending == {}
            assert router.router_stats().in_flight == 0
        finally:
            router.close()

    def test_given_up_answers_leave_no_entry_behind(self, deployed, zoo):
        # A stats answer that never comes: worker_stats gives up, and
        # the entry goes with it (it was left behind and later failed by
        # drain(), which counted it as a timeout).
        router, _, _ = make_cluster(
            deployed[0], workers=1,
            plans={0: FaultPlan().drop("to_worker", 0)})
        assert router.worker_stats(timeout=1.0) == {}
        assert router._pending == {}
        future = router.submit("mlp", payloads(1)[0])
        router.drain()
        assert future.exception(timeout=0) is None
        stats = router.router_stats()
        assert (stats.routed, stats.completed, stats.timeouts) == (1, 1, 0)
        router.close()
        # The same for a stream_close whose frame is lost.
        clock = ManualClock()
        router = ClusterRouter([LocalWorker(
            "w0", {"gru": zoo[0]["gru_speech"]}, clock=clock,
            plan=FaultPlan().drop("to_worker", 1))], clock=clock)
        try:
            sid = router.open_session("gru")
            with pytest.raises(WorkerError) as info:
                router.close_session("gru", sid)
            assert info.value.code == "lost"
            assert router._pending == {}
            assert router.router_stats().timeouts == 0
        finally:
            router.close()


# ----------------------------------------------------------------------
# Determinism guard
# ----------------------------------------------------------------------
class TestNoSleeps:
    def test_no_time_sleep_in_deterministic_suites(self):
        here = pathlib.Path(__file__).parent
        for name in ("test_serve_cluster.py", "test_serve_protocol.py",
                     "test_serve_server.py"):
            source = (here / name).read_text()
            assert not re.search(r"\btime\.sleep\b", source), \
                f"{name} must stay sleep-free (drive the injected clock)"


# ----------------------------------------------------------------------
# Real subprocesses: the 2-worker smoke test (CI cluster job)
# ----------------------------------------------------------------------
@pytest.mark.subprocess
class TestProcessCluster:
    def test_two_worker_subprocess_cluster_end_to_end(self, deployed,
                                                      tmp_path):
        deployment, quantized = deployed
        path = tmp_path / "mlp.npz"
        deployment.save(path)
        router = ClusterRouter.spawn({"mlp": str(path)}, workers=2,
                                     max_batch=4)
        try:
            xs = payloads(16)
            futures = [router.submit("mlp", x) for x in xs]
            router.drain(timeout=120.0)
            for future, x in zip(futures, xs):
                assert future.exception(timeout=0) is None
                # atol loosened: the artifact round-trips through save()
                # and a separate process's BLAS, so near-zero outputs
                # carry ~1e-8 jitter
                assert np.allclose(future.result(timeout=0),
                                   quantized.predict(x[None])[0],
                                   atol=1e-6)
            assert {f.request.worker for f in futures} == {"w0", "w1"}
            merged = router.stats(timeout=60.0)
            assert merged["mlp"].requests == 16
            router.rolling_restart(timeout=120.0)
            retry = [router.submit("mlp", x) for x in xs[:4]]
            router.drain(timeout=120.0)
            assert all(f.exception(timeout=0) is None for f in retry)
        finally:
            router.close()

    def test_subprocess_workers_are_bit_exact(self, zoo):
        router = ClusterRouter.spawn(zoo[0], workers=2,
                                     placement="consistent_hash",
                                     max_batch=4)
        try:
            assert_zoo_bit_exact(router, zoo)
        finally:
            router.close()

    def test_mixed_fleet_predicts_and_reports_every_worker(self, deployed,
                                                          tmp_path):
        # The router must pump its in-process worker and wait on the
        # subprocess, whichever one a request or a stats poll reaches.
        deployment, _ = deployed
        path = tmp_path / "mlp.npz"
        deployment.save(path)
        router = ClusterRouter([
            LocalWorker("a", {"local": deployment}, max_batch=4),
            ProcessWorker("b", {"remote": str(path)}, max_batch=4)])
        try:
            for model, x in zip(("local", "remote"), payloads(2)):
                assert np.array_equal(router.predict(model, x, timeout=10.0),
                                      deployment.predict(x))
            assert sorted(router.worker_stats(timeout=10.0)) == ["a", "b"]
        finally:
            router.close()

    def test_stop_and_restart_close_the_banner_pipe(self, deployed,
                                                    tmp_path):
        path = tmp_path / "mlp.npz"
        deployed[0].save(path)
        router = ClusterRouter.spawn({"mlp": str(path)}, workers=2,
                                     max_batch=4)
        try:
            first = [worker._proc for worker in router._workers]
            router.rolling_restart(timeout=120.0)
            assert all(proc.stdout.closed for proc in first)
            second = [worker._proc for worker in router._workers]
            assert not any(proc.stdout.closed for proc in second)
        finally:
            router.close()
        assert all(proc.stdout.closed for proc in second)
        assert all(proc.returncode is not None for proc in first + second)
