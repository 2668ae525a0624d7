"""Response cache + in-flight dedup: hashing, store semantics, serving.

Four layers, mirroring the request path:

- :mod:`repro.util.hashing` — the consolidated digest primitives must be
  **byte-compatible** with the three ad-hoc helpers they replaced
  (codegen build cache, autotune eval cache, placement hash ring), and
  ``array_digest`` must hash strided views identically to their
  contiguous copies without materializing one;
- :class:`ResponseCache` / :class:`InflightTable` — LRU byte budget,
  lazy TTL against an injected clock, generation invalidation, leader/
  follower bookkeeping: all pure unit tests, no server;
- ``ModelServer`` integration — hits bypass the queue bit-identically,
  concurrent identical submits coalesce onto one batcher slot, a
  crashed batch fails every coalesced future exactly once, and alias
  rollover / unload / re-host can never serve stale bits (the hosting
  generation is part of the key, so staleness is structural);
- a backend x family property sweep — a cache hit returns exactly the
  bits the populating compute produced, on every backend and model
  family. (Bit-equality is defined against the populating batch: BLAS
  picks kernels per batch shape, so re-computing the same payload in a
  *different* batch composition may differ in low-order bits — which is
  precisely why the cache stores, rather than recomputes, the answer.)

No sleeps; every clock in this file is manual.
"""

import hashlib

import numpy as np
import pytest

from repro.api import Pipeline, PipelineConfig
from repro.errors import ConfigurationError, ServingError
from repro.serve import (
    InferenceEngine,
    InflightTable,
    ModelServer,
    ResponseCache,
    post_training_quantize,
)
from repro.serve.cli import build_model
from repro.serve.codegen.build import _host_key, source_digest
from repro.serve.export import build_artifact
from repro.serve.placement import get_placement
from repro.serve.plan import ExecutionPlan
from repro.serve.server import ModelStats
from repro.util.hashing import array_digest, ring_hash, stable_digest
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


def make_deployment(seed=7, batch=4):
    """A small, fast MLP deployment (input shape (12,), 3 logits)."""
    rng = np.random.default_rng(seed + 1000)
    pipeline = Pipeline(PipelineConfig(batch=batch), model=make_mlp(seed))
    pipeline.calibrate([rng.normal(size=(8, 12)).astype(np.float32)])
    return pipeline.deploy(), pipeline.result


def payloads(count, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(12,)).astype(np.float32)
            for _ in range(count)]


def cached_server(deployment, *, cache_mb=4.0, ttl=None, clock=None,
                  name="mlp", max_batch=4):
    clock = clock or ManualClock()
    server = ModelServer(workers=0, max_batch=max_batch, clock=clock,
                         cache_mb=cache_mb, cache_ttl_s=ttl)
    server.add(name, deployment)
    return server, clock


# ----------------------------------------------------------------------
# Hashing: consolidation must be byte-compatible with what it replaced
# ----------------------------------------------------------------------
class TestHashing:
    def test_bytes_and_text_hash_as_raw_streams(self):
        # The legacy call sites fed hand-built byte strings straight to
        # hashlib.sha256; bare bytes/str must keep those digests.
        assert stable_digest(b"abc") == hashlib.sha256(b"abc").hexdigest()
        assert stable_digest("abc") == stable_digest(b"abc")
        pinned = ("ba7816bf8f01cfea414140de5dae2223"
                  "b00361a396177a9cb410ff61f20015ad")
        assert stable_digest("abc") == pinned
        assert stable_digest("abc", length=24) == pinned[:24]

    def test_source_digest_matches_legacy_formula(self):
        flags = ("-O2", "-fPIC")
        legacy = hashlib.sha256("\0".join(
            ("int main;", "cc", " ".join(flags), _host_key(flags))
        ).encode("utf-8")).hexdigest()[:24]
        assert source_digest("int main;", "cc", flags) == legacy

    def test_containers_are_framed_and_order_insensitive(self):
        assert stable_digest({"a": 1, "b": 2}) == \
            stable_digest({"b": 2, "a": 1})
        assert stable_digest({"a": 1}) != stable_digest({"a": 2})
        assert stable_digest(["ab"]) != stable_digest(["a", "b"])
        assert stable_digest([1, 2]) != stable_digest([12])

    def test_array_digest_strided_views_equal_contiguous_copy(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(6, 8, 4)).astype(np.float32)
        for view in (base.transpose(2, 0, 1), base[:, ::2],
                     base[::-1], base[1:5, 2:7, :3]):
            assert not view.flags["C_CONTIGUOUS"]
            assert array_digest(view) == \
                array_digest(np.ascontiguousarray(view))

    def test_array_digest_separates_dtype_shape_and_bytes(self):
        data = np.arange(12, dtype=np.float32)
        assert array_digest(data) == array_digest(data.copy())
        assert array_digest(data) != array_digest(data.reshape(3, 4))
        assert array_digest(data) != array_digest(data.view(np.int32))
        assert array_digest(np.zeros(0, np.float32)) != \
            array_digest(np.zeros(0, np.float64))
        changed = data.copy()
        changed[5] += 1
        assert array_digest(data) != array_digest(changed)

    def test_ring_hash_matches_legacy_md5_and_pinned_values(self):
        for key in ("mlp", "w0#3", "model|payload-digest"):
            assert ring_hash(key) == int.from_bytes(
                hashlib.md5(key.encode("utf-8")).digest()[:8], "big")
        # Pinned: ring positions (-> worker assignments) may never shift.
        assert ring_hash("mlp") == 7647200662382040504
        assert ring_hash("w0#3") == 5725372898175210973

    def test_placement_ring_uses_the_shared_hash(self):
        policy = get_placement("consistent_hash")
        assert policy._hash("anything") == ring_hash("anything")


# ----------------------------------------------------------------------
# ResponseCache: budget, LRU, TTL, generations — pure unit tests
# ----------------------------------------------------------------------
def key_of(tag, generation=1):
    return ("artifact", generation, tag)


class TestResponseCache:
    def test_put_get_round_trip_is_exact_and_read_only(self):
        cache = ResponseCache(max_bytes=1 << 20)
        value = np.arange(6, dtype=np.float32)
        stored = cache.put(key_of("p"), value)
        value[0] = 99.0                      # caller mutates its copy...
        hit = cache.get(key_of("p"))
        assert np.array_equal(hit, [0, 1, 2, 3, 4, 5])   # ...cache doesn't
        assert hit is stored                 # zero-copy hot path
        assert not hit.flags.writeable
        with pytest.raises(ValueError):
            hit[0] = 1.0

    def test_lru_eviction_respects_byte_budget(self):
        entry = np.zeros(8, dtype=np.float32)        # 32 bytes each
        cache = ResponseCache(max_bytes=3 * entry.nbytes)
        for tag in ("a", "b", "c"):
            cache.put(key_of(tag), entry)
        cache.get(key_of("a"))               # refresh: b is now LRU
        cache.put(key_of("d"), entry)
        assert cache.get(key_of("b")) is None
        assert all(cache.get(key_of(tag)) is not None
                   for tag in ("a", "c", "d"))
        assert cache.evictions == 1
        assert cache.current_bytes == 3 * entry.nbytes

    def test_oversized_value_is_refused_not_destructive(self):
        cache = ResponseCache(max_bytes=64)
        cache.put(key_of("small"), np.zeros(4, dtype=np.float32))
        assert cache.put(key_of("huge"),
                         np.zeros(1000, dtype=np.float32)) is None
        assert cache.get(key_of("small")) is not None    # survived
        assert len(cache) == 1

    def test_ttl_expiry_is_lazy_against_injected_clock(self):
        clock = ManualClock()
        cache = ResponseCache(max_bytes=1 << 20, ttl_s=10.0, clock=clock)
        cache.put(key_of("p"), np.ones(3))
        clock.advance(9.9)
        assert cache.get(key_of("p")) is not None
        clock.advance(0.2)
        assert cache.get(key_of("p")) is None
        assert cache.expirations == 1
        assert cache.current_bytes == 0

    def test_replacing_a_key_reaccounts_bytes(self):
        cache = ResponseCache(max_bytes=1 << 20)
        cache.put(key_of("p"), np.zeros(100, dtype=np.float32))
        cache.put(key_of("p"), np.zeros(2, dtype=np.float32))
        assert len(cache) == 1
        assert cache.current_bytes == 8

    def test_generation_invalidation_and_byte_accounting(self):
        cache = ResponseCache(max_bytes=1 << 20)
        cache.put(key_of("p", generation=1), np.zeros(4, np.float32))
        cache.put(key_of("q", generation=1), np.zeros(4, np.float32))
        cache.put(key_of("p", generation=2), np.zeros(4, np.float32))
        assert cache.bytes_for(1) == 32 and cache.bytes_for(2) == 16
        assert cache.invalidate(1) == 2
        assert cache.bytes_for(1) == 0
        assert cache.get(key_of("p", generation=1)) is None
        assert cache.get(key_of("p", generation=2)) is not None
        assert cache.invalidations == 2

    def test_counters_and_stats_shape(self):
        cache = ResponseCache(max_bytes=1 << 20)
        cache.put(key_of("p"), np.ones(2))
        cache.get(key_of("p"))
        cache.get(key_of("miss"))
        assert cache.hit_rate == 0.5
        stats = cache.stats()
        assert stats["hits"] == stats["misses"] == 1
        assert stats["entries"] == 1 and stats["max_bytes"] == 1 << 20
        assert "1 hits / 1 misses" in cache.format()

    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            ResponseCache(max_bytes=0)
        with pytest.raises(ConfigurationError):
            ResponseCache(max_bytes=64, ttl_s=0.0)


class TestInflightTable:
    def test_leader_follower_lifecycle(self):
        table = InflightTable()
        entry = table.begin(key_of("p"), 1, leader="leader-future")
        assert table.get(key_of("p")) is entry
        entry.followers.append(("f", "record"))
        popped = table.pop(key_of("p"))
        assert popped is entry and popped.followers == [("f", "record")]
        assert table.get(key_of("p")) is None
        assert table.pop(key_of("p")) is None    # idempotent

    def test_duplicate_begin_rejected(self):
        table = InflightTable()
        table.begin(key_of("p"), 1, leader="a")
        with pytest.raises(ConfigurationError):
            table.begin(key_of("p"), 1, leader="b")

    def test_pop_generation_detaches_only_that_generation(self):
        table = InflightTable()
        table.begin(key_of("p", 1), 1, leader="a")
        table.begin(key_of("q", 1), 1, leader="b")
        table.begin(key_of("p", 2), 2, leader="c")
        detached = table.pop_generation(1)
        assert {e.leader for e in detached} == {"a", "b"}
        assert len(table) == 1 and table.get(key_of("p", 2)) is not None


# ----------------------------------------------------------------------
# ModelServer integration: hits, coalescing, crash, rollover
# ----------------------------------------------------------------------
class TestServerCache:
    def test_hit_bypasses_queue_bit_identically(self):
        deployment, _ = make_deployment()
        server, _ = cached_server(deployment)
        x = payloads(1)[0]
        cold = server.submit("mlp", x)
        assert not cold.done()               # true miss: queued
        server.drain()
        reference = cold.result(timeout=0)
        hit = server.submit("mlp", x)
        assert hit.done()                    # answered without the queue
        assert hit.cached and not cold.cached
        assert np.array_equal(hit.result(timeout=0), reference)
        assert hit.request.fpga_ms == 0.0
        stats = server.stats()["mlp"]
        assert stats.requests == 1           # engine served once
        assert stats.cache_hits == 1 and stats.cache_bytes > 0
        assert stats.cache_hit_rate == 0.5
        server.close()

    def test_distinct_payloads_never_alias(self):
        deployment, quantized = make_deployment()
        server, _ = cached_server(deployment)
        xs = payloads(6)
        first = [server.submit("mlp", x) for x in xs]
        server.drain()
        again = [server.submit("mlp", x) for x in xs]
        for cold, warm, x in zip(first, again, xs):
            assert warm.cached
            assert np.array_equal(warm.result(timeout=0),
                                  cold.result(timeout=0))
            assert np.allclose(warm.result(timeout=0),
                               quantized.predict(x[None])[0])
        server.close()

    def test_concurrent_identical_submits_coalesce_one_slot(self):
        deployment, _ = make_deployment()
        server, _ = cached_server(deployment)
        x = payloads(1)[0]
        leader = server.submit("mlp", x)
        followers = [server.submit("mlp", x) for _ in range(3)]
        assert all(not f.done() for f in followers)
        server.drain()
        reference = leader.result(timeout=0)
        assert leader.request.batch_size == 1   # one slot for all 4
        for follower in followers:
            assert follower.coalesced
            assert np.array_equal(follower.result(timeout=0), reference)
            assert follower.request.batch_size == \
                leader.request.batch_size
        stats = server.stats()["mlp"]
        assert stats.requests == 1 and stats.dedup_coalesced == 3
        server.close()

    def test_crashed_batch_fails_every_coalesced_future_exactly_once(self):
        deployment, _ = make_deployment()
        server, _ = cached_server(deployment)
        entry = server._models["mlp"]
        x = payloads(1)[0]
        leader = server.submit("mlp", x)
        followers = [server.submit("mlp", x) for _ in range(2)]
        fail_counts = {id(f): 0 for f in followers}

        def counting_fail(future, original):
            def wrapped(error):
                fail_counts[id(future)] += 1
                original(error)
            return wrapped

        for follower in followers:
            follower._fail = counting_fail(follower, follower._fail)

        def boom(batch):
            raise RuntimeError("kernel died mid-batch")

        entry.engine.infer = boom
        server.drain()
        # A raw kernel error reaches clients as a typed ServingError
        # that names the model and keeps the original as its cause.
        error = leader.exception(timeout=0)
        assert isinstance(error, ServingError) and "'mlp'" in str(error)
        assert isinstance(error.__cause__, RuntimeError)
        for follower in followers:
            assert follower.exception(timeout=0) is error
            assert fail_counts[id(follower)] == 1
        stats = server.stats()["mlp"]
        assert stats.errors == 1 and stats.cache_hits == 0
        # the failure was not cached and the in-flight entry is gone:
        # a retry recomputes and succeeds
        del entry.engine.infer
        retry = server.submit("mlp", x)
        assert not retry.done()
        server.drain()
        assert retry.exception(timeout=0) is None
        server.close()

    def test_alias_rollover_never_serves_stale_bits(self):
        old, _ = make_deployment(seed=7)
        new, _ = make_deployment(seed=23)
        clock = ManualClock()
        server = ModelServer(workers=0, max_batch=4, clock=clock,
                             cache_mb=4.0)
        server.add("mlp@v1", old)
        server.alias("mlp", "mlp@v1")
        x = payloads(1)[0]
        cold = server.submit("mlp", x)
        server.drain()
        before = cold.result(timeout=0)
        assert server.submit("mlp", x).cached    # warm on v1
        v1_generation = server._models["mlp@v1"].generation

        server.add("mlp@v2", new)
        server.alias("mlp", "mlp@v2")            # rollover
        rolled = server.submit("mlp", x)
        assert not rolled.done()                 # structural miss, no
        server.drain()                           # stale v1 answer
        after = rolled.result(timeout=0)
        assert not np.allclose(before, after)    # genuinely the new model
        warm = server.submit("mlp", x)
        assert warm.cached
        assert np.array_equal(warm.result(timeout=0), after)
        # v1's bytes stay budgeted until it is actually unloaded
        assert server._cache.bytes_for(v1_generation) > 0
        server.unload("mlp@v1")
        assert server._cache.bytes_for(v1_generation) == 0
        server.close()

    def test_unload_and_rehost_mints_fresh_generation(self):
        deployment, _ = make_deployment()
        server, _ = cached_server(deployment)
        x = payloads(1)[0]
        server.submit("mlp", x)
        server.drain()
        assert server.submit("mlp", x).cached
        server.unload("mlp")
        server.add("mlp", deployment)            # same weights, new hosting
        fresh = server.submit("mlp", x)
        assert not fresh.done()                  # digest equal, generation not
        server.drain()
        assert fresh.exception(timeout=0) is None
        assert server.stats()["mlp"].cache_hits == 0
        server.close()

    def test_ttl_expiry_recomputes_through_server(self):
        deployment, _ = make_deployment()
        server, clock = cached_server(deployment, ttl=5.0)
        x = payloads(1)[0]
        server.submit("mlp", x)
        server.drain()
        clock.advance(4.9)
        assert server.submit("mlp", x).cached
        clock.advance(5.1)                       # refreshed entry expires
        expired = server.submit("mlp", x)
        assert not expired.done()
        server.drain()
        assert expired.exception(timeout=0) is None
        server.close()

    def test_cache_off_leaves_submit_path_untouched(self):
        deployment, _ = make_deployment()
        server = ModelServer(workers=0, max_batch=4, clock=ManualClock())
        server.add("mlp", deployment)
        x = payloads(1)[0]
        for _ in range(2):
            future = server.submit("mlp", x)
            assert not future.done()             # no cache: always queued
            server.drain()
            assert not future.cached and not future.coalesced
        assert not server.cache_enabled
        assert server.cache_stats() is None
        stats = server.stats()["mlp"]
        assert stats.requests == 2 and stats.cache_hits == 0
        server.close()

    def test_stats_wire_round_trip_and_merge_carry_cache_counters(self):
        deployment, _ = make_deployment()
        server, _ = cached_server(deployment)
        x, y = payloads(2)
        server.submit("mlp", x)
        server.submit("mlp", x)                  # coalesces
        server.submit("mlp", y)
        server.drain()
        server.submit("mlp", x)                  # hits
        snapshot = server.stats()["mlp"]
        assert (snapshot.cache_hits, snapshot.dedup_coalesced) == (1, 1)
        assert snapshot.cache_bytes > 0
        restored = ModelStats.from_wire(snapshot.to_wire())
        assert restored.cache_hits == 1
        assert restored.dedup_coalesced == 1
        assert restored.cache_bytes == snapshot.cache_bytes
        merged = snapshot.merge(restored)
        assert merged.cache_hits == 2 and merged.dedup_coalesced == 2
        assert "cache 1 hits + 1 coalesced" in snapshot.format()
        detail = server.cache_stats()
        assert detail["models"]["mlp"]["hits"] == 1
        assert detail["cache"]["entries"] == 2
        server.close()

    def test_cache_mb_validation(self):
        with pytest.raises(ConfigurationError):
            ModelServer(workers=0, cache_mb=-1.0)


# ----------------------------------------------------------------------
# Property sweep: hits return the populating compute's exact bits,
# on every backend x model family
# ----------------------------------------------------------------------
FAMILIES = {
    "resnet": "resnet_tiny",
    "mobilenet_v2": "mobilenet_v2",
    "lstm": "lstm_lm",
    "gru": "gru_speech",
    "yolo_head": "yolo_lite",
}
ALL_BACKENDS = ("reference", "fused", "compiled")


def _require(backend: str) -> None:
    if backend == "compiled":
        from repro.serve.codegen import compiler_probe

        compiler, note = compiler_probe()
        if compiler is None:
            pytest.skip(f"compiled backend needs a C compiler: {note}")


@pytest.fixture(scope="module")
def family_artifacts():
    built = {}
    for family, name in FAMILIES.items():
        model, sample = build_model(name, seed=0)
        rng = np.random.default_rng(11)
        results = post_training_quantize(model, [sample(rng, 8)])
        built[family] = (build_artifact(model, sample(rng, 4),
                                        layer_results=results, name=name),
                        sample)
    return built


class TestCacheParityEverywhere:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("backend", sorted(ALL_BACKENDS))
    def test_hits_equal_populating_compute(self, family, backend,
                                           family_artifacts):
        _require(backend)
        artifact, sample = family_artifacts[family]
        clock = ManualClock()
        engine = InferenceEngine(ExecutionPlan(artifact, backend=backend),
                                 clock=clock)
        server = ModelServer(workers=0, max_batch=4, clock=clock,
                             cache_mb=16.0)
        server.add_engine("m", engine)
        batch = sample(np.random.default_rng(101), 6)
        cold = [server.submit("m", row) for row in batch]
        server.drain()
        references = [future.result(timeout=0) for future in cold]
        warm = [server.submit("m", row) for row in batch]
        for future, reference in zip(warm, references):
            assert future.done() and future.cached
            assert np.array_equal(future.result(timeout=0), reference)
        assert server.stats()["m"].cache_hits == len(batch)
        server.close()
