"""Response cache under Zipf traffic: hit rate, speedup, zero staleness.

Real serving traffic is skewed — a few hot payloads dominate arrivals —
so this bench drives an open-loop Poisson stream whose payloads are
drawn Zipf(s~1.1) from a fixed population, the canonical shape for
content-addressed caches. Three claims are gated:

- **throughput**: with the cache on, the same saturating stream must
  deliver at least ``GATE_SPEEDUP`` (3x) the requests/sec of the
  cache-off server, at a measured hit rate of at least ``GATE_HIT_RATE``
  (0.5) — the arrival rate is pinned well above the uncached service
  capacity, so the uncached run is compute-bound while hits are not.
  The cached server is warmed with one untimed pass over the payload
  population first (steady-state serving, the regime a response cache
  exists for; the cold path — leaders + coalesced followers — is
  covered by the strict suite in ``tests/test_serve_cache.py``);
- **bit-exactness**: every cached/coalesced answer must be
  ``np.array_equal`` to the response that populated its entry (the
  cache stores the populating compute's exact bits; recomputing the
  same payload in a different batch composition is allowed to differ in
  low-order BLAS bits, which is precisely why the cache *stores* rather
  than recomputes);
- **zero stale hits**: after an alias rollover to a different artifact,
  every distinct payload must miss (the hosting generation is part of
  the cache key) and then re-warm to the *new* model's bits.

Writes ``BENCH_cache.json`` (uploaded by the CI `cache` job). Each
throughput scenario runs twice and the better pass is kept — the
standard interference-robust choice on shared runners.
"""

import json
import os
import time

import numpy as np

from repro.api import Pipeline, PipelineConfig
from repro.serve import ModelServer
from repro.serve.cli import build_model

MODEL = "mobilenet_v2"
BACKEND = "fused"
BATCH = 16
REQUESTS = 512
DISTINCT = 32                   # payload population size
ZIPF_S = 1.1
OVERLOAD = 6.0                  # arrival rate vs uncached batched capacity
CACHE_MB = 64.0
GATE_SPEEDUP = 3.0
GATE_HIT_RATE = 0.5
REPORT_PATH = os.environ.get("BENCH_CACHE_OUT", "BENCH_cache.json")


def build_deployment(seed=0):
    model, sample = build_model(MODEL, seed=seed)
    rng = np.random.default_rng(seed + 1)
    pipeline = Pipeline(PipelineConfig(batch=BATCH), model=model)
    pipeline.calibrate([sample(rng, 8)])
    return pipeline.deploy(backend=BACKEND), sample


def zipf_indices(count, population, s, seed=11):
    """``count`` draws over ``range(population)`` with a Zipf(s) pmf."""
    ranks = np.arange(1, population + 1, dtype=np.float64)
    pmf = ranks ** -s
    pmf /= pmf.sum()
    return np.random.default_rng(seed).choice(population, size=count,
                                              p=pmf)


def batched_capacity(engine, payloads):
    """Requests/sec of burst batch-16 serving (the uncached ceiling)."""
    server = ModelServer(workers=0, max_batch=BATCH)
    server.add_engine("m", engine, batch=BATCH)
    server.submit_many("m", payloads)
    started = time.perf_counter()
    server.drain()
    elapsed = time.perf_counter() - started
    server.close()
    return len(payloads) / elapsed


def run_scenario(engine, stream, offsets, cache_mb, population=None):
    """Open-loop: submit on the Poisson schedule, wait for every future.

    When the cache is on, one untimed pass over ``population`` warms it
    first, so the timed stream measures steady-state hot-cache serving.
    Returns (record, warm futures, per-request futures) — the warm
    futures hold the populating compute's bits (the exactness
    reference) and the stream futures carry cached/coalesced
    provenance.
    """
    server = ModelServer(workers=2, max_batch=BATCH, cache_mb=cache_mb)
    server.add_engine("m", engine, batch=BATCH)
    warm = []
    if cache_mb and population is not None:
        warm = [server.submit("m", payload) for payload in population]
        for future in warm:
            future.result(timeout=120.0)
    futures = []
    started = time.perf_counter()
    for offset, payload in zip(offsets, stream):
        remaining = offset - (time.perf_counter() - started)
        if remaining > 0:
            time.sleep(remaining)
        futures.append(server.submit("m", payload))
    for future in futures:
        future.result(timeout=120.0)
    duration = time.perf_counter() - started
    stats = server.stats()["m"]
    server.close()
    record = {
        "cache_mb": cache_mb or 0.0,
        "rps": len(futures) / duration,
        "engine_requests": stats.requests,
        "cache_hits": stats.cache_hits,
        "dedup_coalesced": stats.dedup_coalesced,
        "hit_rate": stats.cache_hit_rate,
        "warmed": len(warm),
    }
    return record, warm, futures


def assert_hits_bit_identical(warm, futures, indices):
    """Every cached/coalesced answer == the bits that populated its key."""
    reference = [future.result(timeout=0) for future in warm]
    checked = 0
    for future, index in zip(futures, indices):
        if future.cached or future.coalesced:
            assert np.array_equal(future.result(timeout=0),
                                  reference[index]), (
                f"cache answer for payload {index} diverged from the "
                "response that populated it")
            checked += 1
    assert checked > 0, "the Zipf stream produced no cache answers"
    return checked


def assert_rollover_never_stale(population, rolled_sample):
    """Alias rollover to a new artifact: every payload misses, then
    re-warms to the new model's bits."""
    old, _ = build_deployment(seed=0)
    new, _ = build_deployment(seed=7)
    server = ModelServer(workers=0, max_batch=BATCH, cache_mb=CACHE_MB)
    server.add("m@v1", old)
    server.alias("m", "m@v1")
    for payload in population:
        server.submit("m", payload)
    server.drain()
    warm = [server.submit("m", payload) for payload in population]
    assert all(f.cached for f in warm)       # v1 is fully warm

    server.add("m@v2", new)
    server.alias("m", "m@v2")                # the rollover
    rolled = [server.submit("m", payload) for payload in population]
    stale = sum(1 for f in rolled if f.done())
    assert stale == 0, f"{stale} stale hits served across the rollover"
    server.drain()
    rewarmed = [server.submit("m", payload) for payload in population]
    for cold, hot, old_hit in zip(rolled, rewarmed, warm):
        assert hot.cached
        assert np.array_equal(hot.result(timeout=0),
                              cold.result(timeout=0))
        assert not np.array_equal(hot.result(timeout=0),
                                  old_hit.result(timeout=0))
    server.close()
    return len(population)


def test_zipf_stream_cached_beats_uncached(tmp_path):
    deployment, sample = build_deployment(seed=0)
    engine = deployment.engine
    engine.warmup((1, BATCH))   # bind scratch, verify the corner sizes

    rng = np.random.default_rng(2)
    population = [sample(rng, 1)[0] for _ in range(DISTINCT)]
    indices = zipf_indices(REQUESTS, DISTINCT, ZIPF_S)
    stream = [population[index] for index in indices]

    capacity = batched_capacity(engine, stream[:96])
    rate = OVERLOAD * capacity
    offsets = np.cumsum(
        np.random.default_rng(7).exponential(1.0 / rate, REQUESTS))

    results = {}
    for _ in range(2):          # better of two passes per scenario
        for cache_mb in (None, CACHE_MB):
            record, warm, futures = run_scenario(engine, stream, offsets,
                                                 cache_mb, population)
            key = record["cache_mb"]
            if key not in results or record["rps"] > results[key][0]["rps"]:
                results[key] = (record, warm, futures)

    uncached, _, _ = results[0.0]
    cached, cached_warm, cached_futures = results[CACHE_MB]
    speedup = cached["rps"] / uncached["rps"]
    exact = assert_hits_bit_identical(cached_warm, cached_futures, indices)
    rolled = assert_rollover_never_stale(population, sample)

    report = {
        "model": MODEL, "backend": BACKEND, "batch": BATCH,
        "requests": REQUESTS, "distinct_payloads": DISTINCT,
        "zipf_s": ZIPF_S,
        "capacity_uncached_rps": round(capacity, 1),
        "arrival_rate_rps": round(rate, 1),
        "scenarios": [
            {**record, "rps": round(record["rps"], 1),
             "hit_rate": round(record["hit_rate"], 3)}
            for record, _, _ in (results[0.0], results[CACHE_MB])],
        "speedup": round(speedup, 2),
        "hit_rate": round(cached["hit_rate"], 3),
        "bit_identical_answers_checked": exact,
        "rollover_payloads_verified_fresh": rolled,
    }
    with open(REPORT_PATH, "w") as handle:
        json.dump(report, handle, indent=2)

    print(f"\narrival {rate:.0f} req/s ({OVERLOAD:.1f}x uncached batched "
          f"capacity {capacity:.0f} req/s), Zipf s={ZIPF_S} over "
          f"{DISTINCT} payloads")
    for record, _, _ in (results[0.0], results[CACHE_MB]):
        print(f"  cache={record['cache_mb']:5.1f} MB: "
              f"{record['rps']:7.0f} req/s, "
              f"hit rate {record['hit_rate']:.2f} "
              f"({record['cache_hits']} hits + "
              f"{record['dedup_coalesced']} coalesced, "
              f"{record['engine_requests']} computed)")
    print(f"cached speedup: {speedup:.2f}x; {exact} answers bit-checked; "
          f"{rolled} payloads verified fresh across rollover; "
          f"wrote {REPORT_PATH}")

    assert cached["hit_rate"] >= GATE_HIT_RATE, (
        f"Zipf(s={ZIPF_S}) over {DISTINCT} payloads must hit >= "
        f"{GATE_HIT_RATE:.0%}, got {cached['hit_rate']:.2f}")
    assert speedup >= GATE_SPEEDUP, (
        f"cached serving must deliver >= {GATE_SPEEDUP}x the uncached "
        f"rps on the same Zipf stream, got {speedup:.2f}x")
