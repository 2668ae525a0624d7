"""Pipelined serving suite: the in-process :class:`PipelineEngine`
(deterministic ``workers=0`` stepping and the threaded path), the
distributed :class:`PipelineCluster` with its chaos scenario, and the
:class:`repro.api.PipelineDeployment` front door.

The bit-exactness contract everywhere: a pipelined output equals the
single-device plan's output *for the same micro-batch composition*
(floating-point GEMMs are reduction-order sensitive, so the reference
is always computed on the exact batches the pipeline formed).
"""

import threading

import numpy as np
import pytest

from repro.api import Pipeline, PipelineConfig
from repro.errors import (
    ConfigurationError,
    ResourceError,
    ServingError,
    WorkerError,
)
from repro.serve import FaultPlan
from repro.serve.cli import build_model, replay_served_batches
from repro.serve.export import build_artifact
from repro.serve.ir import synthetic_batch
from repro.serve.partition import (
    PipelineEngine,
    auto_cuts,
    local_pipeline_cluster,
    process_pipeline_cluster,
    split_artifact,
)
from repro.serve.partition.pipeline import StageDeployment
from repro.serve.plan import ExecutionPlan
from tests.conftest import BusyGate, RecordingCondition, make_mlp

FAMILIES = ("resnet_tiny", "mobilenet_v2", "lstm_lm", "gru_speech",
            "yolo_lite")


class ManualClock:
    """A clock tests advance explicitly; reading it never moves it."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> "ManualClock":
        self.now += seconds
        return self


def make_artifact(name, seed=0, batch=4):
    rng = np.random.default_rng(seed)
    model, sampler = build_model(name, seed=seed)
    return build_artifact(model, sampler(rng, batch), name=name)


def staged_reference(artifact, batches):
    """Single-device outputs for the exact micro-batches the pipeline
    will form: per-request rows, concatenated in submission order."""
    plan = ExecutionPlan(artifact)
    rows = []
    for batch in batches:
        outputs = plan.forward(batch)
        rows.extend(plan.per_request_outputs(outputs, batch.shape[0]))
    return rows


@pytest.fixture(scope="module")
def mlp_artifact():
    rng = np.random.default_rng(11)
    return build_artifact(make_mlp(7),
                          rng.normal(size=(4, 12)).astype(np.float32),
                          name="mlp")


# ----------------------------------------------------------------------
# PipelineEngine, deterministic workers=0 path
# ----------------------------------------------------------------------
class TestPipelineEngine:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_serves_bit_exact(self, family):
        artifact = make_artifact(family)
        inputs = synthetic_batch(lower_graph(artifact), n=8, seed=3)
        engine = PipelineEngine.from_artifact(artifact, stages=2,
                                              workers=0, max_batch=4)
        assert engine.num_stages == 2
        with engine:
            futures = engine.submit_many(engine.name, list(inputs))
            engine.drain()
            expected = staged_reference(artifact,
                                        [inputs[:4], inputs[4:]])
            for future, row in zip(futures, expected):
                assert np.array_equal(future.result(timeout=0), row)

    def test_poll_moves_one_stage_per_step(self, mlp_artifact):
        engine = PipelineEngine.from_artifact(mlp_artifact, stages=2,
                                              workers=0, max_batch=4)
        rng = np.random.default_rng(0)
        xs = [rng.normal(size=(12,)).astype(np.float32)
              for _ in range(4)]
        futures = engine.submit_many("mlp", xs)
        # poll 1: batcher flushes into stage 0's queue, nothing runs yet
        assert engine.poll() == 0
        assert engine.stats()["mlp/stage0"].queue_depth == 1
        # poll 2: stage 0 executes, hands the batch to stage 1
        assert engine.poll() == 0
        assert engine.stats()["mlp/stage1"].queue_depth == 1
        # poll 3: stage 1 completes all four requests
        assert engine.poll() == 4
        assert all(f.done() for f in futures)
        engine.close()

    def test_unknown_model_raises_typed(self, mlp_artifact):
        engine = PipelineEngine.from_artifact(mlp_artifact, stages=2,
                                              workers=0)
        with pytest.raises(ServingError) as info:
            engine.submit("nope", np.zeros(12, dtype=np.float32))
        assert info.value.code == "unknown-model"
        with pytest.raises(ServingError):
            engine.plan("nope")
        engine.close()

    def test_stats_are_stage_dimensioned(self, mlp_artifact):
        engine = PipelineEngine.from_artifact(mlp_artifact, stages=2,
                                              workers=0, max_batch=4)
        rng = np.random.default_rng(1)
        engine.submit_many("mlp", [rng.normal(size=(12,))
                                   .astype(np.float32)
                                   for _ in range(4)])
        engine.drain()
        stats = engine.stats()
        assert set(stats) == {"mlp", "mlp/stage0", "mlp/stage1"}
        assert stats["mlp"].stage == ""
        assert stats["mlp"].requests == 4
        assert stats["mlp/stage0"].stage == "1/2"
        assert stats["mlp/stage1"].stage == "2/2"
        for key in ("mlp/stage0", "mlp/stage1"):
            assert stats[key].requests == 4
            assert stats[key].batches == 1
            assert "stage" in stats[key].format()
        engine.close()

    def test_threaded_workers_match_stepped_results(self, mlp_artifact):
        rng = np.random.default_rng(2)
        xs = [rng.normal(size=(12,)).astype(np.float32)
              for _ in range(6)]
        with PipelineEngine.from_artifact(mlp_artifact, stages=2,
                                          workers=1,
                                          max_batch=6) as engine:
            futures = engine.submit_many("mlp", xs)
            engine.drain()
            got = [f.result(timeout=10.0) for f in futures]
        expected = staged_reference(mlp_artifact, [np.stack(xs)])
        for row, want in zip(got, expected):
            assert np.array_equal(row, want)

    def test_predict_forces_partial_batch_through(self, mlp_artifact):
        # A lone request must not wait forever for co-riders.
        with PipelineEngine.from_artifact(mlp_artifact, stages=2,
                                          workers=1,
                                          max_batch=16) as engine:
            x = np.ones(12, dtype=np.float32)
            got = engine.predict("mlp", x, timeout=10.0)
        expected = staged_reference(mlp_artifact, [x[None]])[0]
        assert np.array_equal(got, expected)

    def test_poll_serves_a_lone_request_on_an_idle_pipeline(
            self, mlp_artifact):
        engine = PipelineEngine.from_artifact(mlp_artifact, stages=2,
                                              workers=0, max_batch=16)
        x = np.ones(12, dtype=np.float32)
        future = engine.submit("mlp", x)
        assert engine.poll() == 0       # stage 0 takes the lone request
        assert engine.stats()["mlp/stage0"].queue_depth == 1
        assert engine.poll() == 0
        assert engine.poll() == 1
        assert future.request.batch_size == 1
        assert np.array_equal(future.result(timeout=0),
                              staged_reference(mlp_artifact, [x[None]])[0])
        engine.close()

    def test_arrivals_while_stage0_is_busy_form_one_fifo_batch(
            self, mlp_artifact):
        # Six requests arrive while stage 0 holds a lone request's batch:
        # they become FIFO batches of at most max_batch behind it.
        engine = PipelineEngine.from_artifact(mlp_artifact, stages=2,
                                              workers=0, max_batch=4)
        rng = np.random.default_rng(4)
        xs = [rng.normal(size=(12,)).astype(np.float32)
              for _ in range(7)]
        futures = [engine.submit("mlp", xs[0])]
        engine.poll()
        futures += engine.submit_many("mlp", xs[1:])
        engine.drain()
        assert [f.request.batch_size for f in futures] == [1] + [4] * 4 \
            + [2] * 2
        assert [f.request.batch_id for f in futures] == [0] + [1] * 4 \
            + [2] * 2
        expected = staged_reference(mlp_artifact, [
            np.stack(xs[:1]), np.stack(xs[1:5]), np.stack(xs[5:])])
        for future, want in zip(futures, expected):
            assert np.array_equal(future.result(timeout=0), want)
        engine.close()

    def test_threaded_arrivals_while_busy_form_one_fifo_batch(
            self, mlp_artifact):
        engine = PipelineEngine.from_artifact(mlp_artifact, stages=2,
                                              workers=1, max_batch=4)
        gate = BusyGate(engine._engines[0])
        rng = np.random.default_rng(5)
        xs = [rng.normal(size=(12,)).astype(np.float32)
              for _ in range(7)]
        with engine:
            futures = [engine.submit("mlp", xs[0])]
            assert gate.entered.wait(60.0)
            futures += engine.submit_many("mlp", xs[1:])
            assert engine.stats()["mlp"].queue_depth == 6
            gate.release.set()
            engine.drain()
            got = [f.result(timeout=10.0) for f in futures]
        assert [f.request.batch_size for f in futures] == [1] + [4] * 4 \
            + [2] * 2
        expected = staged_reference(mlp_artifact, [
            np.stack(xs[:1]), np.stack(xs[1:5]), np.stack(xs[5:])])
        for row, want in zip(got, expected):
            assert np.array_equal(row, want)

    def test_idle_stage_workers_wait_without_timeout(self, mlp_artifact,
                                                     monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(threading, "Condition", RecordingCondition)
            engine = PipelineEngine.from_artifact(mlp_artifact, stages=2,
                                                  workers=1, max_batch=4)
        x = np.ones(12, dtype=np.float32)
        with engine:
            engine.predict("mlp", x, timeout=10.0)
        stage_waits = [timeout for name, timeout in engine._work.waits
                       if name.startswith("pipeline-")]
        assert stage_waits and set(stage_waits) == {None}

    def test_queue_depth_validation(self, mlp_artifact):
        with pytest.raises(ConfigurationError, match="queue_depth"):
            PipelineEngine.from_artifact(mlp_artifact, stages=2,
                                         workers=0, queue_depth=0)

    def test_bad_token_fails_only_its_own_request(self):
        # lstm_lm's vocabulary is 40. Stage 0 checks its batch once; the
        # failed batch is re-checked row by row, so only the bad request
        # fails and its neighbours run again as their own batch.
        artifact = make_artifact("lstm_lm")
        plan = ExecutionPlan(artifact)
        rows = list(synthetic_batch(lower_graph(artifact), n=4, seed=3))
        bad = rows[1].copy()
        bad[5] = 40
        rows[1] = bad
        with pytest.raises(ConfigurationError) as alone:
            plan.forward(bad[None])
        engine = PipelineEngine.from_artifact(artifact, stages=2,
                                              workers=0, max_batch=4)
        with engine:
            futures = engine.submit_many(engine.name, rows)
            engine.drain()
            error = futures[1].exception(timeout=0)
            assert isinstance(error, ConfigurationError)
            assert str(error) == str(alone.value)
            neighbours = [futures[0], futures[2], futures[3]]
            expected = staged_reference(
                artifact, [np.stack([rows[0], rows[2], rows[3]])])
            for future, want in zip(neighbours, expected):
                assert np.array_equal(future.result(timeout=0), want)
                assert future.request.batch_size == 3
            assert engine.stats()[engine.name].errors == 1

    def test_token_ids_are_scanned_once_per_batch(self, monkeypatch):
        artifact = make_artifact("lstm_lm")
        engine = PipelineEngine.from_artifact(artifact, stages=2,
                                              workers=0, max_batch=4)
        plan = engine.plan()
        scans = []
        coerce = plan.coerce
        monkeypatch.setattr(plan, "coerce",
                            lambda x: scans.append(x.shape) or coerce(x))
        rows = synthetic_batch(lower_graph(artifact), n=4, seed=3)
        with engine:
            futures = engine.submit_many(engine.name, list(rows))
            engine.drain()
            assert all(f.exception(timeout=0) is None for f in futures)
        assert scans == [rows.shape]


def lower_graph(artifact):
    from repro.serve.ir import lower_artifact
    return lower_artifact(artifact)


# ----------------------------------------------------------------------
# StageDeployment (the cluster worker's lazy stage host)
# ----------------------------------------------------------------------
class TestStageDeployment:
    def test_engine_is_lazy_and_cached(self, mlp_artifact):
        plan = split_artifact(mlp_artifact, auto_cuts(mlp_artifact))
        source = StageDeployment(plan.stages[0])
        assert source._engine is None
        engine = source.engine
        assert source.engine is engine     # compiled exactly once


# ----------------------------------------------------------------------
# PipelineCluster: one worker per stage, chained hops
# ----------------------------------------------------------------------
class TestPipelineCluster:
    def test_healthy_cluster_is_bit_exact_with_stage_stats(self,
                                                           mlp_artifact):
        plan = split_artifact(mlp_artifact, auto_cuts(mlp_artifact))
        clock = ManualClock()
        cluster = local_pipeline_cluster(plan, max_batch=4, clock=clock)
        assert cluster.num_stages == 2
        rng = np.random.default_rng(5)
        xs = [rng.normal(size=(12,)).astype(np.float32)
              for _ in range(4)]
        futures = cluster.submit_many("mlp", xs)
        cluster.drain()
        expected = staged_reference(mlp_artifact, [np.stack(xs)])
        for future, want in zip(futures, expected):
            assert np.array_equal(future.result(timeout=0), want)
        stats = cluster.stats()
        assert stats["mlp"].requests == 4
        assert stats["mlp/stage0"].stage == "1/2"
        assert stats["mlp/stage1"].stage == "2/2"
        cluster.close()

    def test_stage_worker_crash_fails_typed_never_wrong_bits(
            self, mlp_artifact):
        # Stage 1's worker answers two requests, then dies emitting its
        # third response frame (the canonical crash-mid-batch, and a
        # dead connection also loses any responses still queued behind
        # it). The two delivered results must be bit-exact; every
        # in-flight request must fail with a typed WorkerError — a
        # crash can never produce wrong bits, only typed failures.
        plan = split_artifact(mlp_artifact, auto_cuts(mlp_artifact))
        cluster = local_pipeline_cluster(
            plan, max_batch=1, clock=ManualClock(),
            fault_plans={1: FaultPlan().kill("to_router", 2)})
        rng = np.random.default_rng(6)
        xs = [rng.normal(size=(12,)).astype(np.float32)
              for _ in range(6)]
        futures = []
        for x in xs[:2]:                     # two full round trips...
            future = cluster.submit("mlp", x)
            cluster.drain()
            futures.append(future)
        futures += cluster.submit_many("mlp", xs[2:])
        cluster.drain()                      # ...then the crash frame
        survivors = [(i, f) for i, f in enumerate(futures)
                     if f.exception(timeout=0) is None]
        victims = [f for f in futures
                   if f.exception(timeout=0) is not None]
        assert len(survivors) == 2 and len(victims) == 4
        expected = staged_reference(mlp_artifact,
                                    [x[None] for x in xs])
        for index, future in survivors:
            assert np.array_equal(future.result(timeout=0),
                                  expected[index])
        for future in victims:
            assert isinstance(future.exception(timeout=0), WorkerError)
        stats = cluster.stats()
        assert stats["mlp"].errors == 4
        cluster.close(drain=False)


# ----------------------------------------------------------------------
# repro.api front door: deploy(devices=[...])
# ----------------------------------------------------------------------
def build_api_pipeline(seed=7, batch=4):
    rng = np.random.default_rng(seed + 1000)
    pipeline = Pipeline(PipelineConfig(batch=batch), model=make_mlp(seed))
    pipeline.calibrate([rng.normal(size=(8, 12)).astype(np.float32)])
    return pipeline


class TestPipelineDeployment:
    def test_overflowing_design_partitions_and_matches_single_device(
            self):
        from dataclasses import replace

        from repro.fpga.devices import get_device
        from repro.fpga.resources import check_fits, reference_designs

        # The acceptance narrative: the batch-4 reference design
        # overflows the small zu3eg — check_fits names the escape
        # hatch — and the same model then deploys across two zu3eg
        # boards as a pipeline, bit-identical to one big device.
        with pytest.raises(ResourceError) as info:
            check_fits(replace(reference_designs()["D2-3"],
                               device=get_device("zu3eg")))
        assert "would fit" in str(info.value)

        api = build_api_pipeline()
        single = api.deploy()
        piped = api.deploy(devices=["zu3eg", "zu3eg"])
        assert piped.num_stages == 2
        rng = np.random.default_rng(9)
        batch = rng.normal(size=(4, 12)).astype(np.float32)
        assert np.array_equal(single.predict(batch), piped.predict(batch))
        one = batch[0]
        assert piped.predict(one).shape == single.predict(one).shape
        piped.close()

    def test_needs_two_devices_and_valid_batch(self):
        api = build_api_pipeline()
        with pytest.raises(ConfigurationError, match=">= 2 devices"):
            api.deploy(devices=["zu3eg"])
        with pytest.raises(ConfigurationError, match="batch"):
            api.deploy(devices=["zu3eg", "zu3eg"], batch=0)

    def test_stage_designs_follow_devices(self):
        api = build_api_pipeline()
        piped = api.deploy(devices=["zu3eg", "7z020"])
        names = [design.device.name for design in piped.designs]
        assert names == ["XCZU3EG", "XC7Z020"]
        assert piped.partition.num_stages == 2
        piped.close()


# ----------------------------------------------------------------------
# Real subprocesses: stage activations on the framed transport
# ----------------------------------------------------------------------
@pytest.mark.subprocess
class TestProcessPipeline:
    def test_two_stage_subprocess_pipeline(self, mlp_artifact, tmp_path):
        plan = split_artifact(mlp_artifact, auto_cuts(mlp_artifact))
        paths = plan.save(tmp_path / "mlp")
        cluster = process_pipeline_cluster(paths, name="mlp",
                                           max_batch=4)
        try:
            rng = np.random.default_rng(8)
            xs = [rng.normal(size=(12,)).astype(np.float32)
                  for _ in range(4)]
            futures = cluster.submit_many("mlp", xs)
            cluster.drain(timeout=60.0)
            # No hold forces a wave of four: each stage worker served
            # whatever was queued when it was free, and every request
            # carries the batches its stages actually served.
            records = [future.request.stages for future in futures]
            assert all(len(stages) == 2 for stages in records)
            expected = replay_served_batches(
                [ExecutionPlan(stage) for stage in plan.stages], xs,
                records)
            assert expected is not None
            for future, want in zip(futures, expected):
                got = future.result(timeout=0)
                # separate-process BLAS may order reductions differently
                assert np.allclose(got, want, atol=1e-6)
        finally:
            cluster.close(drain=False)

    def test_cli_process_pipeline_is_bit_exact(self, tmp_path, capsys):
        # `serve pipeline --process`: a 2-stage resnet_tiny pipeline
        # whose activations hop between subprocesses as raw frame
        # attachments must equal the single-device plan bitwise.
        from repro.api.cli import main

        path = tmp_path / "rt.npz"
        make_artifact("resnet_tiny").save(path)
        code = main(["serve", "pipeline", str(path), "--stages", "2",
                     "--requests", "8", "--batch", "4", "--process"])
        out = capsys.readouterr().out
        assert "IDENTICAL (np.array_equal)" in out
        assert code == 0
