"""The unified configure -> quantize -> deploy pipeline.

One front door over what used to be four disjoint entry points::

    from repro.api import Pipeline, PipelineConfig

    pipeline = Pipeline(PipelineConfig(scheme="msq", ratio="2:1"))
    quantized = pipeline.fit(make_batches, loss_fn, model=model)   # ADMM QAT
    # ... or, training-free:  pipeline.calibrate(batches, model=model)
    deployment = pipeline.deploy(batch=16)
    logits = deployment.predict(x)          # bit-identical to eager

Stages and their return handles:

- :meth:`Pipeline.fit` — quantization-aware training: the paper's ADMM+STE
  recipe (``method=None``) or any registered baseline method
  (``method="lsq"``, ...). Returns a :class:`QuantizedModel`.
- :meth:`Pipeline.calibrate` — post-training quantization: activation-range
  calibration plus a one-shot projection onto the configured scheme.
  Returns a :class:`QuantizedModel`.
- :meth:`Pipeline.deploy` / :meth:`QuantizedModel.deploy` — freeze into a
  packed-weight artifact (bit-exactness verified at export), load it into
  an execution plan and engine, and wrap them in a :class:`Deployment`
  whose ``predict`` serves requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.api.config import PipelineConfig
from repro.api.registry import get_method
from repro.errors import ConfigurationError
from repro.fpga.resources import GemmDesign
from repro.nn.module import Module
from repro.quant.baselines.common import train_baseline
from repro.quant.partition import sp2_row_fraction_of
from repro.quant.ste import ActivationQuantizer
from repro.quant.trainer import run_qat
from repro.serve.backends import DEFAULT_BACKEND
from repro.serve.engine import InferenceEngine
from repro.serve.export import build_artifact, eager_forward
from repro.serve.plan import ExecutionPlan
from repro.serve.ptq import post_training_quantize
from repro.serve.server import ModelServer, ModelStats


def _batch_input(batch) -> Optional[np.ndarray]:
    """Best-effort model input of one training batch (for deploy samples).

    Every task in the repo yields either a bare input array or an
    ``(inputs, targets, ...)`` tuple; anything else returns ``None`` and
    deploy() will ask for an explicit ``sample_input=``.
    """
    if isinstance(batch, np.ndarray):
        return batch
    if isinstance(batch, (tuple, list)) and batch \
            and isinstance(batch[0], np.ndarray):
        return batch[0]
    return None


def _resolve_design(config: PipelineConfig, design) -> GemmDesign:
    """Resolve a deploy-time design spec (``design=`` argument wins over
    the config's target); accepts a :class:`GemmDesign`, a reference
    name, or ``"auto:<device>[@<batch>]"``."""
    from repro.fpga.characterize import resolve_design

    return resolve_design(design if design is not None else config.design)


# ----------------------------------------------------------------------
# Handles
# ----------------------------------------------------------------------
@dataclass
class QuantizedModel:
    """A quantized model plus everything deployment needs.

    Exposes the same fields as the old ``QATResult`` (``model``,
    ``layer_results``, ``act_quantizers``, ``history``) so harnesses that
    inspected training results keep working, and adds the deploy step.
    """

    model: Module
    layer_results: Dict[str, object]
    config: PipelineConfig
    act_quantizers: Dict[str, object] = field(default_factory=dict)
    history: List[Dict[str, float]] = field(default_factory=list)
    sample_input: Optional[np.ndarray] = None

    def predict(self, batch: np.ndarray) -> np.ndarray:
        """Eager quantized inference on a ``(N, ...)`` batch."""
        return eager_forward(self.model, np.asarray(batch))

    def sp2_row_fraction(self) -> float:
        """Achieved SP2 row share across MSQ layers (sanity vs. target)."""
        return sp2_row_fraction_of(self.layer_results)

    # ------------------------------------------------------------------
    def export(self, sample_input: Optional[np.ndarray] = None,
               name: str = "model", path=None, verify: bool = True):
        """Freeze into a :class:`~repro.serve.artifact.ServeArtifact`."""
        sample = self._sample(sample_input)
        return build_artifact(self.model, sample,
                              layer_results=self.layer_results,
                              name=name, path=path, verify=verify)

    def deploy(self, batch: Optional[int] = None,
               sample_input: Optional[np.ndarray] = None,
               design: Optional[GemmDesign] = None,
               name: str = "model", path=None,
               backend: str = DEFAULT_BACKEND,
               devices: Optional[List] = None,
               cuts: Optional[List[int]] = None):
        """Export, compile and wrap this model into a :class:`Deployment`.

        ``backend`` selects the serving kernel set (see
        :func:`repro.serve.list_backends`); any optimized backend is
        verified bit-identical to the reference at compile time.

        ``devices=[...]`` (>= 2 entries: device names, ``"auto:"`` specs
        or per-stage :class:`GemmDesign`\\ s) partitions the model across
        the listed devices instead and returns a
        :class:`PipelineDeployment` — one pipeline stage per device,
        outputs bit-identical to the single-device plan. ``cuts`` pins
        the IR cut points; by default stages are MAC-balanced.
        """
        artifact = self.export(sample_input, name=name, path=path)
        resolved_batch = batch if batch is not None else self.config.batch
        if devices is not None:
            return PipelineDeployment(artifact, devices,
                                      batch=resolved_batch, cuts=cuts,
                                      backend=backend, name=name)
        return Deployment(artifact, batch=resolved_batch,
                          design=_resolve_design(self.config, design),
                          backend=backend)

    def _sample(self, sample_input) -> np.ndarray:
        sample = sample_input if sample_input is not None else self.sample_input
        if sample is None:
            raise ConfigurationError(
                "no sample input available; pass sample_input= (calibrate() "
                "remembers its first calibration batch automatically)")
        return np.asarray(sample)


class Deployment:
    """A deployed model: artifact + execution plan + engine.

    ``deployment.predict(x)`` serves a single request or an ``(N, ...)``
    batch (split into micro-batches of at most ``batch``); results are
    bit-identical to the eager quantized model — the artifact export
    verified that. ``serve()`` drains payloads through the dynamic
    batcher for full latency/throughput accounting, and ``server()``
    hosts this deployment in an async multi-model
    :class:`~repro.serve.server.ModelServer` (futures, work-conserving
    batching, lifecycle).
    """

    def __init__(self, artifact, batch: int = 16,
                 design=None,
                 backend: str = DEFAULT_BACKEND):
        if int(batch) < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
        if isinstance(design, str):
            from repro.fpga.characterize import resolve_design

            design = resolve_design(design)
        self.artifact = artifact
        self.plan = ExecutionPlan(artifact, backend=backend)
        self.engine = InferenceEngine(self.plan, design=design)
        self.batch = int(batch)

    @classmethod
    def load(cls, path, batch: int = 16,
             design: Optional[GemmDesign] = None,
             backend: str = DEFAULT_BACKEND) -> "Deployment":
        """Reload a saved artifact into a servable deployment."""
        from repro.serve.artifact import ServeArtifact

        return cls(ServeArtifact.load(path), batch=batch, design=design,
                   backend=backend)

    @property
    def backend(self) -> str:
        return self.plan.backend

    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Serve one request (per-request shape) or an ``(N, ...)`` batch."""
        x = np.asarray(x)
        if tuple(x.shape) == self.plan.input_shape:
            return self.engine.infer(x[None])[0]
        chunks = [self.engine.infer(x[start:start + self.batch])
                  for start in range(0, x.shape[0], self.batch)]
        return np.concatenate(chunks, axis=0)

    def serve(self, payloads: Iterable[np.ndarray],
              clock=None) -> ModelStats:
        """Drain single-request payloads through the dynamic batcher.

        A synchronous :class:`ModelServer` (``workers=0``) hosts this
        deployment for the drain and its :class:`ModelStats` come back;
        ``clock`` is injectable for deterministic accounting in tests.
        """
        server = ModelServer(workers=0, max_batch=self.batch,
                             **({"clock": clock} if clock is not None
                                else {}))
        server.add("model", self)
        futures = []
        for payload in payloads:
            future = server.submit("model", payload)
            if future.done() and future.exception() is not None:
                raise future.exception()
            futures.append(future)
        server.drain()
        # A synchronous caller wants batch-execution failures raised
        # (the server only counts them per model).
        for future in futures:
            error = future.exception(timeout=0)
            if error is not None:
                raise error
        stats = server.stats()["model"]
        server.close()
        return stats

    def server(self, name: str = "model", workers: int = 2,
               warmup: bool = False) -> ModelServer:
        """Wrap this deployment in a fresh async :class:`ModelServer`
        hosting it under ``name`` (load more models with ``server.load``)."""
        server = ModelServer(workers=workers, max_batch=self.batch)
        server.add(name, self, warmup=warmup)
        return server

    def cluster(self, name: str = "model", workers: int = 2,
                placement: str = "least_loaded",
                capacity: int = 64, clock=None, **worker_kwargs):
        """Serve this deployment from an in-process worker fleet.

        Builds ``workers`` :class:`~repro.serve.cluster.LocalWorker`\\ s,
        each hosting this deployment under ``name`` (versioned + aliased
        for rolling restarts), behind a
        :class:`~repro.serve.cluster.ClusterRouter` with the chosen
        placement policy. With ``clock`` injected the whole cluster is
        deterministic (drive it with ``router.pump()``/``drain()``) —
        the same fleet the chaos tests run. For real multi-process
        scaling, ``save()`` the artifact and use
        ``ClusterRouter.spawn({name: path}, workers=N)``.
        """
        from repro.serve.cluster import ClusterRouter, LocalWorker

        clock_kwargs = {} if clock is None else {"clock": clock}
        fleet = [LocalWorker(f"w{index}", {name: self},
                             max_batch=self.batch,
                             **clock_kwargs, **worker_kwargs)
                 for index in range(workers)]
        return ClusterRouter(fleet, placement, capacity=capacity,
                             **clock_kwargs)

    # ------------------------------------------------------------------
    def simulate(self, batch: Optional[int] = None, **sim_kwargs):
        """Price one plan pass on the configured accelerator design."""
        return self.plan.simulate(self.engine.design,
                                  batch=batch if batch is not None
                                  else self.batch, **sim_kwargs)

    def save(self, path) -> None:
        self.artifact.save(path)

    @property
    def stats(self):
        return self.engine.stats

    def describe(self) -> str:
        return self.plan.describe()


def _resolve_stage_designs(devices) -> List[GemmDesign]:
    """Per-stage design specs -> concrete :class:`GemmDesign` list.

    Each entry is a ``GemmDesign``, a reference-design name (``"D2-3"``),
    an ``"auto:<device>"`` spec, or a bare device catalog name (sugar for
    ``"auto:<device>"`` — deploying onto a device means characterizing a
    design for it)."""
    from repro.fpga.characterize import resolve_design
    from repro.fpga.devices import get_device

    designs = []
    for entry in devices:
        if isinstance(entry, str) and not entry.lower().startswith("auto:"):
            try:
                get_device(entry)
            except ConfigurationError:
                pass                    # a reference-design name
            else:
                entry = f"auto:{entry}"
        designs.append(resolve_design(entry))
    return designs


class PipelineDeployment:
    """A model partitioned across several devices, served as a pipeline.

    The multi-device sibling of :class:`Deployment`: the artifact is cut
    at legal IR boundaries (:func:`repro.serve.partition.auto_cuts`
    MAC-balances the stages unless ``cuts`` pins them), every stage gets
    its own :class:`GemmDesign`, and requests stream through a
    :class:`~repro.serve.partition.pipeline.PipelineEngine` — outputs are
    bit-identical to the single-device plan, verified at split time.
    For async serving, use ``.engine`` directly: it is a
    :class:`~repro.serve.frontend.Server` hosting the model under
    ``.engine.name``.
    """

    def __init__(self, artifact, devices, *, batch: int = 16,
                 backend: str = DEFAULT_BACKEND,
                 cuts: Optional[List[int]] = None,
                 workers: int = 1, name: Optional[str] = None):
        from repro.serve.partition import PipelineEngine

        if len(list(devices)) < 2:
            raise ConfigurationError(
                "a pipeline deployment needs >= 2 devices; use deploy() "
                "without devices= for a single accelerator")
        if int(batch) < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
        self.designs = _resolve_stage_designs(devices)
        self.artifact = artifact
        self.engine = PipelineEngine.from_artifact(
            artifact, stages=len(self.designs), cuts=cuts, name=name,
            backend=backend, designs=self.designs, max_batch=int(batch),
            workers=workers)
        self.partition = self.engine.partition
        self.batch = int(batch)

    @classmethod
    def load(cls, path, devices, **kwargs) -> "PipelineDeployment":
        """Partition a saved artifact across ``devices``."""
        from repro.serve.artifact import ServeArtifact

        return cls(ServeArtifact.load(path), devices, **kwargs)

    @property
    def backend(self) -> str:
        return self.engine.plan().backend

    @property
    def num_stages(self) -> int:
        return self.engine.num_stages

    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Serve one request (per-request shape) or an ``(N, ...)`` batch
        through the stage pipeline."""
        x = np.asarray(x)
        plan = self.engine.plan()
        if tuple(x.shape) == plan.input_shape:
            return self.engine.predict(self.engine.name, x)
        futures = self.engine.submit_many(self.engine.name, list(x))
        self.engine.drain()
        return np.stack([future.result(timeout=60.0) for future in futures])

    def save(self, stem) -> List[str]:
        """Save the per-stage artifacts (``<stem>.stageK.npz``)."""
        return self.partition.save(stem)

    def describe(self) -> str:
        return self.partition.describe()

    def close(self, drain: bool = True) -> None:
        self.engine.close(drain=drain)

    def __enter__(self) -> "PipelineDeployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------
class Pipeline:
    """Run one :class:`PipelineConfig` end to end.

    The pipeline object carries the config, an optional default model, and
    the latest :class:`QuantizedModel` (``.result``), so the common path is
    three chained calls: construct, ``fit``/``calibrate``, ``deploy``.
    """

    def __init__(self, config: Optional[PipelineConfig] = None,
                 model: Optional[Module] = None, **overrides):
        if config is None:
            config = PipelineConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config
        self.model = model
        self.result: Optional[QuantizedModel] = None
        self.tuned = None          # latest autotune.TuneResult (tune())

    # ------------------------------------------------------------------
    def fit(self, make_batches: Callable[[int], Iterable],
            loss_fn: Callable, model: Optional[Module] = None,
            eval_fn: Optional[Callable[[Module], float]] = None,
            sample_input: Optional[np.ndarray] = None) -> QuantizedModel:
        """Quantization-aware training.

        ``method=None`` runs the paper's ADMM+STE recipe (Alg. 1/2);
        a registered method name trains that baseline under the shared STE
        loop — identical call either way, which is what lets the
        Tables III-VI harnesses sweep methods with one config change.

        Like ``calibrate()``, the first training batch's input is remembered
        as the deploy-time sample unless ``sample_input=`` overrides it.
        """
        if self.config.layer_ratios is not None:
            raise ConfigurationError(
                "layer_ratios is a PTQ-only refinement (calibrate()); QAT "
                "trains at the global PE ratio — rebuild the config with "
                "layer_ratios=None to fit() it")
        model = self._model(model)
        captured: Dict[str, np.ndarray] = {}

        def capturing_make_batches(epoch):
            for batch in make_batches(epoch):
                if "sample" not in captured:
                    sample = _batch_input(batch)
                    if sample is not None:
                        captured["sample"] = sample
                yield batch

        if self.config.uses_admm:
            qat = run_qat(model, capturing_make_batches, loss_fn,
                          self.config.to_qat_config(), eval_fn)
            layer_results = qat.layer_results
            act_quantizers, history = qat.act_quantizers, qat.history
        else:
            method = get_method(self.config.method).make(
                weight_bits=self.config.weight_bits,
                act_bits=self.config.act_bits)
            history = train_baseline(
                model, capturing_make_batches, loss_fn, method,
                epochs=self.config.epochs, lr=self.config.lr,
                momentum=self.config.momentum,
                weight_decay=self.config.weight_decay, eval_fn=eval_fn)
            # Baseline projections are not FPGA-encodable level sets; the
            # already-projected weights export as raw float32.
            layer_results, act_quantizers = {}, {}
        if sample_input is None:
            sample_input = captured.get("sample")
        self.result = QuantizedModel(
            model=model, layer_results=layer_results, config=self.config,
            act_quantizers=act_quantizers, history=history,
            sample_input=np.asarray(sample_input)
            if sample_input is not None else None)
        return self.result

    def calibrate(self, batches: Iterable, model: Optional[Module] = None
                  ) -> QuantizedModel:
        """Post-training quantization (no training, milliseconds).

        ``batches`` yields ``(N, ...)`` model inputs; they calibrate the
        activation clipping ranges, then every quantizable weight is
        projected onto the configured scheme in one shot. The first batch
        is remembered as the deploy-time sample input.
        """
        if not self.config.uses_admm:
            raise ConfigurationError(
                f"method {self.config.method!r} requires training; "
                "use fit() (calibrate() is the training-free PTQ path)")
        model = self._model(model)
        batches = list(batches)
        if not batches:
            raise ConfigurationError("calibrate() needs >= 1 batch")
        layer_results = post_training_quantize(
            model, batches,
            weight_bits=self.config.weight_bits,
            act_bits=self.config.act_bits,
            ratio=self.config.ratio,
            skip_first=self.config.act_skip_first,
            scheme=self.config.scheme,
            alpha=self.config.alpha,
            quantize_activations=self.config.quantize_activations,
            skip_modules=self.config.skip_modules,
            act_skip_modules=self.config.act_skip_modules,
            layer_bits=dict(self.config.layer_bits)
            if self.config.layer_bits is not None else None,
            layer_ratios=dict(self.config.layer_ratios)
            if self.config.layer_ratios is not None else None)
        self.result = QuantizedModel(
            model=model, layer_results=layer_results, config=self.config,
            act_quantizers={
                name: module.act_quant
                for name, module in model.named_modules()
                if isinstance(getattr(module, "act_quant", None),
                              ActivationQuantizer)},
            sample_input=np.asarray(batches[0]))
        return self.result

    def deploy(self, batch: Optional[int] = None,
               sample_input: Optional[np.ndarray] = None,
               design: Optional[GemmDesign] = None,
               name: str = "model", path=None,
               backend: Optional[str] = None,
               devices: Optional[List] = None,
               cuts: Optional[List[int]] = None):
        """Deploy the latest ``fit()``/``calibrate()`` result.

        ``backend`` defaults to the tuned backend after a ``tune()``
        (otherwise the stack default). ``devices=[...]`` partitions the
        model across several devices and returns a
        :class:`PipelineDeployment` (one pipeline stage per device); a
        prior ``tune()`` whose winner carries cut points supplies them
        automatically unless ``cuts`` overrides.
        """
        if self.result is None:
            raise ConfigurationError(
                "nothing to deploy; run fit() or calibrate() first")
        if backend is None:
            backend = self.tuned.backend if self.tuned is not None \
                else DEFAULT_BACKEND
        if devices is not None and cuts is None and self.tuned is not None \
                and self.tuned.best.candidate.cuts:
            tuned_cuts = list(self.tuned.best.candidate.cuts)
            if len(tuned_cuts) + 1 == len(list(devices)):
                cuts = tuned_cuts
        return self.result.deploy(batch=batch, sample_input=sample_input,
                                  design=design, name=name, path=path,
                                  backend=backend, devices=devices,
                                  cuts=cuts)

    # ------------------------------------------------------------------
    def tune(self, device, objective: str = "latency",
             model: Optional[Module] = None,
             sample_input: Optional[np.ndarray] = None,
             apply: bool = True, **tune_kwargs):
        """Hardware-aware design-space exploration for this pipeline.

        Runs :func:`repro.autotune.tune` for ``device`` over the model's
        workloads (per-layer ratios, weight bits, design block shapes,
        serving batch, backend) and — with ``apply=True``, the default —
        replaces this pipeline's config with the tuned one, so the usual
        ``calibrate()``/``deploy()`` calls pick up the chosen
        quantization settings and :class:`GemmDesign` automatically::

            pipeline = Pipeline(model=model)
            result = pipeline.tune("zu3eg", sample_input=x, budget=50)
            pipeline.calibrate(batches)
            deployment = pipeline.deploy()      # tuned design + backend

        A previous ``fit()``/``calibrate()`` result contributes its model,
        layer results and remembered sample input. Tune **before**
        quantizing when you can: after ``calibrate()``/``fit()`` the
        in-place-quantized weights feed the MSE accuracy proxy, which
        biases its ranking toward the config already applied
        (re-projecting at the incumbent ratio/bits is near-lossless) —
        the hardware side (latency/feasibility) is unaffected. Returns the
        :class:`repro.autotune.TuneResult` (``.frontier``, ``.best``,
        ``.format_table()``, ``.save_report(path)``). Keyword arguments
        (``strategy=``, ``budget=``, ``seed=``, ``cache=``,
        ``accuracy=``, space overrides, ...) forward to the tuner.
        """
        from repro.autotune import tune as autotune_tune

        layer_results = None
        if model is None and self.result is not None:
            model = self.result.model
            layer_results = self.result.layer_results
            if sample_input is None:
                sample_input = self.result.sample_input
        else:
            model = self._model(model)
        result = autotune_tune(model, device=device, objective=objective,
                               sample_input=sample_input,
                               layer_results=layer_results, **tune_kwargs)
        self.tuned = result
        if apply:
            self.config = result.config()
        return result

    # ------------------------------------------------------------------
    def _model(self, model: Optional[Module]) -> Module:
        model = model if model is not None else self.model
        if model is None:
            raise ConfigurationError(
                "no model; pass model= here or to Pipeline(...)")
        self.model = model
        return model
