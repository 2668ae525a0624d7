"""Serving through the front door: one pipeline from config to requests.

Walks the deployment path the paper's hardware sections imply but never
spell out, entirely through :mod:`repro.api`:

1. configure: one :class:`PipelineConfig` (MSQ at the FPGA-characterized
   SP2:fixed ratio) drives every stage;
2. quantize: ``calibrate()`` for the fast post-training path (``fit()``
   from examples/quickstart.py plugs in identically);
3. deploy: ``deploy()`` freezes a packed-weight artifact — bit-exactness
   verified at export — and wraps plan + engine;
4. serve: compare per-request eager inference against micro-batched
   serving, with the accelerator cycle model's simulated FPGA latency
   reported alongside wall-clock.

Run:  python examples/serving.py
"""

import os
import tempfile
import time

import numpy as np

from repro.api import Deployment, Pipeline, PipelineConfig
from repro.models import resnet_tiny


def main() -> None:
    rng = np.random.default_rng(0)
    model = resnet_tiny(num_classes=10, rng=np.random.default_rng(7))

    # 1+2. Configure and quantize: MSQ weights at the paper's XC7Z045 ratio
    #      (SP2:fixed 2:1), activation ranges calibrated on a few batches.
    config = PipelineConfig(scheme="msq", ratio="2:1", weight_bits=4,
                            act_bits=4, batch=16)
    pipeline = Pipeline(config, model=model)
    quantized = pipeline.calibrate(
        [rng.normal(size=(8, 3, 16, 16)).astype(np.float32)
         for _ in range(4)])
    print(f"[1] {config.describe()}")
    print(f"[2] quantized {len(quantized.layer_results)} layers "
          f"(SP2 row share {quantized.sp2_row_fraction():.2f})")

    # 3. Deploy to a frozen artifact (bit-exactness verified inside).
    path = os.path.join(tempfile.gettempdir(), "resnet_tiny.npz")
    deployment = pipeline.deploy(path=path, name="resnet_tiny")
    artifact = deployment.artifact
    print(f"[3] deployed -> {path} ({artifact.stored_bytes()} bytes, "
          f"{artifact.packed_weight_bytes()} packed, {artifact.num_ops} ops)")

    # Re-verify the round trip explicitly: served == eager, bit for bit.
    sample = rng.normal(size=(4, 3, 16, 16)).astype(np.float32)
    assert np.array_equal(deployment.predict(sample),
                          quantized.predict(sample))
    print("[4] served logits are bit-identical to the eager quantized model")

    # 4. Serve 64 requests: eager one-by-one vs micro-batched deployment.
    requests = [rng.normal(size=(3, 16, 16)).astype(np.float32)
                for _ in range(64)]
    started = time.perf_counter()
    for request in requests:
        quantized.predict(request[None])
    eager_seconds = time.perf_counter() - started

    stats = deployment.serve(requests)
    eager_rps = len(requests) / eager_seconds
    speedup = stats.requests_per_second / eager_rps
    print(f"[5] eager loop: {eager_rps:.0f} req/s | "
          f"batched serving: {stats.requests_per_second:.0f} req/s "
          f"({speedup:.1f}x)")
    print("    " + stats.format().replace("\n", "\n    "))

    # 5. Same artifact through the optimized kernel backend: the compile
    # pipeline verifies it bit-identical to the reference before serving.
    fused = Deployment.load(path, batch=16, backend="fused")
    assert np.array_equal(fused.predict(sample), quantized.predict(sample))
    fused.serve(requests)   # warm-up: binds scratch + verifies batch sizes
    fused_stats = fused.serve(requests)
    print(f"[6] fused backend: {fused_stats.requests_per_second:.0f} req/s "
          f"({fused_stats.requests_per_second / stats.requests_per_second:.2f}x "
          "the reference backend, same bits)")


if __name__ == "__main__":
    main()
