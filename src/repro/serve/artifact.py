"""Frozen serving artifact: packed weight codes + execution metadata.

An artifact is a single ``.npz`` file holding

- a JSON **manifest** — the op list produced by :mod:`repro.serve.compile`
  (layer kinds, geometry, scheme specs, activation-quantizer ranges, GEMM
  workload dimensions), and
- the referenced **arrays** — hardware weight words packed with the
  :mod:`repro.quant.encoding` hooks (``pack_fixed``/``pack_p2``/``pack_sp2``),
  per-row scales, SP2/fixed row masks (:mod:`repro.quant.partition`), and raw
  float parameters for the layers that stay full-precision (biases, batch
  norm, embeddings).

The weight codec here is deliberately *bit-faithful*: decoding a stored
layer reproduces the eager model's float32 weights exactly (the unit level
is recovered as the same IEEE double the quantizer projected onto, then
scaled by the same ``alpha`` multiply), which is what makes exported-artifact
inference bit-identical to the eager quantized model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.errors import ExportError
from repro.util.hashing import stable_digest
from repro.quant.encoding import (
    encode_fixed,
    encode_p2,
    encode_sp2,
    pack_fixed,
    pack_p2,
    pack_sp2,
    storage_dtype,
    unpack_fixed,
    unpack_p2,
    unpack_sp2,
)
from repro.quant.msq import MSQResult
from repro.quant.partition import (
    RowPartition,
    partition_from_arrays,
    partition_to_arrays,
)
from repro.quant.quantizers import QuantResult
from repro.quant.schemes import Scheme

FORMAT = "repro-serve/1"
_MANIFEST_KEY = "__manifest__"


@dataclass
class ServeArtifact:
    """In-memory form of one exported model."""

    manifest: dict
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Array bookkeeping
    # ------------------------------------------------------------------
    def add_array(self, name: str, value: np.ndarray) -> str:
        if name in self.arrays:
            raise ExportError(f"duplicate artifact array {name!r}")
        self.arrays[name] = np.asarray(value)
        return name

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        payload = dict(self.arrays)
        payload[_MANIFEST_KEY] = np.frombuffer(
            json.dumps(self.manifest).encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **payload)

    @classmethod
    def load(cls, path) -> "ServeArtifact":
        with np.load(path, allow_pickle=False) as data:
            if _MANIFEST_KEY not in data:
                raise ExportError(f"{path} is not a repro-serve artifact")
            manifest = json.loads(bytes(data[_MANIFEST_KEY]).decode("utf-8"))
            arrays = {key: data[key] for key in data.files
                      if key != _MANIFEST_KEY}
        if manifest.get("format") != FORMAT:
            raise ExportError(
                f"unsupported artifact format {manifest.get('format')!r}")
        if np.dtype(manifest["input_dtype"]).kind == "f":
            # Floating input is served as float32; earlier exports could
            # record the sample's float64.
            manifest["input_dtype"] = "float32"
        return cls(manifest=manifest, arrays=arrays)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Content digest over the manifest and every stored array.

        Two artifacts digest equally iff their ops and packed weight
        bytes are identical — the response cache keys on this, so a hit
        can only ever return bits the exact same deployment produced.
        Memoized: artifacts are frozen once hosted, so the first call's
        answer stays valid.
        """
        memo = getattr(self, "_digest", None)
        if memo is None:
            memo = stable_digest({"manifest": self.manifest,
                                  "arrays": self.arrays})
            self._digest = memo
        return memo

    @property
    def num_ops(self) -> int:
        def count(ops):
            total = 0
            for op in ops:
                if op["kind"] == "residual":
                    total += count(op["main"]) + count(op["shortcut"] or [])
                else:
                    total += 1
            return total

        return count(self.manifest["ops"])

    def stored_bytes(self) -> int:
        """Total bytes of every stored array (packed words, raw float
        parameters, and partition provenance together)."""
        return sum(array.nbytes for array in self.arrays.values())

    def packed_weight_bytes(self) -> int:
        """Bytes of the packed integer weight words alone — the number the
        paper's model-size claims are about."""
        return sum(array.nbytes for key, array in self.arrays.items()
                   if key.endswith(("words", ".sp2_mask")))

    def summary(self) -> str:
        m = self.manifest
        lines = [
            f"model:        {m.get('model', '?')}",
            f"format:       {m['format']}",
            f"input shape:  {tuple(m['input_shape'])} ({m['input_dtype']})",
            f"ops:          {self.num_ops}",
            f"artifact bytes: {self.stored_bytes()} "
            f"(packed weights: {self.packed_weight_bytes()})",
        ]
        quantized = [op for op in _iter_ops(m["ops"])
                     if isinstance(op.get("weight"), dict)
                     and op["weight"].get("mode") != "raw"]
        if quantized:
            modes = sorted({op["weight"]["mode"] for op in quantized})
            lines.append(f"quantized:    {len(quantized)} layers "
                         f"({', '.join(modes)})")
        return "\n".join(lines)


def _iter_ops(ops):
    for op in ops:
        if op["kind"] == "residual":
            yield from _iter_ops(op["main"])
            yield from _iter_ops(op["shortcut"] or [])
        elif op["kind"] == "rnn":
            yield op
            for cell in op["cells"]:
                yield {"kind": "rnn-cell", "weight": cell["weight_ih"]}
                yield {"kind": "rnn-cell", "weight": cell["weight_hh"]}
        else:
            yield op


# ----------------------------------------------------------------------
# Weight codec
# ----------------------------------------------------------------------
def encode_weight_record(artifact: ServeArtifact, key: str,
                         weight: np.ndarray, result=None) -> dict:
    """Store one weight tensor, packed according to its quantization result.

    ``result`` is the layer's :class:`~repro.quant.msq.MSQResult` or
    :class:`~repro.quant.quantizers.QuantResult` (or ``None`` for a layer
    kept full-precision, stored as raw float32).
    """
    shape = list(np.asarray(weight).shape)
    if result is None:
        ref = artifact.add_array(f"{key}.raw",
                                 np.asarray(weight, dtype=np.float32))
        return {"mode": "raw", "shape": shape, "array": ref}
    if isinstance(result, MSQResult):
        return _encode_msq(artifact, key, shape, result)
    if isinstance(result, QuantResult):
        return _encode_single(artifact, key, shape, result)
    raise ExportError(f"cannot encode weight result of type {type(result)!r}")


def _encode_msq(artifact: ServeArtifact, key: str, shape: list,
                result: MSQResult) -> dict:
    encoding = result.hardware_encoding()
    sp2 = encoding["sp2_codes"]
    bits = result.spec_fixed.bits
    partition = partition_to_arrays(result.partition)
    record = {
        "mode": "msq",
        "bits": bits,
        "m1": result.spec_sp2.m1,
        "m2": result.spec_sp2.m2,
        "shape": shape,
        "partition_threshold": float(partition["threshold"]),
        "sp2_mask": artifact.add_array(
            f"{key}.sp2_mask", partition["sp2_mask"]),
        "row_variances": artifact.add_array(
            f"{key}.row_variances", partition["variances"]),
        "row_alphas": artifact.add_array(
            f"{key}.row_alphas", result.row_alphas.astype(np.float64)),
        "fixed_words": artifact.add_array(
            f"{key}.fixed_words", pack_fixed(encoding["fixed_codes"], bits)),
        "sp2_words": artifact.add_array(
            f"{key}.sp2_words",
            pack_sp2(sp2).astype(storage_dtype(bits))),
    }
    return record


def partition_of_record(artifact: ServeArtifact,
                        record: dict) -> RowPartition:
    """Recover the trained SP2/fixed row partition of an MSQ weight record
    (provenance: which rows went to which core, and why)."""
    if record.get("mode") != "msq":
        raise ExportError("only MSQ weight records carry a row partition")
    return partition_from_arrays({
        "sp2_mask": artifact.arrays[record["sp2_mask"]],
        "threshold": record["partition_threshold"],
        "variances": artifact.arrays[record["row_variances"]],
    })


def _encode_single(artifact: ServeArtifact, key: str, shape: list,
                   result: QuantResult) -> dict:
    spec = result.spec
    if spec is None or result.unit_values is None:
        raise ExportError(
            f"layer {key!r} has an opaque quantization result; only "
            "fixed/P2/SP2/MSQ results can be packed")
    record = {"mode": spec.scheme.value, "bits": spec.bits,
              "alpha": float(result.alpha), "shape": shape}
    if spec.scheme == Scheme.FIXED:
        codes = encode_fixed(result.unit_values, spec.bits)
        record["words"] = artifact.add_array(
            f"{key}.words", pack_fixed(codes, spec.bits))
    elif spec.scheme == Scheme.P2:
        sign, codes = encode_p2(result.unit_values, spec.bits)
        record["words"] = artifact.add_array(
            f"{key}.words", pack_p2(sign, codes, spec.bits))
    elif spec.scheme == Scheme.SP2:
        code = encode_sp2(result.unit_values, spec.m1, spec.m2)
        record["m1"], record["m2"] = spec.m1, spec.m2
        record["words"] = artifact.add_array(
            f"{key}.words", pack_sp2(code).astype(storage_dtype(spec.bits)))
    else:
        raise ExportError(f"cannot pack scheme {spec.scheme}")
    return record


def decode_weight_record(artifact: ServeArtifact, record: dict) -> np.ndarray:
    """Reconstruct the eager model's float32 weight tensor from a record."""
    shape = tuple(record["shape"])
    mode = record["mode"]
    if mode == "raw":
        return np.asarray(artifact.arrays[record["array"]], dtype=np.float32)
    if mode == "msq":
        return _decode_msq(artifact, record).reshape(shape)
    bits = record["bits"]
    words = artifact.arrays[record["words"]]
    if mode == "fixed":
        unit = _fixed_unit(unpack_fixed(words, bits), bits)
    elif mode == "p2":
        sign, codes = unpack_p2(words, bits)
        unit = _p2_unit(sign, codes)
    elif mode == "sp2":
        code = unpack_sp2(words.astype(np.uint32), record["m1"], record["m2"])
        unit = _sp2_unit(code)
    else:
        raise ExportError(f"unknown weight record mode {mode!r}")
    # Same `alpha * unit` multiply the quantizer performed — bit-faithful.
    return (record["alpha"] * unit).reshape(shape).astype(np.float32)


def _fixed_unit(codes: np.ndarray, bits: int) -> np.ndarray:
    steps = 2 ** (bits - 1) - 1
    return codes.astype(np.float64) / steps


def _p2_unit(sign: np.ndarray, codes: np.ndarray) -> np.ndarray:
    magnitude = np.where(codes > 0, 2.0 ** (1 - codes.astype(np.float64)), 0.0)
    return sign * magnitude


def _sp2_unit(code) -> np.ndarray:
    term1 = np.where(code.c1 > 0, 2.0 ** (-code.c1.astype(np.float64)), 0.0)
    term2 = np.where(code.c2 > 0, 2.0 ** (-code.c2.astype(np.float64)), 0.0)
    return code.sign * (term1 + term2)


def _decode_msq(artifact: ServeArtifact, record: dict) -> np.ndarray:
    mask = np.asarray(artifact.arrays[record["sp2_mask"]], dtype=bool)
    alphas = np.asarray(artifact.arrays[record["row_alphas"]],
                        dtype=np.float64)
    bits, m1, m2 = record["bits"], record["m1"], record["m2"]
    fixed_words = artifact.arrays[record["fixed_words"]]
    sp2_words = artifact.arrays[record["sp2_words"]].astype(np.uint32)
    cols = int(np.prod(record["shape"][1:]))
    unit = np.zeros((mask.size, cols), dtype=np.float64)
    if fixed_words.size:
        unit[~mask] = _fixed_unit(unpack_fixed(fixed_words, bits), bits)
    if sp2_words.size:
        unit[mask] = _sp2_unit(unpack_sp2(sp2_words, m1, m2))
    return (unit * alphas[:, None]).astype(np.float32)
