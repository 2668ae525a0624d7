"""Wire-protocol property/fuzz tests: framing, payload round-trips,
malformed-frame corpus, FIFO under a seeded scheduler.

The protocol surface has three layers, each tested here:

- byte framing (``encode_message``/``decode_message``, SocketTransport
  over a real socketpair and a loopback TCP pair, FakeTransport over
  virtual time) — every malformed frame must decode to a *typed*
  ``FrameError``, never a bare parse exception, and never kill the
  stream before the typed answer;
- numpy payload encoding (``array_to_wire``/``array_from_wire``) —
  byte-exact round trips across dtypes/shapes, with validation errors on
  inconsistent declarations;
- the request/response loop (``serve_protocol``) — every line of a
  malformed-request corpus is answered with its error code in order, and
  per-model FIFO holds under seeded interleaved multi-model traffic.

No sleeps; the only real IO is AF_UNIX socketpairs and one loopback
(127.0.0.1) TCP pair, which checks that framed TCP sockets run without
Nagle's algorithm.
"""

import io
import json
import socket
import struct
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import Pipeline, PipelineConfig
from repro.errors import FrameError, TransportClosed, WorkerError
from repro.serve import (
    ClusterRouter,
    ModelServer,
    array_from_wire,
    array_to_wire,
)
from repro.serve.cli import serve_protocol
from repro.serve.cluster import _WorkerBase
from repro.serve.transport import (
    FRAME_ERROR_CODES,
    FRAME_HEADER,
    MAX_ATTACHMENT_DIMS,
    FakeTransport,
    FrameWriter,
    SocketTransport,
    decode_message,
    decode_text,
    encode_message,
    frame_lines,
)
from tests.conftest import make_mlp


def build_deployment(seed=7, batch=4):
    rng = np.random.default_rng(seed + 1000)
    pipeline = Pipeline(PipelineConfig(batch=batch), model=make_mlp(seed))
    pipeline.calibrate([rng.normal(size=(8, 12)).astype(np.float32)])
    return pipeline.deploy(), pipeline.result


@pytest.fixture(scope="module")
def deployed():
    return build_deployment()


def socket_pair():
    left, right = socket.socketpair()
    return SocketTransport(left), SocketTransport(right)


# ----------------------------------------------------------------------
# Framing: encode/decode and both carriers
# ----------------------------------------------------------------------
class TestFraming:
    def test_encode_decode_round_trip(self):
        message = {"id": 7, "model": "m", "input": [1.5, -2.0],
                   "nested": {"a": [1, 2, 3]}}
        framed = encode_message(message)
        (length,) = FRAME_HEADER.unpack(framed[:FRAME_HEADER.size])
        assert length == len(framed) - FRAME_HEADER.size
        assert decode_message(framed[FRAME_HEADER.size:]) == message

    def test_encode_rejects_oversized(self):
        with pytest.raises(FrameError) as excinfo:
            encode_message({"blob": "x" * 64}, max_bytes=32)
        assert excinfo.value.code == "oversized"

    @pytest.mark.parametrize("payload,code", [
        (b"\xff\xfe{}", "bad-utf8"),
        (b"{not json", "bad-json"),
        (b"[1, 2, 3]", "not-object"),
        (b"\"just a string\"", "not-object"),
    ])
    def test_decode_failures_are_typed(self, payload, code):
        with pytest.raises(FrameError) as excinfo:
            decode_message(payload)
        assert excinfo.value.code == code
        assert code in FRAME_ERROR_CODES

    def test_socket_transport_round_trip_and_clean_eof(self):
        router_end, worker_end = socket_pair()
        router_end.send({"id": 1, "op": "infer"})
        router_end.send({"id": 2})
        assert worker_end.recv() == {"id": 1, "op": "infer"}
        assert worker_end.recv() == {"id": 2}
        router_end.close()
        assert worker_end.recv() is None     # clean EOF between frames
        worker_end.close()

    def test_socket_transport_disables_nagle_on_tcp(self):
        # Frames are smaller than the MSS and the protocol waits for
        # each answer, so Nagle would hold every frame for the peer's
        # delayed ACK: both ends of a TCP connection must set NODELAY.
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = socket.create_connection(listener.getsockname())
            server, _peer = listener.accept()
        router_end, worker_end = SocketTransport(client), SocketTransport(
            server, send_direction="to_router")
        try:
            for end in (client, server):
                assert end.getsockopt(socket.IPPROTO_TCP,
                                      socket.TCP_NODELAY) != 0
            router_end.send({"id": 1, "op": "infer"})
            assert worker_end.recv() == {"id": 1, "op": "infer"}
            worker_end.send({"id": 1, "output": [0.5]})
            assert router_end.recv() == {"id": 1, "output": [0.5]}
        finally:
            router_end.close()
            worker_end.close()
        # AF_UNIX has no Nagle (and no TCP options): wrapped as it is
        left, right = socket.socketpair(socket.AF_UNIX)
        SocketTransport(left).close()
        SocketTransport(right).close()

    def test_socket_transport_truncated_midframe(self):
        left, right = socket.socketpair()
        reader = SocketTransport(right)
        # a header promising 100 bytes, then only 10, then EOF
        left.sendall(FRAME_HEADER.pack(100) + b"0123456789")
        left.close()
        with pytest.raises(FrameError) as excinfo:
            reader.recv()
        assert excinfo.value.code == "truncated"
        reader.close()

    def test_socket_transport_oversized_keeps_stream_in_sync(self):
        left, right = socket.socketpair()
        writer, reader = SocketTransport(left), SocketTransport(
            right, max_bytes=64)
        big = json.dumps({"blob": "x" * 256}).encode()
        left.sendall(FRAME_HEADER.pack(len(big)) + big)
        writer.send({"id": "after"})
        with pytest.raises(FrameError) as excinfo:
            reader.recv()
        assert excinfo.value.code == "oversized"
        # the offending frame was consumed; the next one parses fine
        assert reader.recv() == {"id": "after"}
        writer.close()
        reader.close()

    def test_fake_transport_is_clock_gated_and_closable(self):
        clock = [0.0]
        router_end, worker_end = FakeTransport.pair(
            clock=lambda: clock[0])
        router_end.send({"id": 1})
        assert worker_end.recv() == {"id": 1}
        assert worker_end.recv() is None     # nothing in flight
        worker_end.close()
        with pytest.raises(TransportClosed):
            router_end.send({"id": 2})
        with pytest.raises(TransportClosed):
            router_end.recv()

    def test_fake_transport_yields_errors_then_lines(self):
        # close() is a reset (drops undelivered frames), so drain first
        router_end, worker_end = FakeTransport.pair()
        router_end.send_raw(b"\xff\xfe broken")
        router_end.send({"id": 1})

        def drain_available():
            # FakeTransport is non-blocking; adapt for frame_lines
            while True:
                try:
                    payload = worker_end.recv_bytes()
                    if payload is None:
                        return
                    line = decode_text(payload)
                except TransportClosed:
                    return
                except FrameError as error:
                    yield error
                    continue
                yield line

        items = list(drain_available())
        assert isinstance(items[0], FrameError)
        assert items[0].code == "bad-utf8"
        assert json.loads(items[1]) == {"id": 1}
        router_end.close()
        with pytest.raises(TransportClosed):
            worker_end.recv_bytes()

    def test_frame_lines_over_socket(self):
        writer, reader = socket_pair()
        writer.send({"id": 1})
        writer.send_raw(b"not json at all")
        writer.send({"id": 2})
        writer.close()
        items = list(frame_lines(reader))
        assert json.loads(items[0]) == {"id": 1}
        # the raw payload: serve_protocol, not the carrier, rejects it
        assert items[1] == b"not json at all"
        assert json.loads(items[2]) == {"id": 2}
        reader.close()


# ----------------------------------------------------------------------
# Property: numpy payloads round-trip byte-exactly
# ----------------------------------------------------------------------
class TestArrayWire:
    DTYPES = ["<f4", "<f8", "<i4", "<i8", "|u1", "<u2", "|b1"]
    SHAPES = [(), (1,), (7,), (2, 3), (4, 1, 2), (0,), (3, 0, 2)]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_round_trip_exact(self, dtype, shape):
        rng = np.random.default_rng(hash((dtype, shape)) % (2 ** 32))
        array = (rng.random(size=shape) * 100).astype(dtype)
        wire = array_to_wire(array, key="input")
        assert json.loads(json.dumps(wire)) == wire    # JSON-safe
        back = array_from_wire(wire, "input")
        assert back.dtype == np.dtype(dtype)
        assert back.shape == shape
        assert np.array_equal(back, array)

    def test_fuzz_random_dtype_shape_round_trips(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            dtype = self.DTYPES[rng.integers(len(self.DTYPES))]
            shape = tuple(int(n) for n in
                          rng.integers(0, 5, size=rng.integers(0, 4)))
            array = (rng.random(size=shape) * 10).astype(dtype)
            back = array_from_wire(array_to_wire(array), "input")
            assert np.array_equal(back, array)
            assert back.dtype == array.dtype

    def test_non_contiguous_input_is_handled(self):
        array = np.arange(24, dtype=np.float32).reshape(4, 6)[:, ::2]
        back = array_from_wire(array_to_wire(array), "input")
        assert np.array_equal(back, array)

    def test_byte_count_mismatch_rejected(self):
        wire = array_to_wire(np.zeros(4, dtype=np.float32))
        wire["shape"] = [5]                 # declares 20 bytes, has 16
        with pytest.raises(ValueError, match="bytes"):
            array_from_wire(wire, "input")

    def test_bad_base64_rejected(self):
        wire = array_to_wire(np.zeros(2, dtype=np.float32))
        wire["input_b64"] = "!!! not base64 !!!"
        with pytest.raises(ValueError, match="base64"):
            array_from_wire(wire, "input")


# ----------------------------------------------------------------------
# Raw array attachments: <JSON header> 0x00 <array bytes>
# ----------------------------------------------------------------------
def attachment_frame(header, body):
    """A hand-built attachment payload (no length prefix)."""
    head = header if isinstance(header, bytes) else \
        json.dumps(header).encode("utf-8")
    return head + b"\0" + body


def spec(dtype="<f4", shape=(4,), key="input"):
    return {"key": key, "dtype": dtype, "shape": list(shape)}


def round_trip(message, max_bytes=1 << 20):
    framed = encode_message(message, max_bytes)
    (length,) = FRAME_HEADER.unpack(framed[:FRAME_HEADER.size])
    assert length == len(framed) - FRAME_HEADER.size
    return framed[FRAME_HEADER.size:], decode_message(
        framed[FRAME_HEADER.size:])


class TestAttachmentCodec:
    ARRAYS = {
        "float32": np.array([[1.5, -0.0, np.inf], [np.nan, 1e-45, -3.25]],
                            dtype=np.float32),
        "float16": np.linspace(-2, 2, 7).astype(np.float16),
        "int64": np.array([0, -1, 2 ** 62, -2 ** 63], dtype=np.int64),
        "bool": np.array([[True, False], [False, True]]),
        "0-d": np.asarray(np.float32(2.5)),
        "non-contiguous": np.arange(48, dtype=np.float32)
                            .reshape(6, 8)[::2, 1::3],
        "big-endian-f4": np.arange(6, dtype=">f4").reshape(3, 2) / 7,
        "big-endian-i8": np.array([1, -2, 2 ** 40], dtype=">i8"),
        "empty": np.zeros((0, 3), dtype=np.float32),
    }

    @pytest.mark.parametrize("name", sorted(ARRAYS))
    def test_round_trip_is_bitwise(self, name):
        array = self.ARRAYS[name]
        payload, back = round_trip({"id": 9, "model": "m", "input": array})
        assert b"\0" in payload
        assert set(back) == {"id", "model", "input"}
        assert back["id"] == 9 and back["model"] == "m"
        restored = back["input"]
        assert isinstance(restored, np.ndarray)
        assert restored.dtype == array.dtype        # byte order included
        assert restored.shape == array.shape
        assert restored.tobytes() == array.tobytes()    # NaN-safe bitwise

    def test_frame_without_attachment_is_todays_frame(self):
        corpus = [
            {"id": 7, "model": "m", "input": [1.5, -2.0]},
            {"op": "stats", "detail": True, "id": "s"},
            {"text": "nul \x00 and control \x01 chars, unicode \u00e9"},
            {"nested": {"attachment": {"key": "x"}}, "list": [[1], []]},
            {},
        ]
        for message in corpus:
            payload, back = round_trip(message)
            assert payload == json.dumps(message).encode("utf-8")
            assert b"\0" not in payload        # JSON escapes a NUL
            assert back == message == json.loads(payload)

    def test_decoded_array_owns_only_its_attachment(self):
        array = np.arange(256, dtype=np.float32)
        payload, _ = round_trip({"id": 1, "model": "m", "blob": "x" * 4096,
                                 "input": array})
        restored = decode_message(payload)["input"]
        owner = restored
        while isinstance(owner, np.ndarray):
            owner = owner.base
        assert isinstance(owner, bytes)
        assert len(owner) == array.nbytes < len(payload)

    @pytest.mark.parametrize("bad", [
        np.array([{"a": 1}, None], dtype=object),
        np.zeros(3, dtype=[("a", "<f4"), ("b", "<i4")]),
        np.array(["ab", "c"]),
    ], ids=["object", "structured", "unicode"])
    def test_encode_rejects_dtypes_that_cannot_travel(self, bad):
        with pytest.raises(FrameError) as excinfo:
            encode_message({"id": 1, "input": bad})
        assert type(excinfo.value) is FrameError
        assert excinfo.value.code == "bad-request"

    def test_dims_cap_is_the_same_on_both_sides(self):
        most = np.zeros([1] * MAX_ATTACHMENT_DIMS, dtype=np.float32)
        _, back = round_trip({"id": 1, "input": most})
        assert back["input"].shape == most.shape
        with pytest.raises(FrameError) as excinfo:
            encode_message({"id": 1, "input": most[..., None]})
        assert type(excinfo.value) is FrameError
        assert excinfo.value.code == "bad-request"

    def test_encode_rejects_two_attachments(self):
        with pytest.raises(FrameError, match="one array attachment"):
            encode_message({"input": np.zeros(2), "other": np.ones(2)})

    def test_header_plus_attachment_over_cap_is_oversized(self):
        array = np.zeros(16, dtype=np.float32)       # 64 bytes of body
        payload, _ = round_trip({"id": 1, "input": array})
        with pytest.raises(FrameError) as excinfo:
            encode_message({"id": 1, "input": array},
                           max_bytes=len(payload) - 1)
        assert excinfo.value.code == "oversized"
        # the receiving side classifies the same frame the same way
        router_end, worker_end = FakeTransport.pair(
            max_bytes=len(payload) - 1)
        router_end.send_raw(payload)
        with pytest.raises(FrameError) as excinfo:
            worker_end.recv()
        assert excinfo.value.code == "oversized"
        router_end.close()

    @pytest.mark.parametrize("payload,code,message_id", [
        (attachment_frame({"id": 5, "attachment": spec()}, bytes(12)),
         "bad-request", 5),
        (attachment_frame({"id": 5, "attachment": spec(shape=(3, 4))},
                          bytes(16)), "bad-request", 5),
        (attachment_frame({"id": 5, "attachment": spec(shape=(-1, 2))},
                          bytes(8)), "bad-request", 5),
        (attachment_frame({"id": 5, "attachment": spec(shape=(2.0,))},
                          bytes(8)), "bad-request", 5),
        (attachment_frame({"id": 5, "attachment": spec(shape="4")},
                          bytes(16)), "bad-request", 5),
        (attachment_frame({"id": 5, "attachment": spec(shape=[1] * 65)},
                          bytes(4)), "bad-request", 5),
        (attachment_frame({"id": 5, "attachment": spec(shape=[1] * 33)},
                          bytes(4)), "bad-request", 5),
        (attachment_frame({"id": 5, "attachment": spec(shape=(0, 2 ** 64))},
                          b""), "bad-request", 5),
        (attachment_frame({"id": 5, "attachment": spec(shape=(0, 2 ** 62))},
                          b""), "bad-request", 5),
        (attachment_frame({"id": 5, "attachment": spec(dtype="|O")},
                          bytes(32)), "bad-request", 5),
        (attachment_frame({"id": 5, "attachment": spec(dtype="|V4")},
                          bytes(16)), "bad-request", 5),
        (attachment_frame({"id": 5, "attachment": spec(dtype="no-such")},
                          bytes(16)), "bad-request", 5),
        (attachment_frame({"id": 5, "attachment": spec(dtype=None)},
                          bytes(16)), "bad-request", 5),
        (attachment_frame({"id": 5, "attachment": spec(dtype="<f3")},
                          bytes(12)), "bad-request", 5),
        (attachment_frame({"id": 5, "attachment": spec(dtype="a1")},
                          bytes(4)), "bad-request", 5),
        (attachment_frame({"id": 5}, bytes(16)), "bad-request", 5),
        (attachment_frame({"id": 5, "attachment": {"dtype": "<f4"}},
                          bytes(16)), "bad-request", 5),
        (attachment_frame(b"{not json", bytes(16)), "bad-json", None),
        (attachment_frame(b"[5]", bytes(16)), "not-object", None),
        (attachment_frame(b"\xff\xfe{}", bytes(16)), "bad-utf8", None),
    ], ids=["length-mismatch", "shape-disagrees", "negative-dim",
            "float-dim", "shape-not-list", "too-many-dims",
            "one-dim-too-many", "huge-zero-extent-dim",
            "zero-extent-past-index-range", "object-dtype",
            "structured-dtype", "unknown-dtype", "no-dtype",
            "bad-itemsize", "deprecated-alias",
            "no-spec", "spec-without-key", "header-not-json",
            "header-not-object", "header-not-utf8"])
    def test_malformed_attachment_fails_typed(self, payload, code,
                                              message_id):
        with pytest.raises(FrameError) as excinfo:
            decode_message(payload)
        # typed: never a bare numpy ValueError/TypeError
        assert type(excinfo.value) is FrameError
        assert excinfo.value.code == code
        assert excinfo.value.message_id == message_id

    def test_worker_answers_bad_attachment_with_recovered_id(self,
                                                             deployed):
        deployment, quantized = deployed
        server = ModelServer(workers=0, max_batch=4)
        server.add("mlp", deployment)
        router_end, worker_end = FakeTransport.pair()
        x = np.random.default_rng(4).normal(size=(12,)).astype(np.float32)
        frames = [
            attachment_frame({"id": 5, "model": "mlp",
                              "attachment": spec(shape=(13,))}, x.tobytes()),
            attachment_frame({"id": 6, "model": "mlp",
                              "attachment": spec(shape=(12,))}, x.tobytes()),
        ]
        served = serve_protocol(server, frames, FrameWriter(worker_end))
        server.close()
        assert served == 1
        bad, good = router_end.recv(), router_end.recv()
        assert bad["id"] == 5 and bad["code"] == "bad-request"
        assert bad["retryable"] is False
        # an attachment request is answered with an attachment
        assert good["id"] == 6 and isinstance(good["output"], np.ndarray)
        assert np.array_equal(good["output"], quantized.predict(x[None])[0])
        router_end.close()


class TestRouterReader:
    @pytest.mark.parametrize("shape,body", [
        ([4], bytes(12)), ([1] * 65, bytes(4)), ([0, 2 ** 64], b""),
    ], ids=["size-mismatch", "too-many-dims", "huge-zero-extent-dim"])
    def test_reader_thread_fails_bad_attachment_and_keeps_serving(
            self, shape, body):
        # A self-driving worker over a socketpair: the router's reader
        # thread gets a response whose attachment disagrees with its
        # header, fails that request bad-response, and serves the next.
        class SocketWorker(_WorkerBase):
            drives_itself = True

            def __init__(self, sock):
                super().__init__("w0", {"m": None}, None)
                self.transport = SocketTransport(sock)
                self.alive = True

            def stop(self):
                self.transport.close()

        router_sock, worker_sock = socket.socketpair()
        peer = SocketTransport(worker_sock, send_direction="to_router")
        router = ClusterRouter([SocketWorker(router_sock)])
        try:
            bad = router.submit("m", np.arange(3, dtype=np.float32))
            request = peer.recv()
            assert request["input"].tobytes() == \
                np.arange(3, dtype=np.float32).tobytes()
            peer.send_raw(json.dumps({
                "id": request["id"], "attachment": {
                    "key": "output", "dtype": "<f4", "shape": shape}})
                .encode() + b"\0" + body)
            error = bad.exception(timeout=10.0)
            assert isinstance(error, WorkerError)
            assert error.code == "bad-response"
            good = router.submit("m", np.ones(2, dtype=np.float32))
            request = peer.recv()
            peer.send({"id": request["id"], "output": request["input"] * 2})
            assert good.result(timeout=10.0).tolist() == [2.0, 2.0]
            stats = router.router_stats()
            assert stats.protocol_errors == 1
            assert stats.routed == stats.completed == 2
        finally:
            router.close(drain=False)
            peer.close()


# ----------------------------------------------------------------------
# serve_protocol: the malformed-request corpus answers typed codes
# ----------------------------------------------------------------------
def run_protocol(server, lines):
    out = io.StringIO()
    served = serve_protocol(server, lines, out)
    return served, [json.loads(line)
                    for line in out.getvalue().splitlines()]


class TestProtocolErrors:
    def test_malformed_corpus_is_answered_in_order(self, deployed):
        server = ModelServer(workers=0, max_batch=4)
        server.add("mlp", deployed[0])
        corpus = [
            (b"\xff\xfe\x00garbage", "bad-utf8"),
            ("{not json", "bad-json"),
            ("[1, 2, 3]", "not-object"),
            ('"a string"', "not-object"),
            ('{"op": "dance"}', "unknown-op"),
            ('{"op": "infer", "model": "mlp"}', "bad-request"),
            ('{"op": "infer", "input": [1]}', "bad-request"),
            ('{"model": "ghost", "input": [1]}', "unknown-model"),
            ('{"model": "mlp", "input": [[1], [1, 2]]}', "bad-request"),
            (FrameError("truncated", "stream ended mid-frame"),
             "truncated"),
        ]
        served, responses = run_protocol(server,
                                         [line for line, _ in corpus])
        server.close()
        assert served == 0                   # nothing actually ran
        assert [r["code"] for r in responses] == \
            [code for _, code in corpus]
        assert all("error" in r for r in responses)

    def test_oversized_line_answered_not_fatal(self, deployed):
        server = ModelServer(workers=0, max_batch=4)
        server.add("mlp", deployed[0])
        x = np.zeros(12, dtype=np.float32)
        lines = ["x" * 4096,
                 json.dumps({"id": 1, "model": "mlp",
                             "input": x.tolist()})]
        out = io.StringIO()
        serve_protocol(server, lines, out, max_line_bytes=1024)
        server.close()
        responses = [json.loads(line)
                     for line in out.getvalue().splitlines()]
        assert responses[0]["code"] == "oversized"
        assert responses[1]["id"] == 1 and "output" in responses[1]

    def test_shape_error_fails_request_not_server(self, deployed):
        server = ModelServer(workers=0, max_batch=4)
        server.add("mlp", deployed[0])
        good = np.zeros(12, dtype=np.float32)
        lines = [json.dumps({"id": 0, "model": "mlp",
                             "input": [1.0, 2.0]}),      # wrong shape
                 json.dumps({"id": 1, "model": "mlp",
                             "input": good.tolist()})]
        served, responses = run_protocol(server, lines)
        server.close()
        by_id = {r["id"]: r for r in responses}
        assert "error" in by_id[0]
        assert "output" in by_id[1]

    def test_mutation_fuzz_only_ever_raises_frame_errors(self):
        # Any byte-level mutation of a valid frame payload must decode
        # to a typed FrameError or a valid message — never anything else.
        rng = np.random.default_rng(99)
        base = json.dumps({"id": 3, "model": "m",
                           "input": [0.0, 1.5]}).encode()
        outcomes = set()
        for _ in range(300):
            data = bytearray(base)
            for _ in range(int(rng.integers(1, 4))):
                data[int(rng.integers(len(data)))] = \
                    int(rng.integers(256))
            try:
                decode_message(bytes(data))
                outcomes.add("ok")
            except FrameError as error:
                assert error.code in FRAME_ERROR_CODES
                outcomes.add(error.code)
        assert "bad-json" in outcomes        # the common corruption

    def test_binary_payload_request_answered_in_kind(self, deployed):
        deployment, quantized = deployed
        server = ModelServer(workers=0, max_batch=4)
        server.add("mlp", deployment)
        x = np.random.default_rng(3).normal(size=(12,)).astype(np.float32)
        lines = [json.dumps({"id": 0, "model": "mlp",
                             **array_to_wire(x)})]
        served, responses = run_protocol(server, lines)
        server.close()
        assert served == 1
        assert "output_b64" in responses[0]
        assert "output" not in responses[0]
        output = array_from_wire(responses[0], "output")
        assert np.array_equal(output, quantized.predict(x[None])[0])

    @pytest.mark.parametrize("mangle", [
        lambda wire, key: {**wire, f"{key}_b64": "not base64!"},
        lambda wire, key: {**wire, "shape": [len(wire["shape"]) + 7]},
    ], ids=["bad-base64", "size-mismatch"])
    def test_malformed_b64_payload_fails_typed_and_loop_survives(
            self, deployed, mangle):
        # A base64 client: a mangled request is answered bad-request
        # with its id and the next request is still served; a mangled
        # answer fails the client's decode with a ValueError, never a
        # wrong array.
        deployment, quantized = deployed
        server = ModelServer(workers=0, max_batch=4)
        server.add("mlp", deployment)
        x = np.random.default_rng(6).normal(size=(12,)).astype(np.float32)
        lines = [json.dumps({"id": 0, "model": "mlp",
                             **mangle(array_to_wire(x), "input")}),
                 json.dumps({"id": 1, "model": "mlp", **array_to_wire(x)})]
        served, responses = run_protocol(server, lines)
        server.close()
        assert served == 1
        bad, good = responses
        assert bad["id"] == 0 and bad["code"] == "bad-request"
        assert bad["retryable"] is False
        assert np.array_equal(array_from_wire(good, "output"),
                              quantized.predict(x[None])[0])
        with pytest.raises(ValueError):
            array_from_wire(mangle(good, "output"), "output")

    def test_stats_detail_echoes_id_and_aliases(self, deployed):
        server = ModelServer(workers=0, max_batch=4)
        server.add("mlp@v1", deployed[0])
        server.alias("mlp", "mlp@v1")
        lines = [json.dumps({"op": "stats", "detail": True, "id": 42})]
        _, responses = run_protocol(server, lines)
        server.close()
        payload = responses[0]
        assert payload["id"] == 42
        assert payload["aliases"] == {"mlp": "mlp@v1"}
        assert "mlp@v1" in payload["models"]
        fields = payload["models"]["mlp@v1"]
        # the detail dump is the full mergeable snapshot
        for key in ("requests", "batches", "wall_seconds",
                    "latencies_ms", "max_batch", "backend"):
            assert key in fields


# ----------------------------------------------------------------------
# Oversized responses: typed in-band answers, never unreadable frames
# ----------------------------------------------------------------------
class TestFrameWriterOversized:
    def test_oversized_write_becomes_typed_error_frame(self):
        router_end, worker_end = FakeTransport.pair(max_bytes=128)
        writer = FrameWriter(worker_end)
        writer.send({"id": 5, "blob": "x" * 4096})
        writer.send({"id": 6, "ok": True})
        answer = router_end.recv()
        assert answer["code"] == "oversized"
        assert answer["retryable"] is False
        assert answer["id"] == 5
        # the stream stays in sync: the next frame parses normally
        assert router_end.recv() == {"id": 6, "ok": True}
        router_end.close()

    def test_raw_oversized_frame_is_typed_frame_error(self):
        # send_raw bypasses the writer's guard; the receiver still
        # classifies the frame with the same typed code
        router_end, worker_end = FakeTransport.pair(max_bytes=64)
        worker_end.send_raw(b"y" * 4096)
        with pytest.raises(FrameError) as excinfo:
            router_end.recv()
        assert excinfo.value.code == "oversized"
        router_end.close()

    def test_oversized_stats_response_round_trips_typed(self, deployed):
        # A stats detail dump whose latency window outgrows the frame
        # cap must answer a typed oversized error with the echoed id —
        # and the connection must keep serving afterwards.
        server = ModelServer(workers=0, max_batch=4)
        server.add("mlp", deployed[0])
        x = np.zeros(12, dtype=np.float32)
        for _ in range(40):
            server.submit("mlp", x)
        server.drain()
        router_end, worker_end = FakeTransport.pair(max_bytes=512)
        lines = [json.dumps({"op": "stats", "detail": True, "id": 42}),
                 json.dumps({"op": "stats", "id": 43})]
        serve_protocol(server, lines, FrameWriter(worker_end))
        server.close()
        detail = router_end.recv()
        assert detail["code"] == "oversized"
        assert detail["retryable"] is False
        assert detail["id"] == 42
        summary = router_end.recv()
        assert summary["id"] == 43
        assert summary["models"]["mlp"]["requests"] == 40
        router_end.close()


# ----------------------------------------------------------------------
# EOF flush vs worker done-callbacks: no lock-ordering deadlock
# ----------------------------------------------------------------------
class TestEofDrainRace:
    def test_eof_answers_do_not_deadlock_against_worker_flush(self):
        # Regression: drain() returns once the queues are empty, but a
        # worker may still be resolving its last batch — and resolving
        # request A fires a done-callback that flushes through the
        # protocol's wire lock. The EOF loop used to block on request
        # B's future *while holding* that lock, deadlocking against the
        # worker stuck in A's callback. Stage exactly that, with no
        # sleeps: the futures signal the moment the EOF loop blocks in
        # exception(), and only then does the "worker" resolve the
        # batch.
        from repro.serve.futures import InferenceFuture

        record = SimpleNamespace(latency_ms=0.25, batch_id=0,
                                 batch_size=2)
        eof_waiting = threading.Event()

        class SignalingFuture(InferenceFuture):
            def exception(self, timeout=None):
                eof_waiting.set()
                return super().exception(timeout)

        class MidBatchServer:
            def __init__(self):
                self.futures = []
                self.worker = None

            def submit(self, model, payload):
                future = SignalingFuture(model)
                self.futures.append(future)
                return future

            def drain(self):
                def resolve_batch():
                    eof_waiting.wait(10.0)  # EOF loop has blocked
                    for future in self.futures:
                        future._resolve(np.zeros(2, dtype=np.float32),
                                        record)
                self.worker = threading.Thread(target=resolve_batch,
                                               daemon=True)
                self.worker.start()

        server = MidBatchServer()
        out = io.StringIO()
        lines = [json.dumps({"id": i, "model": "m", "input": [0.0, 0.0]})
                 for i in range(2)]
        finished = threading.Event()

        def run():
            serve_protocol(server, lines, out)
            finished.set()

        threading.Thread(target=run, daemon=True).start()
        assert finished.wait(10.0), \
            "EOF flush deadlocked against the worker's done-callback"
        server.worker.join(5.0)
        answers = [json.loads(line)
                   for line in out.getvalue().splitlines()]
        assert sorted(answer["id"] for answer in answers) == [0, 1]
        assert all("output" in answer for answer in answers)


# ----------------------------------------------------------------------
# FIFO under seeded interleaved multi-model traffic
# ----------------------------------------------------------------------
class TestInterleavedFIFO:
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_per_model_fifo_holds_under_seeded_interleaving(self, seed,
                                                            deployed):
        rng = np.random.default_rng(seed)
        alpha, _ = deployed
        beta, _ = build_deployment(seed=11, batch=3)
        server = ModelServer(workers=0, max_batch=4)
        server.add("alpha", alpha)
        server.add("beta", beta)
        lines, sent = [], {"alpha": [], "beta": []}
        for i in range(24):
            model = "alpha" if rng.random() < 0.5 else "beta"
            x = rng.normal(size=(12,)).astype(np.float32)
            use_binary = bool(rng.random() < 0.5)
            body = ({"id": i, "model": model, **array_to_wire(x)}
                    if use_binary
                    else {"id": i, "model": model, "input": x.tolist()})
            lines.append(json.dumps(body))
            sent[model].append(i)
        served, responses = run_protocol(server, lines)
        server.close()
        assert served == 24
        answered = [r for r in responses if "id" in r]
        assert all("error" not in r for r in answered)
        for model in ("alpha", "beta"):
            order = [r["id"] for r in answered if r["model"] == model]
            assert order == sent[model]      # FIFO per model, exactly

    def test_protocol_loop_over_fake_transport_matches_direct(self,
                                                              deployed):
        # The framed carrier must be invisible: serving N requests
        # through FrameWriter/recv gives the same answers as a plain
        # list of lines.
        deployment, quantized = deployed
        xs = [np.random.default_rng(i).normal(size=(12,))
              .astype(np.float32) for i in range(5)]
        lines = [json.dumps({"id": i, "model": "mlp",
                             "input": x.tolist()})
                 for i, x in enumerate(xs)]

        server = ModelServer(workers=0, max_batch=4)
        server.add("mlp", deployment)
        router_end, worker_end = FakeTransport.pair()
        for line in lines:
            router_end.send_raw(line.encode())
        collected = []
        while True:
            try:
                payload = worker_end.recv_bytes()
            except TransportClosed:
                break
            if payload is None:
                break
            collected.append(decode_text(payload))
        serve_protocol(server, collected, FrameWriter(worker_end))
        server.close()
        framed = []
        while True:
            message = router_end.recv()
            if message is None:
                break
            framed.append(message)
        assert [m["id"] for m in framed] == list(range(5))
        for message, x in zip(framed, xs):
            assert np.allclose(np.asarray(message["output"]),
                               quantized.predict(x[None])[0])
