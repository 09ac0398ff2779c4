"""Codec negotiation: NEG frames and the gateway handshake.

The exchange is advisory — containers self-describe their codecs — but
a well-behaved client only ships codec ids the server echoed back, and
downgrades to the classic lzss pipeline otherwise.  Streams that never
leave lzss skip the exchange entirely, which keeps historical traffic
byte-identical.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.codecs import known_codec_ids
from repro.obs import MetricRegistry
from repro.service import GatewayClient, GatewayServer
from repro.service.protocol import (
    FLAG_NEG,
    Frame,
    FrameError,
    pack_neg,
    unpack_neg,
)

# ------------------------------------------------------------ NEG frames


def test_pack_unpack_round_trip():
    assert unpack_neg(pack_neg({3, 1, 2})) == frozenset({1, 2, 3})
    assert unpack_neg(pack_neg([4, 4, 4])) == frozenset({4})
    assert unpack_neg(pack_neg([])) == frozenset()


def test_pack_neg_is_canonical():
    # Sorted and deduplicated: one set, one byte sequence (the frames
    # are comparable across implementations and in logs).
    assert pack_neg({2, 1}) == pack_neg([1, 2, 2, 1]) == b"\x01\x02"


@pytest.mark.parametrize("bad", [{0}, {256}, {-1}])
def test_pack_neg_rejects_non_wire_ids(bad):
    with pytest.raises(FrameError):
        pack_neg(bad)


def test_unpack_neg_rejects_garbage():
    with pytest.raises(FrameError):
        unpack_neg(b"\x00")  # id 0 is never a codec
    with pytest.raises(FrameError):
        unpack_neg(bytes(range(1, 256)) + b"\x01")  # longer than the id space


def test_neg_flag_is_a_known_frame_type():
    frame = Frame(0, 0, flags=FLAG_NEG, payload=pack_neg(known_codec_ids()))
    assert frame.is_neg
    assert not Frame(0, 0, payload=b"x").is_neg


# ------------------------------------------------------- the handshake


def _deliverer(sink: list):
    async def deliver(sid, seq, data):
        sink.append(data)
    return deliver


def _run(coro):
    return asyncio.run(coro)


def _traffic() -> list[bytes]:
    rng = np.random.default_rng(0x4E47)
    return [b"negotiated stream " * 300,
            rng.integers(0, 256, 8192, dtype=np.uint8).tobytes()]


def test_auto_client_offers_everything_and_is_accepted():
    metrics = MetricRegistry()
    got: list[bytes] = []

    async def scenario():
        async with GatewayServer(metrics=metrics,
                                 deliver=_deliverer(got)) as server:
            client = GatewayClient(port=server.port, metrics=metrics,
                                   codec="auto")
            async with client:
                assert client.accepted_codecs == known_codec_ids()
                assert client.codec == "auto"
                await client.send_stream(_traffic(), stream_id=1)
            await server.close()

    _run(scenario())
    assert got == _traffic()
    assert metrics.count("client.neg_exchanges") == 1
    assert metrics.count("server.neg_exchanges") == 1
    assert metrics.count("client.codec_fallbacks") == 0


def test_restricted_server_forces_lzss_fallback():
    metrics = MetricRegistry()
    got: list[bytes] = []

    async def scenario():
        async with GatewayServer(metrics=metrics, deliver=_deliverer(got),
                                 accept_codecs=["lzss"]) as server:
            client = GatewayClient(port=server.port, metrics=metrics,
                                   codec="lz4s")
            async with client:
                # The reply is the intersection with the offer — lz4s
                # was the whole offer, so nothing came back.
                assert client.accepted_codecs == frozenset()
                assert client.codec == "lzss"  # downgraded before traffic
                await client.send_stream(_traffic(), stream_id=1)
            await server.close()

    _run(scenario())
    assert got == _traffic()
    assert metrics.count("client.codec_fallbacks") == 1


def test_lzss_client_skips_the_exchange():
    # The compatibility promise: classic streams carry zero NEG frames.
    metrics = MetricRegistry()
    got: list[bytes] = []

    async def scenario():
        async with GatewayServer(metrics=metrics,
                                 deliver=_deliverer(got)) as server:
            client = GatewayClient(port=server.port, metrics=metrics)
            async with client:
                assert client.accepted_codecs is None
                await client.send_stream(_traffic(), stream_id=1)
            await server.close()

    _run(scenario())
    assert got == _traffic()
    assert metrics.count("client.neg_exchanges") == 0
    assert metrics.count("server.neg_exchanges") == 0


def test_negotiated_codec_delivers_mixed_content():
    # lz4s accepted end-to-end: random payloads (stored/raw frames) and
    # compressible ones arrive byte-identical.
    metrics = MetricRegistry()
    got: list[bytes] = []

    async def scenario():
        async with GatewayServer(metrics=metrics,
                                 deliver=_deliverer(got)) as server:
            client = GatewayClient(port=server.port, metrics=metrics,
                                   codec="lz4s")
            async with client:
                assert client.codec == "lz4s"
                await client.send_stream(_traffic(), stream_id=7)
            await server.close()

    _run(scenario())
    assert got == _traffic()
