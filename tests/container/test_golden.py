"""Golden-stream regression tests — on-disk format stability.

A downstream user's archives must stay decodable across library
versions, so the exact bytes of small containers are frozen here.  If
one of these fails, the wire format changed: either revert, or bump
the container version and add migration handling — never just update
the constant.

Container v2 (per-chunk CRC table) did exactly that: the default write
format moved to version 2, so the v2-era bytes are frozen below and
the v1-era constants stay as what they always really were — the
decode-compatibility promise, plus a regression test that
``pack_container(..., version=1)`` still reproduces them bit-for-bit.
"""

from repro.container import pack_container
from repro.core.api import gpu_compress, gpu_decompress
from repro.core.params import CompressionParams
from repro.cpu import SerialLzss
from repro.lzss.encoder import encode_chunked
from repro.lzss.formats import CUDA_V2

PAYLOAD = b"golden golden golden stream! " * 4

# --- container version 1 (legacy; reader + version-gated writer) -------

SERIAL_GOLDEN_V1 = (
    "434c5a5301010000740000000000000000000000000000007578c389c59844ff"
    "b3dbed964b2dba40006bb9dd2e565b0db642015c00e78073c039e01cf900"
)

V2_GOLDEN_V1 = (
    "434c5a530103010074000000000000004000000002000000d07cff9aabe64dfd"
    "1700000017000000b3dbed964b2dba40060bb9dd2e565b0db642150c0e090090"
    "59edf6cb2596dc0605b9dd2e565b0db642150c0e0600"
)

# --- container version 2 (default write format for single-codec) -------

SERIAL_GOLDEN = (
    "434c5a5302010000740000000000000000000000000000007578c389ed315aa7"
    "b3dbed964b2dba40006bb9dd2e565b0db642015c00e78073c039e01cf900"
)

V2_GOLDEN = (
    "434c5a530203010074000000000000004000000002000000d07cff9a834f53a5"
    "17000000170000004f23423ca20bfb61b3dbed964b2dba40060bb9dd2e565b0d"
    "b642150c0e09009059edf6cb2596dc0605b9dd2e565b0db642150c0e0600"
)


def test_serial_container_bytes_frozen():
    blob = SerialLzss().compress_container(PAYLOAD)
    assert blob.hex() == SERIAL_GOLDEN


def test_v2_container_bytes_frozen():
    blob = pack_container(encode_chunked(PAYLOAD, CUDA_V2, 64))
    assert blob.hex() == V2_GOLDEN


def test_version_gated_writer_reproduces_v1_bytes():
    # The migration promise in the other direction: version-gated
    # writing still emits yesterday's format bit-for-bit.
    blob = pack_container(encode_chunked(PAYLOAD, CUDA_V2, 64), version=1)
    assert blob.hex() == V2_GOLDEN_V1


def test_frozen_blobs_still_decode():
    # Decoding yesterday's archives is the actual promise — both
    # container versions, forever.
    for serial_hex in (SERIAL_GOLDEN_V1, SERIAL_GOLDEN):
        assert SerialLzss().decompress_container(
            bytes.fromhex(serial_hex)) == PAYLOAD
    for v2_hex in (V2_GOLDEN_V1, V2_GOLDEN):
        assert gpu_decompress(bytes.fromhex(v2_hex)).data == PAYLOAD


def test_api_blob_round_trips():
    buf = gpu_compress(PAYLOAD, CompressionParams(version=2))
    assert gpu_decompress(buf.data).data == PAYLOAD


# --- container version 3 (per-chunk codec column) -----------------------

V2_GOLDEN_V3 = (
    "434c5a530303010074000000000000004000000002000000d07cff9aa42a7624"
    "17000000170000004f23423ca20bfb610202b3dbed964b2dba40060bb9dd2e56"
    "5b0db642150c0e09009059edf6cb2596dc0605b9dd2e565b0db642150c0e0600"
)


def test_v3_container_bytes_frozen():
    # Version-gated upgrade of a plain lzss result: v2 bytes plus the
    # version byte, a fresh header CRC, and a uniform codec column.
    blob = pack_container(encode_chunked(PAYLOAD, CUDA_V2, 64), version=3)
    assert blob.hex() == V2_GOLDEN_V3


def test_auto_dispatch_reproduces_v3_bytes():
    # Both 64-byte chunks sit below the dispatcher's probe floor, so
    # auto picks lzss for each — and must emit the exact same blob as
    # the version-gated lzss writer (same payload, same column).
    from repro.codecs.dispatch import encode_chunked_auto

    blob = pack_container(encode_chunked_auto(PAYLOAD, CUDA_V2, 64,
                                              codec="auto"))
    assert blob.hex() == V2_GOLDEN_V3


def test_frozen_v3_blob_still_decodes():
    assert gpu_decompress(bytes.fromhex(V2_GOLDEN_V3)).data == PAYLOAD


def test_single_codec_results_still_write_v2_by_default():
    # The migration rule that keeps V2_GOLDEN valid forever: a result
    # without a codec column defaults to yesterday's format, and the
    # codec column cannot be smuggled into a pre-v3 container.
    import pytest

    from repro.codecs.dispatch import encode_chunked_auto

    assert pack_container(
        encode_chunked(PAYLOAD, CUDA_V2, 64)).hex() == V2_GOLDEN
    with_column = encode_chunked_auto(PAYLOAD, CUDA_V2, 64, codec="auto")
    with pytest.raises(ValueError, match="v2"):
        pack_container(with_column, version=2)


# --- v3 containers of every codec, and one auto decision column ---------

#: (len(blob), SHA-256) of each v3 container of :func:`_codec_corpus`
#: in CUDA_V2 with 4 KiB chunks.
CODEC_GOLDENS = {
    "store": (20576, "2d85b0d12eddf812dd3990e3290576073c3bdf886dcff349"
                     "b20770e5ab056a34"),
    "lz4s": (11441, "88fa18a16c2de10228c5b3e1ad7869c0d47d43d8ef0573c1"
                    "849753e2924d7e2c"),
    "lzss-huffman": (11249, "f03e9f096bf3e186701258a6622e9447b6e603cc5ac8"
                            "2f39ae8cb041344f831c"),
    "auto": (10871, "7dd440598b5c9e6dd6015b508ea5badb6514e5e1088dfc65"
                    "af727c5888ff512e"),
}

#: auto's codec column over the same corpus: the skewed chunk wins the
#: trial as lzss-huffman (4), text and zeros win it as lzss (2), random
#: bytes are stored (1), sparse bytes go to lz4s (3), the tail is lzss.
AUTO_GOLDEN_COLUMN = [4, 2, 1, 2, 3, 2]


def _codec_corpus() -> bytes:
    """A skewed-literal chunk, then the dispatcher tests' mixed corpus."""
    import numpy as np

    from tests.codecs.test_dispatch import mixed_corpus

    rng = np.random.default_rng(3)
    p = 0.5 ** np.arange(32)
    skewed = rng.choice(np.arange(32, 64), 4096, p=p / p.sum())
    return skewed.astype(np.uint8).tobytes() + mixed_corpus()


def test_every_codec_v3_container_frozen():
    import hashlib

    from repro.codecs.dispatch import encode_chunked_auto

    data = _codec_corpus()
    for codec, (size, digest) in CODEC_GOLDENS.items():
        result = encode_chunked_auto(data, CUDA_V2, 4096, codec=codec)
        blob = pack_container(result)
        assert (len(blob), hashlib.sha256(blob).hexdigest()) == \
            (size, digest), codec
        if codec == "auto":
            assert result.chunk_codecs.tolist() == AUTO_GOLDEN_COLUMN
        assert gpu_decompress(blob).data == data


# --- Pthread containers (serial format, one chunk per thread) -----------

#: (len(blob), SHA-256) of ``pack_container(PthreadLzss(threads,
#: parse=parse).compress(_codec_corpus()))``, keyed (threads, parse).
PTHREAD_GOLDENS = {
    (1, "greedy"): (12039, "56e32396176981c34252c3f9d0a07033d444ff228f70"
                           "4700216021c61855165d"),
    (1, "lazy"): (12062, "153ace832d53c3bb36f4e1e54a96b20ecfd0a6714ccc7d"
                         "5e7fe28e7613938a09"),
    (1, "optimal"): (11973, "883f0872b1dbbf48bcb2017c8c54a30629388bf909d0"
                            "34f4bd6589f7d49dc5be"),
    (3, "greedy"): (12103, "3d26da97e9a3aa1947ccce64b750df95a1e602b93701"
                           "09bb920ad30d0897da81"),
    (3, "lazy"): (12125, "68095a5a16799e2fc7dcf4b68ec03eaa46dc64f9176d0b"
                         "f4e4966fedd4b4e8e7"),
    (3, "optimal"): (12037, "9b68448d40671515aa1adba9b92ea472e2ee54f260fa"
                            "93fe9055ee4b89eac97d"),
}


def test_pthread_containers_frozen():
    import hashlib

    from repro.cpu import PthreadLzss

    data = _codec_corpus()
    for (threads, parse), golden in PTHREAD_GOLDENS.items():
        with PthreadLzss(threads, parse=parse) as coder:
            blob = pack_container(coder.compress(data))
        assert (len(blob), hashlib.sha256(blob).hexdigest()) == golden, \
            (threads, parse)
        assert gpu_decompress(blob).data == data
