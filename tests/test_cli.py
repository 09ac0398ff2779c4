"""The culzss command-line program (the paper's I/O version)."""

import pytest

from repro.cli import build_parser, main
from repro.datasets import generate


@pytest.fixture(scope="module")
def sample_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "input.bin"
    path.write_bytes(generate("cfiles", 60_000))
    return path


@pytest.mark.parametrize("system", ["culzss-v1", "culzss-v2", "serial",
                                    "pthread", "bzip2"])
def test_compress_decompress_every_system(system, sample_file, tmp_path,
                                          capsys):
    comp = tmp_path / "out.cz"
    restored = tmp_path / "restored.bin"
    assert main(["compress", str(sample_file), str(comp),
                 "--system", system]) == 0
    assert comp.stat().st_size > 0
    assert main(["decompress", str(comp), str(restored)]) == 0
    assert restored.read_bytes() == sample_file.read_bytes()
    out = capsys.readouterr().out
    assert "->" in out


@pytest.mark.parametrize("salvage", [False, True], ids=["strict", "salvage"])
@pytest.mark.parametrize("size", [1, 44])
def test_pthread_tiny_file_round_trips(size, salvage, tmp_path):
    # One chunk per thread: 4 threads cut 1 B and 44 B into 1 B and
    # 11 B chunks, far below any CULZSS chunk size — decompress must
    # not model such a container as a GPU one.
    src, comp, restored = (tmp_path / n for n in ("in", "out.cz", "r"))
    src.write_bytes((b"pthread " * 8)[:size])
    assert main(["compress", str(src), str(comp), "--system", "pthread",
                 "--workers", "4"]) == 0
    assert main(["decompress", str(comp), str(restored)]
                + ["--salvage"] * salvage) == 0
    assert restored.read_bytes() == src.read_bytes()


def test_version_flag_selects_culzss(sample_file, tmp_path, capsys):
    comp = tmp_path / "v1.cz"
    assert main(["compress", str(sample_file), str(comp),
                 "--version", "1"]) == 0
    assert "culzss-v1" in capsys.readouterr().out


def test_info_reports_container(sample_file, tmp_path, capsys):
    comp = tmp_path / "x.cz"
    main(["compress", str(sample_file), str(comp)])
    assert main(["info", str(comp)]) == 0
    out = capsys.readouterr().out
    assert "cuda_v2" in out
    assert "chunks" in out


def test_decompress_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"not a container at all")
    assert main(["decompress", str(bad), str(tmp_path / "o")]) == 2


def test_info_reports_container_version(sample_file, tmp_path, capsys):
    comp = tmp_path / "x.cz"
    main(["compress", str(sample_file), str(comp)])
    assert main(["info", str(comp)]) == 0
    out = capsys.readouterr().out
    assert "container version: 2" in out
    assert "per-chunk CRCs: yes" in out


def test_decompress_strict_fails_on_corruption_with_hint(sample_file,
                                                         tmp_path, capsys):
    from repro.testing import corrupt_chunks

    comp = tmp_path / "x.cz"
    main(["compress", str(sample_file), str(comp)])
    comp.write_bytes(corrupt_chunks(comp.read_bytes(), [1], seed=11))
    assert main(["decompress", str(comp), str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "chunk 1" in err
    assert "--salvage" in err


def test_decompress_checks_each_chunk_crc_once(tmp_path):
    from repro import obs
    from repro.container import unpack_container
    from repro.core import CompressionParams, gpu_compress

    data = generate("cfiles", 1 << 16, seed=4)
    blob = gpu_compress(data, CompressionParams(version=2)).data
    n_chunks = len(unpack_container(blob, strict=False).chunk_sizes)
    comp, back = tmp_path / "in.cz", tmp_path / "out.bin"
    comp.write_bytes(blob)
    before = obs.get_registry().snapshot()["counters"]["container.crc_checks"]
    assert main(["decompress", str(comp), str(back)]) == 0
    after = obs.get_registry().snapshot()["counters"]["container.crc_checks"]
    assert after - before == n_chunks == 16
    assert back.read_bytes() == data


def test_decompress_salvage_recovers_partial(sample_file, tmp_path, capsys):
    from repro.testing import corrupt_chunks

    original = sample_file.read_bytes()
    comp = tmp_path / "x.cz"
    restored = tmp_path / "restored.bin"
    main(["compress", str(sample_file), str(comp)])
    comp.write_bytes(corrupt_chunks(comp.read_bytes(), [1], seed=11))
    # partial loss is exit 1 — recovered bytes written, damage reported
    assert main(["decompress", str(comp), str(restored),
                 "--salvage", "--fill-byte", "170"]) == 1
    out = capsys.readouterr().out
    assert "lost chunks [1]" in out
    data = restored.read_bytes()
    assert len(data) == len(original)
    assert data[:4096] == original[:4096]
    assert data[4096:8192] == b"\xaa" * 4096
    assert data[8192:] == original[8192:]


def test_decompress_salvage_clean_blob_is_exit_zero(sample_file, tmp_path,
                                                    capsys):
    comp = tmp_path / "x.cz"
    restored = tmp_path / "restored.bin"
    main(["compress", str(sample_file), str(comp)])
    assert main(["decompress", str(comp), str(restored), "--salvage"]) == 0
    assert restored.read_bytes() == sample_file.read_bytes()
    assert "recovered" in capsys.readouterr().out


@pytest.mark.parametrize("fill", ["300", "-1"])
def test_decompress_fill_byte_out_of_range_is_a_usage_error(
        fill, sample_file, tmp_path, capsys):
    from repro.testing import corrupt_chunks

    comp = tmp_path / "x.cz"
    main(["compress", str(sample_file), str(comp)])
    comp.write_bytes(corrupt_chunks(comp.read_bytes(), [1], seed=11))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["decompress", str(comp), str(tmp_path / "o"), "--salvage",
              "--fill-byte", fill])
    assert exc.value.code == 2
    assert "--fill-byte" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["flipped", "truncated", "not-a-container"])
def test_info_reports_a_bad_file_in_one_line(damage, sample_file, tmp_path,
                                             capsys):
    from repro.testing import corrupt_chunks

    comp = tmp_path / "x.cz"
    main(["compress", str(sample_file), str(comp)])
    blob = comp.read_bytes()
    comp.write_bytes({"flipped": corrupt_chunks(blob, [1], seed=11),
                      "truncated": blob[:20],
                      "not-a-container": b"not a container at all"}[damage])
    capsys.readouterr()
    assert main(["info", str(comp)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_serve_and_send_in_help():
    parser = build_parser()
    help_text = parser.format_help()
    assert "serve" in help_text and "send" in help_text


def test_send_help_documents_gateway_knobs(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["send", "--help"])
    out = capsys.readouterr().out
    for flag in ("--port", "--workers", "--queue-depth", "--retries",
                 "--timeout", "--metrics"):
        assert flag in out


def test_send_to_dead_port_fails_cleanly(capsys):
    # nothing listens on the probe port; bounded retries then exit 2
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    rc = main(["send", "--port", str(port), "--count", "1",
               "--buffer-size", "64", "--workers", "0", "--retries", "0"])
    assert rc == 2
    assert "send failed" in capsys.readouterr().err


@pytest.mark.slow
def test_serve_send_gateway_pair(tmp_path, capsys):
    """serve in a subprocess, send in-process; the delivered stream file
    must be bit-exact and the server must dump metrics on exit."""
    import re
    import subprocess
    import sys

    out_dir = tmp_path / "delivered"
    srv = subprocess.Popen(
        [sys.executable, "-c",
         "from repro.cli import main; "
         f"main(['serve', '--max-conns', '1', "
         f"'--output-dir', {str(out_dir)!r}])"],
        stdout=subprocess.PIPE, text=True)
    try:
        port = re.search(r":(\d+)", srv.stdout.readline()).group(1)
        rc = main(["send", "--port", port, "--count", "3",
                   "--buffer-size", "4096", "--workers", "2",
                   "--stream-id", "5", "--metrics"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "egress delivered 3 frames" in out
        assert "metrics snapshot" in out
        server_out, _ = srv.communicate(timeout=60)
    finally:
        if srv.poll() is None:
            srv.kill()
            srv.communicate()
    assert srv.returncode == 0
    assert '"server.frames_delivered": 3' in server_out

    want = b"".join(generate("cfiles", 4096, seed=1000 + i)
                    for i in range(3))
    assert (out_dir / "stream-5.bin").read_bytes() == want


def test_report_subcommand_writes_markdown(tmp_path, capsys):
    # miniature end-to-end of `culzss report`: all five datasets, fit,
    # markdown emission
    import os

    out_file = tmp_path / "experiments.md"
    try:
        assert main(["report", "--size-mb", "0.125",
                     "--output", str(out_file)]) == 0
    finally:
        os.environ.pop("REPRO_BENCH_MB", None)  # the CLI sets it
    text = out_file.read_text()
    assert "Table I" in text and "⚓" in text
    assert "Highly Compr." in text


# --------------------------------------------------- stats and trace

def test_stats_formats(sample_file, capsys):
    from repro import obs

    obs.reset()
    assert main(["stats", str(sample_file), "--format", "pretty"]) == 0
    out = capsys.readouterr().out
    assert "matcher.lag_calls" in out and "encode.match_seconds" in out

    assert main(["stats", str(sample_file), "--format", "prom"]) == 0
    out = capsys.readouterr().out
    assert "culzss_matcher_lag_calls" in out
    assert "culzss_encode_match_seconds_count" in out

    import json

    assert main(["stats", str(sample_file), "--format", "json"]) == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["counters"]["container.crc_checks"] > 0
    obs.reset()


def test_stats_generates_dataset_when_no_input(capsys):
    from repro import obs

    obs.reset()
    assert main(["stats", "--format", "json", "--size", "65536",
                 "--dataset", "demap"]) == 0
    import json

    snap = json.loads(capsys.readouterr().out)
    assert snap["counters"]["container.crc_checks"] > 0
    obs.reset()


def test_stats_refuses_when_disabled(sample_file, capsys):
    from repro import obs

    obs.disable()
    try:
        assert main(["stats", str(sample_file)]) == 2
    finally:
        obs.enable()
    assert "REPRO_OBS" in capsys.readouterr().err


@pytest.mark.slow
def test_trace_writes_nested_chrome_trace(tmp_path, capsys):
    """The acceptance trace: >= 3 layers — gateway frame over engine
    shard over encoder stage — correctly parented in one trace id."""
    import json

    from repro import obs

    big = tmp_path / "big.bin"
    big.write_bytes(generate("cfiles", 640_000, seed=3))
    out_file = tmp_path / "trace.json"
    obs.reset()
    try:
        assert main(["trace", str(big), "--output", str(out_file),
                     "--workers", "2"]) == 0
    finally:
        obs.reset()
    stdout = capsys.readouterr().out
    assert "spans over trace" in stdout

    events = json.loads(out_file.read_text())["traceEvents"]
    assert len({e["args"]["trace_id"] for e in events}) == 1
    by_id = {e["args"]["span_id"]: e for e in events}

    def ancestry(e):
        names = []
        while e is not None:
            names.append(e["name"])
            e = by_id.get(e["args"]["parent_id"])
        return names

    chains = [ancestry(e) for e in events if e["name"] == "encode.match"]
    assert chains
    for chain in chains:
        assert "engine.shard" in chain and "gateway.frame" in chain
        assert len(chain) >= 4


def test_trace_small_file_notes_serial_path(sample_file, tmp_path, capsys):
    from repro import obs

    out_file = tmp_path / "small.trace.json"
    obs.reset()
    try:
        assert main(["trace", str(sample_file), "--output", str(out_file),
                     "--no-decode"]) == 0
    finally:
        obs.reset()
    captured = capsys.readouterr()
    assert "parallel threshold" in captured.err
    assert out_file.exists()


def test_serve_help_documents_metrics_port(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--help"])
    assert "--metrics-port" in capsys.readouterr().out


# ------------------------------------------------------ codec dispatch

def test_compress_codec_auto_round_trips(sample_file, tmp_path, capsys):
    comp = tmp_path / "auto.cz"
    restored = tmp_path / "restored.bin"
    assert main(["compress", str(sample_file), str(comp),
                 "--codec", "auto"]) == 0
    out = capsys.readouterr().out
    assert "culzss-v2[auto]:" in out
    from repro.container import unpack_container

    info = unpack_container(comp.read_bytes())
    assert info.version == 3
    assert info.chunk_codecs is not None
    assert main(["decompress", str(comp), str(restored)]) == 0
    assert restored.read_bytes() == sample_file.read_bytes()


@pytest.mark.parametrize("codec", ["store", "lz4s", "lzss-huffman"])
def test_compress_every_codec_round_trips(codec, sample_file, tmp_path):
    comp = tmp_path / "c.cz"
    restored = tmp_path / "r.bin"
    assert main(["compress", str(sample_file), str(comp),
                 "--codec", codec]) == 0
    assert main(["decompress", str(comp), str(restored)]) == 0
    assert restored.read_bytes() == sample_file.read_bytes()


def test_compress_default_codec_still_writes_v2(sample_file, tmp_path):
    comp = tmp_path / "classic.cz"
    assert main(["compress", str(sample_file), str(comp)]) == 0
    from repro.container import unpack_container

    info = unpack_container(comp.read_bytes())
    assert info.version == 2
    assert info.chunk_codecs is None


def test_compress_codec_rejected_for_other_systems(sample_file, tmp_path,
                                                   capsys):
    rc = main(["compress", str(sample_file), str(tmp_path / "x"),
               "--system", "bzip2", "--codec", "auto"])
    assert rc == 2
    assert "--codec" in capsys.readouterr().err


def test_info_lists_per_chunk_codecs(sample_file, tmp_path, capsys):
    comp = tmp_path / "auto.cz"
    main(["compress", str(sample_file), str(comp), "--codec", "auto"])
    capsys.readouterr()
    assert main(["info", str(comp)]) == 0
    out = capsys.readouterr().out
    assert "container version: 3" in out
    assert "per-chunk codecs:" in out
    assert "chunk 0: codec" in out
    assert "ratio" in out


@pytest.mark.slow
def test_benchgate_suite_codecs_uses_committed_baseline(capsys):
    # The committed BENCH_codecs.json is the default baseline; the gate
    # must find it and compare every codec.<name>.<op> case.
    rc = main(["benchgate", "--suite", "codecs", "--quick"])
    out = capsys.readouterr().out
    assert "codec.auto.encode" in out
    assert "codec.lz4s.decode" in out
    assert rc in (0, 1)  # a noisy host may regress; it must still compare


def test_compress_profile_writes_speedscope_and_collapsed(sample_file,
                                                          tmp_path, capsys):
    import json
    import os

    comp = tmp_path / "out.cz"
    prof_path = tmp_path / "compress.speedscope.json"
    assert main(["compress", str(sample_file), str(comp),
                 "--profile", str(prof_path), "--profile-hz", "500"]) == 0
    out = capsys.readouterr().out
    assert "profile:" in out and "process(es)" in out
    doc = json.loads(prof_path.read_text())
    assert doc["$schema"].endswith("file-format-schema.json")
    assert doc["profiles"] and doc["profiles"][0]["samples"]
    assert prof_path.with_suffix(".collapsed").exists()
    # the profiler and its env contract were torn down on exit
    from repro.obs import prof

    assert not prof.running()
    assert prof.ENV_HZ not in os.environ


def test_stats_pretty_includes_ledger(sample_file, capsys):
    from repro import obs

    obs.reset()
    assert main(["stats", str(sample_file), "--format", "pretty"]) == 0
    out = capsys.readouterr().out
    assert "per-stage throughput ledger:" in out
    ledger_block = out.split("per-stage throughput ledger:")[1]
    assert "encode.match" in ledger_block
    assert "MB/s" in ledger_block
    assert any(line.split()[:1] == ["model"]
               for line in ledger_block.splitlines())
    obs.reset()


def test_benchgate_attribute_and_profile_flags_in_help(capsys):
    with pytest.raises(SystemExit):
        main(["benchgate", "--help"])
    out = capsys.readouterr().out
    assert "--attribute" in out and "--profile" in out
