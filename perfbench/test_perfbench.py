"""Tests of the benchmark itself.

Each oracle accepts the program's real output and rejects a planted wrong
one; the tracer wraps and restores names a caller imported by value; and a
tiny run of every workload reports every metric BENCHMARK.json names.

    python3 -m pytest perfbench -s
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import env

if not env.use_source_tree():
    pytest.skip("no hdrbench sources in this checkout", allow_module_level=True)

from hdrbench import cli, metrics, mockcodec, pipeline, report, yuv
from hdrbench.pipeline import ResultStore, RunRecord
from hdrbench.yuv import PlaneFormat

import oracles
import spans
import synth
import workloads

W, H = 64, 64


def _plant(array: np.ndarray, index: int, delta: int) -> np.ndarray:
    wrong = array.copy()
    low = wrong[index] < np.iinfo(wrong.dtype).max // 2
    wrong[index] = wrong[index] + delta if low else wrong[index] - delta
    return wrong


def test_tonemap_oracle_rejects_one_code_off(tmp_path):
    src, out = tmp_path / "src.yuv", tmp_path / "out.yuv"
    synth.write_noise_clip(src, 1, W, H, 2)
    assert cli.main(["convert", "--direction", "10to8", "--input", str(src), "--output", str(out),
                     "--width", str(W), "--height", str(H)]) == 0
    assert oracles.tonemap_mismatches(src, out, W, H) == []
    _plant(np.fromfile(out, np.uint8), 777, 1).tofile(out)
    assert oracles.tonemap_mismatches(src, out, W, H)


def test_expand_oracle_rejects_one_code_off(tmp_path):
    src, out = tmp_path / "src8.yuv", tmp_path / "out10.yuv"
    np.random.default_rng(2).integers(0, 256, size=2 * W * H * 3 // 2, dtype=np.uint8).tofile(src)
    assert cli.main(["convert", "--direction", "8to10", "--input", str(src), "--output", str(out),
                     "--width", str(W), "--height", str(H)]) == 0
    assert oracles.expand_mismatches(src, out, W, H) == []
    _plant(np.fromfile(out, "<u2"), 5, 1).tofile(out)
    assert oracles.expand_mismatches(src, out, W, H)


def test_psnr_oracle_rejects_a_hundredth_of_a_db(tmp_path):
    src, test = tmp_path / "src.yuv", tmp_path / "test.yuv"
    synth.write_noise_clip(src, 3, W, H, 2)
    x = np.fromfile(src, "<u2")
    np.minimum(x + (x % 3 == 0), 1023).astype("<u2").tofile(test)
    fmt = PlaneFormat(W, H, 10)
    per_plane = [[], [], []]
    for a, b in zip(yuv.iter_frames(src, fmt), yuv.iter_frames(test, fmt)):
        for values, pa, pb in zip(per_plane, a.planes(), b.planes()):
            values.append(metrics.psnr_plane(pa, pb, 10))
    quality = metrics.aggregate_frame_psnrs(*per_plane)
    reported = {"psnr_y": quality.psnr_y, "psnr_u": quality.psnr_u,
                "psnr_v": quality.psnr_v, "psnr_yuv": quality.psnr_yuv}
    expected = oracles.file_psnr(src, test, W, H)
    assert oracles.psnr_mismatches("clip", expected, reported) == []
    assert oracles.psnr_mismatches("clip", expected, {**reported, "psnr_u": reported["psnr_u"] + 0.01})


@pytest.mark.parametrize("depth,qp", [(10, 12), (10, 37), (8, 17), (8, 32)])
def test_mock_cell_oracles_match_the_codec(tmp_path, depth, qp):
    fmt = PlaneFormat(W, H, depth)
    src10, coded_in = tmp_path / "src10.yuv", tmp_path / "in.yuv"
    synth.write_smooth_clip(src10, 4, W, H, 2)
    if depth == 8:
        x = np.fromfile(src10, "<u2").astype(np.int64)
        ((x * 510 + 1023) // 2046).astype(np.uint8).tofile(coded_in)
    else:
        coded_in = src10
    stream, recon = tmp_path / "s.bin", tmp_path / "r.yuv"
    size = mockcodec.encode(coded_in, stream, fmt, qp)
    assert size == oracles.mock_bitstream_bytes(2, W, H, depth, qp)
    assert size + 1 != oracles.mock_bitstream_bytes(2, W, H, depth, qp)
    mockcodec.decode(stream, recon, output_depth=10)
    assert oracles.psnr_mismatches("cell", oracles.mock_cell_psnr(src10, W, H, depth, qp),
                                   oracles.file_psnr(src10, recon, W, H)) == []


def test_bd_oracle_rejects_a_perturbed_delta():
    per_host, truth = synth.synth_study(5, 4, ("h1", "h2"), "h2")
    store = ResultStore()
    for records in per_host.values():
        for data in records:
            store.add(RunRecord.from_dict(json.loads(json.dumps(data))))
    rows = workloads.rows_of(report.build_table(store))
    expected = workloads.expected_report(truth)
    assert expected["seq000"]["energy"] and expected["seq000"]["time"]
    assert oracles.table_mismatches(rows, expected) == []
    rows["seq002"]["energy"]["h2"] += 0.01
    assert oracles.table_mismatches(rows, expected)


def test_warm_oracle_rejects_any_encoder_run():
    assert oracles.warm_mismatches(0, 0, 24, 24) == []
    assert oracles.warm_mismatches(1, 0, 24, 24)
    assert oracles.warm_mismatches(0, 1, 23, 24)


def test_tracer_wraps_names_imported_by_value_and_restores_them():
    original = metrics.psnr_plane
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pipeline.psnr_plane is cli.psnr_plane is metrics.psnr_plane is not original
        plane = np.arange(16, dtype=np.uint16).reshape(4, 4)
        cli.psnr_plane(plane, plane + 1, 10)
    finally:
        tracer.uninstall()
    assert pipeline.psnr_plane is cli.psnr_plane is metrics.psnr_plane is original
    stats = tracer.stats()
    assert stats["metrics.psnr_plane"]["calls"] == 1
    assert stats["metrics.psnr_plane"]["samples"] == 16
    assert stats["metrics.mse_plane"]["calls"] == 1
    assert 0.0 <= stats["metrics.psnr_plane"]["self_s"] <= stats["metrics.psnr_plane"]["busy_s"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(tmp_path, name):
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    for trace, gated in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        work = tmp_path / f"trace{int(trace)}"
        work.mkdir()
        result = workloads.run_workload(name, 7, 0.5, trace, work, tmp_path, workloads.TINY)
        assert result.failed == 0, result.failures
        assert result.attempted >= 1
        assert set(result.metrics) == {m["name"] for m in gated}
        for metric in gated:
            value = result.metrics[metric["name"]]
            assert np.isfinite(value)
            print(f"{name} trace={int(trace)} {metric['name']} = {value:.6g} {metric['unit']}")
        if not trace:
            assert all(result.metrics[m["name"]] > 0 for m in gated)
            for metric, (value, unit, count) in result.named.items():
                print(f"{name} {metric} = {value:.6g} {unit}")
