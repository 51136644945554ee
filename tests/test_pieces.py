"""The piece-streamed paths: conversion, scoring and frame assembly equal
whole-frame references bit for bit at any piece size, and the reader's
errors reach both conversion and scoring unchanged."""

import os

import numpy as np
import pytest

from hdrbench import mockcodec, yuv
from hdrbench.bitdepth import convert_file, expand_plane, tonemap_plane
from hdrbench.metrics import aggregate_frame_psnrs, psnr_plane, score_files
from hdrbench.yuv import FileSizeError, Frame, PlaneFormat, SampleRangeError

# 66x34 gives 33x17 chroma planes (561 samples): no plane is a multiple of
# a piece or of a 1024-sample row.
WIDTH, HEIGHT = 66, 34


@pytest.fixture(params=[7, 1100, yuv.PIECE_SAMPLES], ids=["piece7", "piece1100", "default"])
def piece(request, monkeypatch):
    monkeypatch.setattr(yuv, "PIECE_SAMPLES", request.param)
    return request.param


def noise_clip(path, seed: int, fmt: PlaneFormat, frames: int = 3) -> tuple[Frame, ...]:
    """Write a clip of uniform noise over the full sample range; return its frames."""
    rng = np.random.default_rng(seed)
    shapes = [(fmt.height, fmt.width)] + 2 * [(fmt.chroma_height, fmt.chroma_width)]
    clip = tuple(
        Frame(*(rng.integers(0, fmt.max_value + 1, shape).astype(fmt.dtype) for shape in shapes), fmt)
        for _ in range(frames)
    )
    yuv.write_frames(path, clip)
    return clip


def whole_frames(path, fmt: PlaneFormat) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each frame's Y, U and V planes from one bulk read, not through the reader."""
    data = np.fromfile(path, dtype=fmt.dtype).reshape(-1, fmt.frame_samples)
    return [fmt.planes(raw) for raw in data]


@pytest.mark.parametrize("depth", [10, 8])
def test_conversion_equals_whole_plane_kernels(tmp_path, piece, depth):
    fmt = PlaneFormat(WIDTH, HEIGHT, depth)
    src, dst = tmp_path / "src.yuv", tmp_path / "dst.yuv"
    noise_clip(src, 31, fmt, frames=3)
    op = tonemap_plane if depth == 10 else expand_plane
    expected = b"".join(op(plane).tobytes() for planes in whole_frames(src, fmt) for plane in planes)
    assert convert_file(src, dst, fmt) == 3
    assert dst.read_bytes() == expected


@pytest.mark.parametrize("depth", [10, 8])
def test_scoring_equals_whole_plane_psnr(tmp_path, piece, depth):
    fmt10, fmt = PlaneFormat(WIDTH, HEIGHT, 10), PlaneFormat(WIDTH, HEIGHT, depth)
    ref, test = tmp_path / "ref.yuv", tmp_path / "test.yuv"
    noise_clip(ref, 32, fmt10, frames=3)
    noise_clip(test, 33, fmt, frames=3)
    per_plane = ([], [], [])
    for ref_planes, test_planes in zip(whole_frames(ref, fmt10), whole_frames(test, fmt)):
        for values, a, b in zip(per_plane, ref_planes, test_planes):
            values.append(psnr_plane(a, expand_plane(b) if depth == 8 else b, 10))
    assert len({v for values in per_plane for v in values}) == 9
    assert score_files(ref, test, fmt) == aggregate_frame_psnrs(*per_plane)


@pytest.mark.parametrize("depth", [10, 8])
def test_frames_and_codec_input_are_assembled_from_pieces(tmp_path, piece, depth):
    fmt = PlaneFormat(WIDTH, HEIGHT, depth)
    path = tmp_path / "clip.yuv"
    clip = noise_clip(path, 34, fmt, frames=3)
    assert tuple(yuv.iter_frames(path, fmt)) == clip
    samples, frames = mockcodec._read_samples(path, fmt)
    assert frames == 3
    assert np.array_equal(samples, np.fromfile(path, dtype=fmt.dtype))


def clip_with_bad_sample(path, fmt: PlaneFormat, index: int) -> None:
    noise_clip(path, 35, fmt, frames=3)
    words = np.fromfile(path, dtype=fmt.dtype)
    words[index] = 1024
    words.tofile(path)


# The third frame's luma sample 100, inside the piece of samples 98-104 when
# pieces are 7 samples long, and a sample inside its V plane.
BAD_SAMPLES = [100, 2244 + 561 + 300]


@pytest.mark.parametrize("offset", BAD_SAMPLES)
@pytest.mark.parametrize("target", ["convert", "quality ref", "quality test"])
def test_out_of_range_sample_reports_its_index_in_the_file(tmp_path, piece, target, offset):
    fmt = PlaneFormat(WIDTH, HEIGHT, 10)
    index = 2 * fmt.frame_samples + offset
    bad, good, dst = tmp_path / "bad.yuv", tmp_path / "good.yuv", tmp_path / "dst.yuv"
    clip_with_bad_sample(bad, fmt, index)
    noise_clip(good, 36, fmt, frames=3)
    message = f"bad.yuv: sample index {index} has value 1024 > 1023 for declared 10-bit depth"
    with pytest.raises(SampleRangeError, match=message):
        if target == "convert":
            convert_file(bad, dst, fmt)
        elif target == "quality ref":
            score_files(bad, good, fmt)
        else:
            score_files(good, bad, fmt)
    assert not dst.exists()


@pytest.mark.parametrize("depth", [10, 8])
@pytest.mark.parametrize("target", ["convert", "quality ref", "quality test"])
def test_file_cut_short_after_counting_its_frames(tmp_path, monkeypatch, piece, depth, target):
    # The reader counts frames, then the file loses all but 100 bytes of
    # its second frame before that frame is read.
    fmt10, fmt = PlaneFormat(WIDTH, HEIGHT, 10), PlaneFormat(WIDTH, HEIGHT, depth)
    ref, test, dst = tmp_path / "ref.yuv", tmp_path / "test.yuv", tmp_path / "dst.yuv"
    noise_clip(ref, 37, fmt10, frames=3)
    noise_clip(test, 38, fmt, frames=3)
    victim, victim_fmt = (ref, fmt10) if target == "quality ref" else (test, fmt)
    count = yuv.frame_count

    def count_then_cut(path, path_fmt):
        frames = count(path, path_fmt)
        if os.fspath(path) == os.fspath(victim):
            os.truncate(path, victim_fmt.frame_bytes + 100)
        return frames

    monkeypatch.setattr(yuv, "frame_count", count_then_cut)
    with pytest.raises(FileSizeError, match=f"{victim.name}: file ended inside frame 1$"):
        if target == "convert":
            convert_file(test, dst, fmt)
        else:
            score_files(ref, test, fmt)
    assert not dst.exists()
