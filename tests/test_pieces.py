"""The piece-streamed paths: conversion, scoring, frame assembly and the mock
codec equal whole-frame references bit for bit at any piece size, conversion and
scoring give the same bytes and floats at any span count, and the reader's
errors reach both unchanged, with every span thread joined."""

import errno
import itertools
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from hdrbench import mockcodec, yuv
from hdrbench.bitdepth import convert_file
from hdrbench.metrics import aggregate_frame_psnrs, psnr_plane, score_files
from hdrbench.yuv import FileSizeError, Frame, PlaneFormat, SampleRangeError
from tests.conftest import frame_bytes, save_frames
from tests.test_mockcodec import reference_pack

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
    save_frames(path, clip)
    return clip


def whole_frames(path, fmt: PlaneFormat) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each frame's Y, U and V planes from one bulk read, not through the reader."""
    data = np.fromfile(path, dtype=fmt.dtype).reshape(-1, fmt.frame_samples)
    return [fmt.planes(raw) for raw in data]


def formula(plane: np.ndarray) -> np.ndarray:
    """The depth map of a whole plane in 64-bit integers: round-half-up of
    x * 255 / 1023 for 10-bit samples, x * 4 for 8-bit ones."""
    wide = plane.astype(np.int64)
    if plane.dtype == np.uint8:
        return (wide * 4).astype("<u2")
    return ((wide * 510 + 1023) // 2046).astype(np.uint8)


@pytest.mark.parametrize("depth", [10, 8])
def test_conversion_equals_whole_plane_kernels(tmp_path, piece, depth):
    fmt = PlaneFormat(WIDTH, HEIGHT, depth)
    src, dst = tmp_path / "src.yuv", tmp_path / "dst.yuv"
    noise_clip(src, 31, fmt, frames=3)
    expected = b"".join(formula(plane).tobytes() for planes in whole_frames(src, fmt) for plane in planes)
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
            values.append(psnr_plane(a, formula(b) if depth == 8 else b, 10))
    assert len({v for values in per_plane for v in values}) == 9
    assert score_files(ref, test, fmt) == aggregate_frame_psnrs(*per_plane)


@pytest.mark.parametrize("depth", [10, 8])
def test_frames_and_codec_input_are_assembled_from_pieces(tmp_path, monkeypatch, piece, depth):
    # At 7-sample pieces the encoder carries 1 to 7 indices from piece to
    # piece; 5-group decode chunks end inside pieces, planes and frames. The
    # clip's 10098 samples leave a last group of two.
    fmt = PlaneFormat(WIDTH, HEIGHT, depth)
    path, stream, recon = tmp_path / "clip.yuv", tmp_path / "s.bin", tmp_path / "r.yuv"
    clip = noise_clip(path, 34, fmt, frames=3)
    assert frame_bytes(yuv.iter_frames(path, fmt)) == frame_bytes(clip)
    samples = np.fromfile(path, dtype=fmt.dtype)
    monkeypatch.setattr(mockcodec, "_CHUNK_GROUPS", 5)
    for qp in (12, 22):
        bits = mockcodec.bits_for_qp(qp, depth)
        shift, step = depth - bits, 1 << (depth - bits)
        header = mockcodec._HEADER.pack(mockcodec.MAGIC, mockcodec.MODE_PACKED, WIDTH, HEIGHT, depth, qp, bits, 3)
        assert mockcodec.encode(path, stream, fmt, qp) == stream.stat().st_size
        assert stream.read_bytes() == header + reference_pack(samples >> shift, bits)
        assert mockcodec.decode(stream, recon) == fmt
        expected = (samples >> shift) * step + step // 2
        assert np.array_equal(np.fromfile(recon, dtype=fmt.dtype), expected)
        if depth == 8:
            assert mockcodec.decode(stream, recon, output_depth=10) == fmt.with_bit_depth(10)
            assert np.array_equal(np.fromfile(recon, dtype="<u2"), expected.astype(np.uint16) << 2)


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


# Span counts: one (the reference), two, three, and more spans than frames.
CPUS = (1, 2, 3, 8)


def spans_of(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(yuv, "usable_cpus", lambda: cpus)


@pytest.mark.parametrize("depth", [10, 8])
@pytest.mark.parametrize("frames", [1, 2, 3, 4, 5])
def test_conversion_is_the_same_at_any_span_count(tmp_path, monkeypatch, piece, depth, frames):
    fmt = PlaneFormat(WIDTH, HEIGHT, depth)
    src = tmp_path / "src.yuv"
    noise_clip(src, 40 + frames, fmt, frames=frames)
    outputs = []
    for cpus in CPUS:
        spans_of(monkeypatch, cpus)
        dst = tmp_path / f"dst{cpus}.yuv"
        before = threading.active_count()
        assert convert_file(src, dst, fmt) == frames
        assert threading.active_count() == before
        outputs.append(dst.read_bytes())
    assert len(outputs[0]) == frames * fmt.with_bit_depth(18 - depth).frame_bytes
    assert outputs == [outputs[0]] * len(CPUS)


@pytest.mark.parametrize("depth", [10, 8])
@pytest.mark.parametrize("frames", [1, 2, 3, 4, 5])
def test_scoring_is_the_same_at_any_span_count(tmp_path, monkeypatch, piece, depth, frames):
    fmt10, fmt = PlaneFormat(WIDTH, HEIGHT, 10), PlaneFormat(WIDTH, HEIGHT, depth)
    ref, test = tmp_path / "ref.yuv", tmp_path / "test.yuv"
    noise_clip(ref, 50 + frames, fmt10, frames=frames)
    noise_clip(test, 60 + frames, fmt, frames=frames)
    records = []
    for cpus in CPUS:
        spans_of(monkeypatch, cpus)
        before = threading.active_count()
        records.append(score_files(ref, test, fmt))
        assert threading.active_count() == before
    # Exact equality of all four floats, not approximate.
    assert records == [records[0]] * len(CPUS)


def test_spans_split_the_frames_contiguously_and_keep_their_order(monkeypatch):
    for cpus, frames in itertools.product(CPUS, range(7)):
        spans_of(monkeypatch, cpus)
        spans = yuv.run_spans(frames, lambda: None, lambda span, buffers, stopped: span)
        assert [f for span in spans for f in span] == list(range(frames))
        assert len(spans) == min(cpus, frames) and all(spans)


# The second frame's last V sample and the fourth frame's first Y sample:
# with two spans of two frames each, the second span fails on its first
# piece, long before the first span reaches its error.
TWO_BAD_SAMPLES = [2 * WIDTH * HEIGHT * 3 // 2 - 1, 3 * WIDTH * HEIGHT * 3 // 2]


@pytest.mark.parametrize("target", ["convert", "quality ref", "quality test"])
def test_the_earlier_of_two_bad_samples_in_two_spans_is_reported(tmp_path, monkeypatch, piece, target):
    spans_of(monkeypatch, 2)
    fmt = PlaneFormat(WIDTH, HEIGHT, 10)
    bad, good, dst = tmp_path / "bad.yuv", tmp_path / "good.yuv", tmp_path / "dst.yuv"
    noise_clip(bad, 41, fmt, frames=4)
    words = np.fromfile(bad, dtype=fmt.dtype)
    words[TWO_BAD_SAMPLES] = 1024
    words.tofile(bad)
    noise_clip(good, 42, fmt, frames=4)
    message = f"bad.yuv: sample index {TWO_BAD_SAMPLES[0]} has value 1024 > 1023 for declared 10-bit depth$"
    before = threading.active_count()
    with pytest.raises(SampleRangeError, match=message):
        if target == "convert":
            convert_file(bad, dst, fmt)
        elif target == "quality ref":
            score_files(bad, good, fmt)
        else:
            score_files(good, bad, fmt)
    assert threading.active_count() == before
    assert not dst.exists()


@pytest.mark.parametrize("depth", [10, 8])
def test_full_disk_in_the_last_span_leaves_nothing_at_dst(tmp_path, monkeypatch, piece, depth):
    spans_of(monkeypatch, 3)
    fmt = PlaneFormat(WIDTH, HEIGHT, depth)
    src, dst = tmp_path / "src.yuv", tmp_path / "dst.yuv"
    noise_clip(src, 43, fmt, frames=5)
    # Five frames in three spans: 0, 1-2 and 3-4; the disk fills in frame 4.
    full_from = 4 * fmt.with_bit_depth(18 - depth).frame_bytes
    pwrite, offsets = os.pwrite, []

    def filling_pwrite(fd, data, offset):
        offsets.append(offset)
        if offset >= full_from:
            raise OSError(errno.ENOSPC, "No space left on device")
        return pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", filling_pwrite)
    before = threading.active_count()
    with pytest.raises(OSError, match="No space left"):
        convert_file(src, dst, fmt)
    assert threading.active_count() == before
    assert max(offsets) >= full_from
    assert not dst.exists()


def test_short_positional_writes_are_resumed(tmp_path, monkeypatch):
    spans_of(monkeypatch, 2)
    fmt = PlaneFormat(WIDTH, HEIGHT, 10)
    src, whole, short = tmp_path / "src.yuv", tmp_path / "whole.yuv", tmp_path / "short.yuv"
    noise_clip(src, 44, fmt, frames=3)
    convert_file(src, whole, fmt)
    pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: pwrite(fd, data[:5], offset))
    convert_file(src, short, fmt)
    assert short.read_bytes() == whole.read_bytes()


@pytest.mark.parametrize("depth", [10, 8])
def test_conversion_into_a_pipe_stays_in_frame_order(tmp_path, monkeypatch, piece, depth):
    spans_of(monkeypatch, 3)
    fmt = PlaneFormat(WIDTH, HEIGHT, depth)
    src, file_out = tmp_path / "src.yuv", tmp_path / "out.yuv"
    noise_clip(src, 45, fmt, frames=5)
    convert_file(src, file_out, fmt)
    read_fd, write_fd = os.pipe()
    received = []

    def drain():
        with open(read_fd, "rb") as fh:
            received.append(fh.read())

    reader = threading.Thread(target=drain)
    reader.start()
    before = threading.active_count()
    try:
        with open(write_fd, "wb", closefd=True):
            assert convert_file(src, f"/dev/fd/{write_fd}", fmt) == 5
            assert threading.active_count() == before
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [file_out.read_bytes()]


@pytest.mark.skipif(sys.platform != "linux", reason="signals the main thread through pthread_kill")
@pytest.mark.parametrize("when", ["in its own span", "while it waits"])
def test_interrupt_of_the_caller_joins_every_span_and_leaves_nothing(tmp_path, monkeypatch, when):
    # The caller is interrupted while it converts its own span, or once it
    # waits for the second span; either way that span stops at its next piece.
    spans_of(monkeypatch, 2)
    monkeypatch.setattr(yuv, "PIECE_SAMPLES", 7)
    fmt = PlaneFormat(WIDTH, HEIGHT, 10)
    src, dst = tmp_path / "src.yuv", tmp_path / "dst.yuv"
    noise_clip(src, 46, fmt, frames=4)
    main = threading.main_thread()
    assert threading.current_thread() is main
    read, caller_done, worker_pieces = yuv.read_pieces, threading.Event(), []

    def joining(thread) -> bool:
        """Whether ``thread`` is inside ``run_spans``' ``join_all``, at any depth."""
        frame = sys._current_frames().get(thread.ident)
        while frame is not None:
            if frame.f_code.co_name == "join_all" and frame.f_code.co_filename == yuv.__file__:
                return True
            frame = frame.f_back
        return False

    def reader(path, path_fmt, frames, buffer):
        if threading.current_thread() is main:
            for index, item in enumerate(read(path, path_fmt, frames, buffer)):
                if when == "in its own span" and index == 100:
                    raise KeyboardInterrupt
                yield item
            caller_done.set()
            return
        if when == "while it waits":
            assert caller_done.wait(timeout=30)
            deadline = time.monotonic() + 30
            while not joining(main):
                if time.monotonic() > deadline:
                    pytest.fail("the caller did not reach run_spans' join_all within 30 s")
                time.sleep(0.001)
            signal.pthread_kill(main.ident, signal.SIGINT)
        for item in read(path, path_fmt, frames, buffer):
            worker_pieces.append(item)
            time.sleep(0.001)
            yield item

    monkeypatch.setattr(yuv, "read_pieces", reader)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        convert_file(src, dst, fmt)
    assert threading.active_count() == before
    # Two frames of 7-sample pieces are 966 pieces: the span stopped early.
    assert len(worker_pieces) < 300
    assert not dst.exists()


def test_every_span_before_the_first_failure_runs_to_its_end(monkeypatch):
    # Eight spans on any number of cores, switching threads often: the error
    # raised is the first span's that failed, and no span before it stopped.
    spans_of(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 10
        for trial in itertools.count():
            if time.monotonic() > deadline or trial == 200:
                break
            rng = np.random.default_rng(trial)
            fail_at = {k: int(rng.integers(20)) for k in range(8) if rng.random() < 0.4}
            finished = [False] * 8

            def work(span, k, stopped):
                for step in range(20):
                    if stopped():
                        return None
                    if fail_at.get(k) == step:
                        raise ValueError(k)
                finished[k] = True
                return k

            before = threading.active_count()
            if fail_at:
                with pytest.raises(ValueError) as info:
                    yuv.run_spans(8, itertools.count().__next__, work)
                assert info.value.args == (min(fail_at),)
                assert all(finished[: min(fail_at)])
            else:
                assert yuv.run_spans(8, itertools.count().__next__, work) == list(range(8))
            assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)
