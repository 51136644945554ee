"""Bit-depth conversion invariants, checked exhaustively where cheap."""

import errno
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hdrbench import bitdepth, yuv
from hdrbench.bitdepth import convert_file, expand_plane
from hdrbench.errors import ValidationError
from hdrbench.yuv import PlaneFormat, SampleRangeError
from tests.conftest import distinct_clip, quantization_noise_report, write_clip

ALL_CODES = np.arange(1024, dtype=np.uint16)
# Reference: the integer formula for every code, looked up by index.
FORMULA_TABLE = ((np.arange(1024, dtype=np.uint32) * 510 + 1023) // 2046).astype(np.uint8)


def reference_tonemap(x: int) -> int:
    """Scalar round-half-up of x * 255 / 1023, via integers only."""
    num = x * 255 * 2 + 1023
    return num // (1023 * 2)


def tonemap(codes: np.ndarray) -> np.ndarray:
    """The shipped 10-to-8 kernel on ``uint16`` codes, into a new array of their shape."""
    out = np.empty(codes.shape, dtype=np.uint8)
    bitdepth._tonemap(codes.reshape(-1), out.reshape(-1), np.empty(codes.size, dtype=np.uint16))
    return out


def expand(codes: np.ndarray) -> np.ndarray:
    """The shipped 8-to-10 kernel on ``uint8`` codes, into a new array of their shape."""
    return expand_plane(codes, np.empty(codes.shape, dtype=np.uint16))


def convert_samples(tmp_path, samples: np.ndarray, fmt: PlaneFormat) -> np.ndarray:
    """Write ``samples`` (whole frames at ``fmt``) to a file, ``convert_file``
    it, and return the converted file's samples."""
    src, dst = tmp_path / "src.yuv", tmp_path / "dst.yuv"
    samples.astype(fmt.dtype).tofile(src)
    convert_file(src, dst, fmt)
    return np.fromfile(dst, dtype=np.uint8 if fmt.bit_depth == 10 else "<u2")


# A 32x32 frame: its luma holds every 10-bit code once.
FMT32 = PlaneFormat(32, 32, 10)
ALL_CODES_FRAME = np.concatenate([ALL_CODES, ALL_CODES[::-4], ALL_CODES[1::4]])


class TestTonemap:
    def test_matches_scalar_reference_on_all_codes(self):
        mapped = tonemap(ALL_CODES)
        expected = np.array([reference_tonemap(int(x)) for x in ALL_CODES])
        assert np.array_equal(mapped, expected)

    def test_endpoints(self):
        mapped = tonemap(np.array([0, 1023], dtype=np.uint16))
        assert mapped.tolist() == [0, 255]

    def test_monotone_nondecreasing(self):
        mapped = tonemap(ALL_CODES).astype(np.int32)
        assert np.all(np.diff(mapped) >= 0)

    def test_surjective_onto_8bit_range(self):
        assert set(tonemap(ALL_CODES).tolist()) == set(range(256))

    def test_output_dtype_uint8(self, tmp_path):
        # One byte a sample in the converted file.
        convert_samples(tmp_path, ALL_CODES_FRAME, FMT32)
        assert (tmp_path / "dst.yuv").stat().st_size == FMT32.frame_samples

    def test_convert_file_matches_the_formula_on_all_codes(self, tmp_path):
        converted = convert_samples(tmp_path, ALL_CODES_FRAME, FMT32)
        assert np.array_equal(converted, FORMULA_TABLE[ALL_CODES_FRAME])

    def test_first_divergence_from_plain_shift(self):
        # x >> 2 would floor; the rounding map first differs at x = 3.
        mapped = tonemap(ALL_CODES)
        shifted = ALL_CODES >> 2
        first = int(np.flatnonzero(mapped != shifted.astype(np.uint8))[0])
        assert first == 3

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.uint16, (4, 5), elements=st.integers(0, 1023)))
    def test_property_matches_reference(self, plane):
        mapped = tonemap(plane)
        for got, x in zip(mapped.ravel(), plane.ravel()):
            assert int(got) == reference_tonemap(int(x))

    def test_plane_larger_than_one_gather_chunk(self):
        plane = np.resize(ALL_CODES, (1080, 1920))
        expected = ((plane.astype(np.int64) * 510 + 1023) // 2046).astype(np.uint8)
        assert np.array_equal(tonemap(plane), expected)

    def test_equals_the_integer_formula_across_a_chunk_boundary(self, tmp_path):
        # A luma plane of two pieces: every code sits on both sides of the
        # piece boundary.
        fmt = PlaneFormat(1024, 512, 10)
        chunk = yuv.PIECE_SAMPLES
        assert fmt.luma_samples > chunk
        head = np.concatenate([np.resize(ALL_CODES, chunk - 512), ALL_CODES[::-1], ALL_CODES])
        samples = np.resize(head, fmt.frame_samples)
        assert np.array_equal(convert_samples(tmp_path, samples, fmt), FORMULA_TABLE[samples])

    def test_out_of_range_sample_raises_instead_of_wrapping(self, tmp_path):
        samples = ALL_CODES_FRAME.copy()
        samples[5] = 2000
        with pytest.raises(SampleRangeError, match=r"sample index 5 has value 2000 > 1023"):
            convert_samples(tmp_path, samples, FMT32)
        samples[-1], samples[0] = 1024, 4000
        with pytest.raises(SampleRangeError, match="sample index 0 has value 4000"):
            convert_samples(tmp_path, samples, FMT32)


class TestExpand:
    def test_exact_times_four(self):
        codes = np.arange(256, dtype=np.uint8)
        expanded = expand(codes)
        assert expanded.dtype == np.uint16
        assert np.array_equal(expanded, codes.astype(np.uint16) * 4)

    def test_round_trip_bound_exhaustive(self):
        back = expand(tonemap(ALL_CODES)).astype(np.int32)
        errors = np.abs(ALL_CODES.astype(np.int32) - back)
        assert int(errors.max()) <= 5

    def test_expanded_values_stay_in_10bit_range(self):
        top = expand(np.array([255], dtype=np.uint8))
        assert int(top[0]) == 1020 <= 1023

    def test_writes_into_out_and_returns_it(self):
        codes = np.arange(256, dtype=np.uint8).reshape(16, 16)
        out = np.zeros((16, 16), dtype=np.uint16)
        assert expand_plane(codes, out=out) is out
        assert np.array_equal(out, codes.astype(np.uint16) * 4)

    def test_top_code_does_not_map_back_to_top(self):
        # 255 expands to 1020, which tone-maps to 254: the asymmetry is real.
        assert int(tonemap(np.array([1020], dtype=np.uint16))[0]) == 254


class TestSequenceConversion:
    def test_tonemap_sequence(self, tmp_path, fmt10):
        src, dst = tmp_path / "clip10.yuv", tmp_path / "clip8.yuv"
        frames = write_clip(src, 11, fmt10)
        assert convert_file(src, dst, fmt10) == 3
        out = tuple(yuv.iter_frames(dst, fmt10.with_bit_depth(8)))
        assert len(out) == 3
        for frame, converted in zip(frames, out):
            for plane, mapped in zip(frame.planes(), converted.planes()):
                assert np.array_equal(mapped, FORMULA_TABLE[plane])

    def test_expand_sequence(self, tmp_path):
        fmt8 = PlaneFormat(16, 16, 8)
        src, dst = tmp_path / "clip8.yuv", tmp_path / "clip10.yuv"
        frames = write_clip(src, 2, fmt8, frames=2)
        assert convert_file(src, dst, fmt8) == 2
        out = tuple(yuv.iter_frames(dst, fmt8.with_bit_depth(10)))
        assert np.array_equal(out[1].v, frames[1].v.astype(np.uint16) * 4)
        assert dst.stat().st_size == 2 * fmt8.with_bit_depth(10).frame_bytes

    def test_tonemap_rejects_8bit_input(self, tmp_path):
        # Three 8-bit frames are not a whole number of 10-bit frames, and
        # the output is never created.
        fmt8 = PlaneFormat(16, 16, 8)
        src, dst = tmp_path / "clip8.yuv", tmp_path / "out.yuv"
        write_clip(src, 2, fmt8)
        with pytest.raises(ValidationError):
            convert_file(src, dst, fmt8.with_bit_depth(10))
        assert not dst.exists()

    def test_output_onto_input_is_refused(self, tmp_path, fmt10):
        src = tmp_path / "clip.yuv"
        write_clip(src, 11, fmt10)
        before = src.read_bytes()
        alias = tmp_path / "alias.yuv"
        alias.symlink_to(src)
        for dst in (src, alias):
            with pytest.raises(ValidationError, match="is the input"):
                convert_file(src, dst, fmt10)
            assert src.read_bytes() == before


def per_frame_reference(src, fmt: PlaneFormat) -> bytes:
    """The converted file built per frame and per plane from fresh arrays,
    so that it shares no buffer with convert_file."""
    if fmt.bit_depth == 10:
        op, out_fmt = (lambda plane: FORMULA_TABLE[plane]), fmt.with_bit_depth(8)
    else:
        op, out_fmt = (lambda plane: np.left_shift(plane, 2, dtype=np.uint16)), fmt.with_bit_depth(10)
    planes = [op(p) for f in yuv.iter_frames(src, fmt) for p in f.planes()]
    return b"".join(p.astype(out_fmt.dtype).tobytes() for p in planes)


class TestStreamedConversion:
    @pytest.mark.parametrize("depth", [10, 8])
    def test_equals_a_per_frame_reference(self, tmp_path, depth):
        fmt = PlaneFormat(32, 16, depth)
        src, dst = tmp_path / "src.yuv", tmp_path / "dst.yuv"
        distinct_clip(src, fmt, frames=5)
        assert convert_file(src, dst, fmt) == 5
        assert dst.read_bytes() == per_frame_reference(src, fmt)

    def test_rewrites_an_existing_output(self, tmp_path):
        fmt = PlaneFormat(32, 16, 10)
        src, dst = tmp_path / "src.yuv", tmp_path / "dst.yuv"
        distinct_clip(src, fmt, frames=2)
        dst.write_bytes(b"x" * (10 * fmt.frame_bytes))
        convert_file(src, dst, fmt)
        assert dst.read_bytes() == per_frame_reference(src, fmt)

    def test_an_existing_output_is_replaced_by_a_new_file(self, tmp_path):
        # A hard link to the old output keeps its bytes: it was not truncated.
        fmt = PlaneFormat(32, 16, 10)
        src, dst, old = tmp_path / "src.yuv", tmp_path / "dst.yuv", tmp_path / "old.yuv"
        distinct_clip(src, fmt, frames=2)
        dst.write_bytes(b"an older clip")
        os.link(dst, old)
        convert_file(src, dst, fmt)
        assert old.read_bytes() == b"an older clip"
        assert dst.read_bytes() == per_frame_reference(src, fmt)
        assert dst.stat().st_ino != old.stat().st_ino

    def test_an_output_that_cannot_be_unlinked_is_truncated_in_place(self, tmp_path, monkeypatch):
        def forbidden(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", str(path))

        fmt = PlaneFormat(32, 16, 10)
        src, dst = tmp_path / "src.yuv", tmp_path / "dst.yuv"
        distinct_clip(src, fmt, frames=2)
        dst.write_bytes(b"x" * (10 * fmt.frame_bytes))
        inode = dst.stat().st_ino
        monkeypatch.setattr(os, "unlink", forbidden)
        convert_file(src, dst, fmt)
        monkeypatch.undo()
        assert dst.read_bytes() == per_frame_reference(src, fmt)
        assert dst.stat().st_ino == inode

    def test_writes_through_a_symlinked_output(self, tmp_path):
        fmt = PlaneFormat(32, 16, 10)
        src, target, link = tmp_path / "src.yuv", tmp_path / "target.yuv", tmp_path / "link.yuv"
        distinct_clip(src, fmt, frames=2)
        target.write_bytes(b"an older clip")
        link.symlink_to(target)
        convert_file(src, link, fmt)
        assert link.is_symlink()
        assert target.read_bytes() == per_frame_reference(src, fmt)

    def test_write_error_on_the_buffered_tail_leaves_nothing_at_dst(self, tmp_path, monkeypatch):
        # No writer buffers the output any more: every positional write of a
        # piece hits a full disk.
        def full_disk(fd, data, offset):
            raise OSError(errno.ENOSPC, "No space left on device")

        fmt = PlaneFormat(8, 8, 8)
        src, dst = tmp_path / "src.yuv", tmp_path / "dst.yuv"
        distinct_clip(src, fmt, frames=3)
        monkeypatch.setattr(bitdepth.os, "pwrite", full_disk)
        with pytest.raises(OSError, match="No space left"):
            convert_file(src, dst, fmt)
        assert not dst.exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_conversion_leaves_nothing_at_dst(self, tmp_path, existing):
        # Frames 1 and 2 convert; a sample of frame 3 is out of range.
        fmt = PlaneFormat(8, 8, 10)
        words = np.zeros(3 * fmt.frame_samples, dtype="<u2")
        words[2 * fmt.frame_samples + 5] = 1024
        src, dst = tmp_path / "src.yuv", tmp_path / "dst.yuv"
        words.tofile(src)
        if existing:
            dst.write_bytes(b"an older clip")
        with pytest.raises(SampleRangeError):
            convert_file(src, dst, fmt)
        assert not dst.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["src.yuv"]


class TestNoiseReport:
    def test_golden_values(self):
        report = quantization_noise_report()
        assert report.mse_ideal_inverse == pytest.approx(58311 / 43520, abs=1e-12)
        assert report.mse_shift_inverse == 533 / 128
        assert report.max_abs_error_shift == 4

    def test_shift_inverse_never_beats_ideal(self):
        report = quantization_noise_report()
        assert report.mse_shift_inverse >= report.mse_ideal_inverse
