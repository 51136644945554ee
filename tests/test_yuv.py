"""Raw planar 4:2:0 format and reader behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdrbench import yuv
from hdrbench.yuv import FileSizeError, PlaneFormat, SampleRangeError, YuvFormatError
from tests.conftest import distinct_clip, frame_bytes, write_clip


class TestPlaneFormat:
    def test_properties_10bit(self):
        fmt = PlaneFormat(64, 48, 10)
        assert fmt.max_value == 1023
        assert fmt.dtype.itemsize == 2
        assert fmt.dtype == np.dtype("<u2")
        assert fmt.chroma_width == 32 and fmt.chroma_height == 24
        assert fmt.frame_samples == 64 * 48 * 3 // 2
        assert fmt.frame_bytes == fmt.frame_samples * 2

    def test_properties_8bit(self):
        fmt = PlaneFormat(64, 48, 8)
        assert fmt.max_value == 255
        assert fmt.dtype.itemsize == 1
        assert fmt.dtype == np.dtype(np.uint8)
        assert fmt.frame_bytes == 64 * 48 * 3 // 2

    @pytest.mark.parametrize("width,height", [(63, 64), (64, 63), (0, 64), (64, 0)])
    def test_rejects_bad_dimensions(self, width, height):
        with pytest.raises(YuvFormatError):
            PlaneFormat(width, height, 10)

    @pytest.mark.parametrize("depth", [7, 9, 12, 16])
    def test_rejects_unsupported_depth(self, depth):
        with pytest.raises(YuvFormatError):
            PlaneFormat(64, 64, depth)

    def test_with_bit_depth(self):
        fmt = PlaneFormat(64, 64, 10)
        assert fmt.with_bit_depth(8) == PlaneFormat(64, 64, 8)
        assert fmt.with_bit_depth(10) is not None


class TestFrame:
    def test_planes_are_read_only(self, tmp_path, fmt10):
        path = tmp_path / "clip.yuv"
        write_clip(path, 0, fmt10, frames=1)
        (frame,) = yuv.iter_frames(path, fmt10)
        with pytest.raises(ValueError):
            frame.y[0, 0] = 1


class TestFileRoundTrip:
    @pytest.mark.parametrize("depth", [8, 10])
    def test_write_read_round_trip(self, tmp_path, depth):
        fmt = PlaneFormat(32, 16, depth)
        path = tmp_path / "clip.yuv"
        frames = write_clip(path, 7, fmt, frames=4)
        assert path.stat().st_size == 4 * fmt.frame_bytes
        assert frame_bytes(yuv.iter_frames(path, fmt)) == frame_bytes(frames)

    def test_ten_bit_samples_are_little_endian_words(self, tmp_path):
        fmt = PlaneFormat(2, 2, 10)
        path = tmp_path / "one.yuv"
        # 513 = 0x0201 little endian, in both chroma planes
        path.write_bytes(b"\x01\x00\x02\x00\x03\x00\xff\x03" + 2 * b"\x01\x02")
        (frame,) = yuv.iter_frames(path, fmt)
        assert frame.y.tolist() == [[1, 2], [3, 1023]]
        assert frame.u.tolist() == frame.v.tolist() == [[513]]

    def test_frame_count(self, tmp_path, fmt10):
        path = tmp_path / "clip.yuv"
        write_clip(path, 5, fmt10, frames=3)
        assert yuv.frame_count(path, fmt10) == 3

    def test_truncated_file_raises(self, tmp_path, fmt10):
        path = tmp_path / "clip.yuv"
        write_clip(path, 5, fmt10, frames=2)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FileSizeError):
            yuv.frame_count(path, fmt10)

    def test_out_of_range_file_sample_reports_index(self, tmp_path):
        fmt = PlaneFormat(2, 2, 10)
        words = np.zeros(2 * fmt.frame_samples, dtype="<u2")
        words[fmt.frame_samples + 3] = 1024  # first word of frame 2's chroma
        path = tmp_path / "bad.yuv"
        path.write_bytes(words.tobytes())
        with pytest.raises(SampleRangeError) as err:
            list(yuv.iter_frames(path, fmt))
        assert str(fmt.frame_samples + 3) in str(err.value)

    @pytest.mark.parametrize("depth", [8, 10])
    def test_streamed_planes_are_read_only(self, tmp_path, depth):
        fmt = PlaneFormat(16, 16, depth)
        path = tmp_path / "clip.yuv"
        write_clip(path, 2, fmt, frames=2)
        for frame in yuv.iter_frames(path, fmt):
            for plane in frame.planes():
                assert plane.dtype == fmt.dtype
                with pytest.raises(ValueError):
                    plane[0, 0] = 0

    def test_iter_frames_matches_bulk_read(self, tmp_path, fmt10):
        # One frame at a time from the stream equals one bulk read of the file.
        path = tmp_path / "clip.yuv"
        write_clip(path, 9, fmt10, frames=5)
        bulk = np.fromfile(path, dtype=fmt10.dtype).reshape(5, fmt10.frame_samples)
        streamed = tuple(yuv.iter_frames(path, fmt10))
        assert len(streamed) == 5
        for raw, frame in zip(bulk, streamed):
            assert np.array_equal(np.concatenate([p.ravel() for p in frame.planes()]), raw)


class TestStreamingReader:
    @pytest.mark.parametrize("depth", [8, 10])
    def test_iter_frames_frames_stay_distinct(self, tmp_path, depth):
        fmt = PlaneFormat(16, 8, depth)
        path = tmp_path / "clip.yuv"
        clip, _ = distinct_clip(path, fmt)
        frames = tuple(yuv.iter_frames(path, fmt))
        assert frame_bytes(frames) == frame_bytes(clip)
        assert len({frame.y.tobytes() + frame.v.tobytes() for frame in frames}) == len(clip)

    @pytest.mark.parametrize("depth", [8, 10])
    def test_read_pieces_reads_every_piece_into_one_read_only_buffer(self, tmp_path, monkeypatch, depth):
        # 40-sample pieces split the 128-sample luma plane into 40, 40, 40, 8
        # and leave each 32-sample chroma plane whole.
        monkeypatch.setattr(yuv, "PIECE_SAMPLES", 40)
        fmt = PlaneFormat(16, 8, depth)
        path = tmp_path / "clip.yuv"
        _, raws = distinct_clip(path, fmt)
        layout = [(0, 0), (0, 40), (0, 80), (0, 120), (1, 128), (2, 160)]
        seen = []
        for (plane, start, piece), (want_plane, want_start) in zip(
            yuv.read_pieces(path, fmt), layout * len(raws), strict=True
        ):
            index, stop = len(seen) // len(layout), start + piece.size
            assert (plane, start) == (want_plane, want_start)
            assert piece.dtype == fmt.dtype and piece.size <= 40
            assert np.array_equal(piece, raws[index][start:stop])
            with pytest.raises(ValueError):
                piece[0] = 0
            seen.append(piece)
        # The buffer is reused: every yielded array now holds the last piece.
        assert all(np.shares_memory(seen[0], piece) for piece in seen)
        assert np.array_equal(seen[0][:32], raws[-1][160:])

    def test_planes_split_a_flat_frame_in_file_order(self, tmp_path, fmt10):
        path = tmp_path / "clip.yuv"
        clip, raws = distinct_clip(path, fmt10, frames=2)
        for frame, raw in zip(clip, raws):
            planes = fmt10.planes(raw)
            assert all(np.array_equal(a, b) for a, b in zip(planes, frame.planes()))
            assert all(np.shares_memory(plane, raw) for plane in planes)

    def test_file_cut_short_while_read_raises(self, tmp_path, fmt10):
        path = tmp_path / "clip.yuv"
        distinct_clip(path, fmt10, frames=3)
        pieces = yuv.read_pieces(path, fmt10)
        for _, start, piece in pieces:
            if start + piece.size == fmt10.frame_samples:
                break
        with open(path, "r+b") as fh:
            fh.truncate(fmt10.frame_bytes + 10)
        with pytest.raises(FileSizeError, match="ended inside frame 1"):
            next(pieces)


@settings(max_examples=25, deadline=None)
@given(
    depth=st.sampled_from([8, 10]),
    frames=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_round_trip_is_byte_exact(tmp_path_factory, depth, frames, seed):
    fmt = PlaneFormat(8, 4, depth)
    rng = np.random.default_rng(seed)
    samples = rng.integers(0, fmt.max_value + 1, frames * fmt.frame_samples).astype(fmt.dtype)
    path = tmp_path_factory.mktemp("rt") / "clip.yuv"
    path.write_bytes(samples.tobytes())
    assert path.stat().st_size == frames * fmt.frame_bytes
    assert b"".join(frame_bytes(yuv.iter_frames(path, fmt))) == samples.tobytes()
