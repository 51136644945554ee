"""The deterministic stand-in codec used by pipeline and CLI tests."""

import numpy as np
import pytest

from hdrbench import mockcodec, yuv
from hdrbench.metrics import psnr_plane
from hdrbench.mockcodec import MockCodecError, bits_for_qp, decode, encode
from hdrbench.yuv import PlaneFormat
from tests.conftest import write_clip

QP_LADDER = (12, 17, 22, 27, 32, 37)


class TestBitsForQp:
    def test_ladder_is_strictly_narrowing_10bit(self):
        widths = [bits_for_qp(qp, 10) for qp in QP_LADDER]
        assert widths == [9, 8, 7, 6, 5, 4]

    def test_ladder_is_strictly_narrowing_8bit(self):
        widths = [bits_for_qp(qp, 8) for qp in QP_LADDER]
        assert widths == [7, 6, 5, 4, 3, 2]

    def test_low_qp_is_lossless_width(self):
        assert bits_for_qp(0, 10) == 10
        assert bits_for_qp(9, 10) == 10

    def test_clamped_to_at_least_one_bit(self):
        assert bits_for_qp(99, 8) == 1
        assert bits_for_qp(99, 10) == 1


@pytest.fixture
def clip(tmp_path, fmt10):
    path = tmp_path / "clip.yuv"
    return path, write_clip(path, 21, fmt10, frames=2)


class TestEncodeDecode:
    def test_lossless_at_full_width(self, tmp_path, clip, fmt10):
        path, frames = clip
        stream = tmp_path / "s.bin"
        out = tmp_path / "out.yuv"
        encode(path, stream, fmt10, qp=5)
        decode(stream, out)
        assert tuple(yuv.iter_frames(out, fmt10)) == frames

    def test_identity_mode_is_bit_exact(self, tmp_path, clip, fmt10):
        path, _ = clip
        stream = tmp_path / "s.bin"
        out = tmp_path / "out.yuv"
        encode(path, stream, fmt10, qp=37, identity=True)
        decode(stream, out)
        assert out.read_bytes() == path.read_bytes()

    def test_stream_size_decreases_with_qp(self, tmp_path, clip, fmt10):
        path, _ = clip
        sizes = []
        for qp in QP_LADDER:
            stream = tmp_path / f"s{qp}.bin"
            sizes.append(encode(path, stream, fmt10, qp=qp))
            assert stream.stat().st_size == sizes[-1]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_distortion_increases_with_qp(self, tmp_path, clip, fmt10):
        path, frames = clip
        psnrs = []
        for qp in QP_LADDER:
            stream = tmp_path / f"s{qp}.bin"
            out = tmp_path / f"o{qp}.yuv"
            encode(path, stream, fmt10, qp=qp)
            decode(stream, out)
            back = next(yuv.iter_frames(out, fmt10))
            psnrs.append(psnr_plane(frames[0].y, back.y, 10))
        assert all(a > b for a, b in zip(psnrs, psnrs[1:]))

    def test_deterministic_output(self, tmp_path, clip, fmt10):
        path, _ = clip
        s1, s2 = tmp_path / "s1.bin", tmp_path / "s2.bin"
        encode(path, s1, fmt10, qp=27)
        encode(path, s2, fmt10, qp=27)
        assert s1.read_bytes() == s2.read_bytes()

    def test_eight_bit_round_trip(self, tmp_path):
        fmt8 = PlaneFormat(32, 32, 8)
        path = tmp_path / "clip8.yuv"
        write_clip(path, 3, fmt8, frames=2)
        stream = tmp_path / "s.bin"
        out = tmp_path / "out.yuv"
        encode(path, stream, fmt8, qp=22)
        produced = decode(stream, out)
        assert produced == fmt8
        assert out.stat().st_size == 2 * fmt8.frame_bytes

    def test_decode_expands_8_to_10(self, tmp_path):
        fmt8 = PlaneFormat(32, 32, 8)
        path = tmp_path / "clip8.yuv"
        write_clip(path, 3, fmt8, frames=1)
        stream = tmp_path / "s.bin"
        out8 = tmp_path / "out8.yuv"
        out10 = tmp_path / "out10.yuv"
        encode(path, stream, fmt8, qp=5)
        decode(stream, out8)
        produced = decode(stream, out10, output_depth=10)
        assert produced.bit_depth == 10
        narrow = np.fromfile(out8, dtype=np.uint8).astype(np.uint16)
        wide = np.fromfile(out10, dtype="<u2")
        assert np.array_equal(wide, narrow << 2)

    def test_decode_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a stream at all")
        with pytest.raises(MockCodecError):
            decode(bad, tmp_path / "out.yuv")

    def test_decode_rejects_downscale(self, tmp_path, clip, fmt10):
        path, _ = clip
        stream = tmp_path / "s.bin"
        encode(path, stream, fmt10, qp=22)
        with pytest.raises(MockCodecError):
            decode(stream, tmp_path / "out.yuv", output_depth=8)


class TestCommandLine:
    def test_encode_decode_via_main(self, tmp_path, clip, fmt10):
        path, frames = clip
        stream = tmp_path / "s.bin"
        out = tmp_path / "o.yuv"
        rc = mockcodec.main(
            [
                "encode", "--input", str(path), "--output", str(stream),
                "--width", "64", "--height", "64", "--bit-depth", "10", "--qp", "5",
            ]
        )
        assert rc == 0
        rc = mockcodec.main(["decode", "--input", str(stream), "--output", str(out)])
        assert rc == 0
        assert tuple(yuv.iter_frames(out, fmt10)) == frames

    def test_no_simd_flag_changes_nothing(self, tmp_path, clip):
        path, _ = clip
        plain = tmp_path / "plain.bin"
        nosimd = tmp_path / "nosimd.bin"
        base = [
            "encode", "--input", str(path), "--width", "64", "--height", "64",
            "--bit-depth", "10", "--qp", "27",
        ]
        assert mockcodec.main(base + ["--output", str(plain)]) == 0
        assert mockcodec.main(base + ["--output", str(nosimd), "--no-simd"]) == 0
        assert plain.read_bytes() == nosimd.read_bytes()

    def test_bad_input_exits_one(self, tmp_path):
        rc = mockcodec.main(
            [
                "encode", "--input", str(tmp_path / "missing.yuv"),
                "--output", str(tmp_path / "s.bin"),
                "--width", "64", "--height", "64", "--bit-depth", "10", "--qp", "22",
            ]
        )
        assert rc == 1
