"""The deterministic stand-in codec used by pipeline and CLI tests."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdrbench import mockcodec, yuv
from hdrbench.metrics import psnr_plane
from hdrbench.mockcodec import MockCodecError, bits_for_qp, decode, encode
from hdrbench.yuv import PlaneFormat
from tests.conftest import frame_bytes, write_clip

QP_LADDER = (12, 17, 22, 27, 32, 37)


def reference_pack(indices: np.ndarray, bits: int) -> bytes:
    """The bit-matrix packer: one row of ``bits`` bits per index, MSB first."""
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint16)
    bit_matrix = ((indices.astype(np.uint16)[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bit_matrix.reshape(-1)).tobytes()


def reference_unpack(payload: bytes, count: int, bits: int) -> np.ndarray:
    unpacked = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=count * bits)
    weights = 1 << np.arange(bits - 1, -1, -1, dtype=np.uint32)
    return unpacked.reshape(count, bits).astype(np.uint32) @ weights


@st.composite
def index_arrays(draw):
    bits = draw(st.integers(1, 10))
    count = draw(st.integers(1, 64))
    values = draw(st.lists(st.integers(0, (1 << bits) - 1), min_size=count, max_size=count))
    return np.array(values, dtype=np.uint16), bits


class TestPacking:
    @settings(max_examples=300, deadline=None)
    @given(index_arrays())
    def test_matches_bit_matrix_reference(self, case):
        # Packed as encode packs the last group: zero-padded to eight indices
        # and cut to ceil(n * bits / 8) bytes; unpacked as decode unpacks it.
        indices, bits = case
        count, groups = indices.size, -(-indices.size // 8)
        size = -(-count * bits // 8)
        padded = np.zeros((groups, 8), dtype=np.uint16)
        padded.reshape(-1)[:count] = indices
        expected = reference_pack(indices, bits)
        assert len(expected) == size
        assert mockcodec._Groups(bits, groups).pack(padded)[:size].tobytes() == expected
        codec = mockcodec._Groups(bits, groups)
        codec.bytes[:size] = np.frombuffer(expected, dtype=np.uint8)
        out = np.empty((groups, 8), dtype=np.uint16)
        codec.unpack(groups, out)
        assert np.array_equal(out.reshape(-1)[:count], indices)
        assert np.array_equal(reference_unpack(expected, count, bits), indices)


# sha256 of (bitstream, reconstruction) for a seeded clip of uniformly random
# samples at 18x10, 270 samples a frame: 3 frames fill no whole last group of
# eight indices. Taken from the bit-matrix packer; a change of any byte of
# the format shows here.
PINNED_DIGESTS = {
    (10, 5): ("9cb2765ba77829ed871afb7b85358077e22111d15258c91448dd024f49fd4e13",
              "680afc59745e9d8a4b866295b1aae6a6e868fd8f6e910d12914b2fb4975b67d2"),
    (10, 12): ("92ae920f938b0c8e122db008bd4a1b5c87df7021b55785152130a762509fd1e1",
               "54b75c8e09a92620472e5d8f99d9a40147a1a39f6c95aaec90e1c159a81fd770"),
    (10, 17): ("8ef0d018a27d4bad76160040a51948d75d548ff14048682757db5459a8882b27",
               "72af9171a347146dbfadcaa3bef276c2f581f9a85030b2ae93557013a1de75b1"),
    (10, 22): ("1632f604e3a55b76efe15dc78135a9491ae0eeec83a6b855e3f9347c6e835e50",
               "f577b5ab2942dc279fe2f5a584de06386588a49bd70a4c92e40fda4d89d0fe08"),
    (10, 32): ("19d9bba94a5a3b665e3b417671cf556b382dca871a37756124e4ccfa3755f3ba",
               "d8baf3e65bed10b0e49bbd455817d3b3849de152ec5a7d29c040ec8fa3da305a"),
    (10, 51): ("d2e3a3dc4a7922e92edcfee2e382397e7baadd623608bc69c7cd904c8dd7f2aa",
               "ce7783f610015d8256d45723f19a55926a04958ca00802c4fc2d73e3a2c4801b"),
    (8, 5): ("0d126a42d41ae6c68d0b3395f5c614bb09aae38c7d1e77eaaeac974d0d2668d9",
             "bdceabba80a89270e55f590c83849e00db73005170e1a0a32adf98b641fef704"),
    (8, 12): ("2a56eeb71fc21aa894cf11f832f57f1ec8ac12d96816f49bb8bac3b74f88a8ee",
              "6e90378243c0256df1188b0951fed39df3f14b4d013e2767c677c2edf5e26531"),
    (8, 17): ("09af43f4d04a5697976c33a0fc8aded975b83d4895975b36981034cb95acd808",
              "57bed7f32cb1ce0dbf3c684abefc6e4b40cb90e14bb870587b56e5bdaa236319"),
    (8, 22): ("51503cecb3d96744ae6f94d0dbadb573c5180769405591d7995f60fa20e546d5",
              "9ba045a81eedf329f14e51c7464d90873714b7242af7ae55c14036a2fdcb5fc0"),
    (8, 32): ("76690825556d1d877bcd0b5a137cb0e383a196acfc5be69e1671f0f985708da9",
              "21316521a2654602ebab2409472b0179f75a25b8668e9c5dcd2eb932546fad95"),
    (8, 51): ("180c923615489974558151bb4f3da8ab9456e77b0f2ba6ab74a986dc32937410",
              "89dacb85266a843e8d74bb1466d3bd0f201daa0104e724015a6b8bc38c87881f"),
}


@pytest.mark.parametrize("depth,qp", sorted(PINNED_DIGESTS))
def test_bitstream_and_reconstruction_bytes_are_pinned(tmp_path, depth, qp):
    fmt = PlaneFormat(18, 10, depth)
    clip, stream, recon = tmp_path / "clip.yuv", tmp_path / "s.bin", tmp_path / "r.yuv"
    rng = np.random.default_rng(5)
    rng.integers(0, fmt.max_value + 1, size=3 * fmt.frame_samples).astype(fmt.dtype).tofile(clip)
    encode(clip, stream, fmt, qp)
    decode(stream, recon)
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (stream, recon))
    assert digests == PINNED_DIGESTS[depth, qp]


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
        assert frame_bytes(yuv.iter_frames(out, fmt10)) == frame_bytes(frames)

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

    @pytest.mark.parametrize(
        "change", [-100, -1, 1, 7], ids=["cut100-packed", "cut1-packed", "extra1-packed", "extra7-packed"]
    )
    def test_decode_rejects_payload_of_wrong_length(self, tmp_path, change):
        fmt = PlaneFormat(16, 16, 10)
        path, stream = tmp_path / "clip.yuv", tmp_path / "s.bin"
        write_clip(path, 4, fmt, frames=1)
        encode(path, stream, fmt, qp=22)
        blob = stream.read_bytes()
        stream.write_bytes(blob[:change] if change < 0 else blob + b"\x00" * change)
        with pytest.raises(MockCodecError, match="payload"):
            decode(stream, tmp_path / "out.yuv")
        assert not (tmp_path / "out.yuv").exists()

    @pytest.mark.parametrize("bits", [0, 11])
    def test_decode_rejects_index_width_outside_depth(self, tmp_path, bits):
        stream = tmp_path / "s.bin"
        header = mockcodec._HEADER.pack(mockcodec.MAGIC, mockcodec.MODE_PACKED, 2, 2, 10, 22, bits, 1)
        stream.write_bytes(header + bytes(8))
        with pytest.raises(MockCodecError, match="indices"):
            decode(stream, tmp_path / "out.yuv")

    def test_decode_refuses_a_header_of_another_mode(self, tmp_path):
        # A stream of any other mode is refused, even one whose payload is
        # exactly the bytes of its one 2x2 10-bit frame.
        stream, out = tmp_path / "s.bin", tmp_path / "out.yuv"
        header = mockcodec._HEADER.pack(mockcodec.MAGIC, 1, 2, 2, 10, 37, 0, 1)
        stream.write_bytes(header + bytes(12))
        with pytest.raises(MockCodecError, match="unknown mode 1"):
            decode(stream, out)
        assert not out.exists()

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
        assert frame_bytes(yuv.iter_frames(out, fmt10)) == frame_bytes(frames)

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

    @pytest.mark.parametrize("qp", [-129, 128, 200])
    def test_qp_outside_header_byte_exits_one(self, tmp_path, clip, capsys, qp):
        path, _ = clip
        stream = tmp_path / "s.bin"
        rc = mockcodec.main(
            [
                "encode", "--input", str(path), "--output", str(stream),
                "--width", "64", "--height", "64", "--bit-depth", "10", "--qp", str(qp),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"mockcodec: qp {qp} ")
        assert not stream.exists()

    def test_failed_encode_leaves_no_file(self, tmp_path, capsys):
        # The out-of-range sample sits in the last frame, so the packed
        # indices of the first two are written before the reader meets it.
        fmt = PlaneFormat(64, 64, 10)
        path, stream = tmp_path / "clip.yuv", tmp_path / "s.bin"
        write_clip(path, 21, fmt, frames=3)
        samples = np.fromfile(path, dtype=fmt.dtype)
        index = 2 * fmt.frame_samples + 100
        samples[index] = 1024
        samples.tofile(path)
        rc = mockcodec.main(
            [
                "encode", "--input", str(path), "--output", str(stream),
                "--width", "64", "--height", "64", "--bit-depth", "10", "--qp", "22",
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            f"mockcodec: {path}: sample index {index} has value 1024 > 1023 for declared 10-bit depth\n"
        )
        assert not stream.exists()

    @pytest.mark.parametrize("flag", [["--identity"], ["--fps", "50"]], ids=["identity", "fps"])
    def test_retired_encode_flags_are_usage_errors(self, tmp_path, clip, capsys, flag):
        path, _ = clip
        argv = [
            "encode", "--input", str(path), "--output", str(tmp_path / "s.bin"),
            "--width", "64", "--height", "64", "--bit-depth", "10", "--qp", "22", *flag,
        ]
        with pytest.raises(SystemExit) as exc:
            mockcodec.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "s.bin").exists()

    @pytest.mark.parametrize("command", ["encode", "decode"])
    def test_output_onto_input_is_refused_and_the_input_kept(self, tmp_path, clip, capsys, command):
        path, _ = clip
        if command == "encode":
            options = ["--width", "64", "--height", "64", "--bit-depth", "10", "--qp", "22"]
        else:
            options = []
            encode(path, tmp_path / "s.bin", PlaneFormat(64, 64, 10), qp=22)
            path = tmp_path / "s.bin"
        before = path.read_bytes()
        alias = tmp_path / "alias"
        alias.symlink_to(path)
        for output in (path, alias):
            rc = mockcodec.main([command, "--input", str(path), "--output", str(output), *options])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("mockcodec: output ") and f"is the input {path}" in err
            assert path.read_bytes() == before

    def test_bad_input_exits_one(self, tmp_path):
        rc = mockcodec.main(
            [
                "encode", "--input", str(tmp_path / "missing.yuv"),
                "--output", str(tmp_path / "s.bin"),
                "--width", "64", "--height", "64", "--bit-depth", "10", "--qp", "22",
            ]
        )
        assert rc == 1


def without_openblas_setting() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}


class TestLeanStart:
    def test_codec_child_skips_unused_modules(self):
        # concurrent.futures alone costs a codec child milliseconds of start-up.
        unused = (
            "hdrbench.curves", "hdrbench.metrics", "hdrbench.pipeline", "hdrbench.akima", "hdrbench.bitdepth",
            "concurrent.futures",
        )
        code = f"import hdrbench.mockcodec, sys; print([m for m in {unused!r} if m in sys.modules])"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("inherited,seen", [(None, "1"), ("4", "4")], ids=["unset", "caller's"])
    def test_codec_run_as_main_starts_numpy_with_one_openblas_thread(self, tmp_path, inherited, seen):
        # A sitecustomize hook prints the codec process's setting as it exits.
        (tmp_path / "sitecustomize.py").write_text(
            "import atexit, os, sys\n"
            "atexit.register(lambda: print('threads', os.environ.get('OPENBLAS_NUM_THREADS'), file=sys.stderr))\n"
        )
        env = without_openblas_setting()
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PYTHONPATH")]))
        if inherited is not None:
            env["OPENBLAS_NUM_THREADS"] = inherited
        done = subprocess.run(
            [sys.executable, "-m", "hdrbench.mockcodec", "--help"], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr.splitlines()[-1] == f"threads {seen}"

    def test_importing_the_codec_leaves_the_environment_alone(self):
        code = "import os, hdrbench.mockcodec; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        done = subprocess.run(
            [sys.executable, "-c", code], env=without_openblas_setting(), capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "None"

    def test_importing_the_package_imports_none_of_its_modules(self):
        code = (
            "import hdrbench, sys; "
            "print([m for m in sys.modules if m.startswith('hdrbench.')], hdrbench.__version__)"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[] 0.1.0"
