"""PSNR computation and the weighted YUV combination."""

import math
import stat
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hdrbench.errors import ValidationError
from hdrbench.metrics import (
    INFINITE_PSNR,
    ExternalMetricError,
    PlaneMismatchError,
    QualityRecord,
    _sse_10bit,
    aggregate_frame_psnrs,
    external_metric,
    mse_plane,
    psnr_plane,
    psnr_yuv,
    score_files,
)
from hdrbench.yuv import Frame, PlaneFormat
from tests.conftest import distinct_clip, save_frames, write_clip


class TestMse:
    def test_known_value(self):
        ref = np.array([[0, 0], [0, 0]], dtype=np.uint16)
        test = np.array([[2, 0], [0, 0]], dtype=np.uint16)
        assert mse_plane(ref, test) == 1.0

    def test_zero_for_identical(self):
        plane = np.arange(16, dtype=np.uint16).reshape(4, 4)
        assert mse_plane(plane, plane) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(PlaneMismatchError):
            mse_plane(np.zeros((2, 2), np.uint8), np.zeros((2, 4), np.uint8))

    def test_dtype_mismatch(self):
        with pytest.raises(PlaneMismatchError):
            mse_plane(np.zeros((2, 2), np.uint8), np.zeros((2, 2), np.uint16))

    def test_empty_planes(self):
        with pytest.raises(PlaneMismatchError, match="^cannot score an empty plane$"):
            mse_plane(np.zeros((0, 4), np.uint16), np.zeros((0, 4), np.uint16))

    def test_no_unsigned_wraparound(self):
        ref = np.array([[0]], dtype=np.uint16)
        test = np.array([[1023]], dtype=np.uint16)
        assert mse_plane(ref, test) == 1023.0**2

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dtype=st.sampled_from([np.uint8, np.uint16, np.int16]))
    def test_sse_is_exact(self, data, dtype):
        # mse * n is not exact in floats (1 / 49 * 49 != 1), so compare the
        # MSE with the correctly rounded quotient of the exact Python-int SSE.
        shape = data.draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=40))
        ref = data.draw(hnp.arrays(dtype, shape))
        test = data.draw(hnp.arrays(dtype, shape))
        sse = sum((int(a) - int(b)) ** 2 for a, b in zip(ref.ravel(), test.ravel()))
        assert mse_plane(ref, test) == sse / ref.size

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int16])
    def test_extremes_are_exact(self, dtype):
        # The widest difference of each dtype (65535 for uint16 and int16)
        # on a plane of 3 rows of 1024 and a tail, with both signs.
        low, high = np.iinfo(dtype).min, np.iinfo(dtype).max
        ref = np.resize(np.array([low, high], dtype=dtype), (3, 1031))
        test = np.resize(np.array([high, low], dtype=dtype), (3, 1031))
        assert mse_plane(ref, test) == (int(high) - int(low)) ** 2
        assert mse_plane(ref, ref) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_ten_bit_piece_kernel_is_exact(self, data):
        # Sizes cross 1024-sample rows and leave a tail; 0 and 1023 are drawn
        # often, so rows near the largest sum of squares occur.
        n = data.draw(st.integers(1, 3 * 1024 + 7))
        codes = st.one_of(st.sampled_from([0, 1023]), st.integers(0, 1023))
        ref = data.draw(hnp.arrays(np.uint16, n, elements=codes))
        test = data.draw(hnp.arrays(np.uint16, n, elements=codes))
        diff, square = np.empty(n + 5, np.int16), np.empty(n + 5, np.int32)
        sse = int(((ref.astype(np.int64) - test.astype(np.int64)) ** 2).sum())
        assert _sse_10bit(ref, test, diff, square) == sse
        assert mse_plane(ref, test) == sse / n

    def test_worst_case_full_hd_plane_needs_a_64_bit_sum(self):
        # SSE = 1023**2 * 1920 * 1080 ~ 2.17e12 overflows any int32 accumulator.
        ref = np.zeros((1080, 1920), dtype=np.uint16)
        test = np.full((1080, 1920), 1023, dtype=np.uint16)
        assert mse_plane(ref, test) == 1023**2
        assert psnr_plane(ref, test, 10) == 0.0
        diff, square = np.empty(ref.size, np.int16), np.empty(ref.size, np.int32)
        assert _sse_10bit(ref.ravel(), test.ravel(), diff, square) == 1023**2 * ref.size

    def test_rejects_samples_wider_than_16_bits(self):
        with pytest.raises(PlaneMismatchError):
            mse_plane(np.zeros((2, 2), np.uint32), np.zeros((2, 2), np.uint32))
        with pytest.raises(PlaneMismatchError):
            mse_plane(np.zeros((2, 2)), np.zeros((2, 2)))


class TestPsnr:
    def test_identical_planes_are_infinite(self):
        plane = np.arange(64, dtype=np.uint16).reshape(8, 8)
        assert psnr_plane(plane, plane, 10) == INFINITE_PSNR

    def test_ten_bit_uniform_error_one(self):
        ref = np.zeros((4, 4), dtype=np.uint16)
        test = np.ones((4, 4), dtype=np.uint16)
        assert psnr_plane(ref, test, 10) == pytest.approx(20 * math.log10(1023), rel=1e-12)

    def test_eight_bit_peak(self):
        ref = np.zeros((4, 4), dtype=np.uint8)
        test = np.full((4, 4), 2, dtype=np.uint8)
        assert psnr_plane(ref, test, 8) == pytest.approx(20 * math.log10(255 / 2), rel=1e-12)
        assert psnr_plane(ref, test, 8) == pytest.approx(42.110203695399484, abs=1e-9)


class TestPsnrYuv:
    def test_weighted_arithmetic_case(self):
        assert psnr_yuv(48.0, 32.0, 32.0) == 44.0

    def test_uv_swap_invariance(self):
        assert psnr_yuv(40.0, 30.0, 36.0) == psnr_yuv(40.0, 36.0, 30.0)

    @settings(max_examples=50, deadline=None)
    @given(
        y=st.floats(10, 80),
        u=st.floats(10, 80),
        v=st.floats(10, 80),
        delta=st.floats(-5, 5),
    )
    def test_shift_linearity(self, y, u, v, delta):
        shifted = psnr_yuv(y + delta, u + delta, v + delta)
        assert shifted == pytest.approx(psnr_yuv(y, u, v) + delta, abs=1e-9)

    def test_infinity_propagates(self):
        assert psnr_yuv(INFINITE_PSNR, 30.0, 30.0) == INFINITE_PSNR
        assert psnr_yuv(40.0, INFINITE_PSNR, 30.0) == INFINITE_PSNR

    def test_luma_dominates(self):
        # The 6/8 luma weight means 1 dB of Y moves the combination by 0.75 dB.
        base = psnr_yuv(40.0, 30.0, 30.0)
        assert psnr_yuv(41.0, 30.0, 30.0) - base == pytest.approx(0.75)


class TestSequenceQuality:
    def test_multi_frame_mean(self, tmp_path, fmt10):
        ref_path, test_path = tmp_path / "ref.yuv", tmp_path / "test.yuv"
        ref = write_clip(ref_path, 4, fmt10)
        noisy_frames = []
        rng = np.random.default_rng(99)
        for frame in ref:
            jitter = rng.integers(0, 3, size=frame.y.shape).astype(np.uint16)
            y = np.clip(frame.y.astype(np.int32) + jitter, 0, 1023).astype(np.uint16)
            noisy_frames.append(Frame(y, frame.u, frame.v, fmt10))
        save_frames(test_path, noisy_frames)
        record = score_files(ref_path, test_path, fmt10)
        per_frame = [psnr_plane(r.y, t.y, 10) for r, t in zip(ref, noisy_frames)]
        assert record.psnr_y == pytest.approx(sum(per_frame) / 3, rel=1e-12)
        assert record.psnr_u == INFINITE_PSNR
        assert record.psnr_yuv == INFINITE_PSNR

    def test_eight_bit_test_is_scored_expanded(self, tmp_path, fmt10):
        # An 8-bit test scores exactly as its 10-bit expansion on disk does.
        ref_path, test8, test10 = tmp_path / "ref.yuv", tmp_path / "t8.yuv", tmp_path / "t10.yuv"
        write_clip(ref_path, 4, fmt10, frames=2)
        frames8 = write_clip(test8, 5, fmt10.with_bit_depth(8), frames=2)
        save_frames(test10, (Frame(*(p.astype("<u2") * 4 for p in f.planes()), fmt10) for f in frames8))
        assert score_files(ref_path, test8, fmt10.with_bit_depth(8)) == score_files(
            ref_path, test10, fmt10
        )

    @pytest.mark.parametrize("depth", [10, 8])
    def test_equals_a_per_frame_reference(self, tmp_path, depth):
        # Reference: fresh frames, a fresh expansion per plane, one PSNR each.
        fmt10, fmt = PlaneFormat(32, 16, 10), PlaneFormat(32, 16, depth)
        ref_path, test_path = tmp_path / "ref.yuv", tmp_path / "test.yuv"
        ref, _ = distinct_clip(ref_path, fmt10, frames=4)
        test = write_clip(test_path, 22, fmt, frames=4)
        per_plane = ([], [], [])
        for ref_frame, test_frame in zip(ref, test):
            for values, a, b in zip(per_plane, ref_frame.planes(), test_frame.planes()):
                b = np.left_shift(b, 2, dtype=np.uint16) if depth == 8 else b.copy()
                values.append(psnr_plane(a.copy(), b, 10))
        assert len({v for values in per_plane for v in values}) == 12
        assert score_files(ref_path, test_path, fmt) == aggregate_frame_psnrs(*per_plane)

    def test_rejects_eight_bit(self, tmp_path):
        # The reference is always read as 10-bit: three 8-bit frames are not
        # a whole number of 10-bit ones.
        fmt8 = PlaneFormat(16, 16, 8)
        path = tmp_path / "clip8.yuv"
        write_clip(path, 1, fmt8)
        with pytest.raises(ValidationError):
            score_files(path, path, fmt8)

    def test_rejects_frame_count_mismatch(self, tmp_path, fmt10):
        a, b = tmp_path / "a.yuv", tmp_path / "b.yuv"
        write_clip(a, 1, fmt10, frames=2)
        write_clip(b, 1, fmt10, frames=3)
        with pytest.raises(PlaneMismatchError, match="frame counts differ"):
            score_files(a, b, fmt10)

    def test_rejects_empty_files(self, tmp_path, fmt10):
        empty = tmp_path / "empty.yuv"
        empty.write_bytes(b"")
        with pytest.raises(PlaneMismatchError, match="cannot score an empty sequence"):
            score_files(empty, empty, fmt10)

    def test_aggregate_requires_equal_lengths(self):
        with pytest.raises(PlaneMismatchError):
            aggregate_frame_psnrs([40.0], [40.0, 41.0], [40.0])

    def test_aggregate_empty_rejected(self):
        with pytest.raises(PlaneMismatchError):
            aggregate_frame_psnrs([], [], [])


class TestQualityRecord:
    def test_external_score_range(self):
        QualityRecord(40, 40, 40, 40, external_score=0.0)
        QualityRecord(40, 40, 40, 40, external_score=10.0)
        with pytest.raises(Exception):
            QualityRecord(40, 40, 40, 40, external_score=10.5)


@pytest.fixture
def metric_script(tmp_path):
    """A stand-in external metric binary; its behaviour is set per test."""

    def write(body: str):
        path = tmp_path / "metric.py"
        path.write_text("import sys\n" + body)
        path.chmod(path.stat().st_mode | stat.S_IXUSR)
        return f"{sys.executable} {path} {{REF}} {{TEST}}"

    return write


class TestExternalMetric:
    def test_parses_score(self, metric_script, clip10_path):
        path = clip10_path
        template = metric_script("print('7.25')\n")
        assert external_metric(path, path, template) == 7.25

    def test_last_line_wins(self, metric_script, clip10_path):
        path = clip10_path
        template = metric_script("print('loading model...')\nprint('8.5')\n")
        assert external_metric(path, path, template) == 8.5

    def test_nonzero_exit(self, metric_script, clip10_path):
        path = clip10_path
        template = metric_script("sys.exit(3)\n")
        with pytest.raises(ExternalMetricError):
            external_metric(path, path, template)

    def test_failure_quotes_the_end_of_stderr(self, metric_script, clip10_path):
        path = clip10_path
        template = metric_script("print('x' * 600, file=sys.stderr)\nprint('fatal: no model', file=sys.stderr)\nsys.exit(2)\n")
        with pytest.raises(ExternalMetricError, match=r"^metric command exited 2: x{600} \| fatal: no model$"):
            external_metric(path, path, template)

    def test_output_that_is_not_utf8(self, metric_script, clip10_path):
        path = clip10_path
        template = metric_script("sys.stdout.buffer.write(b'\\xff banner\\n7.5\\n')\n")
        assert external_metric(path, path, template) == 7.5

    def test_logs_go_where_asked(self, metric_script, clip10_path, tmp_path):
        path = clip10_path
        template = metric_script("print('to err', file=sys.stderr)\nprint('6.0')\n")
        assert external_metric(path, path, template, tmp_path / "metric") == 6.0
        assert (tmp_path / "metric.stdout.log").read_text() == "6.0\n"
        assert (tmp_path / "metric.stderr.log").read_text() == "to err\n"

    def test_unparsable_output(self, metric_script, clip10_path):
        path = clip10_path
        template = metric_script("print('no score here')\n")
        with pytest.raises(ExternalMetricError):
            external_metric(path, path, template)

    def test_out_of_range_score(self, metric_script, clip10_path):
        path = clip10_path
        template = metric_script("print('11.0')\n")
        with pytest.raises(ExternalMetricError):
            external_metric(path, path, template)

    def test_template_must_mention_both_files(self, tmp_path):
        with pytest.raises(Exception):
            external_metric(tmp_path / "a", tmp_path / "b", "metric {REF}")
