"""Table assembly from result stores with analytically known outcomes.

The synthetic store uses quality = 60 - QP and constant cost ratios, so
every BD column has a closed-form expected value: rate ratio 0.8 gives
-20%, time ratio 0.25 gives -75%, energy ratio 0.3 gives -70%. One
sequence additionally has a rate crossing engineered at quality 45.
"""

import csv
import subprocess
import sys

import pytest

from hdrbench.metrics import QualityRecord
from hdrbench.report import (
    ReportError,
    build_table,
    collect,
    has_external_scores,
    render_text,
    write_csv,
)
from hdrbench.store import ResultStore, RunRecord

LADDER = (12, 17, 22, 27, 32, 37)
FRAMES, FPS = 2, 50.0  # bitrate_kbps = bytes * 0.2


DEPTHS = {"10-10": (10, 10), "8-10": (8, 10), "8-8": (8, 8), "8-8-nosimd": (8, 8)}


def synth_record(sequence, variant, qp, host, rate_kbps, cpu, energy, score=None):
    quality = 60.0 - qp
    return RunRecord(
        cache_key=f"{sequence}|{variant}|{qp}|{host}",
        sequence=sequence,
        variant=variant,
        qp=qp,
        host=host,
        width=64,
        height=64,
        input_depth=DEPTHS[variant][0],
        internal_depth=DEPTHS[variant][1],
        frames=FRAMES,
        frame_rate=FPS,
        bitstream_bytes=int(round(rate_kbps * 5)),
        bitstream_sha256=f"{sequence}/{variant}/{qp}",
        wall_time=cpu * 1.02,
        cpu_time=cpu,
        energy_joules=energy,
        samples=((cpu * 1.02, cpu, energy),),
        retained_count=1,
        quality=QualityRecord(quality + 1, quality - 3, quality - 3, psnr_yuv=quality,
                              external_score=score),
    )


def base_rate(qp):
    return 1000.0 * 2 ** ((37 - qp) / 5.0)


def synth_store(hosts=("linux",), energy_hosts=("linux",), with_scores=False,
                crossing_for=("bravo",), variants=("10-10", "8-8", "8-10")):
    store = ResultStore()
    for sequence in ("alpha", "bravo"):
        for host in hosts:
            for variant in variants:
                for qp in LADDER:
                    quality = 60.0 - qp
                    rate = base_rate(qp)
                    if variant == "8-8":
                        rate *= 0.8
                        if sequence in crossing_for:
                            # Cheaper below quality 45, dearer above it.
                            rate = base_rate(qp) * 10 ** (0.01 * (quality - 45.0))
                    elif variant == "8-10":
                        rate *= 1.5
                    cpu = 3.0 * 1.1 ** (37 - qp)
                    if variant in ("8-8", "8-8-nosimd"):
                        cpu *= 0.25
                    energy = None
                    if host in energy_hosts:
                        energy = 40.0 * 1.1 ** (37 - qp)
                        if variant in ("8-8", "8-8-nosimd"):
                            energy *= 0.3
                    score = quality / 6.0 if with_scores else None
                    store.add(
                        synth_record(sequence, variant, qp, host, rate, cpu, energy, score)
                    )
    return store


class TestCollect:
    def test_grouping_shape(self):
        grouped = collect(synth_store(hosts=("linux", "windows")))
        assert set(grouped) == {"alpha", "bravo"}
        assert set(grouped["alpha"]) == {"10-10", "8-8", "8-10"}
        assert set(grouped["alpha"]["8-8"]) == {"linux", "windows"}
        qps = [r.qp for r in grouped["alpha"]["8-8"]["linux"]]
        assert qps == sorted(LADDER)


class TestBuildTable:
    def test_single_host_columns_and_values(self):
        table = build_table(synth_store())
        assert table.time_hosts == ("linux",)
        assert table.energy_hosts == ("linux",)
        assert table.rate_variants == ("8-8", "8-10")
        alpha, bravo = table.rows
        assert alpha.sequence == "alpha"
        assert alpha.bdt_percent["linux"] == pytest.approx(-75.0, abs=1e-6)
        assert alpha.bdee_percent["linux"] == pytest.approx(-70.0, abs=1e-6)
        assert alpha.bd_rate_percent["8-8"] == pytest.approx(-20.0, abs=0.2)
        assert alpha.bd_rate_percent["8-10"] == pytest.approx(50.0, abs=0.2)
        assert alpha.intersection_quality is None
        assert alpha.ceil_qp is None
        assert bravo.intersection_quality == pytest.approx(45.0, abs=0.2)
        assert bravo.ceil_qp == 17

    def test_two_hosts_one_with_energy(self):
        table = build_table(synth_store(hosts=("linux", "windows"), energy_hosts=("linux",)))
        assert table.time_hosts == ("linux", "windows")
        assert table.energy_hosts == ("linux",)
        row = table.rows[0]
        assert row.bdt_percent["windows"] == pytest.approx(-75.0, abs=1e-6)
        assert "windows" not in row.bdee_percent

    def test_rate_columns_only_for_variants_in_the_store(self):
        table = build_table(synth_store(variants=("10-10", "8-8")))
        assert table.rate_variants == ("8-8",)
        assert all(set(row.bd_rate_percent) == {"8-8"} for row in table.rows)

    def test_averages_row(self):
        table = build_table(synth_store())
        averages = table.averages()
        expected = sum(r.bdt_percent["linux"] for r in table.rows) / len(table.rows)
        assert averages.bdt_percent["linux"] == pytest.approx(expected, rel=1e-12)
        assert averages.intersection_quality is None
        assert averages.sequence == "Average"

    def test_average_leaves_blank_a_column_some_row_lacks(self, tmp_path):
        # windows ran alpha only, so its average would cover one sequence of two.
        full = synth_store(hosts=("linux", "windows"), energy_hosts=("linux", "windows"))
        partial = ResultStore({
            key: r for key, r in full.records.items() if (r.host, r.sequence) != ("windows", "bravo")
        })
        table = build_table(partial)
        assert table.time_hosts == table.energy_hosts == ("linux", "windows")
        averages = table.averages()
        assert set(averages.bdt_percent) == set(averages.bdee_percent) == {"linux"}
        assert set(averages.bd_rate_percent) == {"8-8", "8-10"}
        write_csv(table, tmp_path / "table.csv")
        with open(tmp_path / "table.csv") as fh:
            header, alpha, bravo, average = csv.reader(fh)
        assert header[3:7] == ["BDT[linux]", "BDT[windows]", "BDEE[linux]", "BDEE[windows]"]
        assert alpha[3:7] == ["-75.0%", "-75.0%", "-70.0%", "-70.0%"]
        assert bravo[3:7] == ["-75.0%", "", "-70.0%", ""]
        assert average[3:] == ["-75.0%", "", "-70.0%", "", "-19.8%", "+50.0%"]

    def test_fits_each_curve_once(self, spline_fits):
        # Rate curves of 10-10, 8-8 and 8-10 (8-8-nosimd has no column by
        # default), then time and energy curves of 10-10 and 8-8.
        store = synth_store(variants=("10-10", "8-8", "8-10", "8-8-nosimd"))
        build_table(ResultStore({k: r for k, r in store.records.items() if r.sequence == "alpha"}))
        assert len(spline_fits) == 7

    def test_incomplete_ladder_rejected(self):
        store = synth_store()
        missing = next(
            key for key, r in store.records.items() if r.variant == "8-8" and r.qp == 27
        )
        incomplete = ResultStore({k: r for k, r in store.records.items() if k != missing})
        with pytest.raises(ReportError, match="incomplete ladder"):
            build_table(incomplete)

    def test_missing_variant_rejected(self):
        store = synth_store(variants=("10-10", "8-10"))
        with pytest.raises(ReportError, match="no records for variant 8-8"):
            build_table(store)

    def test_cross_host_digest_disagreement_rejected(self):
        store = synth_store(hosts=("linux",))
        other = synth_store(hosts=("windows",))
        for record in other.records.values():
            if record.qp == 22 and record.variant == "10-10" and record.sequence == "alpha":
                broken = RunRecord.from_dict({**record.to_dict(), "bitstream_sha256": "tampered"})
                store.add(broken)
            else:
                store.add(record)
        with pytest.raises(ReportError, match="digests disagree"):
            build_table(store)

    def test_empty_store_rejected(self):
        with pytest.raises(ReportError, match="empty"):
            build_table(ResultStore())

    def test_external_axis(self):
        table = build_table(synth_store(with_scores=True), quality_axis="external")
        assert table.quality_axis == "external"
        # Same monotone transform of the quality axis: constant cost ratios
        # give the same BD values.
        assert table.rows[0].bdt_percent["linux"] == pytest.approx(-75.0, abs=1e-6)
        assert table.rows[1].intersection_quality == pytest.approx(45.0 / 6.0, abs=0.05)

    def test_unknown_quality_axis_rejected(self):
        with pytest.raises(ReportError, match=r"^unknown quality axis 'ssim'$"):
            build_table(synth_store(), quality_axis="ssim")

    def test_external_axis_needs_scores(self):
        with pytest.raises(ReportError, match="external score"):
            build_table(synth_store(with_scores=False), quality_axis="external")

    def test_has_external_scores(self):
        assert has_external_scores(synth_store(with_scores=True))
        assert not has_external_scores(synth_store(with_scores=False))
        assert not has_external_scores(ResultStore())


class TestRendering:
    def test_text_layout(self):
        text = render_text(build_table(synth_store()))
        lines = text.splitlines()
        assert lines[0].startswith("Reference 10-10 vs 8-8")
        header = lines[1]
        for column in ("Sequence", "PSNR (dB)", "ceil(QP)", "BDT[linux]",
                       "BDEE[linux]", "BD-Rate[8-8]", "BD-Rate[8-10]"):
            assert column in header
        assert any(line.startswith("Average") for line in lines)
        alpha_line = next(line for line in lines if line.startswith("alpha"))
        assert "-75.0%" in alpha_line

    def test_blank_cells_for_missing_crossing(self):
        text = render_text(build_table(synth_store(crossing_for=())))
        alpha_line = next(l for l in text.splitlines() if l.startswith("alpha"))
        # No crossing: the quality and QP columns stay empty.
        assert "45.0" not in alpha_line

    def test_csv_twin(self, tmp_path):
        table = build_table(synth_store())
        path = tmp_path / "table.csv"
        write_csv(table, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "Sequence"
        assert rows[1][0] == "alpha"
        assert rows[-1][0] == "Average"
        assert rows[1][3] == "-75.0%"


class TestGoldenTable:
    """The exact text and CSV of a two-host table, one host with energy.

    Pinned so that a refactor of row building or rendering cannot move a
    column, a digit or a blank cell unnoticed.
    """

    STORE = dict(hosts=("linux", "windows"), energy_hosts=("linux",))
    TEXT = (
        "Reference 10-10 vs 8-8 (quality axis: psnr_yuv)\n"
        "Sequence  PSNR (dB)  ceil(QP)  BDT[linux]  BDT[windows]  BDEE[linux]  BD-Rate[8-8]  BD-Rate[8-10]\n"
        "--------  ---------  --------  ----------  ------------  -----------  ------------  -------------\n"
        "alpha                              -75.0%        -75.0%       -70.0%        -20.0%         +50.0%\n"
        "bravo         45.00        17      -75.0%        -75.0%       -70.0%        -19.6%         +50.0%\n"
        "--------  ---------  --------  ----------  ------------  -----------  ------------  -------------\n"
        "Average                            -75.0%        -75.0%       -70.0%        -19.8%         +50.0%\n"
    )
    CSV = (
        b"Sequence,PSNR (dB),ceil(QP),BDT[linux],BDT[windows],BDEE[linux],BD-Rate[8-8],BD-Rate[8-10]\r\n"
        b"alpha,,,-75.0%,-75.0%,-70.0%,-20.0%,+50.0%\r\n"
        b"bravo,45.00,17,-75.0%,-75.0%,-70.0%,-19.6%,+50.0%\r\n"
        b"Average,,,-75.0%,-75.0%,-70.0%,-19.8%,+50.0%\r\n"
    )

    def test_text(self):
        assert render_text(build_table(synth_store(**self.STORE))) == self.TEXT

    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(build_table(synth_store(**self.STORE)), path)
        assert path.read_bytes() == self.CSV


class TestLeanImport:
    @pytest.mark.parametrize("module", ["hdrbench.store", "hdrbench.report"])
    def test_reading_records_imports_no_runner(self, module):
        code = f"import {module}, sys; print('hdrbench.pipeline' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"
