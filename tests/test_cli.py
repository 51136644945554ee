"""Command-line interface behaviour and exit codes."""

import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import hdrbench.cli as cli
from hdrbench import yuv
from hdrbench.store import ResultStore
from hdrbench.yuv import PlaneFormat
from tests.conftest import MOCK_ENCODE, deny_reads_of, write_clip
from tests.test_pipeline import record_line, short_decoder
from tests.test_report import synth_store


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def clip10(tmp_path):
    path = tmp_path / "clip.yuv"
    return path, write_clip(path, 1, PlaneFormat(32, 32, 10), frames=3)


class TestParsing:
    def test_no_command_prints_help(self, capsys):
        assert run_cli() == 1
        assert "COMMAND" in capsys.readouterr().out

    def test_unknown_flag_is_validation_error(self, capsys):
        assert run_cli("convert", "--nope") == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_argument(self, capsys):
        assert run_cli("quality", "--ref", "a.yuv") == 1

    @pytest.mark.parametrize("argv", [
        ("bd", "--curve-a", "a.csv", "--curve-b", "b.csv", "--intersections"),
        ("convert", "--in", "i.yuv", "--out", "o.yuv", "--direction", "10to8",
         "--width", "32", "--height", "32", "--fps", "50"),
        ("run", "--config", "study.json", "--store", "x.jsonl"),
    ], ids=["bd-intersections", "convert-fps", "run-store"])
    def test_deleted_flags_are_usage_errors(self, argv, capsys):
        assert run_cli(*argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("--version")
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "hdrbench" in out
        assert "store schema 1" in out


class TestConvert:
    def test_round_trip(self, tmp_path, clip10, capsys):
        path, frames = clip10
        eight = tmp_path / "clip8.yuv"
        back = tmp_path / "back10.yuv"
        assert run_cli(
            "convert", "--input", str(path), "--output", str(eight),
            "--direction", "10to8", "--width", "32", "--height", "32",
        ) == 0
        assert "3 frame(s)" in capsys.readouterr().out
        fmt8 = PlaneFormat(32, 32, 8)
        converted = tuple(yuv.iter_frames(eight, fmt8))
        assert np.array_equal(converted[0].y, (frames[0].y.astype(np.int64) * 510 + 1023) // 2046)
        assert run_cli(
            "convert", "--input", str(eight), "--output", str(back),
            "--direction", "8to10", "--width", "32", "--height", "32",
        ) == 0
        wide = tuple(yuv.iter_frames(back, PlaneFormat(32, 32, 10)))
        assert np.array_equal(wide[0].y, converted[0].y.astype(np.uint16) << 2)

    def test_missing_input_is_validation_error(self, tmp_path, capsys):
        rc = run_cli(
            "convert", "--input", str(tmp_path / "absent.yuv"),
            "--output", str(tmp_path / "o.yuv"),
            "--direction", "10to8", "--width", "32", "--height", "32",
        )
        assert rc == 1

    def test_truncated_input_is_validation_error(self, tmp_path, clip10):
        path, _ = clip10
        path.write_bytes(path.read_bytes()[:-3])
        rc = run_cli(
            "convert", "--input", str(path), "--output", str(tmp_path / "o.yuv"),
            "--direction", "10to8", "--width", "32", "--height", "32",
        )
        assert rc == 1

    def test_short_flag_aliases(self, tmp_path, clip10, capsys):
        # argparse takes the unique prefixes --in and --out for --input and --output.
        path, _ = clip10
        rc = run_cli(
            "convert", "--in", str(path), "--out", str(tmp_path / "o.yuv"),
            "--direction", "10to8", "--width", "32", "--height", "32",
        )
        assert rc == 0
        assert "3 frame(s)" in capsys.readouterr().out

    def test_unwritable_output_is_io_error(self, tmp_path, clip10, capsys):
        path, _ = clip10
        rc = run_cli(
            "convert", "--in", str(path), "--out", str(tmp_path / "no-dir" / "o.yuv"),
            "--direction", "10to8", "--width", "32", "--height", "32",
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_wrong_direction_for_input_depth(self, tmp_path, clip10):
        # An 8-bit rendition read back as 10-bit trips size or range checks.
        path, _ = clip10
        eight = tmp_path / "clip8.yuv"
        assert run_cli(
            "convert", "--input", str(path), "--output", str(eight),
            "--direction", "10to8", "--width", "32", "--height", "32",
        ) == 0
        rc = run_cli(
            "convert", "--input", str(eight), "--output", str(tmp_path / "bad.yuv"),
            "--direction", "10to8", "--width", "32", "--height", "32",
        )
        assert rc == 1

    def test_converting_twice_onto_one_output_gives_a_fresh_conversion(self, tmp_path, clip10):
        path, _ = clip10
        out, fresh = tmp_path / "o.yuv", tmp_path / "fresh.yuv"
        geometry = ("--direction", "10to8", "--width", "32", "--height", "32")
        for target in (out, out, fresh):
            assert run_cli("convert", "--input", str(path), "--output", str(target), *geometry) == 0
        assert out.read_bytes() == fresh.read_bytes()

    def test_output_onto_input_is_validation_error(self, clip10, capsys):
        path, _ = clip10
        before = path.read_bytes()
        rc = run_cli(
            "convert", "--input", str(path), "--output", str(path),
            "--direction", "10to8", "--width", "32", "--height", "32",
        )
        assert rc == 1
        assert str(path) in capsys.readouterr().err
        assert path.read_bytes() == before


class TestFormulaClipGolden:
    def test_convert_both_ways_then_quality_match_the_golden(self, tmp_path, capsys):
        # The same formula clip and golden as the console-script CI step.
        golden = json.loads((Path(__file__).parent / "data" / "formula_clip_golden.json").read_text())
        i = np.arange(3 * 3072)
        ((i * 37 + i // 3072 * 211) % 1024).astype("<u2").tofile(tmp_path / "clip10.yuv")
        geometry = ("--width", str(golden["width"]), "--height", str(golden["height"]))
        eight, ten = tmp_path / "tonemapped8.yuv", tmp_path / "expanded10.yuv"
        assert run_cli("convert", "--direction", "10to8", "--input", str(tmp_path / "clip10.yuv"),
                       "--output", str(eight), *geometry) == 0
        assert run_cli("convert", "--direction", "8to10", "--input", str(eight),
                       "--output", str(ten), *geometry) == 0
        capsys.readouterr()
        assert run_cli("quality", "--ref", str(tmp_path / "clip10.yuv"), "--test", str(ten), *geometry) == 0
        quality = json.loads(capsys.readouterr().out)
        for path in (eight, ten):
            assert hashlib.sha256(path.read_bytes()).hexdigest() == golden["sha256"][path.name]
        assert quality.keys() == golden["quality"].keys()
        for key, value in golden["quality"].items():
            assert abs(quality[key] - value) <= 1e-9, key


class TestQuality:
    def test_identical_files_report_inf(self, clip10, capsys):
        path, _ = clip10
        assert run_cli(
            "quality", "--ref", str(path), "--test", str(path),
            "--width", "32", "--height", "32",
        ) == 0
        out = capsys.readouterr().out
        assert out == (
            '{\n  "frames": 3,\n  "psnr_y": "inf",\n  "psnr_u": "inf",\n'
            '  "psnr_v": "inf",\n  "psnr_yuv": "inf"\n}\n'
        )

    def test_degraded_files_report_finite(self, tmp_path, clip10, capsys):
        path, _ = clip10
        jittered = tmp_path / "noisy.yuv"
        raw = np.fromfile(path, dtype="<u2")
        raw = np.clip(raw.astype(np.int32) + 2, 0, 1023).astype("<u2")
        raw.tofile(jittered)
        assert run_cli(
            "quality", "--ref", str(path), "--test", str(jittered),
            "--width", "32", "--height", "32",
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 40.0 < payload["psnr_yuv"] < 60.0

    def test_metric_cmd_stub(self, tmp_path, clip10, capsys):
        path, _ = clip10
        stub = tmp_path / "metric.sh"
        stub.write_text("#!/bin/sh\necho 9.5\n")
        stub.chmod(0o755)
        assert run_cli(
            "quality", "--ref", str(path), "--test", str(path),
            "--width", "32", "--height", "32",
            "--metric-cmd", f"{stub} {{REF}} {{TEST}}",
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["frames", "psnr_y", "psnr_u", "psnr_v", "psnr_yuv", "external_score"]
        assert payload["external_score"] == 9.5

    @pytest.mark.parametrize("tool, message", [
        ("/no/such/metric", "error: metric command failed to start: "),
        ("true", "error: metric command printed nothing on stdout\n"),
    ], ids=["missing", "silent"])
    def test_metric_cmd_that_gives_no_score_is_runtime_error(self, clip10, capsys, tool, message):
        path, _ = clip10
        assert run_cli(
            "quality", "--ref", str(path), "--test", str(path),
            "--width", "32", "--height", "32", "--metric-cmd", f"{tool} {{REF}} {{TEST}}",
        ) == 2
        assert capsys.readouterr().err.startswith(message)

    def test_frame_count_mismatch(self, tmp_path, clip10, capsys):
        path, frames = clip10
        short = tmp_path / "short.yuv"
        short.write_bytes(path.read_bytes()[: frames[0].format.frame_bytes])
        assert run_cli(
            "quality", "--ref", str(path), "--test", str(short),
            "--width", "32", "--height", "32",
        ) == 1

    def test_empty_files_are_validation_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.yuv"
        empty.write_bytes(b"")
        assert run_cli(
            "quality", "--ref", str(empty), "--test", str(empty),
            "--width", "32", "--height", "32",
        ) == 1
        assert "cannot score an empty sequence" in capsys.readouterr().err


class TestBd:
    @pytest.fixture
    def curve_files(self, tmp_path):
        def write_curve(path, factor):
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["qp", "quality", "cost"])
                for q in (30, 34, 38, 42, 46):
                    writer.writerow([50 - q, repr(float(q)), repr(factor * 2 ** ((q - 30) / 4))])

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curve(a, 1.0)
        write_curve(b, 2.0)
        return a, b

    def test_bd_json(self, curve_files, capsys):
        a, b = curve_files
        assert run_cli("bd", "--curve-a", str(a), "--curve-b", str(b)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bd_percent"] == pytest.approx(100.0, abs=1e-6)
        assert payload["overlap"] == [30.0, 46.0]
        assert payload["intersections"] == []
        assert payload["ceil_qp"] is None

    def test_rcd_grid_and_export(self, curve_files, tmp_path, capsys):
        a, b = curve_files
        out = tmp_path / "cmp.csv"
        assert run_cli(
            "bd", "--curve-a", str(a), "--curve-b", str(b),
            "--rcd-grid", "7", "--export", str(out),
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rcd"]) == 7
        assert out.is_file()

    def test_intersection_flags(self, curve_files, capsys):
        # The crossings and ceil(QP) are always printed; no flag leaves them out.
        a, b = curve_files
        assert run_cli("bd", "--curve-a", str(a), "--curve-b", str(b), "--rcd-grid", "3") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["intersections"] == [] and payload["ceil_qp"] is None
        assert run_cli("bd", "--curve-a", str(a), "--curve-b", str(b), "--no-intersections") == 1
        assert "unrecognized arguments: --no-intersections" in capsys.readouterr().err

    def test_unwritable_export_is_io_error(self, curve_files, tmp_path, capsys):
        a, b = curve_files
        out = tmp_path / "no-dir" / "cmp.csv"
        assert run_cli("bd", "--curve-a", str(a), "--curve-b", str(b), "--export", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_negative_rcd_grid_is_validation_error(self, curve_files, capsys):
        a, b = curve_files
        assert run_cli("bd", "--curve-a", str(a), "--curve-b", str(b), "--rcd-grid", "-3") == 1
        assert "error: RCD grid size must be non-negative" in capsys.readouterr().err

    def test_coincident_stretch_reports_one_crossing(self, capsys):
        data = Path(__file__).parent / "data"
        assert run_cli(
            "bd", "--curve-a", str(data / "coincident_a.csv"),
            "--curve-b", str(data / "coincident_b.csv"),
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["intersections"]) == 1
        assert 32.0 <= payload["intersections"][0] <= 42.0

    def test_bd_delta_past_the_float_range_is_validation_error(self, tmp_path, capsys):
        # Pair 522 of tests.test_curves.random_curve_pair(np.random.default_rng(1)):
        # curve a's spline swings between two knots 1e-4 dB apart, so the mean
        # log-cost gap passes what 10 ** gap can hold in a float.
        pair = {
            "a.csv": [(0, 30.94554531359933, 139.5823731663739), (1, 33.30403888497943, 204.24770738196233),
                      (2, 33.30414319993677, 173.47875079377596), (3, 45.473212288596876, 1733.937293877464)],
            "b.csv": [(0, 29.702915081960953, 97.01378135929376), (1, 33.75225482927647, 200.05141013455093),
                      (2, 36.56573092006248, 286.5412346367202), (3, 40.28701585339556, 618.2532796328439),
                      (4, 42.88453923401681, 998.937519122788), (5, 42.904927199038596, 908.212811771375),
                      (6, 43.51118783901271, 1016.002014524277)],
        }
        for name, rows in pair.items():
            lines = [f"{qp},{quality!r},{cost!r}" for qp, quality, cost in rows]
            (tmp_path / name).write_text("\n".join(["qp,quality,cost", *lines]) + "\n")
        assert run_cli("bd", "--curve-a", str(tmp_path / "a.csv"), "--curve-b", str(tmp_path / "b.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mean log10-cost gap of ") and "quality overlap [30.94554531359933," in err

    def test_curve_file_that_is_not_utf8_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"qp,quality,cost\n\xff,1,2\n")
        good = Path(__file__).parent / "data" / "coincident_a.csv"
        assert run_cli("bd", "--curve-a", str(bad), "--curve-b", str(good)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not UTF-8 text: ") and err.count("\n") == 1

    def test_missing_curve_file(self, tmp_path):
        assert run_cli(
            "bd", "--curve-a", str(tmp_path / "a.csv"), "--curve-b", str(tmp_path / "b.csv")
        ) == 1


class TestMeasure:
    def test_json_output(self, capsys):
        assert run_cli("measure", "--cmd", "sleep 0.01", "--reps", "2") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["repetitions"] == 2
        assert payload["mean_wall_time_s"] > 0.0

    def test_energy_from_a_powercap_tree(self, rapl_tree, capsys):
        assert run_cli(
            "measure", "--cmd", "true", "--reps", "1",
            "--powercap-root", str(rapl_tree), "--rapl-domain", "intel-rapl:0",
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        # The fixture counter never advances, so the energy is exactly zero.
        assert payload["mean_energy_j"] == 0.0
        assert payload["samples"][0]["energy_j"] == 0.0
        assert payload["warnings"] == []

    def test_empty_command_is_validation_error(self, capsys):
        assert run_cli("measure", "--cmd", "", "--reps", "1") == 1
        assert capsys.readouterr().err == "error: empty command\n"

    def test_failing_command_is_runtime_error(self, capsys):
        assert run_cli("measure", "--cmd", "false", "--reps", "1") == 2

    def test_failing_command_error_ends_in_its_reason(self, capsys):
        cmd = f"{sys.executable} -c 'import sys; sys.exit(\"boom: bad qp\")'"
        assert run_cli("measure", "--cmd", cmd, "--reps", "1") == 2
        assert capsys.readouterr().err.rstrip().endswith(": boom: bad qp")

    def test_missing_binary_is_runtime_error(self, capsys):
        assert run_cli("measure", "--cmd", "/no/such/tool", "--reps", "1") == 2

    def test_counter_that_vanishes_mid_measurement_is_runtime_error(self, rapl_tree, capsys):
        counter = rapl_tree / "intel-rapl:0" / "energy_uj"
        assert run_cli("measure", "--cmd", f"rm {counter}", "--reps", "1", "--powercap-root", str(rapl_tree)) == 2
        assert capsys.readouterr().err == f"error: missing counter file {counter}\n"

    def test_unreadable_counter_omits_energy_with_a_warning(self, rapl_tree, monkeypatch, capsys):
        # energy_uj is root-only on Linux 5.10 and later; the tests run as
        # root, so the read is made to fail instead of the file's mode.
        counter = rapl_tree / "intel-rapl:0" / "energy_uj"
        deny_reads_of(monkeypatch, counter, after=0)
        assert run_cli("measure", "--cmd", "true", "--reps", "1", "--powercap-root", str(rapl_tree)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean_energy_j"] is None
        assert payload["warnings"] == [f"energy omitted: cannot read counter file {counter}: Permission denied"]

    def test_counter_that_becomes_unreadable_mid_measurement_is_runtime_error(self, rapl_tree, monkeypatch, capsys):
        counter = rapl_tree / "intel-rapl:0" / "energy_uj"
        deny_reads_of(monkeypatch, counter, after=1)  # the phase's probe reads it once
        assert run_cli("measure", "--cmd", "true", "--reps", "1", "--powercap-root", str(rapl_tree)) == 2
        assert capsys.readouterr().err == f"error: cannot read counter file {counter}: Permission denied\n"


class TestRunAndReport:
    def test_run_then_report(self, tmp_path, capsys):
        from tests.test_config import write_config

        config = write_config(tmp_path, repetitions=1, qp_ladder=[22, 27, 32, 37])
        assert run_cli("run", "--config", str(config)) == 0
        out = capsys.readouterr().out
        assert "8 cell(s) measured" in out
        assert ", 8 decoder invocation(s)" in out
        store = tmp_path / "results.jsonl"
        assert store.is_file()

        assert run_cli("run", "--config", str(config)) == 0
        out = capsys.readouterr().out
        assert "0 cell(s) measured" in out
        assert ", 0 decoder invocation(s)" in out

        assert run_cli("run", "--config", str(config), "--fresh-measurements") == 0
        out = capsys.readouterr().out
        assert "8 cell(s) measured" in out
        assert ", 8 decoder invocation(s)" in out

        assert run_cli("report", "--store", str(store)) == 0
        text = capsys.readouterr().out
        assert "Reference 10-10 vs 8-8" in text
        assert "Average" in text

    @pytest.mark.parametrize("nbytes, fill", [(4608, 0), (3072, 0), (6144, 0xFF)],
                             ids=["partial frame", "one frame short", "samples out of range"])
    def test_short_decode_is_a_runtime_error(self, tmp_path, capsys, nbytes, fill):
        from tests.test_config import write_config

        variant = {"name": "10-10", "encoder_template": MOCK_ENCODE, "decoder_template": short_decoder(nbytes, fill)}
        config = write_config(tmp_path, repetitions=1, qp_ladder=[22], variants=[variant])
        assert run_cli("run", "--config", str(config)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unusable reconstruction for clip/10-10/qp22: ")

    def test_missing_sequence_file(self, tmp_path, capsys):
        from tests.test_config import config_dict

        data = config_dict(tmp_path)
        data["sequences"][0]["path"] = "nope.yuv"
        (tmp_path / "run.json").write_text(json.dumps(data))
        assert run_cli("run", "--config", str(tmp_path / "run.json")) == 1
        assert capsys.readouterr().err == f"error: sequence clip: file not found: {tmp_path / 'nope.yuv'}\n"

    def test_source_out_of_range_fails_before_any_encode(self, tmp_path, capsys):
        from tests.test_config import write_config

        config = write_config(tmp_path, repetitions=1, qp_ladder=[22])
        words = np.fromfile(tmp_path / "clip.yuv", dtype="<u2")
        words[7] = 1024
        words.tofile(tmp_path / "clip.yuv")
        assert run_cli("run", "--config", str(config)) == 1
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'clip.yuv'}: sample index 7 has value 1024 > 1023")
        assert not (tmp_path / "work").exists()

    def test_sequence_name_that_leaves_the_work_dir_is_refused(self, tmp_path, capsys):
        from tests.test_config import config_dict

        study = tmp_path / "study"
        study.mkdir()
        data = config_dict(study, repetitions=1, qp_ladder=[22])
        data["sequences"][0]["name"] = "../../outside"
        (study / "run.json").write_text(json.dumps(data))
        assert run_cli("run", "--config", str(study / "run.json")) == 1
        assert capsys.readouterr().err == "error: sequence name '../../outside' is not a single path component\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["clip.yuv", "run.json", "study"]

    def test_config_that_is_not_utf8_is_validation_error(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_bytes(b'\xff\xfe{"a":1}')
        assert run_cli("run", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {config} is not UTF-8 text: ") and err.count("\n") == 1

    @pytest.mark.parametrize("change, message", [
        (lambda data: data.update(sequences=[]), "no sequences configured"),
        (lambda data: data.update(variants=[]), "no variants configured"),
        (lambda data: data["sequences"].append(dict(data["sequences"][0])), "duplicate sequence names"),
        (lambda data: data["variants"].append(dict(data["variants"][0])), "duplicate variant names"),
        (lambda data: data["variants"].append(dict(data["variants"][0], name="exotic", input_depth=12,
                                                   internal_depth=10)),
         "variant exotic: depths must be 8 or 10"),
    ], ids=["no-sequences", "no-variants", "duplicate-sequence", "duplicate-variant", "depth-12"])
    def test_inconsistent_config_is_validation_error(self, tmp_path, capsys, change, message):
        from tests.test_config import config_dict

        data = config_dict(tmp_path)
        change(data)
        (tmp_path / "run.json").write_text(json.dumps(data))
        assert run_cli("run", "--config", str(tmp_path / "run.json")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_config_that_is_a_json_list_is_validation_error(self, tmp_path, capsys):
        (tmp_path / "run.json").write_text("[1, 2]\n")
        assert run_cli("run", "--config", str(tmp_path / "run.json")) == 1
        assert capsys.readouterr().err == f"error: config {tmp_path / 'run.json'}: top level must be an object\n"

    def test_empty_source_fails_before_any_encode(self, tmp_path, capsys):
        from tests.test_config import write_config

        config = write_config(tmp_path, repetitions=1, qp_ladder=[22])
        (tmp_path / "clip.yuv").write_bytes(b"")
        assert run_cli("run", "--config", str(config)) == 1
        assert capsys.readouterr().err == f"error: sequence clip: no complete frames in {tmp_path / 'clip.yuv'}\n"
        assert not (tmp_path / "work").exists()

    def test_missing_config(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "absent.json")) == 1

    def test_the_retired_reported_rate_key_is_refused(self, tmp_path, capsys):
        from tests.test_config import write_config

        config = write_config(tmp_path, repetitions=1, qp_ladder=[22], reported_rate_regex="([0-9.]+) kbps")
        assert run_cli("run", "--config", str(config)) == 1
        assert capsys.readouterr().err.startswith(f"error: config {config}: unknown key(s) ['reported_rate_regex']; ")
        assert not (tmp_path / "work").exists()

    def test_a_store_with_the_retired_reported_rate_still_reports_and_is_reused(self, tmp_path, capsys):
        # Older stores wrote "reported_rate_kbps" after "external_score" on every line.
        from tests.test_config import write_config

        config = write_config(tmp_path, repetitions=1, qp_ladder=[22, 27, 32, 37])
        assert run_cli("run", "--config", str(config)) == 0
        capsys.readouterr()
        store = tmp_path / "results.jsonl"
        assert run_cli("report", "--store", str(store)) == 0
        table = capsys.readouterr().out
        lines = []
        for line in store.read_text().splitlines():
            record = json.loads(line)
            at = list(record).index("external_score") + 1
            items = list(record.items())
            lines.append(json.dumps(dict(items[:at] + [("reported_rate_kbps", 12.5)] + items[at:])) + "\n")
        store.write_text("".join(lines))
        assert len(ResultStore.load(store)) == 8
        assert run_cli("report", "--store", str(store)) == 0
        assert capsys.readouterr().out == table
        assert run_cli("run", "--config", str(config)) == 0
        assert "done: 0 cell(s) measured, 8 reused, 0 encoder invocation(s)" in capsys.readouterr().out

    def test_report_merges_stores(self, tmp_path, capsys):
        synth_store(hosts=("linux",)).save(tmp_path / "linux.jsonl")
        synth_store(hosts=("windows",), energy_hosts=()).save(tmp_path / "windows.jsonl")
        rc = run_cli(
            "report", "--store", str(tmp_path / "linux.jsonl"),
            "--store", str(tmp_path / "windows.jsonl"),
            "--csv", str(tmp_path / "table.csv"),
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "BDT[linux]" in text and "BDT[windows]" in text
        assert "BDEE[linux]" in text and "BDEE[windows]" not in text
        assert (tmp_path / "table.csv").is_file()

    def test_report_with_scores_adds_second_table(self, tmp_path, capsys):
        synth_store(with_scores=True).save(tmp_path / "s.jsonl")
        rc = run_cli(
            "report", "--store", str(tmp_path / "s.jsonl"),
            "--csv", str(tmp_path / "table.csv"),
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "quality axis: psnr_yuv" in text
        assert "quality axis: external" in text
        assert (tmp_path / "table.external.csv").is_file()

    def test_report_baseline_and_contender_pick_the_compared_routes(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        synth_store(variants=("10-10", "8-10", "8-8", "8-8-nosimd")).save(store)
        assert run_cli("report", "--store", str(store), "--contender", "8-10") == 0
        text = capsys.readouterr().out
        assert text.startswith("Reference 10-10 vs 8-10 ")
        assert "BD-Rate[8-10]" in text and "BD-Rate[8-8]" not in text
        assert "+50.0%" in text  # 8-10 spends 1.5 times 10-10's rate
        assert run_cli("report", "--store", str(store), "--baseline", "8-8", "--contender", "8-8-nosimd") == 0
        text = capsys.readouterr().out
        assert text.startswith("Reference 8-8 vs 8-8-nosimd ")
        assert "BD-Rate[8-8-nosimd]" in text

    def test_report_unwritable_csv_is_io_error(self, tmp_path, capsys):
        synth_store().save(tmp_path / "s.jsonl")
        rc = run_cli(
            "report", "--store", str(tmp_path / "s.jsonl"),
            "--csv", str(tmp_path / "no-dir" / "table.csv"),
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_report_missing_store(self, tmp_path):
        assert run_cli("report", "--store", str(tmp_path / "absent.jsonl")) == 1

    def test_report_store_line_that_is_not_a_record(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        path.write_text('{"schema": 1}\n')
        assert run_cli("report", "--store", str(path)) == 1
        assert f"error: {path}:1: not a run record" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        record_line(qp="27"), record_line(cpu_time="1.2"), record_line(frames=0),
        record_line(bitstream_bytes=None),
    ], ids=["qp-string", "cpu-time-string", "zero-frames", "null-bytes"])
    def test_report_store_line_with_a_value_of_the_wrong_type(self, tmp_path, capsys, line):
        path = tmp_path / "s.jsonl"
        path.write_text(line + "\n")
        assert run_cli("report", "--store", str(path)) == 1
        assert f"error: {path}:1: not a run record" in capsys.readouterr().err

    def test_report_incomplete_store_is_validation_error(self, tmp_path):
        store = synth_store()
        key = next(k for k, r in store.records.items() if r.qp == 27 and r.variant == "8-8")
        ResultStore({k: r for k, r in store.records.items() if k != key}).save(tmp_path / "broken.jsonl")
        assert run_cli("report", "--store", str(tmp_path / "broken.jsonl")) == 1
