"""The demo script: what ``hdrbench run`` plans from its study config, and
the deterministic fields of the study it runs, against a checked-in golden.

``python tests/test_mock_study.py`` runs the study in a temporary directory
and prints its projection (see ``projection``); ``python
tests/test_mock_study.py --check OUTPUT CSV`` compares the study already in
``OUTPUT`` and its table ``CSV`` with the golden, naming each cell that
differs.
"""

import argparse
import contextlib
import csv
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

from hdrbench.config import KNOWN_VARIANTS, RunConfig, SequenceSpec, VariantConfig, load_config
from hdrbench.pipeline import Runner
from hdrbench.yuv import PlaneFormat

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mock_study.py"
GOLDEN = Path(__file__).resolve().parent / "data" / "mock_study.golden.jsonl"
# The fields of a record that do not depend on the host, the clock or the
# interpreter's path (the cache key hashes the templates, which hold it).
RECORD_FIELDS = ("sequence", "variant", "qp", "width", "height", "frames", "frame_rate",
                 "bitstream_bytes", "bitstream_sha256", "psnr_y", "psnr_u", "psnr_v", "psnr_yuv")
# The table's columns that do not depend on the clock: no BDT.
TABLE_COLUMNS = ("Sequence", "PSNR (dB)", "ceil(QP)", "BD-Rate[8-8]", "BD-Rate[8-10]")


def load_script():
    spec = importlib.util.spec_from_file_location("mock_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_study_config_plans_the_cells_of_the_study_built_in_code(tmp_path):
    script = load_script()
    path = script.write_study(tmp_path, sequences=2, frames=2, size=32, repetitions=3)
    assert path == tmp_path / "study.json"
    config = load_config(path)

    fmt = PlaneFormat(32, 32, 10)
    in_code = RunConfig(
        sequences=tuple(SequenceSpec(f"clip{i}", tmp_path / f"clip{i}.yuv", fmt, 50.0) for i in (1, 2)),
        variants=tuple(
            VariantConfig(name, *KNOWN_VARIANTS[name], script.MOCK_ENCODE, script.MOCK_DECODE)
            for name in ("10-10", "8-10", "8-8", "8-8-nosimd")
        ),
        repetitions=3,
        host_label="mockhost",
        store_path=tmp_path / "results.jsonl",
        work_dir=tmp_path / "work",
    )
    assert config == in_code
    planned = [(cell.cache_key, cell.cell_dir, cell.source) for cell in Runner(config).plan()]
    assert planned == [(cell.cache_key, cell.cell_dir, cell.source) for cell in Runner(in_code).plan()]
    assert len(planned) == 2 * 4 * 6
    frame_rate = config.sequences[0].frame_rate
    assert type(frame_rate) is float and frame_rate == 50.0



def test_a_rerun_with_another_size_rewrites_the_clips(tmp_path):
    script = load_script()
    script.write_study(tmp_path, sequences=1, frames=2, size=64, repetitions=1)
    cells = Runner(load_config(script.write_study(tmp_path, sequences=1, frames=2, size=32, repetitions=1))).plan()
    assert {(cell.frames, cell.sequence.fmt.width, cell.sequence.fmt.height) for cell in cells} == {(2, 32, 32)}


def projection(output: Path, table: Path) -> list[dict]:
    """The study's ``RECORD_FIELDS`` per record, sorted by (sequence, variant,
    qp), then the ``TABLE_COLUMNS`` of each row of its table CSV."""
    records = [json.loads(line) for line in (output / "results.jsonl").read_text().splitlines()]
    records.sort(key=lambda r: (r["sequence"], r["variant"], r["qp"]))
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{f: r[f] for f in RECORD_FIELDS} for r in records] + [{c: row[c] for c in TABLE_COLUMNS} for row in rows]


def run_study(output: Path) -> list[dict]:
    """Run the demo study cold into ``output``, its output on stderr; return its projection."""
    with contextlib.redirect_stdout(sys.stderr):
        assert load_script().main(["--output", str(output), "--csv", str(output / "table.csv")]) == 0
    return projection(output, output / "table.csv")


def golden() -> list[dict]:
    return [json.loads(line) for line in GOLDEN.read_text().splitlines()]


def mismatches(got: list[dict], want: list[dict]) -> list[str]:
    """One line per differing field, naming its cell or table row. PSNRs may
    differ by 1e-9 dB; every other value must be equal, and of the same type."""
    if len(got) != len(want):
        return [f"{len(got)} lines, the golden has {len(want)}"]
    found = []
    for g, w in zip(got, want):
        where = f"{w['sequence']}/{w['variant']}/qp{w['qp']}" if "qp" in w else f"table row {w['Sequence']}"
        for key in [*w, *(k for k in g if k not in w)]:
            a, b = g.get(key), w.get(key)
            close = key.startswith("psnr_") and isinstance(a, float) and isinstance(b, float) and abs(a - b) <= 1e-9
            if not close and (a != b or type(a) is not type(b)):
                found.append(f"{where}: {key} is {a!r}, the golden has {b!r}")
    return found


def test_the_study_matches_the_golden(tmp_path):
    """The golden was written on all CPUs and under ``taskset -c 0``, alike, with
    ``PYTHONPATH=src python tests/test_mock_study.py > tests/data/mock_study.golden.jsonl``."""
    assert mismatches(run_study(tmp_path / "study"), golden()) == []


def test_a_changed_digest_is_named_by_its_cell():
    want = golden()
    got = [dict(line) for line in want]
    digest = got[5]["bitstream_sha256"]
    got[5]["bitstream_sha256"] = ("1" if digest[0] == "0" else "0") + digest[1:]
    got[-1]["BD-Rate[8-8]"] = "+9.9%"
    assert [m.split(":")[0] for m in mismatches(got, want)] == [
        f"{want[5]['sequence']}/{want[5]['variant']}/qp{want[5]['qp']}", "table row Average",
    ]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", nargs=2, type=Path, metavar=("OUTPUT", "CSV"))
    args = parser.parse_args()
    if not args.check:
        with tempfile.TemporaryDirectory(prefix="mock-study-") as tmp:
            print("\n".join(json.dumps(line) for line in run_study(Path(tmp))))
        sys.exit(0)
    found = mismatches(projection(*args.check), golden())
    print("\n".join(found) or "the study matches the golden")
    sys.exit(1 if found else 0)
