"""The demo script's study config: what ``hdrbench run`` plans from it. No codec runs."""

import importlib.util
from pathlib import Path

from hdrbench.config import KNOWN_VARIANTS, RunConfig, SequenceSpec, VariantConfig, load_config
from hdrbench.pipeline import Runner
from hdrbench.yuv import PlaneFormat

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mock_study.py"


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
