"""Run-configuration parsing and validation."""

import json
import re
from pathlib import Path

import pytest

from hdrbench.config import (
    DEFAULT_QP_LADDER,
    ConfigError,
    RunConfig,
    SequenceSpec,
    VariantConfig,
    load_config,
    render_template,
)
from hdrbench.yuv import PlaneFormat
from tests import conftest
from tests.conftest import MOCK_DECODE, MOCK_ENCODE


def write_clip(tmp_path, name="clip.yuv", frames=2):
    conftest.write_clip(tmp_path / name, 1, PlaneFormat(32, 32, 10), frames)
    return tmp_path / name


def config_dict(tmp_path, **overrides):
    write_clip(tmp_path)
    data = {
        "sequences": [
            {"name": "clip", "path": "clip.yuv", "width": 32, "height": 32, "fps": 50}
        ],
        "variants": [
            {"name": "10-10", "encoder_template": MOCK_ENCODE, "decoder_template": MOCK_DECODE},
            {"name": "8-8", "encoder_template": MOCK_ENCODE, "decoder_template": MOCK_DECODE},
        ],
        "host_label": "testhost",
    }
    data.update(overrides)
    return data


def write_config(tmp_path, **overrides):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config_dict(tmp_path, **overrides)))
    return path


class TestLoadConfig:
    def test_happy_path(self, tmp_path):
        config = load_config(write_config(tmp_path))
        assert config.qp_ladder == DEFAULT_QP_LADDER
        assert config.repetitions == 5
        assert config.host_label == "testhost"
        assert config.sequences[0].name == "clip"
        assert config.sequences[0].path == tmp_path / "clip.yuv"
        assert config.variants[0].input_depth == 10
        assert config.variants[1].input_depth == 8
        assert config.store_path == tmp_path / "results.jsonl"

    def test_builtin_variant_depths(self, tmp_path):
        data = config_dict(tmp_path)
        data["variants"] = [
            {"name": name, "encoder_template": MOCK_ENCODE, "decoder_template": MOCK_DECODE}
            for name in ("10-10", "8-10", "8-8", "8-8-nosimd")
        ]
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        config = load_config(path)
        table = {
            v.name: (v.input_depth, v.internal_depth, v.simd_enabled) for v in config.variants
        }
        assert table == {
            "10-10": (10, 10, True),
            "8-10": (8, 10, True),
            "8-8": (8, 8, True),
            "8-8-nosimd": (8, 8, False),
        }

    def test_unknown_variant_needs_depths(self, tmp_path):
        data = config_dict(tmp_path)
        data["variants"].append(
            {"name": "exotic", "encoder_template": MOCK_ENCODE, "decoder_template": MOCK_DECODE}
        )
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="unknown variant"):
            load_config(path)

    def test_unknown_variant_with_depths_accepted(self, tmp_path):
        data = config_dict(tmp_path)
        data["variants"].append(
            {
                "name": "exotic",
                "input_depth": 10,
                "internal_depth": 8,
                "encoder_template": MOCK_ENCODE,
                "decoder_template": MOCK_DECODE,
            }
        )
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        config = load_config(path)
        assert [v.internal_depth for v in config.variants if v.name == "exotic"] == [8]

    def test_builtin_variant_contradiction_rejected(self, tmp_path):
        data = config_dict(tmp_path)
        data["variants"][0]["input_depth"] = 8  # 10-10 must read 10-bit input
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="contradict"):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{ nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_unknown_top_level_key_rejected(self, tmp_path):
        # A typo like "store_path" (the key is "store") must not pass silently.
        with pytest.raises(ConfigError, match="store_path"):
            load_config(write_config(tmp_path, store_path="elsewhere.jsonl"))

    def test_unknown_sequence_key_rejected(self, tmp_path):
        data = config_dict(tmp_path)
        data["sequences"][0]["frame_rate"] = 50
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="frame_rate"):
            load_config(path)
        # Sources are 10-bit: no key states their depth.
        del data["sequences"][0]["frame_rate"]
        data["sequences"][0]["bit_depth"] = 10
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == (
            "sequence clip: unknown key(s) ['bit_depth']; allowed: ['fps', 'height', 'name', 'path', 'width']"
        )

    def test_unknown_variant_key_rejected(self, tmp_path):
        data = config_dict(tmp_path)
        data["variants"][0]["encoder"] = "x {INPUT} {OUTPUT}"
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="'encoder'"):
            load_config(path)

    def test_template_needs_placeholders(self, tmp_path):
        data = config_dict(tmp_path)
        data["variants"][0]["encoder_template"] = "encoder --flag"
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="INPUT"):
            load_config(path)

    def test_relative_paths_resolve_against_config(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        write_clip(sub)
        data = config_dict(tmp_path)
        data["store"] = "out/results.jsonl"
        path = sub / "run.json"
        path.write_text(json.dumps(data))
        config = load_config(path)
        assert config.sequences[0].path == sub / "clip.yuv"
        assert config.store_path == sub / "out" / "results.jsonl"


    def test_default_paths_resolve_against_config(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        path = sub / "run.json"
        path.write_text(json.dumps(config_dict(sub)))
        config = load_config(path)
        assert config.store_path == sub / "results.jsonl"
        assert config.work_dir == sub / "work"
        assert config.rapl_domain is None

    def test_keys_set_map_to_fields(self, tmp_path):
        config = load_config(write_config(
            tmp_path, qp_ladder=[22, 27], repetitions=3, rapl_domain="package-0",
            work_dir="w", cache="fresh", metric_command="m {REF} {TEST}",
        ))
        assert config.qp_ladder == (22, 27) and config.repetitions == 3
        assert config.rapl_domain == "package-0" and config.cache == "fresh"
        assert config.work_dir == tmp_path / "w"
        assert config.metric_command == "m {REF} {TEST}"

    def test_unknown_key_message_lists_the_allowed_keys(self, tmp_path):
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, stores="x"))
        assert str(info.value).endswith(
            "unknown key(s) ['stores']; allowed: ['cache', 'host_label', 'metric_command', "
            "'qp_ladder', 'rapl_domain', 'repetitions', "
            "'sequences', 'store', 'variants', 'work_dir']"
        )
        # Every encode is pinned to one CPU and trimmed: no key switches either.
        # The bitrate is the bitstream's bytes: no key greps a rate from the logs.
        # rapl_domain alone names the energy counter: no key names its root.
        for key, value in (("trim_outliers", True), ("trim_outliers", False), ("pin_cpu", True),
                           ("pin_cpu", False), ("pin_cpu", "no"), ("reported_rate_regex", "([0-9.]+) kbps"),
                           ("powercap_root", "/sys/class/powercap")):
            with pytest.raises(ConfigError, match=rf"unknown key\(s\) \['{key}'\]; allowed: "):
                load_config(write_config(tmp_path, **{key: value}))
        data = config_dict(tmp_path)
        data["variants"][0]["simd"] = False
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == (
            "variant 10-10: unknown key(s) ['simd']; allowed: ['decoder_template', 'encoder_template', "
            "'input_depth', 'internal_depth', 'name', 'simd_enabled']"
        )

    @pytest.mark.parametrize("key, value", [
        ("repetitions", "5"), ("repetitions", 5.0), ("repetitions", True), ("qp_ladder", 22),
        ("qp_ladder", ["22"]), ("host_label", 7), ("rapl_domain", 0), ("store", 5),
        ("work_dir", None), ("rapl_domain", []), ("cache", None), ("qp_ladder", [22, None]),
        ("metric_command", False), ("metric_command", ["m", "{REF}", "{TEST}"]),
        ("host_label", None), ("sequences", {}), ("sequences", [5]), ("variants", "8-8"),
    ])
    def test_value_of_the_wrong_json_type_is_rejected(self, tmp_path, key, value):
        path = write_config(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=rf"^config {re.escape(str(path))}: {key}: expected "):
            load_config(path)

    @pytest.mark.parametrize("entry, key, value", [
        ("variants", "input_depth", "8"), ("variants", "simd_enabled", 1),
        ("variants", "encoder_template", None), ("sequences", "width", "32"),
        ("sequences", "fps", "50"), ("sequences", "path", 1),
    ])
    def test_entry_value_of_the_wrong_json_type_is_rejected(self, tmp_path, entry, key, value):
        data = config_dict(tmp_path)
        data[entry][0][key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        context = {"variants": "variant 10-10", "sequences": "sequence clip"}[entry]
        with pytest.raises(ConfigError, match=rf"^{context}: {key}: expected "):
            load_config(path)

    @pytest.mark.parametrize("fps", [0, -25, float("inf"), float("nan")])
    def test_frame_rate_must_be_positive_and_finite(self, tmp_path, fps):
        data = config_dict(tmp_path)
        data["sequences"][0]["fps"] = fps
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="frame rate must be positive"):
            load_config(path)

    def test_missing_required_key(self, tmp_path):
        data = config_dict(tmp_path)
        del data["variants"]
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=rf"^config {re.escape(str(path))}: missing required key 'variants'$"):
            load_config(path)
        data["variants"] = [{"name": "10-10", "decoder_template": MOCK_DECODE}]
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=r"^variant 10-10: missing required key 'encoder_template'$"):
            load_config(path)
        del data["sequences"][0]["width"]
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=r"^sequence clip: missing required key 'width'$"):
            load_config(path)

    def test_the_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("\n## Real studies\n"):]
        example = section[section.index("```json\n") + len("```json\n"):]
        path = tmp_path / "study.json"
        path.write_text(example[:example.index("```")])
        config = load_config(path)
        assert [v.name for v in config.variants] == ["10-10", "8-8"]
        assert config.host_label == "linux-i7"
        assert config.store_path == tmp_path / "results.jsonl"


class TestRunConfigValidation:
    @pytest.mark.parametrize("name", ["../x", "a/b", "..", "."])
    @pytest.mark.parametrize("kind", ["sequence", "variant"])
    def test_name_must_be_one_path_component(self, tmp_path, kind, name):
        data = config_dict(tmp_path)
        entry = data[kind + "s"][0]
        if kind == "variant":
            entry.update(input_depth=10, internal_depth=10)
        entry["name"] = name
        (tmp_path / "run.json").write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=f"^{kind} name {re.escape(repr(name))} is not a single path component$"):
            load_config(tmp_path / "run.json")

    @pytest.mark.parametrize("name", ["", "a\0b"])
    def test_empty_or_nul_name_is_refused(self, name):
        fmt = PlaneFormat(32, 32, 10)
        with pytest.raises(ConfigError, match="is not a single path component"):
            SequenceSpec(name, "clip.yuv", fmt, 50.0)
        with pytest.raises(ConfigError, match="is not a single path component"):
            VariantConfig(name, 10, 10, True, MOCK_ENCODE, MOCK_DECODE)

    def make(self, tmp_path, **overrides):
        clip = write_clip(tmp_path)
        spec = SequenceSpec("clip", clip, PlaneFormat(32, 32, 10), 50.0)
        variant = VariantConfig("10-10", 10, 10, True, MOCK_ENCODE, MOCK_DECODE)
        defaults = dict(sequences=(spec,), variants=(variant,))
        defaults.update(overrides)
        return RunConfig(**defaults)

    def test_defaults(self, tmp_path):
        config = self.make(tmp_path)
        assert config.qp_ladder == (12, 17, 22, 27, 32, 37)
        assert config.cache == "reuse"

    def test_eight_bit_source_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^sequence clip8: source must be 10-bit, got 8-bit$"):
            SequenceSpec("clip8", tmp_path / "clip8.yuv", PlaneFormat(32, 32, 8), 50.0)

    def test_empty_ladder_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="ladder"):
            self.make(tmp_path, qp_ladder=())

    def test_duplicate_qp_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            self.make(tmp_path, qp_ladder=(22, 22, 27, 32))

    def test_zero_repetitions_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="repetitions"):
            self.make(tmp_path, repetitions=0)

    def test_bad_cache_policy_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cache"):
            self.make(tmp_path, cache="maybe")

    @pytest.mark.parametrize("command", ["metric {REF}", "metric {TEST}", "metric a b"])
    def test_metric_command_without_placeholders_rejected(self, tmp_path, command):
        with pytest.raises(ConfigError, match=r"metric_command must contain \{REF\} and \{TEST\}"):
            self.make(tmp_path, metric_command=command)


class TestRenderTemplate:
    def test_substitution_per_token(self):
        argv = render_template(
            "enc --in {INPUT} --qp {QP} --size {WIDTH}x{HEIGHT}",
            {"{INPUT}": "a.yuv", "{QP}": "22", "{WIDTH}": "64", "{HEIGHT}": "48"},
        )
        assert argv == ["enc", "--in", "a.yuv", "--qp", "22", "--size", "64x48"]

    def test_quoted_arguments_with_spaces(self):
        argv = render_template("enc --note 'two words' {INPUT}", {"{INPUT}": "in file.yuv"})
        assert argv == ["enc", "--note", "two words", "in file.yuv"]
