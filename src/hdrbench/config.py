"""Benchmark run configuration: sequences, encoder variants, ladder, hosts.

Loaded from a single JSON document. Encoder and decoder adapters are
command templates with ``{INPUT} {OUTPUT} {QP} {WIDTH} {HEIGHT} {BITDEPTH}
{FPS}`` placeholders; anything else (presets, SIMD toggles) lives verbatim
in the template, so the toolkit never links codec code.
"""

from __future__ import annotations

import itertools
import json
import os
import shlex
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path
from types import NoneType, UnionType

from .errors import ValidationError
from .yuv import PlaneFormat

DEFAULT_QP_LADDER = (12, 17, 22, 27, 32, 37)

# name -> (input_depth, internal_depth, simd_enabled)
KNOWN_VARIANTS = {
    "10-10": (10, 10, True),
    "8-10": (8, 10, True),
    "8-8": (8, 8, True),
    "8-8-nosimd": (8, 8, False),
}

# JSON key of each dataclass field that a config file or store line names
# differently; every other field's key is its name.
JSON_NAMES = {"cache_key": "key", "store_path": "store"}


class ConfigError(ValidationError):
    """Malformed or inconsistent run configuration."""


def _check_name(kind: str, name: str) -> None:
    """A sequence or variant name names a directory of the work dir: one path component."""
    if name in ("", ".", "..") or any(c in name for c in ("/", os.sep, "\0")):
        raise ConfigError(f"{kind} name {name!r} is not a single path component")


@dataclass(frozen=True)
class SequenceSpec:
    name: str
    path: Path
    fmt: PlaneFormat
    frame_rate: float

    def __post_init__(self):
        _check_name("sequence", self.name)
        if self.fmt.bit_depth != 10:
            raise ConfigError(f"sequence {self.name}: source must be 10-bit, got {self.fmt.bit_depth}-bit")
        if not 0 < self.frame_rate < float("inf"):  # rejects NaN and infinity too
            raise ConfigError(f"sequence {self.name}: frame rate must be positive")


@dataclass(frozen=True)
class VariantConfig:
    """One encoding route: which depth the encoder sees and runs at.

    ``8-8`` and ``8-8-nosimd`` must differ only in ``simd_enabled``; their
    bitstreams are expected to be byte-identical. A run decodes and scores
    each distinct bitstream and decoder command once, so with one decoder
    template the ``8-8-nosimd`` cells take their ``8-8`` twins' scores.
    """

    name: str
    input_depth: int
    internal_depth: int
    simd_enabled: bool
    encoder_template: str
    decoder_template: str

    def __post_init__(self):
        _check_name("variant", self.name)
        if self.input_depth not in (8, 10) or self.internal_depth not in (8, 10):
            raise ConfigError(f"variant {self.name}: depths must be 8 or 10")
        known = KNOWN_VARIANTS.get(self.name)
        if known and known != (self.input_depth, self.internal_depth, self.simd_enabled):
            raise ConfigError(
                f"variant {self.name}: depths/simd {self.input_depth}/{self.internal_depth}/"
                f"{self.simd_enabled} contradict the standard definition {known}"
            )
        for template, what in ((self.encoder_template, "encoder"), (self.decoder_template, "decoder")):
            if "{INPUT}" not in template or "{OUTPUT}" not in template:
                raise ConfigError(
                    f"variant {self.name}: {what} template needs {{INPUT}} and {{OUTPUT}}"
                )


def render_template(template: str, substitutions: dict[str, str]) -> list[str]:
    """Tokenize a command template, then substitute placeholders per token."""
    argv = []
    for token in shlex.split(template):
        for key, value in substitutions.items():
            token = token.replace(key, value)
        argv.append(token)
    return argv


@dataclass(frozen=True)
class RunConfig:
    sequences: tuple[SequenceSpec, ...]
    variants: tuple[VariantConfig, ...]
    qp_ladder: tuple[int, ...] = DEFAULT_QP_LADDER
    repetitions: int = 5
    host_label: str = "local"
    rapl_domain: str | None = None  # a name under /sys/class/powercap, or an absolute path
    store_path: Path = Path("results.jsonl")
    work_dir: Path = Path("work")
    cache: str = "reuse"  # or "fresh"
    metric_command: str | None = None

    def __post_init__(self):
        if not self.sequences:
            raise ConfigError("no sequences configured")
        if not self.variants:
            raise ConfigError("no variants configured")
        if not self.qp_ladder:
            raise ConfigError("QP ladder must not be empty")
        if len(set(self.qp_ladder)) != len(self.qp_ladder):
            raise ConfigError("QP ladder contains duplicates")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.cache not in ("reuse", "fresh"):
            raise ConfigError(f"cache policy must be 'reuse' or 'fresh', got {self.cache!r}")
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate variant names")
        seq_names = [s.name for s in self.sequences]
        if len(set(seq_names)) != len(seq_names):
            raise ConfigError("duplicate sequence names")
        if self.metric_command is not None and not (
            "{REF}" in self.metric_command and "{TEST}" in self.metric_command
        ):
            raise ConfigError("metric_command must contain {REF} and {TEST}")


def _reader(hint, leaves: dict) -> tuple[frozenset, object]:
    """(types, read) for a field's type hint. A JSON value whose exact type
    is in ``types`` (a bool is no int) is already what the field holds;
    ``read`` converts any other value, arrays to tuples and strings to paths,
    or raises TypeError. ``leaves`` maps more types to their (types, read)."""
    args = typing.get_args(hint)
    if hint in leaves:
        return leaves[hint]
    if isinstance(hint, UnionType):  # X | None
        types, read = _reader(args[0], leaves)
        return types | {NoneType}, read
    if typing.get_origin(hint) is tuple:  # tuple[X, ...] or tuple[X, Y, Z]
        repeated = args[-1] is Ellipsis
        items = [_reader(arg, leaves) for arg in args if arg is not Ellipsis]

        def read_items(value):
            if type(value) not in (list, tuple) or not repeated and len(value) != len(items):
                raise TypeError(f"expected a list{'' if repeated else f' of {len(items)} items'}, got {value!r}")
            per_item = itertools.repeat(items[0]) if repeated else items
            return tuple([v if type(v) in t else read(v) for v, (t, read) in zip(value, per_item)])

        return frozenset(), read_items

    def read(value):
        if hint is float and value in ("inf", "-inf"):  # as to_json_float writes infinities
            return float(value)
        if hint is Path and type(value) is str:
            return Path(value)
        raise TypeError(f"expected {hint.__name__}, got {value!r}")

    return frozenset({float: (int, float), Path: ()}.get(hint, (hint,))), read


def json_fields(cls, leaves: dict | None = None) -> tuple:
    """(name, JSON key, types, read, required) of each field of dataclass ``cls``;
    a field holding a dataclass is flattened, with that class for the key and
    its ``json_fields`` for ``read``. A field with a default may be left out."""
    hints = typing.get_type_hints(cls)
    spec = []
    for f in fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        if is_dataclass(hints[f.name]):
            spec.append((f.name, hints[f.name], None, json_fields(hints[f.name], leaves), required))
        else:
            types, read = _reader(hints[f.name], leaves or {})
            spec.append((f.name, JSON_NAMES.get(f.name, f.name), types, read, required))
    return tuple(spec)


def read_json(spec: tuple, data: dict) -> dict:
    """Field values of a JSON object by ``json_fields`` ``spec``. A missing
    required key raises KeyError, and a value of the wrong JSON type
    TypeError naming its key."""
    values = {}
    for name, key, types, read, required in spec:
        if types is None:  # a flattened dataclass
            values[name] = key(**read_json(read, data))
        elif key in data:
            value = data[key]
            if type(value) not in types:
                try:
                    value = read(value)
                except TypeError as exc:
                    raise TypeError(f"{key}: {exc}") from None
            values[name] = value
        elif required:
            raise KeyError(key)
    return values


def _read_config(spec: tuple, data, kind: str, name) -> dict:
    """Field values of one config object by ``json_fields`` ``spec``: the top
    level, a sequence entry or a variant entry. A non-object raises TypeError,
    for the key that holds it to name. A key outside ``spec``, a missing
    required key and a value of the wrong JSON type raise ConfigError after
    ``kind`` and ``name(data)``, which name the object."""
    if type(data) is not dict:
        raise TypeError(f"expected an object, got {data!r}")
    label = name(data)
    context = f"{kind} {label}" if label else kind
    keys = sorted(key for _, key, *_ in spec)
    unknown = sorted(set(data).difference(keys))
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {unknown}; allowed: {keys}")
    try:
        return read_json(spec, data)
    except KeyError as exc:
        raise ConfigError(f"{context}: missing required key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ConfigError(f"{context}: {exc}") from None


# A sequence entry's keys and types, which differ from SequenceSpec's fields;
# only the name may be left out.
_SEQUENCE_FIELDS = tuple((key, key, *_reader(hint, {}), key != "name") for key, hint in
                         {"name": str, "path": str, "width": int, "height": int, "fps": float}.items())
# A standard variant name implies its depths and SIMD flag, so its entry may leave them out.
_IMPLIED = ("input_depth", "internal_depth", "simd_enabled")
_VARIANT_FIELDS = tuple((name, key, types, read, required and name not in _IMPLIED)
                        for name, key, types, read, required in json_fields(VariantConfig))


def _sequence_name(entry: dict):
    """A sequence entry's name: its ``name``, else its file's stem."""
    path = entry.get("path")
    return entry.get("name") or (Path(path).stem if type(path) is str else None)


def _parse_sequence(entry, base: Path) -> SequenceSpec:
    values = _read_config(_SEQUENCE_FIELDS, entry, "sequence", _sequence_name)
    fmt = PlaneFormat(width=values["width"], height=values["height"], bit_depth=10)
    return SequenceSpec(_sequence_name(values), base / values["path"], fmt, values["fps"])


def _parse_variant(entry) -> VariantConfig:
    values = _read_config(_VARIANT_FIELDS, entry, "variant", lambda entry: entry.get("name"))
    name = values["name"]
    known = KNOWN_VARIANTS.get(name)
    if known is None and not {"input_depth", "internal_depth"} <= values.keys():
        raise ConfigError(f"unknown variant name {name!r}: specify input_depth and internal_depth")
    standard = known or (values["input_depth"], values["internal_depth"], True)
    return VariantConfig(**{**dict(zip(_IMPLIED, standard)), **values})


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a JSON run configuration file.

    A key the file leaves out keeps its ``RunConfig`` field's default. Relative
    paths, defaults included, resolve against the config file's directory.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path}: top level must be an object")

    base = path.parent
    leaves = {SequenceSpec: (frozenset(), lambda entry: _parse_sequence(entry, base)),
              VariantConfig: (frozenset(), _parse_variant)}
    config = RunConfig(**_read_config(json_fields(RunConfig, leaves), data, "config", lambda _: path))
    return replace(config, **{k: base / v for k, v in vars(config).items() if isinstance(v, Path)})
