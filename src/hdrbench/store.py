"""Run records and their JSONL result store: one record per line, keyed by
a content hash of the cell's measurement context (``cell_cache_key``), so a
repeated run reuses finished cells and a report reads them without a runner.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import types
import typing
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import yuv
from .config import VariantConfig, json_fields, read_json
from .errors import ValidationError
from .metrics import QualityRecord

STORE_SCHEMA = 1


class StoreError(ValidationError):
    """Result store file is malformed."""


class StoreConflictError(StoreError):
    """Two records claim the same cell but disagree about the bitstream."""


def to_json_float(value: float | None):
    if value is None:
        return None
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


@dataclass(frozen=True)
class RunRecord:
    """Everything measured and derived for one executed cell."""

    cache_key: str
    sequence: str
    variant: str
    qp: int
    host: str
    width: int
    height: int
    input_depth: int
    internal_depth: int
    frames: int
    frame_rate: float
    bitstream_bytes: int
    bitstream_sha256: str
    wall_time: float
    cpu_time: float
    energy_joules: float | None
    samples: tuple[tuple[float, float, float | None], ...]
    retained_count: int
    quality: QualityRecord
    warnings: tuple[str, ...] = ()
    created_at: str = ""

    def __post_init__(self):
        if not (self.frames > 0 and 0 < self.frame_rate < math.inf):
            raise ValueError(f"frames {self.frames!r} and frame_rate {self.frame_rate!r} must be positive")

    @property
    def bitrate_kbps(self) -> float:
        """Bitrate derived from the exact stored byte count (normative)."""
        return self.bitstream_bytes * 8.0 * self.frame_rate / self.frames / 1000.0

    def to_dict(self) -> dict:
        """The store line's JSON object: the schema, then every field in order."""
        return json.loads(_store_line(self))

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        if data.get("schema") != STORE_SCHEMA:
            raise StoreError(f"unsupported store schema {data.get('schema')!r}")
        return cls(**read_json(_RECORD_FIELDS, data))


def _float_writer(infinity: str, minus_infinity: str):
    """The JSON text of a float, an int or None as json.dumps writes it, but
    with these texts for the infinities. A finite float is written by
    ``float.__repr__``, as json does, so a float subclass such as
    ``np.float64`` prints the same."""

    inf = math.inf

    def write(value) -> str:
        if value is None:
            return "null"
        if -inf < value < inf:
            return float.__repr__(value) if isinstance(value, float) else int.__repr__(value)
        if value != value:
            return "NaN"
        return infinity if value > 0 else minus_infinity

    return write


# The names the generated writer uses. A float field's text is
# json.dumps(to_json_float(value)); a float in a tuple field's is
# json.dumps(value), as when the dict held the tuple.
_WRITER_NAMES = {"_string": encode_basestring_ascii, "_repr": float.__repr__, "_inf": math.inf,
                 "_float": _float_writer('"inf"', '"-inf"'), "_item": _float_writer("Infinity", "-Infinity")}


def _json_text(hint, expr: str, floats: str = "_float") -> str:
    """An expression of the JSON text json.dumps writes for ``expr``, a value
    of type ``hint``, with no single quote in it, for ``_line_writer``'s
    f-string to hold; ``floats`` names the float writer. A ``tuple[X, ...]``
    joins its items' texts, and unpacks an item that is a fixed-length tuple."""
    if hint is str:
        return f"_string({expr})"
    if hint in (float, float | None):  # a finite float inline, any other value through the writer
        return f"(_repr({expr}) if type({expr}) is float and -_inf < {expr} < _inf else {floats}({expr}))"
    args = typing.get_args(hint)
    if typing.get_origin(hint) is not tuple or args[-1] is not Ellipsis:
        raise TypeError(f"no store-line writer for {hint!r}")
    item = typing.get_args(args[0])
    if typing.get_origin(args[0]) is tuple and item[-1] is not Ellipsis:
        names = [f"_{i}" for i in range(len(item))]
        texts = [_json_text(arg, name, "_item") for arg, name in zip(item, names)]
        text = '"[" + ' + ' + ", " + '.join(texts) + ' + "]"'
        return f'"[%s]" % ", ".join([{text} for {", ".join(names)} in {expr}])'
    return f'"[%s]" % ", ".join([{_json_text(args[0], "_", "_item")} for _ in {expr}])'


def _line_writer(cls, spec: tuple):
    """``lambda obj: f'{"schema": 1, "key": ..., ...}\\n'``, the store line of a
    ``cls`` by its ``json_fields`` ``spec`` and its fields' type hints: the
    schema, then every key in order, a nested dataclass's at its place, each
    value written as json.dumps writes it (floats as ``to_json_float`` gives
    them), so the line's bytes are those of json.dumps of that dict.
    Generated, as dataclasses generates ``__init__``: a checkpoint formats
    its line without building the dict or calling json.dumps."""

    def items(cls, spec, path):
        hints = typing.get_type_hints(cls)
        for name, key, types, nested, _ in spec:
            if types is None:
                yield from items(key, nested, f"{path}.{name}")
            elif hints[name] is int:
                yield f"{json.dumps(key)}: {{{path}.{name}}}"
            else:
                yield f"{json.dumps(key)}: {{{_json_text(hints[name], f'{path}.{name}')}}}"

    body = ", ".join([f'"schema": {STORE_SCHEMA}', *items(cls, spec, "obj")])
    return eval(f"lambda obj: f'{{{{{body}}}}}\\n'", _WRITER_NAMES)


_RECORD_FIELDS = json_fields(RunRecord)
_store_line = _line_writer(RunRecord, _RECORD_FIELDS)


class ResultStore:
    """JSONL-backed collection of run records, one JSON object per line.

    Records are only ever added; ``records`` is a read-only view, and a
    store without some of them is a new store from a filtered copy. ``save``
    appends the records added since this store's own clean load or save of
    the same file, in one write with ``O_APPEND`` and without ``O_CREAT``:
    new keys sit last, so the file ends up as a full rewrite would leave it.
    Otherwise it rewrites the file through a unique temporary file and
    ``os.replace``. ``load`` drops a last line that a crash cut short. Only
    ``Runner.run`` writes a store, under ``measure.host_lock``, so no other
    writer is looked for; ``report`` reads without the lock.
    """

    def __init__(self, records: dict[str, RunRecord] | None = None):
        self._records: dict[str, RunRecord] = dict(records or {})
        self.records = types.MappingProxyType(self._records)
        # (absolute path, records in the file) after this store's own clean
        # load or save of that file, or None when the next save must rewrite.
        self._persisted: tuple[str, int] | None = None

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, cache_key: str) -> bool:
        return cache_key in self.records

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ResultStore":
        """Read a store; a missing file is an empty store.

        Of several lines with one key the last wins. A last line without
        its newline that does not parse is the torn tail of an interrupted
        append and is dropped. A store read from a file that does not end
        in a newline, or that repeats a key, rewrites it on its next save.
        """
        store = cls()
        path = Path(path)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return store
        try:
            lines = data.decode().split("\n")
        except UnicodeDecodeError as exc:  # save writes ASCII: not even a torn tail
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise StoreError(f"{path}:{lineno}: not UTF-8 text: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if lineno == len(lines):
                    break  # no newline after it: the torn tail of an append
                raise StoreError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                record = RunRecord.from_dict(record)
            except (ValidationError, AttributeError, KeyError, TypeError, ValueError) as exc:
                raise StoreError(f"{path}:{lineno}: not a run record: {exc!r}") from exc
            store._records[record.cache_key] = record
        # Appendable only if every newline-terminated line is one distinct
        # record and nothing follows the last newline.
        if lines[-1] == "" and len(lines) - 1 == len(store):
            store._persisted = (os.path.abspath(path), len(store))
        return store

    def add(self, record: RunRecord) -> None:
        """Insert a new key's record; a known key keeps its first, if the digests agree."""
        existing = self.records.get(record.cache_key)
        if existing is None:
            self._records[record.cache_key] = record
        elif existing.bitstream_sha256 != record.bitstream_sha256:
            raise StoreConflictError(
                f"cell {record.sequence}/{record.variant}/qp{record.qp}: "
                f"conflicting bitstream digests "
                f"{existing.bitstream_sha256[:12]} vs {record.bitstream_sha256[:12]}"
            )

    def merge(self, other: "ResultStore") -> None:
        """Fold another store in; same-key records must agree on the bitstream."""
        for record in other.records.values():
            self.add(record)

    def save(self, path: str | os.PathLike) -> None:
        """Write the store to ``path``: append the new records, or rewrite."""
        where = os.path.abspath(path)
        if self._persisted is None or self._persisted[0] != where or not self._append(where):
            self._rewrite(where)
        self._persisted = (where, len(self._records))

    def _append(self, where: str) -> bool:
        """Append the records added since the last load or save to the file
        at ``where``; return False, for ``save`` to rewrite, if it is gone."""
        # Serialise first, so a record that fails to serialise leaves the
        # file untouched, then write it in one call. The new records are the
        # newest keys: walk back from the end, not past every saved one.
        newest_first = itertools.islice(reversed(self._records.values()), len(self._records) - self._persisted[1])
        data = "".join(reversed([_store_line(record) for record in newest_first])).encode()
        try:  # no O_CREAT: a removed store is rewritten whole
            fd = os.open(where, os.O_WRONLY | os.O_APPEND)
        except FileNotFoundError:
            return False
        try:
            yuv.write_all(fd, data)
        finally:
            os.close(fd)
        return True

    def _rewrite(self, where: str) -> None:
        path = Path(where)
        path.parent.mkdir(parents=True, exist_ok=True)
        # A new file of a name no other writer uses: the umask sets its mode,
        # as for any file open creates.
        tmp = path.parent / f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
        fh = open(tmp, "x")
        try:
            with fh:
                fh.writelines(map(_store_line, self.records.values()))
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise


def cell_cache_key(sequence_digest: str, variant: VariantConfig, qp: int, host: str) -> str:
    """Content hash identifying a cell's measurement context.

    The host label is part of the key on purpose: time and energy numbers
    from one machine must never satisfy a cache lookup on another.
    """
    payload = json.dumps(
        {
            "schema": STORE_SCHEMA,
            "source": sequence_digest,
            "variant": [getattr(variant, f.name) for f in fields(variant)],
            "qp": qp,
            "host": host,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()
