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
from dataclasses import dataclass, fields
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
        return _RECORD_JSON(self, {"schema": STORE_SCHEMA})

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        if data.get("schema") != STORE_SCHEMA:
            raise StoreError(f"unsupported store schema {data.get('schema')!r}")
        return cls(**read_json(_RECORD_FIELDS, data))


def _json_writer(spec: tuple):
    """``lambda obj, out: {**out, key: value, ...}`` by ``json_fields`` ``spec``:
    a nested dataclass's fields at its place, floats through to_json_float.
    Generated, as dataclasses generates ``__init__``: one dict display takes
    about two thirds of the time of a loop over the fields, on every checkpoint."""

    def items(spec, path):
        for name, key, types, nested, _ in spec:
            if types is None:
                yield from items(nested, f"{path}.{name}")
            else:
                yield f"{key!r}: " + (f"to_json_float({path}.{name})" if float in types else f"{path}.{name}")

    return eval(f"lambda obj, out: {{**out, {', '.join(items(spec, 'obj'))}}}", {"to_json_float": to_json_float})


_RECORD_FIELDS = json_fields(RunRecord)
_RECORD_JSON = _json_writer(_RECORD_FIELDS)
_QUALITY_JSON = _json_writer(json_fields(QualityRecord))


def _store_line(record: RunRecord) -> str:
    return json.dumps(record.to_dict()) + "\n"


class ResultStore:
    """JSONL-backed collection of run records, one JSON object per line.

    Records are only ever added; ``records`` is a read-only view, and a
    store without some of them is a new store from a filtered copy. ``save``
    appends the records added since this store last loaded or wrote the
    same file: it opens the file with ``O_APPEND`` and without ``O_CREAT``,
    and when ``fstat`` of that descriptor finds the file as this store left
    it (same inode, size and mtime), makes one ``os.write`` of the new
    lines. New keys sit last in ``records``, so the file ends up as a full
    rewrite would leave it; lines already in it are not serialised again.
    Otherwise (the file is missing, another writer changed or replaced it,
    or it was removed during the append) ``save`` rewrites the whole file
    through a unique temporary file and ``os.replace``. ``load`` drops a
    last line that a crash cut short. There is no lock: of two concurrent
    writers the last full rewrite wins, and a rewrite in place to the same
    size within one mtime tick goes unnoticed.
    """

    def __init__(self, records: dict[str, RunRecord] | None = None):
        self._records: dict[str, RunRecord] = dict(records or {})
        self.records = types.MappingProxyType(self._records)
        # What this store's last load or save left on disk: (absolute path,
        # (st_ino, st_size, st_mtime_ns), records in the file), or None when
        # the next save must rewrite.
        self._synced: tuple[str, tuple[int, int, int], int] | None = None

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
            fh = open(path, "rb")
        except FileNotFoundError:
            return store
        with fh:
            data = fh.read()
            st = os.fstat(fh.fileno())
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
            store._mark_synced(os.path.abspath(path), st, len(data))
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
        synced = self._synced
        if synced is None or synced[0] != where or not self._append(where, *synced[1:]):
            self._rewrite(where)

    def _append(self, where: str, signature: tuple[int, int, int], persisted: int) -> bool:
        """Append the records added since the last sync, if the file at
        ``where`` is as that sync left it and still there after the write;
        else return False, for ``save`` to rewrite."""
        # Serialise first, so a record that fails to serialise leaves the
        # file untouched, then write it in one call. The new records are the
        # newest keys: walk back from the end, not past every saved one.
        newest_first = itertools.islice(reversed(self._records.values()), len(self._records) - persisted)
        data = "".join(reversed([_store_line(record) for record in newest_first])).encode()
        try:  # no O_CREAT: a removed store is rewritten whole
            fd = os.open(where, os.O_WRONLY | os.O_APPEND)
        except FileNotFoundError:
            return False
        try:
            # The check is on the opened file, so the append cannot land in
            # a file that replaced the checked one.
            st = os.fstat(fd)
            if (st.st_ino, st.st_size, st.st_mtime_ns) != signature:
                return False
            yuv.write_all(fd, data)
            st = os.fstat(fd)
        finally:
            os.close(fd)
        if not st.st_nlink:  # removed after the check: the lines went to a file with no name
            return False
        self._mark_synced(where, st, signature[1] + len(data))
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
                fh.flush()
                st = os.fstat(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        self._mark_synced(where, st, st.st_size)

    def _mark_synced(self, where: str, st: os.stat_result, size: int) -> None:
        """Record the file state this store's own read or write of ``where`` left.

        ``size`` is the size that read or write accounts for; a file of
        another size was also written by someone else, so it is not synced.
        """
        self._synced = None
        if st.st_size == size:
            signature = (st.st_ino, st.st_size, st.st_mtime_ns)
            self._synced = (where, signature, len(self.records))


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
