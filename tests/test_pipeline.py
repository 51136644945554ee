"""Execution pipeline: records, store, cache keys, and full runs."""

import contextlib
import hashlib
import itertools
import json
import math
import os
import re
import stat
import sys
import tempfile
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdrbench import bitdepth, measure, mockcodec, pipeline, yuv
from hdrbench.config import RunConfig, SequenceSpec, VariantConfig
from hdrbench.errors import ValidationError
from hdrbench.measure import MeasurementError
from hdrbench.metrics import QualityRecord
from hdrbench.pipeline import PipelineError, Runner, file_sha256
from hdrbench.store import (
    ResultStore,
    RunRecord,
    StoreConflictError,
    StoreError,
    _store_line,
    cell_cache_key,
    to_json_float,
)
from hdrbench.yuv import PlaneFormat
from tests.conftest import MOCK_DECODE, MOCK_ENCODE, deny_reads_of, write_clip

LADDER = (22, 27, 32, 37)


def make_record(**overrides) -> RunRecord:
    defaults = dict(
        cache_key="k1",
        sequence="clip",
        variant="10-10",
        qp=22,
        host="hostA",
        width=64,
        height=64,
        input_depth=10,
        internal_depth=10,
        frames=2,
        frame_rate=50.0,
        bitstream_bytes=1000,
        bitstream_sha256="aa" * 32,
        wall_time=1.5,
        cpu_time=1.4,
        energy_joules=12.5,
        samples=((1.5, 1.4, 12.5),),
        retained_count=1,
        quality=QualityRecord(40.0, 42.0, 43.0, psnr_yuv=40.625),
    )
    defaults.update(overrides)
    return RunRecord(**defaults)


def record_line(**fields) -> str:
    """A store line of ``make_record()`` with some JSON values replaced."""
    return json.dumps({**make_record().to_dict(), **fields})


def full_rewrite(store: ResultStore, path) -> bytes:
    """The bytes a store never synced to ``path`` writes there: a full rewrite."""
    ResultStore(dict(store.records)).save(path)
    return Path(path).read_bytes()


def cut_tail(path, nbytes: int) -> None:
    os.truncate(path, os.path.getsize(path) - nbytes)


def short_decoder(nbytes: int, fill: int = 0) -> str:
    """A decoder template that writes ``nbytes`` bytes of ``fill`` as its reconstruction."""
    return (f"{sys.executable} -S -c 'import sys; open(sys.argv[2], \"wb\").write(bytes([{fill}]) * {nbytes})' "
            "{INPUT} {OUTPUT}")


def make_run_config(tmp_path, variants=("10-10", "8-8"), sequences=("clip",), **overrides):
    fmt = PlaneFormat(32, 32, 10)
    specs = []
    for index, name in enumerate(sequences):
        path = tmp_path / f"{name}.yuv"
        write_clip(path, index + 1, fmt, frames=2)
        specs.append(SequenceSpec(name, path, fmt, 50.0))
    table = {
        "10-10": (10, 10, True),
        "8-10": (8, 10, True),
        "8-8": (8, 8, True),
        "8-8-nosimd": (8, 8, False),
    }
    variant_cfgs = tuple(
        VariantConfig(name, *table[name], MOCK_ENCODE, MOCK_DECODE) for name in variants
    )
    defaults = dict(
        sequences=tuple(specs),
        variants=variant_cfgs,
        qp_ladder=LADDER,
        repetitions=1,
        host_label="testhost",
        store_path=tmp_path / "results.jsonl",
        work_dir=tmp_path / "work",
        # Point at a missing powercap domain so energy is deterministically
        # absent regardless of the machine the tests run on.
        rapl_domain=str(tmp_path / "no-powercap" / "intel-rapl:0"),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestJsonFloats:
    def test_infinity_round_trip(self):
        assert to_json_float(math.inf) == "inf"
        assert to_json_float(-math.inf) == "-inf"
        assert to_json_float(41.25) == 41.25
        assert to_json_float(None) is None


class TestRunRecord:
    def test_bitrate_from_exact_bytes(self):
        record = make_record(bitstream_bytes=125_000, frames=50, frame_rate=50.0)
        assert record.bitrate_kbps == pytest.approx(1000.0)

    def test_dict_round_trip(self):
        record = make_record()
        assert RunRecord.from_dict(record.to_dict()) == record

    def test_dict_round_trip_with_infinite_psnr(self):
        record = make_record(
            quality=QualityRecord(math.inf, math.inf, math.inf, math.inf)
        )
        data = json.loads(json.dumps(record.to_dict()))
        back = RunRecord.from_dict(data)
        assert back.quality.psnr_yuv == math.inf

    def test_schema_checked(self):
        data = make_record().to_dict()
        data["schema"] = 99
        with pytest.raises(Exception):
            RunRecord.from_dict(data)


class TestPinnedBytes:
    """The store line and the cache key are the contract every reported
    number passes through: both are pinned, so they change only on purpose
    (a STORE_SCHEMA bump where the loader could not read old lines)."""

    def test_store_line_bytes(self):
        record = make_record(
            samples=((1.5, 1.4, 12.5), (1.625, 1.375, None)),
            quality=QualityRecord(math.inf, 42.0, 43.0, math.inf, external_score=7.5),
            warnings=("repetition CV 12.0% exceeds 10%",),
            created_at="2026-01-01T00:00:00+00:00",
        )
        line = _store_line(record)
        assert line == (
            '{"schema": 1, "key": "k1", "sequence": "clip", "variant": "10-10", "qp": 22, '
            '"host": "hostA", "width": 64, "height": 64, "input_depth": 10, "internal_depth": 10, '
            '"frames": 2, "frame_rate": 50.0, "bitstream_bytes": 1000, "bitstream_sha256": '
            '"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "wall_time": 1.5, '
            '"cpu_time": 1.4, "energy_joules": 12.5, "samples": [[1.5, 1.4, 12.5], '
            '[1.625, 1.375, null]], "retained_count": 1, "psnr_y": "inf", "psnr_u": 42.0, '
            '"psnr_v": 43.0, "psnr_yuv": "inf", "external_score": 7.5, "warnings": '
            '["repetition CV 12.0% exceeds 10%"], "created_at": "2026-01-01T00:00:00+00:00"}\n'
        )
        assert RunRecord.from_dict(json.loads(line)) == record
        # Lines of older stores held the retired encoder-reported rate: they load to the same record.
        assert RunRecord.from_dict({**json.loads(line), "reported_rate_kbps": 123.25}) == record

    def test_cache_key_bytes(self):
        variant = VariantConfig(
            "8-8-nosimd", 8, 8, False, "enc -i {INPUT} -o {OUTPUT} -q {QP}", "dec {INPUT} {OUTPUT}"
        )
        assert cell_cache_key("ab" * 32, variant, 27, "hostA") == (
            "ff6cee829d745e43795a1891cef5ab6b21c1542d77d3ba7e087ea435ee9ced0f"
        )


def dumped_line(record: RunRecord) -> str:
    """The store line as json.dumps writes the record's dict built field by
    field: the schema, then each field under its key, a float field through
    to_json_float, the quality's fields at its place."""
    data = {"schema": 1}
    for f in fields(record):
        value = getattr(record, f.name)
        if f.name == "quality":
            data.update((q.name, to_json_float(getattr(value, q.name))) for q in fields(value))
        else:
            float_field = f.name in ("frame_rate", "wall_time", "cpu_time", "energy_joules")
            data["key" if f.name == "cache_key" else f.name] = to_json_float(value) if float_field else value
    return json.dumps(data) + "\n"


# Floats as json.dumps meets them: finite, infinite, NaN, np.float64, whole-valued and ints.
ANY_FLOAT = st.one_of(
    st.floats(), st.floats().map(np.float64), st.integers(-10**6, 10**6).map(float), st.integers(-10**6, 10**6),
)
POSITIVE_FLOAT = st.floats(1e-6, 1e6) | st.floats(1e-6, 1e6).map(np.float64) | st.integers(1, 10**6)
# Quotes, backslashes, control and non-ASCII characters, and the rest.
TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u20ac\U0001f600 ') | st.characters(), max_size=12)


class TestStoreLine:
    @settings(max_examples=300, deadline=None)
    @given(
        strings=st.tuples(*[TEXT] * 6),
        floats=st.tuples(POSITIVE_FLOAT, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT | st.none(), *[ANY_FLOAT] * 4),
        external=st.none() | st.floats(0.0, 10.0) | st.floats(0.0, 10.0).map(np.float64),
        samples=st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT | st.none()), max_size=5),
        warnings=st.lists(TEXT, max_size=3),
    )
    def test_line_is_what_json_dumps_writes(self, strings, floats, external, samples, warnings):
        key, sequence, variant, host, digest, created = strings
        frame_rate, wall, cpu, energy, *psnr = floats
        record = make_record(
            cache_key=key, sequence=sequence, variant=variant, host=host, bitstream_sha256=digest,
            created_at=created, frame_rate=frame_rate, wall_time=wall, cpu_time=cpu, energy_joules=energy,
            quality=QualityRecord(*psnr, external_score=external), samples=tuple(samples),
            warnings=tuple(warnings),
        )
        assert _store_line(record) == dumped_line(record)

    def test_rewrite_keeps_the_bytes_json_dumps_wrote(self, tmp_path):
        original = tmp_path / "store.jsonl"
        original.write_text("".join(line + "\n" for line in (
            record_line(),
            record_line(key="k2", frame_rate=50, wall_time=2, energy_joules=None, psnr_y="inf", psnr_u=math.nan,
                        psnr_v=-0.0, external_score=10, created_at="caf\u00e9 \"\\\n\x01"),
            record_line(key="k3", samples=[[1e300, math.inf, None], [-math.inf, math.nan, 0]],
                        warnings=["\x00", "\U0001f600", ""], psnr_yuv="-inf"),
        )))
        store = ResultStore.load(original)
        assert full_rewrite(store, tmp_path / "rewritten.jsonl") == original.read_bytes()
        back = ResultStore.load(tmp_path / "rewritten.jsonl")
        assert repr(list(back.records.items())) == repr(list(store.records.items()))


class TestResultStore:
    def test_save_and_load(self, tmp_path):
        store = ResultStore()
        store.add(make_record(cache_key="k1"))
        store.add(make_record(cache_key="k2", qp=27))
        path = tmp_path / "store.jsonl"
        store.save(path)
        assert len(path.read_text().splitlines()) == 2
        back = ResultStore.load(path)
        assert len(back) == 2
        assert back.records["k2"].qp == 27

    def test_load_missing_file_is_empty(self, tmp_path):
        assert len(ResultStore.load(tmp_path / "absent.jsonl")) == 0

    def test_load_rejects_garbage_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text("not json\n")
        with pytest.raises(Exception):
            ResultStore.load(path)

    def test_merge_keeps_first_on_agreeing_keys(self):
        a = ResultStore()
        a.add(make_record(cache_key="k", wall_time=1.0))
        b = ResultStore()
        b.add(make_record(cache_key="k", wall_time=2.0))
        a.merge(b)
        assert a.records["k"].wall_time == 1.0

    def test_merge_conflicting_digests_rejected(self):
        a = ResultStore()
        a.add(make_record(cache_key="k", bitstream_sha256="aa" * 32))
        b = ResultStore()
        b.add(make_record(cache_key="k", bitstream_sha256="bb" * 32))
        with pytest.raises(StoreConflictError):
            a.merge(b)

    def test_merge_disjoint_hosts_keeps_both(self):
        a = ResultStore()
        a.add(make_record(cache_key="k1", host="hostA"))
        b = ResultStore()
        b.add(make_record(cache_key="k2", host="hostB"))
        a.merge(b)
        assert len(a) == 2


class TestStoreCheckpoints:
    """save appends the records added since the store's own clean load or
    save of the file, and rewrites the whole file otherwise. Another writer
    is excluded by the host lock, not detected: after one, a store is loaded
    again, as the next locked run loads it."""

    def test_checkpoint_into_a_loaded_store_appends(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore({k: make_record(cache_key=k) for k in ("k1", "k2")}).save(path)
        before, inode = path.read_bytes(), path.stat().st_ino
        store = ResultStore.load(path)
        store.add(make_record(cache_key="k3", qp=27))
        store.add(make_record(cache_key="k4", qp=32))
        store.save(path)
        after = path.read_bytes()
        assert path.stat().st_ino == inode
        assert after.startswith(before) and after.count(b"\n") == 4
        assert after == full_rewrite(store, tmp_path / "ref.jsonl")

    def test_records_are_read_only(self):
        store = ResultStore({"k1": make_record(cache_key="k1")})
        with pytest.raises(TypeError):
            del store.records["k1"]
        with pytest.raises(TypeError):
            store.records["k2"] = make_record(cache_key="k2")
        assert list(store.records) == ["k1"]

    def test_load_keeps_the_last_line_of_a_key_and_the_next_save_rewrites(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(record_line(wall_time=1.0) + "\n" + record_line(wall_time=2.0) + "\n")
        store = ResultStore.load(path)
        assert [r.wall_time for r in store.records.values()] == [2.0]
        store.add(make_record(cache_key="k2"))
        store.save(path)
        assert path.read_bytes() == full_rewrite(store, tmp_path / "ref.jsonl")

    def test_load_drops_a_torn_last_line_and_the_next_save_rewrites(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore({k: make_record(cache_key=k) for k in ("k1", "k2", "k3")}).save(path)
        cut_tail(path, 50)
        store = ResultStore.load(path)
        assert list(store.records) == ["k1", "k2"]
        store.add(make_record(cache_key="k4"))
        store.save(path)
        assert path.read_bytes() == full_rewrite(store, tmp_path / "ref.jsonl")

    def test_complete_last_line_without_newline_is_kept_and_rewritten(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore({k: make_record(cache_key=k) for k in ("k1", "k2")}).save(path)
        cut_tail(path, 1)
        store = ResultStore.load(path)
        assert list(store.records) == ["k1", "k2"]
        store.add(make_record(cache_key="k3"))
        store.save(path)
        assert path.read_bytes() == full_rewrite(store, tmp_path / "ref.jsonl")

    def test_unparsable_line_with_its_newline_is_rejected(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore({"k1": make_record(cache_key="k1")}).save(path)
        with open(path, "a") as fh:
            fh.write('{"schema": 1, "key"\n')
        with pytest.raises(StoreError, match=":2: invalid JSON"):
            ResultStore.load(path)

    @pytest.mark.parametrize(
        "line",
        [
            '{"schema": 1}', "5", "[]", '{"schema": 99}', "null",
            record_line(qp="27"), record_line(cpu_time="1.2"), record_line(frames=0),
            record_line(bitstream_bytes=None), record_line(qp=True), record_line(wall_time=False),
            record_line(frame_rate=-50.0), record_line(frame_rate="inf"),
            record_line(psnr_y="40"), record_line(psnr_u=None),
            record_line(samples=[[1.5, 1.4]]), record_line(samples=[[1.5, "1.4", None]]),
            record_line(warnings="one"), record_line(external_score=11.0),
        ],
        ids=[
            "missing-fields", "number", "list", "other-schema", "null",
            "qp-string", "cpu-time-string", "zero-frames", "null-bytes", "qp-bool",
            "wall-time-bool", "negative-frame-rate", "infinite-frame-rate", "psnr-string",
            "psnr-null", "short-sample", "sample-string", "warnings-string", "score-out-of-range",
        ],
    )
    def test_json_line_that_is_not_a_record_is_rejected(self, tmp_path, line):
        path = tmp_path / "store.jsonl"
        ResultStore({"k1": make_record(cache_key="k1")}).save(path)
        with open(path, "a") as fh:
            fh.write(line + "\n")
        with pytest.raises(StoreError, match=r"store\.jsonl:2: not a run record"):
            ResultStore.load(path)

    def test_float_fields_accept_json_integers_and_keep_them(self, tmp_path):
        path = tmp_path / "store.jsonl"
        line = record_line(frame_rate=50, cpu_time=2, energy_joules=None, psnr_v=43,
                           samples=[[2, 2, None]])
        path.write_text(line + "\n")
        record = ResultStore.load(path).records["k1"]
        assert record.frame_rate == 50 and record.samples == ((2, 2, None),)
        assert full_rewrite(ResultStore.load(path), tmp_path / "ref.jsonl") == path.read_bytes()

    def test_keys_with_a_default_may_be_missing(self, tmp_path):
        data = make_record().to_dict()
        for key in ("external_score", "warnings", "created_at"):
            del data[key]
        record = RunRecord.from_dict(data)
        assert record.quality.external_score is None and record.warnings == ()
        assert record.created_at == ""

    def test_line_that_is_not_utf8_is_rejected(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore({"k1": make_record(cache_key="k1")}).save(path)
        with open(path, "ab") as fh:
            fh.write(b'{"schema": 1, "key": "\xff"}\n')
        with pytest.raises(StoreError, match=r"store\.jsonl:2: not UTF-8"):
            ResultStore.load(path)

    @pytest.mark.parametrize("loaded", [False, True], ids=["rewrite", "append"])
    def test_failed_save_leaves_no_temp_file_and_the_store_unchanged(self, tmp_path, loaded):
        path = tmp_path / "store.jsonl"
        ResultStore({"k1": make_record(cache_key="k1")}).save(path)
        before = path.read_bytes()
        store = ResultStore.load(path) if loaded else ResultStore({"k1": make_record(cache_key="k1")})
        store.add(make_record(cache_key="k2", warnings=(object(),)))  # not JSON-serialisable
        with pytest.raises(TypeError):
            store.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["store.jsonl"]

    def test_a_store_deleted_between_load_and_save_is_rewritten_whole(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore({k: make_record(cache_key=k) for k in ("k1", "k2")}).save(path)
        store = ResultStore.load(path)
        path.unlink()
        store.add(make_record(cache_key="k3", qp=27))
        store.save(path)
        assert path.read_bytes() == full_rewrite(store, tmp_path / "ref.jsonl")

    @pytest.mark.parametrize("most", [1, 5])
    def test_short_appends_are_resumed(self, tmp_path, monkeypatch, most):
        path = tmp_path / "store.jsonl"
        ResultStore({k: make_record(cache_key=k) for k in ("k1", "k2")}).save(path)
        store = ResultStore.load(path)
        store.add(make_record(cache_key="k3", qp=27))
        store.add(make_record(cache_key="k4", qp=32))
        write, calls = os.write, []

        def short_write(fd, data):
            calls.append(fd)
            return write(fd, data[:most])

        with monkeypatch.context() as patch:
            patch.setattr(os, "write", short_write)
            store.save(path)
        assert len(calls) > 1
        assert path.read_bytes() == full_rewrite(store, tmp_path / "ref.jsonl")

    def test_rewrite_gives_the_file_the_mode_open_would(self, tmp_path):
        path = tmp_path / "store.jsonl"
        umask = os.umask(0o027)
        try:
            ResultStore({"k1": make_record(cache_key="k1")}).save(path)
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(
                    ("new", "keep", "drop", "save", "load", "outside", "truncate")
                ),
                st.integers(0, 999),
            ),
            max_size=30,
        )
    )
    def test_every_save_writes_what_a_full_rewrite_writes(self, steps):
        with tempfile.TemporaryDirectory() as tmp:
            path, ref = Path(tmp) / "store.jsonl", Path(tmp) / "ref.jsonl"
            store, fresh, ended = ResultStore(), itertools.count(), False
            for step, n in steps:
                if ended and step in ("new", "keep", "drop", "save"):
                    # Another writer changed the file: this store's run is
                    # over, and the next run loads the file under the lock.
                    store, ended = ResultStore.load(path), False
                keys = list(store.records)
                if step == "new":
                    store.add(make_record(cache_key=f"k{next(fresh)}", wall_time=float(n)))
                elif step == "keep" and keys:
                    store.add(make_record(cache_key=keys[n % len(keys)], wall_time=float(n)))
                elif step == "drop" and keys:
                    # A new store from a copy without one key, as a fresh run makes it.
                    dropped = keys[n % len(keys)]
                    store = ResultStore({k: r for k, r in store.records.items() if k != dropped})
                elif step == "save":
                    store.save(path)
                    assert path.read_bytes() == full_rewrite(store, ref)
                    assert list(ResultStore.load(path).records.items()) == list(store.records.items())
                elif step == "load":
                    store, ended = ResultStore.load(path), False
                elif step == "outside":
                    # Another writer's full rewrite.
                    outside = make_record(cache_key=f"outside-writer-{n:04d}-" + "x" * 40)
                    ResultStore({outside.cache_key: outside}).save(path)
                    ended = True
                elif step == "truncate" and path.exists():
                    cut_tail(path, n % (path.stat().st_size + 1))
                    ended = True


class TestCacheKey:
    def variant(self, name="10-10", template=MOCK_ENCODE):
        return VariantConfig(name, 10, 10, True, template, MOCK_DECODE)

    def test_stable(self):
        key1 = cell_cache_key("digest", self.variant(), 22, "hostA")
        key2 = cell_cache_key("digest", self.variant(), 22, "hostA")
        assert key1 == key2

    def test_host_is_part_of_the_key(self):
        a = cell_cache_key("digest", self.variant(), 22, "hostA")
        b = cell_cache_key("digest", self.variant(), 22, "hostB")
        assert a != b

    def test_qp_source_and_template_matter(self):
        base = cell_cache_key("digest", self.variant(), 22, "hostA")
        assert cell_cache_key("digest", self.variant(), 27, "hostA") != base
        assert cell_cache_key("other", self.variant(), 22, "hostA") != base
        changed = self.variant(template=MOCK_ENCODE + " --no-simd")
        assert cell_cache_key("digest", changed, 22, "hostA") != base

    def test_digests_hash_whole_files(self, tmp_path):
        # Longer than one read chunk; the sequence digest is prefixed with
        # the geometry and depth, so cache keys follow the declared format.
        big = tmp_path / "big.bin"
        big.write_bytes(bytes(range(256)) * 5000)
        assert file_sha256(big) == hashlib.sha256(big.read_bytes()).hexdigest()
        config = make_run_config(tmp_path)
        spec = config.sequences[0]
        expected = hashlib.sha256(b"32x32@10:" + spec.path.read_bytes()).hexdigest()
        assert Runner(config).sequence_digest(spec) == expected


class TestPlanning:
    def test_plan_orders_qp_descending_within_variant(self, tmp_path):
        config = make_run_config(tmp_path)
        cells = Runner(config).plan()
        assert len(cells) == 2 * len(LADDER)
        first_variant = cells[: len(LADDER)]
        assert [c.qp for c in first_variant] == sorted(LADDER, reverse=True)
        assert {c.variant.name for c in first_variant} == {"10-10"}

    def test_plan_rejects_missing_sequence(self, tmp_path):
        config = make_run_config(tmp_path)
        config.sequences[0].path.unlink()
        with pytest.raises(ValidationError, match="file not found"):
            Runner(config).plan()

    def test_plan_rejects_a_source_sample_out_of_range(self, tmp_path):
        # The sample is in the second frame's Y plane, so the message counts from the file's start.
        config = make_run_config(tmp_path)
        path = config.sequences[0].path
        words = np.fromfile(path, dtype="<u2")
        words[1536 + 5] = 1024
        words.tofile(path)
        with pytest.raises(yuv.SampleRangeError, match=rf"^{re.escape(str(path))}: sample index 1541 has value 1024 > 1023"):
            Runner(config).plan()


class TestExecution:
    def test_full_run_and_warm_cache(self, tmp_path):
        config = make_run_config(tmp_path)
        runner = Runner(config)
        store = runner.run()
        assert runner.executed_cells == 8
        assert runner.encoder_invocations == 8  # repetitions == 1
        assert len(store) == 8
        assert config.store_path.is_file()

        again = Runner(config)
        again.run()
        assert again.executed_cells == 0
        assert again.encoder_invocations == 0
        assert again.reused_cells == 8

    def test_fresh_cache_policy_reruns(self, tmp_path):
        config = make_run_config(tmp_path)
        Runner(config).run()
        rerun = Runner(make_run_config(tmp_path, cache="fresh"))
        rerun.run()
        assert rerun.executed_cells == 8
        assert len(config.store_path.read_text().splitlines()) == 8

    def test_an_edited_setup_is_refused_before_anything_is_written_or_timed(self, tmp_path, spawns):
        config = make_run_config(tmp_path)
        Runner(config).run()
        store, rendition = config.store_path.read_bytes(), config.work_dir / "inputs" / "clip_8bit.yuv"
        written = rendition.stat().st_mtime_ns
        edited = tuple(replace(v, encoder_template=v.encoder_template + " --no-simd") for v in config.variants)
        spawns.clear()
        runner = Runner(replace(config, variants=edited))
        with pytest.raises(ValidationError, match=r"^clip/10-10/qp37 on host testhost: the store holds another "
                           r"setup's record, key [0-9a-f]{12}; a run with --fresh-measurements on host testhost "
                           r"replaces it$"):
            runner.run()
        assert (spawns, runner.encoder_invocations) == ([], 0)
        assert config.store_path.read_bytes() == store
        assert rendition.stat().st_mtime_ns == written

    def test_a_new_cell_beside_stored_ones_is_no_other_setup(self, tmp_path):
        Runner(make_run_config(tmp_path)).run()
        longer = Runner(make_run_config(tmp_path, qp_ladder=LADDER + (42,)))
        longer.run()
        assert (longer.executed_cells, longer.reused_cells) == (2, 8)

    def test_fresh_rerun_rewrites_once_then_appends(self, tmp_path, monkeypatch):
        config = make_run_config(tmp_path)
        Runner(config).run()
        writes = []
        for name in ("_rewrite", "_append"):
            def counted(self, *args, name=name, real=getattr(ResultStore, name)):
                writes.append(name)
                return real(self, *args)

            monkeypatch.setattr(ResultStore, name, counted)
        rerun = Runner(make_run_config(tmp_path, cache="fresh"))
        store = rerun.run()
        assert (rerun.executed_cells, rerun.reused_cells) == (8, 0)
        assert writes == ["_rewrite"] + ["_append"] * 7
        assert len(config.store_path.read_text().splitlines()) == 8
        monkeypatch.undo()
        assert config.store_path.read_bytes() == full_rewrite(store, tmp_path / "ref.jsonl")

    def test_stopped_fresh_run_leaves_its_unreached_cells_for_the_next_run(self, tmp_path):
        config = make_run_config(tmp_path)
        Runner(config).run()

        class Stop(Exception):
            pass

        def stop_after_first_checkpoint(index, total, cell, status):
            if status == "measured":
                raise Stop

        with pytest.raises(Stop):
            Runner(make_run_config(tmp_path, cache="fresh")).run(stop_after_first_checkpoint)
        assert len(ResultStore.load(config.store_path)) == 1
        plain = Runner(config)
        plain.run()
        assert (plain.executed_cells, plain.reused_cells) == (7, 1)

    def test_records_are_complete(self, tmp_path):
        config = make_run_config(tmp_path, variants=("10-10",))
        store = Runner(config).run()
        for record in store.records.values():
            assert record.host == "testhost"
            assert record.frames == 2
            assert record.bitstream_bytes > 0
            assert len(record.bitstream_sha256) == 64
            assert record.cpu_time >= 0
            assert record.energy_joules is None  # no RAPL in the sandbox
            assert 20.0 < record.quality.psnr_yuv < 100.0

    def test_eight_bit_variant_scores_against_ten_bit_source(self, tmp_path):
        config = make_run_config(tmp_path, variants=("8-8",), qp_ladder=(22,))
        store = Runner(config).run()
        (record,) = store.records.values()
        assert record.input_depth == 8 and record.internal_depth == 8
        # Tonemap noise keeps the 10-bit-domain PSNR well below lossless.
        assert 25.0 < record.quality.psnr_yuv < 60.0

    def test_tonemapped_input_shared_across_variants(self, tmp_path, monkeypatch):
        # One conversion per run that measures an 8-bit cell, shared by every 8-bit variant and QP.
        converts, convert_file = [], bitdepth.convert_file

        def spy_convert_file(src, dst, fmt):
            converts.append(Path(dst))
            return convert_file(src, dst, fmt)

        monkeypatch.setattr(bitdepth, "convert_file", spy_convert_file)
        config = make_run_config(tmp_path, variants=("8-10", "8-8", "8-8-nosimd"))
        tonemapped = config.work_dir / "inputs" / "clip_8bit.yuv"
        for cache, conversions in (("reuse", 1), ("reuse", 0), ("fresh", 1)):
            converts.clear()
            runner = Runner(replace(config, cache=cache))
            runner.run()
            assert runner.executed_cells == 12 * conversions
            assert converts == [tonemapped] * conversions
        assert list(tonemapped.parent.iterdir()) == [tonemapped]

    def test_a_remeasured_cells_directory_is_emptied_and_a_cached_ones_kept(self, tmp_path):
        config = make_run_config(tmp_path, variants=("10-10",), qp_ladder=(22, 27))
        Runner(config).run()
        cell_dirs = sorted((config.work_dir / "clip" / "10-10").iterdir())
        own = {d: sorted(p.name for p in d.iterdir()) for d in cell_dirs}
        # A scored reconstruction is removed; the bitstream stays.
        assert "bitstream.bin" in own[cell_dirs[0]] and "recon_10bit.yuv" not in own[cell_dirs[0]]
        for cell_dir in cell_dirs:
            (cell_dir / "stray.txt").write_text("not this run's")
            (cell_dir / "recon_8bit.yuv").write_bytes(b"stale")
        cached = Runner(config)
        cached.run()
        assert cached.reused_cells == 2
        for cell_dir in cell_dirs:
            assert sorted(p.name for p in cell_dir.iterdir()) == sorted(own[cell_dir] + ["recon_8bit.yuv", "stray.txt"])
        fresh = Runner(replace(config, cache="fresh"))
        fresh.run()
        assert fresh.executed_cells == 2
        assert {d: sorted(p.name for p in d.iterdir()) for d in cell_dirs} == own

    def test_an_earlier_runs_prepared_input_is_replaced_not_truncated(self, tmp_path):
        # The conversion writes a new file: a hard link to the old one keeps its bytes.
        config = make_run_config(tmp_path, variants=("8-8",), qp_ladder=(22,))
        spec = config.sequences[0]
        prepared = config.work_dir / "inputs" / f"{spec.name}_8bit.yuv"
        prepared.parent.mkdir(parents=True)
        prepared.write_bytes(b"\xa5" * 1000)
        os.link(prepared, tmp_path / "old_input.yuv")
        Runner(config).run()
        assert (tmp_path / "old_input.yuv").read_bytes() == b"\xa5" * 1000
        bitdepth.convert_file(spec.path, tmp_path / "expected.yuv", spec.fmt)
        assert prepared.read_bytes() == (tmp_path / "expected.yuv").read_bytes()

    def test_every_rendition_is_written_and_synced_before_the_first_encode(self, tmp_path, monkeypatch):
        # Each rendition's write-back ends before the first timed phase,
        # so no sync, and no write-back of it, falls inside a timed encode.
        events, convert_file, fsync, timed_phase = [], bitdepth.convert_file, os.fsync, pipeline.timed_phase

        def spy_convert_file(src, dst, fmt):
            events.append(("convert", Path(dst).name))
            return convert_file(src, dst, fmt)

        def spy_fsync(fd):
            events.append(("sync", os.fstat(fd).st_ino))
            return fsync(fd)

        @contextlib.contextmanager
        def spy_timed_phase(*args):
            events.append("enter")
            with timed_phase(*args) as phase:
                yield phase
            events.append("exit")

        def spy_run_child(*args, **kwargs):
            events.append("encode")
            return measure.run_child(*args, **kwargs)

        monkeypatch.setattr(bitdepth, "convert_file", spy_convert_file)
        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(pipeline, "timed_phase", spy_timed_phase)
        monkeypatch.setattr(pipeline, "run_child", spy_run_child)
        config = make_run_config(tmp_path, variants=("10-10", "8-8", "8-10"), sequences=("clip", "clip2"),
                                 qp_ladder=(22, 27))
        Runner(config).run()
        inputs = config.work_dir / "inputs"
        prepared = [event for name in ("clip", "clip2")
                    for event in (("convert", f"{name}_8bit.yuv"), ("sync", (inputs / f"{name}_8bit.yuv").stat().st_ino))]
        assert events == prepared + ["enter", "encode", "encode", "exit"] * 6
        events.clear()
        Runner(config).run()
        assert events == []  # a fully cached group opens no timed phase

    def test_no_span_thread_runs_during_a_timed_encode(self, tmp_path, monkeypatch):
        # The 8-bit input is tone-mapped in two spans before the first timed
        # encode: both span threads are joined before it starts.
        monkeypatch.setattr(yuv, "usable_cpus", lambda: 3)
        config = make_run_config(tmp_path, variants=("8-8",), qp_ladder=(22, 27))
        threads_at_encode = []

        def run_child_counting_threads(*args, **kwargs):
            threads_at_encode.append(threading.active_count())
            return measure.run_child(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_child", run_child_counting_threads)
        runner = Runner(config)
        runner.run()
        assert runner.executed_cells == 2
        assert threads_at_encode == [1, 1]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
    def test_every_encoder_starts_on_one_cpu_and_nothing_else_does(self, tmp_path, monkeypatch, spawns):
        # The timed phase pins this thread before each encoder's Popen; the
        # 8-bit input is converted, and the decoders run, with every CPU.
        full, converts, convert_file = os.sched_getaffinity(0), [], bitdepth.convert_file

        def spy_convert_file(*args, **kwargs):
            converts.append(os.sched_getaffinity(0))
            return convert_file(*args, **kwargs)

        monkeypatch.setattr(bitdepth, "convert_file", spy_convert_file)
        Runner(make_run_config(tmp_path, variants=("10-10", "8-8"), qp_ladder=(22, 27), repetitions=2)).run()
        roles = [argv[3] for argv, _ in spawns]  # python -m hdrbench.mockcodec encode|decode ...
        assert sorted(roles) == ["decode"] * 4 + ["encode"] * 8
        assert [mask for role, (_, mask) in zip(roles, spawns) if role == "encode"] == [{min(full)}] * 8
        assert [mask for role, (_, mask) in zip(roles, spawns) if role == "decode"] == [full] * 4
        assert converts == [full]
        assert os.sched_getaffinity(0) == full

    @pytest.mark.parametrize("powercap", ["fake tree", "missing tree", "root-only counter", "no affinity api"])
    def test_every_record_carries_its_phase_warnings(self, tmp_path, rapl_tree, powercap, monkeypatch):
        root = tmp_path / "no-powercap" if powercap == "missing tree" else rapl_tree
        counter = rapl_tree / "intel-rapl:0" / "energy_uj"
        if powercap == "root-only counter":
            deny_reads_of(monkeypatch, counter, after=0)
        if powercap == "no affinity api":  # a platform without sched_setaffinity: energy is still read
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        store = Runner(make_run_config(tmp_path, rapl_domain=str(root / "intel-rapl:0"))).run()
        expected = {
            "fake tree": (),
            "missing tree": (f"energy omitted: no powercap domain at {root}/intel-rapl:0",),
            "root-only counter": (f"energy omitted: cannot read counter file {counter}: Permission denied",),
            "no affinity api": ("cpu pinning unsupported on this platform",),
        }[powercap]
        assert len(store) == 8
        assert [record.warnings for record in store.records.values()] == [expected] * 8
        energy_omitted = any(w.startswith("energy omitted") for w in expected)
        assert all((record.energy_joules is None) == energy_omitted for record in store.records.values())

    def test_simd_pair_bitstreams_identical(self, tmp_path):
        # So the nosimd cells take their twins' decodes: one decoder per QP,
        # and PSNR fields equal at every QP, which the mock codec spreads.
        config = make_run_config(tmp_path, variants=("8-8", "8-8-nosimd"))
        runner = Runner(config)
        store = runner.run()
        by = {(r.variant, r.qp): r for r in store.records.values()}
        fields = ("psnr_y", "psnr_u", "psnr_v", "psnr_yuv")
        for qp in LADDER:
            simd, nosimd = by[("8-8", qp)], by[("8-8-nosimd", qp)]
            assert simd.bitstream_sha256 == nosimd.bitstream_sha256
            assert [getattr(nosimd.quality, f) for f in fields] == [getattr(simd.quality, f) for f in fields]
        assert len({by[("8-8", qp)].quality.psnr_yuv for qp in LADDER}) == len(LADDER)
        assert runner.decoder_invocations == len(LADDER)

    def test_encoder_without_output_fails(self, tmp_path):
        config = make_run_config(tmp_path, variants=("10-10",), qp_ladder=(22,))
        broken = VariantConfig(
            "10-10", 10, 10, True, "/bin/true {INPUT} {OUTPUT}", MOCK_DECODE
        )
        config = RunConfig(
            sequences=config.sequences, variants=(broken,), qp_ladder=(22,),
            repetitions=1, store_path=config.store_path, work_dir=config.work_dir,
        )
        runner = Runner(config)
        with pytest.raises(PipelineError, match="no bitstream"):
            runner.run()

    @pytest.mark.parametrize("silent", ["encoder", "decoder"])
    def test_silent_codec_is_not_credited_with_the_last_runs_output(self, tmp_path, silent):
        config = make_run_config(tmp_path, variants=("10-10",), qp_ladder=(22,))
        Runner(config).run()
        templates = {"encoder": MOCK_ENCODE, "decoder": MOCK_DECODE, silent: "/bin/true {INPUT} {OUTPUT}"}
        variant = VariantConfig("10-10", 10, 10, True, templates["encoder"], templates["decoder"])
        message = {"encoder": r"^encoder produced no bitstream for clip/10-10/qp22$",
                   "decoder": r"^unusable reconstruction for clip/10-10/qp22: cannot read .*/qp22/recon_10bit\.yuv: "}
        with pytest.raises(PipelineError, match=message[silent]):
            Runner(replace(config, variants=(variant,), cache="fresh")).run()
        assert len(ResultStore.load(config.store_path)) == 1

    def test_failing_decoder_reported(self, tmp_path):
        config = make_run_config(tmp_path, variants=("10-10",), qp_ladder=(22,))
        broken = VariantConfig(
            "10-10", 10, 10, True, MOCK_ENCODE, "/bin/false {INPUT} {OUTPUT}"
        )
        config = RunConfig(
            sequences=config.sequences, variants=(broken,), qp_ladder=(22,),
            repetitions=1, store_path=config.store_path, work_dir=config.work_dir,
        )
        with pytest.raises(PipelineError, match="decoder"):
            Runner(config).run()

    @pytest.mark.parametrize("nbytes, fill, message", [
        (4608, 0, r"^unusable reconstruction for clip/10-10/qp22: .*recon_10bit\.yuv: size 4608 is not a multiple "
                  r"of the 3072-byte frame"),
        (3072, 0, r"^unusable reconstruction for clip/10-10/qp22: frame counts differ: .*/clip\.yuv has 2, "
                  r".*recon_10bit\.yuv has 1$"),
        (6144, 0xFF, r"^unusable reconstruction for clip/10-10/qp22: .*recon_10bit\.yuv: sample index 0 has value "
                     r"65535 > 1023 for declared 10-bit depth$"),
    ], ids=["partial frame", "one frame short", "samples out of range"])
    def test_short_decode_names_its_cell(self, tmp_path, nbytes, fill, message):
        config = make_run_config(tmp_path, variants=("10-10",), qp_ladder=(22,))
        (variant,) = config.variants
        short = replace(variant, decoder_template=short_decoder(nbytes, fill))
        with pytest.raises(PipelineError, match=message):
            Runner(replace(config, variants=(short,))).run()
        assert len(ResultStore.load(config.store_path)) == 0

    def test_failing_encoder_quotes_its_reason(self, tmp_path):
        config = make_run_config(tmp_path, variants=("10-10",), qp_ladder=(999,))
        with pytest.raises(PipelineError, match=r"^clip/10-10/qp999: measured command exited 1: .* --qp 999: "
                           r"mockcodec: qp 999 does not fit the header's signed byte \(-128\.\.127\)$"):
            Runner(config).run()

    def test_encoder_that_cannot_start_names_its_cell(self, tmp_path):
        config = make_run_config(tmp_path, variants=("10-10",), qp_ladder=(22,))
        (variant,) = config.variants
        broken = replace(variant, encoder_template="/no/such/encoder {INPUT} {OUTPUT}")
        failed = r"^clip/10-10/qp22: command failed to start: /no/such/encoder: "
        with pytest.raises(PipelineError, match=failed) as info:
            Runner(replace(config, variants=(broken,))).run()
        assert isinstance(info.value.__cause__, MeasurementError)
        assert len(ResultStore.load(config.store_path)) == 0

    def test_failing_metric_names_its_cell(self, tmp_path):
        script = tmp_path / "metric.py"
        script.write_text("import sys\nprint('fatal: no model', file=sys.stderr)\nsys.exit(2)\n")
        config = make_run_config(tmp_path, variants=("10-10",), qp_ladder=(22,),
                                 metric_command=f"{sys.executable} -S {script} {{REF}} {{TEST}}")
        with pytest.raises(PipelineError, match=r"^clip/10-10/qp22: metric command exited 2: fatal: no model$"):
            Runner(config).run()
        assert len(ResultStore.load(config.store_path)) == 0

    def test_decoder_that_cannot_start_names_its_cell(self, tmp_path):
        config = make_run_config(tmp_path, variants=("10-10",), qp_ladder=(22,))
        (variant,) = config.variants
        broken = replace(variant, decoder_template="/no/such/decoder {INPUT} {OUTPUT}")
        with pytest.raises(PipelineError, match=r"^decoder failed to start for clip/10-10/qp22: .*/no/such/decoder"):
            Runner(replace(config, variants=(broken,))).run()
        assert len(ResultStore.load(config.store_path)) == 0

    def test_interrupted_store_is_checkpointed(self, tmp_path):
        # A run stopped right after its first checkpoint keeps that cell's
        # record, and only that one, for the resumed run to reuse.
        config = make_run_config(tmp_path, variants=("10-10",), qp_ladder=(22, 27, 32, 37))

        def interrupt(index, total, cell, status):
            if status == "measured":
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            Runner(config).run(progress=interrupt)
        assert len(config.store_path.read_text().splitlines()) == 1
        assert len(ResultStore.load(config.store_path)) == 1
        resumed = Runner(make_run_config(tmp_path, variants=("10-10",), qp_ladder=(22, 27, 32, 37)))
        resumed.run()
        assert resumed.reused_cells == 1
        assert resumed.executed_cells == 3

    def test_resumed_run_remeasures_the_torn_cell(self, tmp_path):
        config = make_run_config(tmp_path, variants=("10-10",))
        Runner(config).run()
        lines = config.store_path.read_text().splitlines()
        torn_key = json.loads(lines[-1])["key"]
        cut_tail(config.store_path, 50)
        resumed = Runner(config)
        store = resumed.run()
        assert (resumed.executed_cells, resumed.reused_cells) == (1, 3)
        assert list(store.records)[-1] == torn_key
        after = config.store_path.read_text().splitlines()
        assert len(after) == 4 and after[:3] == lines[:3]


# A codec of a few stdlib lines: copies INPUT to OUTPUT after PAUSE seconds
# (0.05 at QP QUICK) and logs its role, QP and monotonic (start, end). As the
# decoder, at the QP that the file FAIL names if it exists, it prints four
# lines to STREAM instead and exits 3. As ``enc-flip`` it encodes and then
# inverts the stream's last byte.
FAKE_CODEC = """\
import os, shutil, sys, time
start = time.monotonic()
role, src, dst, qp, log, fail, stream, pause, quick = sys.argv[1:]
if role == "dec" and os.path.exists(fail) and open(fail).read() == qp:
    print("first\\nsecond\\nthird\\nlast", file=getattr(sys, stream))
    sys.exit(3)
time.sleep(0.05 if qp == quick else float(pause))
shutil.copyfile(src, dst)
if role == "enc-flip":
    with open(dst, "r+b") as fh:
        fh.seek(-1, 2)
        last = fh.read(1)[0]
        fh.seek(-1, 2)
        fh.write(bytes([255 - last]))
with open(log, "a") as fh:
    fh.write(f"{role} {qp} {start} {time.monotonic()}\\n")
"""


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fake_template(tmp_path, role, pause, qp="{QP}", fail_stream="stderr"):
    """A FAKE_CODEC command in ``tmp_path``: ``qp`` is the QP it is given and logs."""
    script, log, fail = tmp_path / "fake_codec.py", tmp_path / "intervals.log", tmp_path / "fail_qp"
    script.write_text(FAKE_CODEC)
    return (f"{sys.executable} -S {script} {role} {{INPUT}} {{OUTPUT}} {qp} {log} {fail} "
            f"{fail_stream} {pause} {max(LADDER)}")


def fake_config(tmp_path, variants=("10-10",), fail_stream="stderr", pause=0.3):
    """The run config, its interval log, and the file that makes a decoder QP fail.

    Encoders take 0.02 s; the first cell's decoder 0.05 s and the others ``pause``.
    """
    config = make_run_config(tmp_path, variants=variants)
    fakes = tuple(
        replace(v, encoder_template=fake_template(tmp_path, "enc", 0.02, fail_stream=fail_stream),
                decoder_template=fake_template(tmp_path, "dec", pause, fail_stream=fail_stream))
        for v in config.variants
    )
    return replace(config, variants=fakes), tmp_path / "intervals.log", tmp_path / "fail_qp"


def intervals(log: Path, role: str) -> list[tuple[int, float, float]]:
    """(QP, start, end) of the runs of ``role`` that finished, in finishing order."""
    rows = [line.split() for line in log.read_text().splitlines()]
    return [(int(qp), float(start), float(end)) for name, qp, start, end in rows if name == role]


class TestTwoPhaseExecution:
    """Each (sequence, variant) group's encodes run alone; its decoders then
    run up to one per CPU, and none outlives the group."""

    def test_no_decoder_runs_during_a_timed_encode(self, tmp_path):
        config, log, _ = fake_config(tmp_path, variants=("10-10", "8-8"))
        runner = Runner(config)
        runner.run()
        assert runner.executed_cells == 8
        encodes = [(start, end) for _, start, end in intervals(log, "enc")]
        decodes = [(start, end) for _, start, end in intervals(log, "dec")]
        assert len(encodes) == len(decodes) == 8
        for dec_start, dec_end in decodes:
            for enc_start, enc_end in encodes:
                assert dec_end <= enc_start or enc_end <= dec_start
        if len(os.sched_getaffinity(0)) >= 2:
            assert any(
                a_start < b_end and b_start < a_end
                for (a_start, a_end), (b_start, b_end) in itertools.combinations(decodes[:4], 2)
            ), "no two decoders of the first group overlapped"
        assert_no_child_process()

    @pytest.mark.parametrize("fail_stream", ["stderr", "stdout"])
    def test_failing_decoder_leaves_the_cells_before_it_and_no_child(self, tmp_path, fail_stream):
        assert_no_child_process()
        config, log, fail = fake_config(tmp_path, fail_stream=fail_stream, pause=1.0)
        fail.write_text("27")
        keys = [cell.cache_key for cell in Runner(config).plan()]  # QP 37, 32, 27, 22
        with pytest.raises(PipelineError, match=r"^decoder exited 3 for clip/10-10/qp27: second \| third \| last$"):
            Runner(config).run()
        assert_no_child_process()
        # With two CPUs QP 22's decoder was running: it was killed, not waited for.
        assert [qp for qp, _, _ in intervals(log, "dec")] == [37, 32]
        assert list(ResultStore.load(config.store_path).records) == keys[:2]
        assert (config.work_dir / "clip" / "10-10" / "qp27" / f"decoder.{fail_stream}.log").stat().st_size > 0

        fail.unlink()
        rerun = Runner(config)
        rerun.run()
        assert (rerun.executed_cells, rerun.reused_cells) == (2, 2)
        assert list(rerun.store.records) == keys
        assert_no_child_process()

    def test_exception_from_progress_kills_the_decoders_in_flight(self, tmp_path):
        assert_no_child_process()
        config, log, _ = fake_config(tmp_path, pause=1.0)

        class Stop(Exception):
            pass

        def stop(index, total, cell, status):
            raise Stop

        try:
            Runner(config).run(stop)
        except Stop:
            # Checked while the traceback still holds run's frame: the
            # decoders were reaped before the exception left run.
            assert_no_child_process()
        else:
            pytest.fail("the exception from progress did not propagate")
        assert [qp for qp, _, _ in intervals(log, "dec")] == [37]
        assert len(ResultStore.load(config.store_path)) == 1


class TestDecodeReuse:
    """One decoder, and one external metric, per distinct (sequence, internal
    depth, decoder command, bitstream) of a run; a cell that repeats one
    takes the quality of the cell that decoded it."""

    @staticmethod
    def twins(store):
        by = {(r.variant, r.qp): r for r in store.records.values()}
        return [(by[("8-8", qp)], by[("8-8-nosimd", qp)]) for qp in LADDER]

    @staticmethod
    def decoder_logs(config, variant):
        return sorted((config.work_dir / "clip" / variant).glob("qp*/decoder.*.log"))

    def test_the_no_simd_twin_takes_the_simd_decode(self, tmp_path):
        config, log, _ = fake_config(tmp_path, variants=("8-8", "8-8-nosimd"))
        runner = Runner(config)
        store = runner.run()
        assert_no_child_process()
        assert sorted(qp for qp, _, _ in intervals(log, "dec")) == sorted(LADDER)
        assert runner.decoder_invocations == len(LADDER)
        assert (runner.executed_cells, runner.encoder_invocations) == (8, 8)
        for simd, nosimd in self.twins(store):
            assert nosimd.bitstream_sha256 == simd.bitstream_sha256
            assert nosimd.quality == simd.quality
            assert nosimd.samples != simd.samples  # each keeps its own timing
        assert len(self.decoder_logs(config, "8-8")) == 2 * len(LADDER)
        assert self.decoder_logs(config, "8-8-nosimd") == []
        for cell_dir in (config.work_dir / "clip" / "8-8-nosimd").iterdir():
            assert sorted(p.name for p in cell_dir.iterdir()) == [
                "bitstream.bin", "encoder.stderr.log", "encoder.stdout.log"
            ]

    @pytest.mark.parametrize("differs", ["bitstream", "decoder command"])
    def test_a_twin_that_differs_decodes_its_own(self, tmp_path, differs):
        config, log, _ = fake_config(tmp_path, variants=("8-8", "8-8-nosimd"))
        simd, nosimd = config.variants
        if differs == "bitstream":
            nosimd = replace(nosimd, encoder_template=fake_template(tmp_path, "enc-flip", 0.02))
        else:
            nosimd = replace(nosimd, decoder_template=fake_template(tmp_path, "dec", 0.25))
        runner = Runner(replace(config, variants=(simd, nosimd)))
        store = runner.run()
        assert_no_child_process()
        assert runner.decoder_invocations == len(intervals(log, "dec")) == 2 * len(LADDER)
        assert len(self.decoder_logs(config, "8-8-nosimd")) == 2 * len(LADDER)
        for simd_record, nosimd_record in self.twins(store):
            same_stream = simd_record.bitstream_sha256 == nosimd_record.bitstream_sha256
            assert same_stream == (differs != "bitstream")
            # A flipped last byte is one chroma sample: V PSNR moves.
            assert (simd_record.quality == nosimd_record.quality) == same_stream

    def test_a_cached_twin_is_no_source(self, tmp_path):
        config, log, _ = fake_config(tmp_path, variants=("8-8", "8-8-nosimd"))
        simd, _ = config.variants
        Runner(replace(config, variants=(simd,))).run()
        runner = Runner(config)
        store = runner.run()
        assert_no_child_process()
        assert (runner.reused_cells, runner.executed_cells) == (4, 4)
        assert runner.decoder_invocations == len(LADDER)
        assert len(intervals(log, "dec")) == 2 * len(LADDER)
        assert len(self.decoder_logs(config, "8-8-nosimd")) == 2 * len(LADDER)
        for simd_record, nosimd_record in self.twins(store):
            assert nosimd_record.quality == simd_record.quality

    def test_a_duplicate_within_a_group_is_reused(self, tmp_path):
        # The fake encoder ignores the QP, and this decoder command does not
        # name it: the group's four cells are one bitstream and one decode.
        config, log, _ = fake_config(tmp_path)
        (variant,) = config.variants
        variant = replace(variant, decoder_template=fake_template(tmp_path, "dec", 0.05, qp="0"))
        runner = Runner(replace(config, variants=(variant,)))
        store = runner.run()
        assert_no_child_process()
        assert [qp for qp, _, _ in intervals(log, "dec")] == [0]
        assert runner.decoder_invocations == 1 and runner.executed_cells == 4
        records = list(store.records.values())
        assert len({r.bitstream_sha256 for r in records}) == 1
        assert all(r.quality == records[0].quality for r in records)
        cell_dirs = sorted((config.work_dir / "clip" / "10-10").iterdir())
        # QP 37 comes first in plan order: its cell is the one decoded, and
        # its reconstruction is removed once scored.
        assert [d.name for d in cell_dirs if (d / "decoder.stderr.log").exists()] == ["qp37"]
        assert not list(config.work_dir.rglob("recon_*"))

    def test_the_external_metric_runs_once_per_distinct_decode(self, tmp_path):
        calls = tmp_path / "metric_calls.txt"
        script = tmp_path / "metric.py"
        script.write_text(f"open({str(calls)!r}, 'a').write(__import__('sys').argv[2] + '\\n')\nprint('5.0')\n")
        config, _, _ = fake_config(tmp_path, variants=("8-8", "8-8-nosimd"))
        config = replace(config, metric_command=f"{sys.executable} -S {script} {{REF}} {{TEST}}")
        # First the nosimd cells alone, which decode and score their own.
        Runner(replace(config, variants=config.variants[1:])).run()
        assert len(calls.read_text().splitlines()) == len(LADDER)
        runner = Runner(replace(config, cache="fresh"))
        store = runner.run()
        assert_no_child_process()
        tested = calls.read_text().splitlines()[len(LADDER):]
        assert len(tested) == len(LADDER)
        assert all("/8-8/" in path for path in tested)
        assert {r.quality.external_score for r in store.records.values()} == {5.0}
        # The reused cells keep nothing of their own earlier decode.
        for cell_dir in (config.work_dir / "clip" / "8-8-nosimd").iterdir():
            assert sorted(p.name for p in cell_dir.iterdir()) == [
                "bitstream.bin", "encoder.stderr.log", "encoder.stdout.log"
            ]


class TestEightBitScoring:
    """An 8-bit reconstruction is expanded inside the scoring loop; it goes to
    disk as recon_10bit.yuv only for an external metric, which reads files.
    Every reconstruction is removed once its cell is scored."""

    def run_cell(self, tmp_path, metric_command=None):
        tmp_path.mkdir()
        config = make_run_config(
            tmp_path, variants=("8-8",), qp_ladder=(22,), metric_command=metric_command
        )
        (record,) = Runner(config).run().records.values()
        return record, config.work_dir / "clip" / "8-8" / "qp22"

    def test_recon_10bit_written_only_for_an_external_metric(self, tmp_path, monkeypatch):
        converts, convert_file = [], bitdepth.convert_file

        def spy_convert_file(src, dst, fmt):
            converts.append(Path(dst).name)
            return convert_file(src, dst, fmt)

        monkeypatch.setattr(bitdepth, "convert_file", spy_convert_file)
        plain, _ = self.run_cell(tmp_path / "plain")
        assert "recon_10bit.yuv" not in converts

        args_log, copy = tmp_path / "metric_args.txt", tmp_path / "metric_test.yuv"
        script = tmp_path / "metric.py"
        script.write_text(
            "import pathlib, shutil, sys\n"
            f"pathlib.Path({str(args_log)!r}).write_text('\\n'.join(sys.argv[1:]))\n"
            f"shutil.copyfile(sys.argv[2], {str(copy)!r})\n"
            "print('5.0')\n"
        )
        scored, scored_dir = self.run_cell(
            tmp_path / "scored", metric_command=f"{sys.executable} {script} {{REF}} {{TEST}}"
        )
        assert "recon_10bit.yuv" in converts
        recon8_path = tmp_path / "recon_8bit.yuv"
        mockcodec.decode(scored_dir / "bitstream.bin", recon8_path)
        recon8 = np.fromfile(recon8_path, dtype=np.uint8)
        assert copy.read_bytes() == (recon8.astype("<u2") * 4).tobytes()
        assert args_log.read_text().splitlines()[1] == str(scored_dir / "recon_10bit.yuv")
        assert scored.quality.external_score == 5.0
        assert (scored_dir / "metric.stdout.log").read_text() == "5.0\n"

        fields = ("psnr_y", "psnr_u", "psnr_v", "psnr_yuv")
        assert [getattr(scored.quality, f) for f in fields] == [
            getattr(plain.quality, f) for f in fields
        ]

    @pytest.mark.parametrize("metric", [False, True])
    def test_a_run_leaves_no_reconstruction(self, tmp_path, metric):
        script = tmp_path / "metric.py"
        script.write_text("print('5.0')\n")
        config = make_run_config(
            tmp_path, qp_ladder=(22, 27),
            metric_command=f"{sys.executable} -S {script} {{REF}} {{TEST}}" if metric else None,
        )
        assert len(Runner(config).run().records) == 4
        assert len(list(config.work_dir.rglob("bitstream.bin"))) == 4
        assert not list(config.work_dir.rglob("recon_*"))
