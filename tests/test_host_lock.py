"""The host lock: ``hdrbench run`` and ``measure`` on one host take turns.

Two runs on one store, a run killed while it holds the lock, and two threads
measuring in one process. Every test points the lock at its own temp dir:
``TMPDIR`` for the ``hdrbench`` processes it starts, ``tempfile.tempdir``
for itself.
"""

import fcntl
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from hdrbench import measure
from hdrbench.store import ResultStore
from hdrbench.yuv import PlaneFormat
from tests.conftest import write_clip

# A codec that copies INPUT to OUTPUT after PAUSE seconds and logs its
# parent's pid (the run that started it), its role and its monotonic
# (start, end) in nanoseconds.
COPY_CODEC = """\
import os, shutil, sys, time
start = time.monotonic_ns()
role, src, dst, log, pause = sys.argv[1:]
time.sleep(float(pause))
shutil.copyfile(src, dst)
with open(log, "a") as fh:
    fh.write(f"{os.getppid()} {role} {start} {time.monotonic_ns()}\\n")
"""


def write_study(tmp_path, pause: float) -> tuple[Path, Path, Path]:
    """A two-variant, four-QP study of COPY_CODEC: its config, store and interval log."""
    write_clip(tmp_path / "clip.yuv", 1, PlaneFormat(32, 32, 10), frames=2)
    script, log = tmp_path / "copy_codec.py", tmp_path / "intervals.log"
    script.write_text(COPY_CODEC)
    codec = f"{sys.executable} -S {script} {{role}} {{{{INPUT}}}} {{{{OUTPUT}}}} {log} {{pause}}"
    study = {
        "sequences": [{"name": "clip", "path": "clip.yuv", "width": 32, "height": 32, "fps": 50}],
        "variants": [{"name": name, "encoder_template": codec.format(role="enc", pause=pause),
                      "decoder_template": codec.format(role="dec", pause=0.01)} for name in ("10-10", "8-8")],
        "qp_ladder": [22, 27, 32, 37],
        "repetitions": 1,
        "host_label": "testhost",
    }
    config = tmp_path / "study.json"
    config.write_text(json.dumps(study))
    return config, tmp_path / "results.jsonl", log


def start_run(tmp_path, config, name: str, *flags) -> tuple[subprocess.Popen, Path, Path]:
    """``hdrbench run`` with ``TMPDIR`` at ``tmp_path``, its output in ``<name>.out`` and ``<name>.err``."""
    out, err = tmp_path / f"{name}.out", tmp_path / f"{name}.err"
    with open(out, "wb") as o, open(err, "wb") as e:
        proc = subprocess.Popen([sys.executable, "-m", "hdrbench.cli", "run", "--config", str(config), *flags],
                                stdout=o, stderr=e, env={**os.environ, "TMPDIR": str(tmp_path)})
    return proc, out, err


def wait_for(condition, what: str, seconds: float = 60.0) -> None:
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.01)


def overlaps(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def test_two_runs_on_one_store_take_turns(tmp_path, monkeypatch):
    config, store, log = write_study(tmp_path, pause=0.02)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    # Both runs start while this test holds the lock, so both wait, and both
    # re-measure every cell: each has children that could overlap the other's.
    with measure.host_lock():
        runs = [start_run(tmp_path, config, name, "--fresh-measurements") for name in ("a", "b")]
        for _, _, err in runs:
            wait_for(lambda err=err: b"waiting for" in err.read_bytes(), "both runs to wait")
    for proc, out, err in runs:
        assert proc.wait(timeout=120) == 0, err.read_text()
        assert "done: 8 cell(s) measured, 0 reused" in out.read_text()
        assert err.read_text() == f"hdrbench: waiting for {tmp_path / 'hdrbench.lock'}, held by pid {os.getpid()}\n"
    children = {proc.pid: {"enc": [], "dec": []} for proc, _, _ in runs}
    for line in log.read_text().splitlines():
        parent, role, start, end = line.split()
        children[int(parent)][role].append((int(start), int(end)))
    (a, b) = children.values()
    assert len(a["enc"]) == len(b["enc"]) == 8 and a["dec"] and b["dec"]
    for mine, theirs in ((a, b), (b, a)):
        assert not [(enc, other) for enc in mine["enc"] for other in theirs["enc"] + theirs["dec"]
                    if overlaps(enc, other)]
    lines = store.read_text().splitlines()
    assert len(lines) == len({json.loads(line)["key"] for line in lines}) == 8
    assert len(ResultStore.load(store)) == 8


def test_a_run_killed_while_holding_the_lock_releases_it(tmp_path):
    config, store, _ = write_study(tmp_path, pause=0.2)
    killed, _, _ = start_run(tmp_path, config, "killed")
    try:
        wait_for(lambda: store.exists() and store.read_bytes().count(b"\n") >= 2, "two checkpoints")
    finally:
        killed.send_signal(signal.SIGKILL)
        killed.wait()
    # What a kill during the second append leaves: its line cut short.
    data = store.read_bytes()
    store.write_bytes(data[: data.index(b"\n") + 1] + data[data.index(b"\n") + 1:][:40])
    resumed, out, err = start_run(tmp_path, config, "resumed")
    assert resumed.wait(timeout=120) == 0, err.read_text()
    assert err.read_text() == ""  # not a line of waiting: the kernel dropped the lock
    assert "done: 7 cell(s) measured, 1 reused" in out.read_text()
    lines = store.read_text().splitlines()
    assert len(lines) == len({json.loads(line)["key"] for line in lines}) == 8


def test_two_threads_measure_in_turn(tmp_path):
    log = tmp_path / "sleeper.log"
    sleeper = [sys.executable, "-S", "-c",
               "import sys, time; s = time.monotonic_ns(); time.sleep(0.05); "
               "open(sys.argv[1], 'a').write(f'{s} {time.monotonic_ns()}\\n')", str(log)]
    errors = []

    def measure_sleeper():
        try:
            measure.measure_process(sleeper, repetitions=3, rapl_domain=str(tmp_path / "no-powercap" / "intel-rapl:0"))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=measure_sleeper) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert errors == []
    intervals = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
    assert len(intervals) == 6
    assert all(end <= start for (_, end), (start, _) in zip(intervals, intervals[1:]))


def test_a_lock_file_that_cannot_be_opened_for_writing_still_locks(tmp_path, monkeypatch):
    lock = tmp_path / "hdrbench.lock"
    lock.write_text("4321\n")  # another user's file, as another user's run left it
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    def read_only(file, mode="r", *args, **kwargs):
        if str(file) == str(lock) and mode != "rb":
            raise PermissionError(13, "Permission denied", str(file))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(measure, "open", read_only, raising=False)
    with measure.host_lock():
        assert lock.read_text() == "4321\n"
        with open(lock, "rb") as other, pytest.raises(BlockingIOError):
            fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)
    with open(lock, "rb") as other:
        fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)


def test_a_symlink_at_the_lock_path_is_refused_and_its_target_kept(tmp_path, monkeypatch):
    target = tmp_path / "someone-elses-file"
    target.write_text("keep me\n")
    (tmp_path / "hdrbench.lock").symlink_to(target)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(OSError):
        with measure.host_lock():
            pass
    assert target.read_text() == "keep me\n"
