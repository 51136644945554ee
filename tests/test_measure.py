"""Time/energy measurement: counters, aggregation, process supervision."""

import os
import re
import signal
import sys
import time

import pytest

from hdrbench.measure import (
    AggregatedMeasurement,
    CounterParseError,
    EnergyCounterSnapshot,
    MeasurementError,
    MeasurementSample,
    RaplUnavailableError,
    aggregate,
    energy_delta,
    measure_process,
    read_counter,
)
from tests.conftest import deny_reads_of

BUSY = [sys.executable, "-c", "x = sum(i * i for i in range(400_000))"]


class TestCounter:
    def test_read_fixture_tree(self, rapl_tree):
        snap = read_counter(rapl_tree / "intel-rapl:0")
        assert snap.energy_uj == 500000
        assert snap.max_range_uj == 1000000

    def test_missing_domain(self, tmp_path):
        with pytest.raises(RaplUnavailableError):
            read_counter(tmp_path / "intel-rapl:9")

    def test_missing_counter_file(self, rapl_tree):
        (rapl_tree / "intel-rapl:0" / "energy_uj").unlink()
        with pytest.raises(RaplUnavailableError):
            read_counter(rapl_tree / "intel-rapl:0")

    def test_unreadable_counter_file(self, rapl_tree, monkeypatch):
        counter = rapl_tree / "intel-rapl:0" / "energy_uj"
        deny_reads_of(monkeypatch, counter, after=0)
        with pytest.raises(RaplUnavailableError, match=re.escape(f"cannot read counter file {counter}: Permission denied")):
            read_counter(rapl_tree / "intel-rapl:0")

    def test_garbage_counter(self, rapl_tree):
        (rapl_tree / "intel-rapl:0" / "energy_uj").write_text("banana\n")
        with pytest.raises(CounterParseError):
            read_counter(rapl_tree / "intel-rapl:0")

    def test_snapshot_range_validation(self):
        with pytest.raises(Exception):
            EnergyCounterSnapshot(energy_uj=2_000_000, max_range_uj=1_000_000)


class TestEnergyDelta:
    def test_simple_difference(self):
        before = EnergyCounterSnapshot(100, 10**6)
        after = EnergyCounterSnapshot(2600, 10**6)
        assert energy_delta(before, after) == pytest.approx(2.5e-3)

    def test_wraparound(self):
        before = EnergyCounterSnapshot(999_990, 10**6)
        after = EnergyCounterSnapshot(10, 10**6)
        assert energy_delta(before, after) == pytest.approx(20e-6, abs=0)

    def test_zero(self):
        snap = EnergyCounterSnapshot(42, 10**6)
        assert energy_delta(snap, snap) == 0.0


class TestAggregate:
    def sample(self, value, energy=None):
        return MeasurementSample(wall_time=value, cpu_time=value, energy_joules=energy)

    def test_small_sets_use_plain_mean(self):
        result = aggregate([self.sample(v) for v in (1.0, 2.0, 6.0)])
        assert result.mean_wall_time == pytest.approx(3.0)
        assert result.retained_count == 3

    def test_four_or_more_drop_one_min_one_max(self):
        result = aggregate([self.sample(v) for v in (10.0, 11.0, 10.0, 12.0, 10.0)])
        assert result.mean_wall_time == pytest.approx(31.0 / 3.0, abs=1e-12)
        assert result.retained_count == 3

    def test_only_one_extreme_instance_dropped(self):
        result = aggregate([self.sample(v) for v in (5.0, 5.0, 5.0, 9.0)])
        # One of the three fives and the nine are dropped.
        assert result.mean_wall_time == pytest.approx(5.0)
        assert result.retained_count == 2

    def test_trim_disabled(self):
        result = aggregate([self.sample(v) for v in (10.0, 11.0, 10.0, 12.0, 10.0)], trim=False)
        assert result.mean_wall_time == pytest.approx(53.0 / 5.0)
        assert result.retained_count == 5

    def test_energy_mean_when_all_present(self):
        samples = [self.sample(1.0, energy=e) for e in (2.0, 3.0, 2.0, 4.0, 2.0)]
        result = aggregate(samples)
        assert result.mean_energy_joules == pytest.approx(7.0 / 3.0)

    def test_energy_none_when_any_missing(self):
        samples = [self.sample(1.0, energy=2.0), self.sample(1.0, energy=None)]
        assert aggregate(samples).mean_energy_joules is None

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            aggregate([])


class TestMeasureProcess:
    def test_busy_command(self, tmp_path):
        result = measure_process(BUSY, repetitions=2, powercap_root=tmp_path / "nope")
        assert isinstance(result, AggregatedMeasurement)
        assert len(result.samples) == 2
        assert result.mean_cpu_time > 0.0
        assert result.mean_wall_time > 0.0
        assert result.mean_energy_joules is None
        assert any("energy" in w.lower() or "rapl" in w.lower() for w in result.warnings)

    def test_cpu_time_tracks_work_not_sleep(self, tmp_path):
        result = measure_process(
            [sys.executable, "-c", "import time; time.sleep(0.2)"],
            repetitions=1,
            powercap_root=tmp_path / "nope",
        )
        assert result.mean_wall_time >= 0.2
        assert result.mean_cpu_time < 0.15

    def test_energy_from_fixture_tree(self, rapl_tree):
        result = measure_process(BUSY, repetitions=1, rapl_domain="intel-rapl:0", powercap_root=rapl_tree)
        # The fixture counter never advances, so the delta is exactly zero.
        assert result.mean_energy_joules == 0.0
        assert result.warnings == ()

    def test_nonzero_exit_aborts(self, tmp_path):
        with pytest.raises(MeasurementError):
            measure_process(
                [sys.executable, "-c", "import sys; sys.exit(3)"],
                repetitions=1,
                powercap_root=tmp_path / "nope",
            )

    def test_missing_binary(self, tmp_path):
        with pytest.raises(MeasurementError):
            measure_process(["/no/such/binary"], repetitions=1, powercap_root=tmp_path / "nope")

    def test_no_powercap_root_reads_the_default_root(self):
        # Whether or not this machine has RAPL, None and no argument agree.
        omitted = measure_process(["true"], repetitions=1)
        explicit = measure_process(["true"], repetitions=1, powercap_root=None)
        assert explicit.warnings == omitted.warnings
        assert (explicit.mean_energy_joules is None) == (omitted.mean_energy_joules is None)

    def test_repetition_validation(self, tmp_path):
        with pytest.raises(Exception):
            measure_process(BUSY, repetitions=0, powercap_root=tmp_path / "nope")

    def test_output_capture(self, tmp_path):
        out = tmp_path / "cmd.stdout.log"
        err = tmp_path / "cmd.stderr.log"
        measure_process(
            [sys.executable, "-c", "import sys; print('to out'); print('to err', file=sys.stderr)"],
            repetitions=2,
            powercap_root=tmp_path / "nope",
            logs=tmp_path / "cmd",
        )
        assert out.read_text().strip() == "to out"
        assert err.read_text().strip() == "to err"

    def test_failure_quotes_the_tail_of_the_output(self, tmp_path):
        script = "import sys; print('a\\nb\\nc\\nqp 999 does not fit', file=sys.stderr); sys.exit(1)"
        argv = [sys.executable, "-c", script]
        with pytest.raises(MeasurementError) as info:
            measure_process(
                argv, repetitions=1, powercap_root=tmp_path / "nope",
                logs=tmp_path / "cmd",
            )
        assert str(info.value) == f"measured command exited 1: {' '.join(argv)}: b | c | qp 999 does not fit"

    def test_interrupted_wait_kills_and_reaps_the_child(self, tmp_path):
        class Interrupted(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupted

        mask = os.sched_getaffinity(0)
        previous = signal.signal(signal.SIGALRM, interrupt)
        started = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(Interrupted):
                measure_process(
                    [sys.executable, "-c", "import time; time.sleep(30)"],
                    repetitions=1, powercap_root=tmp_path / "nope",
                )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 10
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.sched_getaffinity(0) == mask  # the timed phase gave the mask back

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
    def test_pinning_smoke(self, tmp_path):
        # The child reads its affinity after interpreter start-up, long after
        # the parent pinned it.
        code = "import os; x = sum(i * i for i in range(400_000)); print(len(os.sched_getaffinity(0)))"
        result = measure_process(
            [sys.executable, "-c", code], repetitions=2, powercap_root=tmp_path / "nope",
            logs=tmp_path / "cmd",
        )
        assert result.mean_cpu_time > 0.0
        assert (tmp_path / "cmd.stdout.log").read_text().strip() == "1"
        assert not [w for w in result.warnings if w.startswith("cpu pinning")]

    def test_a_failed_pin_warns_once_and_still_measures(self, tmp_path, monkeypatch):
        def refuse(pid, cpus):
            raise PermissionError("not allowed")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        result = measure_process(BUSY, repetitions=2, powercap_root=tmp_path / "nope")
        assert len(result.samples) == 2
        assert [w for w in result.warnings if w.startswith("cpu pinning")] == ["cpu pinning failed: not allowed"]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity on this platform")
class TestTimedPhase:
    """Each timed child starts on one CPU: the phase pins the spawning thread,
    and the child inherits its mask. The thread gets its mask back when the
    phase ends, however it ends."""

    def test_every_repetition_starts_on_one_cpu(self, spawns, tmp_path):
        mask = os.sched_getaffinity(0)
        result = measure_process(["true"], repetitions=3, powercap_root=tmp_path / "nope")
        assert len(result.samples) == 3
        assert spawns == [(["true"], {min(mask)})] * 3
        assert os.sched_getaffinity(0) == mask

    @pytest.mark.parametrize("argv", [["/no/such/binary"], [sys.executable, "-c", "import sys; sys.exit(3)"]])
    def test_a_failed_command_gives_the_mask_back(self, spawns, tmp_path, argv):
        mask = os.sched_getaffinity(0)
        with pytest.raises(MeasurementError):
            measure_process(argv, repetitions=2, powercap_root=tmp_path / "nope")
        assert spawns == [(argv, {min(mask)})]
        assert os.sched_getaffinity(0) == mask
