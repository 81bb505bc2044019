"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibrate  # noqa: E402
import run  # noqa: E402
from stats import tail_percentile  # noqa: E402
from tracing import Span, Tracer, covered_time, self_times  # noqa: E402
from workloads import (  # noqa: E402
    CheckError,
    CliMatch,
    csv_bytes,
    labeled_pair,
    read_partition,
)


class TestTailPercentile:
    def test_few_samples_fall_back_to_the_smallest(self):
        assert tail_percentile([3.0, 1.0, 2.0]) == (1.0, 100 / 3, 2)
        assert tail_percentile(list(range(10, 0, -1))) == (1.0, 10.0, 9)

    def test_eleven_samples_give_the_smallest(self):
        value, pct, beyond = tail_percentile([5.0] + list(range(10, 20)))
        assert (value, beyond) == (5.0, 10)
        assert pct == pytest.approx(100 / 11)

    def test_hundred_samples_give_p90(self):
        values = list(np.random.default_rng(3).permutation(100))
        value, pct, beyond = tail_percentile(values)
        assert (value, pct, beyond) == (89.0, 90.0, 10)

    def test_ties_count_by_rank(self):
        value, pct, beyond = tail_percentile([1.0] * 30)
        assert (value, pct, beyond) == (1.0, 100 * 20 / 30, 10)


class TestSelfTime:
    def test_nested_and_overlapping_children(self):
        spans = [
            Span("a.root", 0.0, 10.0),
            Span("b.left", 1.0, 4.0, parent=0),
            Span("b.right", 3.0, 6.0, parent=0),  # overlaps left: pool thread
            Span("c.leaf", 2.0, 3.0, parent=1),
            Span("b.late", 8.0, 9.0, parent=0),
        ]
        assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])

    def test_children_clipped_to_parent(self):
        assert covered_time([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
        assert covered_time([(1.0, 1.0), (5.0, 4.0)], 0.0, 10.0) == 0.0

    def test_self_times_sum_to_root_duration(self):
        spans = [
            Span("a.root", 0.0, 7.0),
            Span("a.mid", 1.0, 6.0, parent=0),
            Span("b.leaf", 2.0, 3.0, parent=1),
            Span("b.leaf", 4.0, 5.5, parent=1),
        ]
        assert sum(self_times(spans)) == pytest.approx(7.0)


class TestTracer:
    def test_wraps_every_binding_and_restores(self):
        from gramoverlap import cli, linalg, overlap

        original = overlap.build_overlap
        tracer = Tracer("gramoverlap", ["overlap", "linalg"])
        tracer.install()
        try:
            assert cli.build_overlap is overlap.build_overlap is not original
            x = np.random.default_rng(0).standard_normal((3, 6))
            overlap.build_overlap(x, x, overlap.PreprocessMode.NONE)
        finally:
            tracer.uninstall()
        assert cli.build_overlap is original and overlap.build_overlap is original
        names = [s.name for s in tracer.spans]
        assert names[0] == "overlap.build_overlap"
        assert names.count("linalg.gram") == 2
        assert all(s.parent is not None for s in tracer.spans[1:])
        assert linalg.gram.__module__ == "gramoverlap.linalg"

    def test_pool_thread_spans_hang_under_parallel_match(self):
        from gramoverlap import MatchConfig, parallel

        x = np.random.default_rng(1).standard_normal((3, 40))
        tracer = Tracer("gramoverlap", ["parallel", "overlap"])
        tracer.install()
        try:
            parallel.parallel_match(x, x, 4, MatchConfig(), max_workers=2)
        finally:
            tracer.uninstall()
        top = [i for i, s in enumerate(tracer.spans) if s.name == "parallel.parallel_match"]
        builds = [s for s in tracer.spans if s.name == "overlap.build_overlap"]
        assert len(top) == 1 and len(builds) == 4
        assert all(s.parent == top[0] for s in builds)


class TestInputs:
    def test_csv_inputs_byte_identical_for_the_same_seed(self):
        first = [csv_bytes(m) for m in labeled_pair(5, 40, 0.8, seed=7)[:2]]
        again = [csv_bytes(m) for m in labeled_pair(5, 40, 0.8, seed=7)[:2]]
        other = [csv_bytes(m) for m in labeled_pair(5, 40, 0.8, seed=8)[:2]]
        assert first == again
        assert first != other

    def test_csv_round_trips_exactly(self):
        x = labeled_pair(4, 30, 0.5, seed=1)[0]
        lines = csv_bytes(x).decode().splitlines()
        back = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert np.array_equal(back, x)


class TestCalibration:
    def test_reference_split_separates_two_clusters(self):
        values = np.array([9.0, 1.0, 10.0, 2.0, 1.5, 11.0])
        assert calibrate._two_means_split(values) == 3

    def test_scale_divides_by_the_reference_time(self):
        ref = calibrate.REFERENCE_S
        assert calibrate.Calibration.scale(1.0, ref) == pytest.approx(1.0)
        assert calibrate.Calibration.scale(1.0, 2 * ref) == pytest.approx(0.5)

    def test_a_short_slow_stretch_of_reference_timings_moves_nothing(self):
        ref = calibrate.REFERENCE_S
        refs = [ref] * 21
        refs[8:13] = [2 * ref] * 5
        scaled = calibrate.Calibration.scale_all([1.0] * 20, refs)
        assert scaled == pytest.approx([1.0] * 20)

    def test_a_lasting_slow_down_is_followed(self):
        ref = calibrate.REFERENCE_S
        refs = [ref] * 20 + [2 * ref] * 21
        scaled = calibrate.Calibration.scale_all([1.0] * 20 + [2.0] * 20, refs)
        assert scaled[:5] == pytest.approx([1.0] * 5)
        assert scaled[-5:] == pytest.approx([1.0] * 5)


@pytest.mark.parametrize(
    "text", ["0,G\n1,B\n", "0,G\n2,B\n1,G\n", "0,G\n1,X\n2,B\n", "0,G\n1,B\n2,B\n3,G\n"]
)
def test_partition_check_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "partition.csv"
    path.write_text(text)
    with pytest.raises(CheckError):
        read_partition(path, 3)


def test_partition_check_reads_a_valid_file(tmp_path):
    path = tmp_path / "partition.csv"
    path.write_text("0,G\n1,B\n2,G\n")
    assert read_partition(path, 3).tolist() == [True, False, True]


def test_preflight_refuses_a_build_that_cannot_fit():
    w = CliMatch("big", d=3, n=20000, r=0.8, splits=1, threads=1, error_bound=0)
    assert "not run" in run.preflight(w, available=7 * 2**30)
    assert run.preflight(w, available=64 * 2**30) is None
