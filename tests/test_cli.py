"""End-to-end CLI behavior: files, exit codes, flag validation."""

import argparse
import csv
import json
import os

import numpy as np
import pytest

from gramoverlap import (
    MatchConfig,
    PreprocessMode,
    bench,
    build_overlap,
    cli,
    error_rates,
    linalg,
    match,
    overlap,
    parallel,
)
from gramoverlap.classify import METHOD_EIGENVECTOR, METHOD_ROW_SUM
from gramoverlap.cli import UsageError, _match_config, build_parser, main
from gramoverlap.fileio import (
    read_labels,
    read_matrix_csv,
    read_partition_csv,
    read_ppm,
    write_ppm,
)

# 2x2 image with fat margins: pixel 3 (bottom-right) has its channels
# permuted in B; both matchers isolate it (verified by direct arithmetic
# in TestImgdiff.test_permuted_pixel_highlighted)
PIXELS_A = [(111, 241, 158), (245, 68, 165), (100, 222, 130), (206, 108, 141)]
PIXEL_3_PERMUTED = (108, 206, 141)


def run(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return int(exc.code or 0)


def untimed_rows(path) -> list[dict]:
    """The rows of a sweep CSV as text, without their time columns."""
    with open(path, newline="") as f:
        return [
            {k: v for k, v in row.items() if not k.startswith("time_ms")}
            for row in csv.DictReader(f)
        ]


def write_test_images(tmp_path, identical=False):
    a = np.array(PIXELS_A, dtype=np.uint8).reshape(2, 2, 3)
    b = a.copy()
    if not identical:
        b[1, 1] = PIXEL_3_PERMUTED
    path_a, path_b = tmp_path / "a.ppm", tmp_path / "b.ppm"
    write_ppm(path_a, a)
    write_ppm(path_b, b)
    return path_a, path_b


class TestGen:
    def test_shapes_and_labels(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "gen --d 3 --n 4 --r 0.5 --kind gaussian_outliers --seed 7 "
            f"--out {out}".split()
        )
        assert code == 0
        assert read_matrix_csv(out / "X.csv").shape == (3, 4)
        assert read_matrix_csv(out / "Y.csv").shape == (3, 4)
        assert read_labels(out / "labels.csv").size == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen" and manifest["options"]["seed"] == 7

    def test_regeneration_is_byte_identical(self, tmp_path):
        flags = "gen --d 4 --n 10 --r 0.5 --kind permuted_inliers --seed 3"
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert run(f"{flags} --out {out1}".split()) == 0
        assert run(f"{flags} --out {out2}".split()) == 0
        for name in ("X.csv", "Y.csv", "labels.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_label_count_matches_rate_grid(self, tmp_path):
        for i, (n, r) in enumerate([(10, 0.1), (10, 0.5), (8, 0.75), (20, 0.9)]):
            out = tmp_path / f"g{i}"
            code = run(f"gen --d 2 --n {n} --r {r} --seed 1 --out {out}".split())
            assert code == 0
            assert read_labels(out / "labels.csv").size == round(n * r)

    def test_invalid_spec_is_usage_error(self, tmp_path):
        code = run(f"gen --d 3 --n 10 --r 0.33 --seed 0 --out {tmp_path/'x'}".split())
        assert code == 2
        code = run(f"gen --d 3 --n 10 --r 0.5 --seed -1 --out {tmp_path/'x'}".split())
        assert code == 2 and not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flags",
        ["--r inf", "--r=-inf", "--r nan", "--r 0.5 --sigma2 nan", "--r 0.5 --sigma2 inf"],
    )
    def test_non_finite_values_are_usage_errors(self, tmp_path, capsys, flags):
        out = tmp_path / "x"
        assert run(f"gen --d 6 --n 40 {flags} --out {out}".split()) == 2
        assert "usage error: " in capsys.readouterr().err
        assert not out.exists()


class TestMatch:
    def make_instance(self, tmp_path, seed=11, n=100, r=0.8, d=50):
        out = tmp_path / "data"
        assert (
            run(
                f"gen --d {d} --n {n} --r {r} --kind gaussian_outliers "
                f"--seed {seed} --out {out}".split()
            )
            == 0
        )
        return out

    def test_rowsum_kmeans_recovers_labels(self, tmp_path):
        data = self.make_instance(tmp_path)
        out = tmp_path / "m"
        code = run(
            f"match {data/'X.csv'} {data/'Y.csv'} --method rowsum --kmeans "
            f"--preprocess cn --out {out}".split()
        )
        assert code == 0
        part = read_partition_csv(out / "partition.csv")
        truth = read_labels(data / "labels.csv")
        assert np.array_equal(part.inliers, truth)

    def test_eig_threshold_recovers_labels(self, tmp_path):
        data = self.make_instance(tmp_path)
        out = tmp_path / "m"
        code = run(
            f"match {data/'X.csv'} {data/'Y.csv'} --method eig --threshold 0.5 "
            f"--preprocess cn --out {out}".split()
        )
        assert code == 0
        part = read_partition_csv(out / "partition.csv")
        truth = read_labels(data / "labels.csv")
        assert np.array_equal(part.inliers, truth)

    def test_matches_api_results(self, tmp_path):
        data = self.make_instance(tmp_path, seed=12)
        x = read_matrix_csv(data / "X.csv")
        y = read_matrix_csv(data / "Y.csv")
        for flags, mode, cfg in [
            (
                "--method rowsum --kmeans --preprocess none",
                PreprocessMode.NONE,
                MatchConfig(method="row_sum"),
            ),
            (
                "--method eig --threshold 0.7 --preprocess cn",
                PreprocessMode.CENTER_NORMALIZE,
                MatchConfig(method="eigenvector", threshold=0.7),
            ),
        ]:
            out = tmp_path / ("m" + flags.replace(" ", ""))
            code = run(
                f"match {data/'X.csv'} {data/'Y.csv'} {flags} --out {out}".split()
            )
            assert code == 0
            h = build_overlap(x, y, mode)
            expected, _ = match(h, cfg)
            assert read_partition_csv(out / "partition.csv") == expected

    @pytest.mark.parametrize("splits", [1, 2])
    def test_negative_seed_is_usage_error_before_input(self, tmp_path, capsys, splits):
        # missing inputs would exit 1 if they were read
        missing = f"match {tmp_path/'X.csv'} {tmp_path/'Y.csv'}"
        data = self.make_instance(tmp_path, n=40, r=0.5, d=5)
        present = f"match {data/'X.csv'} {data/'Y.csv'}"
        for inputs, seed, code in ((missing, -1, 2), (present, 0, 0)):
            out = tmp_path / f"m{seed}"
            argv = (
                f"{inputs} --method rowsum --kmeans --splits {splits} "
                f"--seed {seed} --threads 1 --out {out}"
            )
            assert run(argv.split()) == code
            assert out.exists() == (code == 0)
        assert "usage error: --seed must be non-negative" in capsys.readouterr().err

    def test_splits_route_matches_single(self, tmp_path):
        data = self.make_instance(tmp_path, seed=13, n=200, r=0.9)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        base = f"match {data/'X.csv'} {data/'Y.csv'} --method rowsum --kmeans --seed 5"
        assert run(f"{base} --out {out1}".split()) == 0
        assert run(f"{base} --splits 2 --threads 2 --out {out2}".split()) == 0
        d1 = json.loads((out1 / "diagnostics.json").read_text())
        d2 = json.loads((out2 / "diagnostics.json").read_text())
        assert "shards" not in d1
        assert len(d2["shards"]) == 2 and len(d2["shard_sizes"]) == 2
        # the split route must reproduce the library's own result exactly
        from gramoverlap import parallel_match

        x = read_matrix_csv(data / "X.csv")
        y = read_matrix_csv(data / "Y.csv")
        cfg = MatchConfig(method="row_sum")
        expected = parallel_match(
            x, y, 2, cfg, PreprocessMode.CENTER_NORMALIZE, 5, max_workers=2
        ).partition
        assert read_partition_csv(out2 / "partition.csv") == expected

    def test_diagnostics_give_the_shard_workers(self, tmp_path):
        # 50-point shards: at d = 5 their row sums come from the factors and
        # they run inline; at d = 50 they form H (2 d >= 50) on the pool
        for d, workers, backend in ((5, 1, "gram_factor"), (50, 2, "dense")):
            data = self.make_instance(tmp_path / f"d{d}", seed=13, d=d)
            out = tmp_path / f"m{d}"
            code = run(
                f"match {data/'X.csv'} {data/'Y.csv'} --method rowsum --kmeans "
                f"--splits 2 --threads 2 --out {out}".split()
            )
            assert code == 0
            diag = json.loads((out / "diagnostics.json").read_text())
            assert diag["workers"] == workers
            assert [s["row_sum_backend"] for s in diag["shards"]] == [backend] * 2

    def test_diagnostics_name_the_eig_backend(self, tmp_path):
        # d = 3, n = 200 (4 d^2 <= n): factored solve; d = 50, n = 100: power
        # iteration on the dense H
        small = tmp_path / "small"
        assert run(f"gen --d 3 --n 200 --r 0.8 --seed 19 --out {small}".split()) == 0
        cases = (
            (small, "gram_factor"),
            (self.make_instance(tmp_path), "power_iteration"),
        )
        for data, backend in cases:
            out = tmp_path / f"m-{backend}"
            code = run(
                f"match {data/'X.csv'} {data/'Y.csv'} --method eig --kmeans "
                f"--preprocess cn --out {out}".split()
            )
            assert code == 0
            diag = json.loads((out / "diagnostics.json").read_text())
            assert diag["eig_backend"] == backend
            assert diag["converged"] is True
            assert (diag["iterations"] == 0) == (backend == "gram_factor")
            assert diag["leading_eigenvalue"] > 0

    def test_diagnostics_name_the_row_sum_backend(self, tmp_path, monkeypatch):
        # d = 40, n = 100 (2 d < n): the row sums come from the factors, so
        # no n-by-n Gram is ever computed
        data = self.make_instance(tmp_path, d=40)

        def no_gram(x):
            raise AssertionError("gram called by match --method rowsum")

        monkeypatch.setattr(linalg, "gram", no_gram)
        out = tmp_path / "m"
        code = run(
            f"match {data/'X.csv'} {data/'Y.csv'} --method rowsum --kmeans "
            f"--preprocess cn --out {out}".split()
        )
        assert code == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["row_sum_backend"] == "gram_factor"
        assert diag["eig_backend"] is None
        truth = read_labels(data / "labels.csv")
        assert np.array_equal(read_partition_csv(out / "partition.csv").inliers, truth)

    def test_dense_h_that_cannot_fit_is_refused(self, tmp_path, monkeypatch, capsys):
        # d = 40, n = 100 (4 d^2 > n): the eigenvector needs power iteration
        # on H, which is refused before any allocation when 16 n^2 bytes are
        # not available; the row sums (2 d < n) never form H and still run
        data = self.make_instance(tmp_path, d=40)
        monkeypatch.setattr(overlap, "_available_bytes", lambda: 16 * 100**2 - 1)
        base = f"match {data/'X.csv'} {data/'Y.csv'} --preprocess cn"
        out = tmp_path / "eig"
        assert run(f"{base} --method eig --kmeans --out {out}".split()) == 1
        assert "overlap needs" in capsys.readouterr().err
        assert not out.exists()
        assert run(f"{base} --method rowsum --kmeans --out {tmp_path/'rs'}".split()) == 0
        monkeypatch.setattr(overlap, "_available_bytes", lambda: 16 * 100**2)
        assert run(f"{base} --method eig --kmeans --out {out}".split()) == 0

    def test_threshold_and_kmeans_conflict(self, tmp_path):
        data = self.make_instance(tmp_path, seed=14)
        code = run(
            f"match {data/'X.csv'} {data/'Y.csv'} --method eig --threshold 0.5 "
            f"--kmeans --out {tmp_path/'m'}".split()
        )
        assert code == 2

    def test_neither_branch_is_usage_error(self, tmp_path):
        data = self.make_instance(tmp_path, seed=15)
        code = run(
            f"match {data/'X.csv'} {data/'Y.csv'} --method eig "
            f"--out {tmp_path/'m'}".split()
        )
        assert code == 2

    def test_threads_below_one_is_usage_error(self, tmp_path):
        data = self.make_instance(tmp_path, seed=18)
        base = f"match {data/'X.csv'} {data/'Y.csv'} --method rowsum --kmeans"
        for splits in (1, 2):
            out = tmp_path / f"m{splits}"
            code = run(f"{base} --splits {splits} --threads 0 --out {out}".split())
            assert code == 2
            assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            "--meth rowsum --kmeans",
            "--method rowsum --km",
            "--method rowsum --kmeans --thread 1",
            "--method rowsum --kmeans --split 2",
            "--method eig --thresh 0.5",
            "--method rowsum --threshold --inlier 0.5",
            "--method rowsum --kmeans --pre none",
        ],
    )
    def test_flag_prefixes_are_refused(self, tmp_path, capsys, flags):
        data = self.make_instance(tmp_path, seed=18)
        out = tmp_path / "m"
        code = run(f"match {data/'X.csv'} {data/'Y.csv'} {flags} --out {out}".split())
        assert code == 2
        assert "usage error: " in capsys.readouterr().err
        assert not out.exists()

    def test_shape_mismatch_no_partial_outputs(self, tmp_path):
        data = self.make_instance(tmp_path, seed=16)
        other = tmp_path / "other"
        assert run(f"gen --d 50 --n 98 --r 0.5 --seed 2 --out {other}".split()) == 0
        out = tmp_path / "m"
        code = run(
            f"match {data/'X.csv'} {other/'Y.csv'} --method rowsum --kmeans "
            f"--out {out}".split()
        )
        assert code == 1
        assert not (out / "partition.csv").exists()

    def test_bare_threshold_uses_default(self, tmp_path):
        data = self.make_instance(tmp_path, seed=17)
        out1, out2 = tmp_path / "auto", tmp_path / "explicit"
        base = f"match {data/'X.csv'} {data/'Y.csv'} --method eig --preprocess cn"
        assert run(f"{base} --threshold --out {out1}".split()) == 0
        assert run(f"{base} --threshold 0.5 --out {out2}".split()) == 0
        assert (out1 / "partition.csv").read_bytes() == (
            out2 / "partition.csv"
        ).read_bytes()

    def test_bare_rowsum_threshold_needs_rate(self, tmp_path):
        data = self.make_instance(tmp_path, seed=18)
        base = f"match {data/'X.csv'} {data/'Y.csv'} --method rowsum --threshold"
        assert run(f"{base} --out {tmp_path/'m'}".split()) == 2
        code = run(
            f"{base} --inlier-rate 0.8 --preprocess none --out {tmp_path/'m2'}".split()
        )
        assert code == 0

    def test_inlier_rate_no_rule_reads_is_usage_error(self, tmp_path, capsys):
        data, path_a, path_b = tmp_path / "data", *write_test_images(tmp_path)
        assert run(f"gen --d 3 --n 20 --r 0.5 --out {data}".split()) == 0
        match_inputs = f"match {data/'X.csv'} {data/'Y.csv'}"
        for inputs in (match_inputs, f"imgdiff {path_a} {path_b}"):
            for branch in (
                "--method rowsum --kmeans",
                "--method rowsum --threshold 2",
                "--method eig --threshold",
                "--method eig --kmeans",
            ):
                out = tmp_path / "out"
                argv = f"{inputs} {branch} --inlier-rate 0.5 --out {out}"
                assert run(argv.split()) == 2, argv
                assert "usage error: " in capsys.readouterr().err
                assert not out.exists()


class TestCutOutsideTheRange:
    """A fixed cut outside the statistic's range labels every point one
    class; ``match`` says so in its warnings, and partitions do not move."""

    def run_match(self, tmp_path, flags):
        data = tmp_path / "data"
        assert run(
            f"gen --d 6 --n 400 --r 0.8 --kind permuted_inliers --seed 1 "
            f"--out {data}".split()
        ) == 0
        out = tmp_path / "m"
        code = run(
            f"match {data/'X.csv'} {data/'Y.csv'} --method rowsum {flags} "
            f"--out {out}".split()
        )
        assert code == 0
        partition = read_partition_csv(out / "partition.csv")
        return partition, json.loads((out / "diagnostics.json").read_text())

    def test_the_raw_default_cut_under_cn_warns(self, tmp_path):
        # T = d (r n + 1) / 2 = 963 is on the raw scale; under cn the row
        # sums span about [-77, 28], so every point becomes an outlier
        partition, diag = self.run_match(tmp_path, "--threshold --inlier-rate 0.8")
        assert diag["threshold"] == 963.0 and partition.inliers.size == 0
        low, high = diag["stat_min"], diag["stat_max"]
        assert high < 963.0
        assert diag["warnings"] == [
            f"fixed cut 963 lies above the statistic's range "
            f"[{low:.6g}, {high:.6g}]; every point is labeled an outlier"
        ]

    def test_a_cut_inside_the_range_adds_no_warning(self, tmp_path):
        partition, diag = self.run_match(tmp_path, "--threshold 10")
        assert diag["stat_min"] < 10.0 <= diag["stat_max"]
        assert 0 < partition.inliers.size < 400
        assert diag["warnings"] == []

    def test_shards_warn_through_the_report(self, tmp_path):
        partition, diag = self.run_match(
            tmp_path, "--threshold --inlier-rate 0.8 --splits 2"
        )
        assert partition.inliers.size == 0
        assert [len(shard["warnings"]) for shard in diag["shards"]] == [1, 1]
        assert diag["warnings"] == [
            f"shard {j}: {shard['warnings'][0]}"
            for j, shard in enumerate(diag["shards"])
        ]
        assert "fixed cut 483 lies above" in diag["warnings"][0]

    def test_imgdiff_warns(self, tmp_path):
        # the shifted row sums of these images are negative under cn, so
        # any positive cut lies above them and every pixel is highlighted
        path_a, path_b = write_test_images(tmp_path)
        out = tmp_path / "diff"
        code = run(
            f"imgdiff {path_a} {path_b} --method rowsum --threshold 1 "
            f"--preprocess cn --out {out}".split()
        )
        assert code == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["stat_max"] < 0 and diag["n_highlighted"] == 4
        assert len(diag["warnings"]) == 1
        assert diag["warnings"][0].startswith("fixed cut 1 lies above")
        assert diag["warnings"][0].endswith("every point is labeled an outlier")


class TestMatchReadsBothInputs:
    """``match`` reads Y on a worker thread while it reads X, when
    ``--threads`` (or the CPU count) allows two threads."""

    BASE = "--method rowsum --kmeans --seed 5"

    def make_instance(self, tmp_path):
        data = tmp_path / "data"
        argv = f"gen --d 5 --n 200 --r 0.8 --seed 21 --out {data}"
        assert run(argv.split()) == 0
        return data

    def match(self, x, y, out, flags=""):
        return run(f"match {x} {y} {self.BASE} {flags} --out {out}".split())

    @pytest.mark.parametrize("threads", ["--threads 1", "--threads 2"])
    def test_errors_name_x_first_then_y(self, tmp_path, capsys, threads):
        data = self.make_instance(tmp_path)
        bad_x, bad_y = tmp_path / "bad_x.csv", tmp_path / "bad_y.csv"
        bad_x.write_text("1,2\n3,4\n5,x\n")
        bad_y.write_text("1,2\n3\n")
        good_x, missing = data / "X.csv", tmp_path / "missing.csv"
        cases = [
            (bad_x, bad_y, f"error: {bad_x}:3: field 2 is not a number: 'x'"),
            (good_x, bad_y, f"error: {bad_y}:2: expected 2 fields, got 1"),
            (good_x, missing, f"error: [Errno 2] No such file or directory: "
             f"'{missing}'"),
        ]
        for k, (x, y, message) in enumerate(cases):
            out = tmp_path / f"m{k}"
            assert self.match(x, y, out, threads) == 1
            assert capsys.readouterr().err == message + "\n"
            assert not out.exists()

    @pytest.mark.parametrize("splits", [1, 4])
    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path, splits):
        data = self.make_instance(tmp_path)
        outs = [tmp_path / f"t{t}" for t in (1, 2)]
        for t, out in zip((1, 2), outs):
            flags = f"--splits {splits} --threads {t}"
            assert self.match(data / "X.csv", data / "Y.csv", out, flags) == 0
        one, two = (out / "partition.csv" for out in outs)
        assert one.read_bytes() == two.read_bytes()
        timing = ("wall_time_ms", "shard_times_ms")
        diags = [
            {
                k: v
                for k, v in json.loads((out / "diagnostics.json").read_text()).items()
                if k not in timing
            }
            for out in outs
        ]
        assert diags[0] == diags[1]

    @pytest.mark.parametrize("splits", [1, 4])
    def test_one_thread_starts_no_worker(self, tmp_path, monkeypatch, splits):
        import gramoverlap.cli
        import gramoverlap.parallel

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker thread was started")

        data = self.make_instance(tmp_path)
        for module in (gramoverlap.cli, gramoverlap.parallel):
            monkeypatch.setattr(module, "ThreadPoolExecutor", no_pool)
        out = tmp_path / "m"
        flags = f"--splits {splits} --threads 1"
        assert self.match(data / "X.csv", data / "Y.csv", out, flags) == 0

    def test_y_is_read_on_a_worker_at_two_threads(self, tmp_path, monkeypatch):
        import threading

        from gramoverlap import fileio

        readers = {}
        read = fileio.read_matrix_csv

        def spy(path):
            readers[path] = threading.current_thread()
            return read(path)

        monkeypatch.setattr(fileio, "read_matrix_csv", spy)
        data = self.make_instance(tmp_path)
        x, y = str(data / "X.csv"), str(data / "Y.csv")
        main_thread = threading.current_thread()
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            assert self.match(x, y, out, f"--threads {threads}") == 0
            assert readers[x] is main_thread
            assert (readers[y] is main_thread) == (threads == 1)


class TestEval:
    def test_perfect_recovery(self, tmp_path, capsys):
        part = tmp_path / "partition.csv"
        labels = tmp_path / "labels.csv"
        part.write_text("0,G\n1,G\n2,B\n3,B\n4,B\n")
        labels.write_text("0\n1\n")
        assert run([ "eval", str(part), str(labels)]) == 0
        assert capsys.readouterr().out.strip() == "0.000000,0.000000,0.000000"

    def test_counting_example(self, tmp_path, capsys):
        part = tmp_path / "partition.csv"
        labels = tmp_path / "labels.csv"
        part.write_text("0,G\n1,G\n2,B\n3,B\n4,B\n")
        labels.write_text("0\n1\n2\n")
        assert run(["eval", str(part), str(labels)]) == 0
        assert capsys.readouterr().out.strip() == "0.333333,0.000000,0.200000"

    def test_matches_api(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        n = 23
        truth = np.sort(rng.choice(n, size=9, replace=False))
        est = np.sort(rng.choice(n, size=11, replace=False))
        part = tmp_path / "partition.csv"
        labels = tmp_path / "labels.csv"
        mask = np.zeros(n, dtype=bool)
        mask[est] = True
        part.write_text("".join(f"{i},{'G' if mask[i] else 'B'}\n" for i in range(n)))
        labels.write_text("".join(f"{i}\n" for i in truth))
        assert run(["eval", str(part), str(labels)]) == 0
        from gramoverlap import LabelPartition

        rep = error_rates(truth, LabelPartition(mask))
        expected = f"{rep.error_g:.6f},{rep.error_b:.6f},{rep.error_w:.6f}"
        assert capsys.readouterr().out.strip() == expected

    def test_universe_mismatch(self, tmp_path):
        part = tmp_path / "partition.csv"
        labels = tmp_path / "labels.csv"
        part.write_text("0,G\n1,B\n")
        labels.write_text("5\n")
        assert run(["eval", str(part), str(labels)]) == 1


class TestBench:
    def test_rate_sweep_smoke(self, tmp_path):
        out = tmp_path / "bench"
        code = run(
            "bench --sweep r --d 6 --n 40 --trials 3 --seed 1 "
            "--r-grid 0.5,0.75 --methods rowsum:kmeans,eig:0.5 "
            f"--out {out}".split()
        )
        assert code == 0
        text = (out / "sweep_r.csv").read_text().splitlines()
        assert text[0].startswith("sweep,value,method,trials,error_g_mean")
        assert len(text) == 1 + 2 * 2  # header + grid x methods
        assert (out / "manifest.json").exists()

    def test_splits_sweep_smoke(self, tmp_path):
        out = tmp_path / "bench"
        code = run(
            "bench --sweep splits --d 8 --n 64 --r 0.5 --trials 2 --seed 1 "
            f"--splits-grid 1,2 --methods rowsum:kmeans --out {out}".split()
        )
        assert code == 0
        assert (out / "sweep_splits.csv").exists()

    def test_default_methods_are_recorded(self, tmp_path):
        for sweep, key, value in (
            ("--sweep r --r-grid 0.5", "methods", ",".join(bench.DEFAULT_METHODS)),
            ("--sweep splits --splits-grid 1 --r 0.5", "methods", "rowsum:kmeans"),
        ):
            out = tmp_path / key
            code = run(f"bench {sweep} --d 4 --n 20 --trials 1 --out {out}".split())
            assert code == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["options"][key] == value

    def test_every_sweep_is_one_run_sweep_call(self, tmp_path, monkeypatch):
        # the CLI passes its flags through and leaves every default, the
        # methods of each axis included, to the library
        calls = []

        def recorded(*args, **kwargs):
            calls.append((args, kwargs))
            return []

        monkeypatch.setattr(bench, "run_sweep", recorded)
        mode = PreprocessMode.CENTER_NORMALIZE
        fixed = dict(d=4, n=20, kind="permuted_inliers", seed=0)
        for flags, args, kwargs in (
            ("--sweep r --r-grid 0.5", ("r", [0.5], 1, None, mode, None),
             dict(sigma2=0.0)),
            ("--sweep sigma2 --sigma2-grid 0,1 --r 0.5 --methods eig:kmeans",
             ("sigma2", [0.0, 1.0], 1, ["eig:kmeans"], mode, None), dict(r=0.5)),
            ("--sweep splits --splits-grid 1,2 --r 0.5 --threads 2",
             ("splits", [1, 2], 1, None, mode, 2), dict(r=0.5, sigma2=0.0)),
        ):
            calls.clear()
            out = tmp_path / flags.split()[1]
            argv = f"bench {flags} --d 4 --n 20 --trials 1 --out {out}"
            assert run(argv.split()) == 0
            assert calls == [(args, {**fixed, **kwargs})]

    def test_missing_grid_is_usage_error(self, tmp_path):
        code = run(f"bench --sweep r --d 6 --n 40 --out {tmp_path/'b'}".split())
        assert code == 2
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            "--sweep r --r-grid 0.5 --trials 0",
            "--sweep sigma2 --sigma2-grid 0 --r 0.5 --trials -3",
            "--sweep splits --splits-grid 1,2 --r 0.5 --trials 0",
            # a fixed value for the swept field
            "--sweep r --r-grid 0.5 --r 0.5 --trials 1",
            "--sweep sigma2 --sigma2-grid 0 --r 0.5 --sigma2 0 --trials 1",
            "--sweep r --r-grid 0.5 --trials 1 --methods rowsum:kmeans,eig:zero",
            "--sweep sigma2 --sigma2-grid 0 --r 0.5 --trials 1 --methods what",
            "--sweep splits --splits-grid 1,2 --r 0.5 --trials 1 --methods rowsum:-1",
            "--sweep r --r-grid 0.5 --trials 1 --methods eig:inf",
            "--sweep r --r-grid 0.33 --trials 1",
            "--sweep r --r-grid 0.5 --trials 1 --d 0",
            "--sweep sigma2 --sigma2-grid 0 --r 0.5 --trials 1 --n 1",
            "--sweep r --r-grid 0.5,inf --trials 1",
            "--sweep r --r-grid 0.5 --sigma2 nan --trials 1",
            "--sweep sigma2 --sigma2-grid 0,nan --r 0.5 --trials 1",
            "--sweep sigma2 --sigma2-grid 0 --r inf --trials 1",
            "--sweep splits --splits-grid 2 --r nan --trials 1",
            "--sweep splits --splits-grid 0 --r 0.5 --trials 1",
            "--sweep splits --splits-grid 1,21 --r 0.5 --trials 1",
            "--sweep r --r-grid , --trials 1",
            "--sweep sigma2 --sigma2-grid , --r 0.5 --trials 1",
            "--sweep splits --splits-grid , --r 0.5 --trials 1",
            # permuted_inliers (the default kind) with a single outlier
            "--sweep r --d 3 --n 8 --r-grid 0.875 --trials 1",
            "--sweep r --r-grid 0.5,0.975 --trials 1",
            "--sweep sigma2 --sigma2-grid 0 --r 0.975 --trials 1",
            "--sweep splits --splits-grid 1 --r 0.975 --trials 1",
            # a flag that only another sweep reads
            "--sweep r --r-grid 0.5 --trials 1 --sigma2-grid 0",
            "--sweep r --r-grid 0.5 --trials 1 --splits-grid 1",
            "--sweep sigma2 --sigma2-grid 0 --r 0.5 --trials 1 --r-grid 0.5",
            "--sweep sigma2 --sigma2-grid 0 --r 0.5 --trials 1 --splits-grid 1",
            "--sweep splits --splits-grid 1 --r 0.5 --trials 1 --r-grid 0.5",
            "--sweep splits --splits-grid 1 --r 0.5 --trials 1 --sigma2-grid 0",
            "--sweep r --r-grid 0.5 --trials 1 --threads 1",
            "--sweep sigma2 --sigma2-grid 0 --r 0.5 --trials 1 --threads 2",
            # a prefix of a flag
            "--sweep r --r-grid 0.5 --trials 1 --method rowsum:kmeans",
            "--sweep sigma2 --sigma2-grid 0 --r 0.5 --trials 1 --method eig:0.5",
            # a method spec given twice
            "--sweep r --r-grid 0.5 --trials 1 --methods eig:kmeans,eig:kmeans",
            "--sweep sigma2 --sigma2-grid 0 --r 0.5 --trials 1 "
            "--methods eig:0.5,rowsum:kmeans,eig:0.5",
            "--sweep splits --splits-grid 1,2 --r 0.5 --trials 1 "
            "--methods rowsum:kmeans,rowsum:kmeans",
            # a negative seed
            "--sweep r --r-grid 0.5 --trials 1 --seed -1",
            "--sweep sigma2 --sigma2-grid 0 --r 0.5 --trials 1 --seed -1",
            "--sweep splits --splits-grid 1 --r 0.5 --trials 1 --seed -1",
        ],
    )
    def test_bad_flag_values_are_usage_errors(
        self, tmp_path, capsys, monkeypatch, flags
    ):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(bench, "run_sweep", no_sweep)
        out = tmp_path / "b"
        # flags come last, so a --d or --n among them overrides the defaults
        code = run(f"bench --d 6 --n 40 {flags} --out {out}".split())
        assert code == 2
        assert "usage error: " in capsys.readouterr().err
        assert not out.exists()

    def test_splits_sweep_passes_sigma2(self, tmp_path):
        out = tmp_path / "bench"
        code = run(
            "bench --sweep splits --d 5 --n 40 --r 0.5 --trials 2 --seed 3 "
            f"--splits-grid 1,2 --sigma2 4.0 --threads 1 --out {out}".split()
        )
        assert code == 0
        expected = bench.run_sweep(
            "splits", [1, 2], 2, d=5, n=40, r=0.5, seed=3,
            kind="permuted_inliers", sigma2=4.0,
            preprocess=PreprocessMode.CENTER_NORMALIZE, max_workers=1,
        )
        bench.write_sweep_csv(tmp_path / "expected.csv", expected)
        assert untimed_rows(out / "sweep_splits.csv") == untimed_rows(
            tmp_path / "expected.csv"
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["options"]["sigma2"] == 4.0

    def test_splits_sweep_defaults_match_the_library(self, tmp_path):
        # with no --kind or --preprocess, the CLI splits sweep draws the data
        # and preprocesses it as run_sweep does with its own defaults
        out = tmp_path / "bench"
        code = run(
            "bench --sweep splits --d 5 --n 40 --r 0.5 --trials 2 --seed 3 "
            f"--splits-grid 1,2 --threads 1 --out {out}".split()
        )
        assert code == 0
        expected = bench.run_sweep(
            "splits", [1, 2], 2, d=5, n=40, r=0.5, seed=3, max_workers=1
        )
        bench.write_sweep_csv(tmp_path / "expected.csv", expected)
        assert untimed_rows(out / "sweep_splits.csv") == untimed_rows(
            tmp_path / "expected.csv"
        )

    def test_threads_below_one_is_usage_error(self, tmp_path):
        code = run(
            "bench --sweep splits --d 5 --n 40 --r 0.5 --trials 1 "
            f"--splits-grid 1,2 --threads 0 --out {tmp_path/'b'}".split()
        )
        assert code == 2


@pytest.mark.parametrize("value", ["abc", "1"])
def test_threads_variable_is_ignored(tmp_path, monkeypatch, value):
    """The worker count comes from ``--threads`` or the affinity set only:
    ``GRAMOVERLAP_THREADS``, set to anything, changes no exit code and no
    output."""
    data = tmp_path / "data"
    assert run(f"gen --d 6 --n 60 --r 0.5 --seed 4 --out {data}".split()) == 0
    base = f"match {data/'X.csv'} {data/'Y.csv'} --method rowsum --kmeans"
    for splits in (1, 2):
        argv = f"{base} --splits {splits} --out {tmp_path / f'plain{splits}'}"
        assert run(argv.split()) == 0
    monkeypatch.setenv("GRAMOVERLAP_THREADS", value)
    for splits in (1, 2):
        out = tmp_path / f"m{splits}"
        assert run(f"{base} --splits {splits} --out {out}".split()) == 0
        plain = tmp_path / f"plain{splits}" / "partition.csv"
        assert (out / "partition.csv").read_bytes() == plain.read_bytes()
    for sweep in ("--sweep r --r-grid 0.5", "--sweep splits --splits-grid 1,2 --r 0.5"):
        out = tmp_path / "b"
        argv = f"bench {sweep} --d 5 --n 40 --trials 1 --out {out}"
        assert run(argv.split()) == 0
    for s in (1, 2, 64):
        expected = min(len(os.sched_getaffinity(0)), s)
        assert parallel.resolve_workers(None, s) == expected


class TestImgdiff:
    def test_permuted_pixel_highlighted(self, tmp_path):
        path_a, path_b = write_test_images(tmp_path)
        out = tmp_path / "diff"
        code = run(
            f"imgdiff {path_a} {path_b} --method rowsum --kmeans "
            f"--preprocess cn --out {out}".split()
        )
        assert code == 0
        mask = read_ppm(out / "mask.ppm")
        # independent expectation: grayscale of A everywhere, yellow at the
        # permuted pixel (bottom-right)
        a = np.array(PIXELS_A, dtype=np.float64).reshape(2, 2, 3)
        luma = np.rint(
            0.299 * a[..., 0] + 0.587 * a[..., 1] + 0.114 * a[..., 2]
        ).astype(np.uint8)
        expected = np.repeat(luma[:, :, None], 3, axis=2)
        expected[1, 1] = (255, 255, 0)
        assert np.array_equal(mask, expected)
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["n_classified"] == diag["n_pixels"] == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert "sample" not in manifest["options"]

    def test_eigenvector_method_agrees(self, tmp_path):
        path_a, path_b = write_test_images(tmp_path)
        out = tmp_path / "diff"
        code = run(
            f"imgdiff {path_a} {path_b} --method eig --threshold 0.5 "
            f"--preprocess cn --out {out}".split()
        )
        assert code == 0
        mask = read_ppm(out / "mask.ppm")
        assert tuple(mask[1, 1]) == (255, 255, 0)
        assert np.sum(np.all(mask == (255, 255, 0), axis=2)) == 1

    def test_identical_images_no_highlights(self, tmp_path):
        # same pixels, and same pixels under a header with a comment
        path_a, path_b = write_test_images(tmp_path, identical=True)
        img = np.random.default_rng(4).integers(0, 256, (10, 12, 3), dtype=np.uint8)
        path_c, path_d = tmp_path / "c.ppm", tmp_path / "d.ppm"
        write_ppm(path_c, img)
        path_d.write_bytes(b"P6\n# same pixels\n12 10\n255\n" + img.tobytes())
        assert np.array_equal(read_ppm(path_d), img)
        for i, (a, b) in enumerate([(path_a, path_b), (path_c, path_d)]):
            out = tmp_path / f"diff{i}"
            code = run(
                f"imgdiff {a} {b} --method rowsum --kmeans --out {out}".split()
            )
            assert code == 0
            mask = read_ppm(out / "mask.ppm")
            assert not np.any(np.all(mask == (255, 255, 0), axis=2))
            diag = json.loads((out / "diagnostics.json").read_text())
            assert diag["identical_inputs"] is True

    def test_dimension_mismatch(self, tmp_path):
        path_a, _ = write_test_images(tmp_path)
        wide = np.zeros((1, 3, 3), dtype=np.uint8)
        path_w = tmp_path / "w.ppm"
        write_ppm(path_w, wide)
        code = run(
            f"imgdiff {path_a} {path_w} --method rowsum --kmeans "
            f"--out {tmp_path/'d'}".split()
        )
        assert code == 1

    def test_sample_flag_is_gone(self, tmp_path):
        # every pixel is classified; the factored backends need no subsample
        path_a, path_b = write_test_images(tmp_path)
        out = tmp_path / "d2"
        code = run(
            f"imgdiff {path_a} {path_b} --method rowsum --kmeans "
            f"--sample 2 --seed 4 --out {out}".split()
        )
        assert code == 2
        assert not out.exists()

    def test_size_cap_flag_is_gone(self, tmp_path):
        # the memory check on H is the only size limit
        path_a, path_b = write_test_images(tmp_path)
        out = tmp_path / "d"
        code = run(
            f"imgdiff {path_a} {path_b} --method rowsum --kmeans --max-pixels 2 "
            f"--out {out}".split()
        )
        assert code == 2
        assert not out.exists()

    def test_refused_when_power_iteration_needs_h(self, tmp_path, monkeypatch, capsys):
        # 4 pixels (4 d^2 > n): the eigenvector needs power iteration on the
        # 4-by-4 H, which is refused when 16 n^2 bytes are not available
        path_a, path_b = write_test_images(tmp_path)
        monkeypatch.setattr(overlap, "_available_bytes", lambda: 16 * 4**2 - 1)
        out = tmp_path / "d"
        code = run(
            f"imgdiff {path_a} {path_b} --method eig --kmeans --out {out}".split()
        )
        assert code == 1
        assert "4x4 overlap needs" in capsys.readouterr().err
        assert not out.exists()

    def test_dense_h_that_cannot_fit_is_refused(self, tmp_path, monkeypatch):
        path_a, path_b = write_test_images(tmp_path)
        monkeypatch.setattr(overlap, "_available_bytes", lambda: 0)
        out = tmp_path / "d"
        code = run(
            f"imgdiff {path_a} {path_b} --method eig --kmeans --out {out}".split()
        )
        assert code == 1
        assert not out.exists()

    def test_factored_row_sums_need_no_memory_for_h(self, tmp_path, monkeypatch):
        # 64 pixels (2 d < n): the row sums come from the factors, so the
        # mask is the same when no memory at all is left for an H
        rng = np.random.default_rng(21)
        a = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        b = a.copy()
        b[5:, 6:] = b[5:, 6:, ::-1]
        path_a, path_b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_ppm(path_a, a)
        write_ppm(path_b, b)
        masks = []
        for room in (None, 0):
            monkeypatch.setattr(overlap, "_available_bytes", lambda: room)
            out = tmp_path / f"d{room}"
            code = run(
                f"imgdiff {path_a} {path_b} --method rowsum --kmeans "
                f"--preprocess cn --out {out}".split()
            )
            assert code == 0
            diag = json.loads((out / "diagnostics.json").read_text())
            assert diag["row_sum_backend"] == "gram_factor"
            masks.append((out / "mask.ppm").read_bytes())
        assert masks[0] == masks[1]
        mask = read_ppm(tmp_path / "dNone" / "mask.ppm")
        assert np.any(np.all(mask == (255, 255, 0), axis=2))

    def test_malformed_ppm(self, tmp_path):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6 2 2 255 123")
        good, _ = write_test_images(tmp_path)
        code = run(
            f"imgdiff {bad} {good} --method rowsum --kmeans "
            f"--out {tmp_path/'d'}".split()
        )
        assert code == 1


class TestParser:
    def test_unknown_command_exits_2(self):
        assert run(["frobnicate"]) == 2

    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_no_parser_takes_a_flag_by_prefix(self):
        commands = ("gen", "match", "eval", "bench", "imgdiff")
        parsers = [build_parser(), *(subparser(c) for c in commands)]
        assert not any(p.allow_abbrev for p in parsers)

    @pytest.fixture
    def commands(self, tmp_path):
        """A match, a bench and a usage error, on a small instance; main's
        parser cache is empty when the test starts and when it ends."""
        data = TestMatch().make_instance(tmp_path, n=40, d=6)
        cli._parser.cache_clear()
        yield {
            "match": f"match {data / 'X.csv'} {data / 'Y.csv'} --method rowsum "
            "--kmeans --splits 2 --threads 1 --out {out}",
            "bench": "bench --sweep r --d 6 --n 40 --trials 2 --r-grid 0.5 "
            "--methods eig:kmeans --out {out}",
            "usage error": "match a.csv b.csv --kmeans --out {out}",
        }
        cli._parser.cache_clear()

    def test_main_builds_one_parser(self, tmp_path, monkeypatch, commands):
        built = []

        def spy():
            built.append(build_parser())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", spy)
        codes = [
            run(line.format(out=tmp_path / f"out{i}").split())
            for i, line in enumerate(commands.values())
        ]
        assert codes == [0, 0, 2]
        assert len(built) == 1

    def test_calls_share_no_state(self, tmp_path, commands):
        assert run(commands["usage error"].format(out=tmp_path / "u").split()) == 2
        assert run(commands["bench"].format(out=tmp_path / "b").split()) == 0
        after = tmp_path / "after"
        assert run(commands["match"].format(out=after).split()) == 0
        cli._parser.cache_clear()
        fresh = tmp_path / "fresh"
        assert run(commands["match"].format(out=fresh).split()) == 0
        for name in ("partition.csv", "manifest.json"):
            assert (after / name).read_bytes() == (fresh / name).read_bytes()

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()


def subparser(name: str):
    (action,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices[name]


class TestManifest:
    @pytest.mark.parametrize("command", ["gen", "match", "imgdiff"])
    def test_options_are_every_parsed_flag(self, tmp_path, command):
        # a flag added to the parser later is recorded without being listed
        data, path_a, path_b = tmp_path / "data", *write_test_images(tmp_path)
        assert run(f"gen --d 3 --n 20 --r 0.5 --out {data}".split()) == 0
        argv = {
            "gen": "gen --d 3 --n 20 --r 0.5 --seed 4",
            "match": f"match {data/'X.csv'} {data/'Y.csv'} --method eig --kmeans",
            "imgdiff": f"imgdiff {path_a} {path_b} --method rowsum --threshold 2",
        }[command]
        out = tmp_path / "out"
        assert run(f"{argv} --out {out}".split()) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        dests = {a.dest for a in subparser(command)._actions} - {"help", "out"}
        assert manifest["command"] == command
        assert set(manifest["options"]) == dests

    def test_options_hold_the_parsed_values(self, tmp_path):
        data = tmp_path / "data"
        assert run(f"gen --d 3 --n 20 --r 0.5 --out {data}".split()) == 0
        out = tmp_path / "out"
        argv = (
            f"match {data/'X.csv'} {data/'Y.csv'} --method rowsum --threshold "
            f"--inlier-rate 0.5 --preprocess none --splits 2 --seed 3 --threads 1 "
            f"--out {out}"
        )
        assert run(argv.split()) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["options"] == {
            "x": str(data / "X.csv"),
            "y": str(data / "Y.csv"),
            "method": "rowsum",
            "threshold": "auto",
            "kmeans": False,
            "inlier_rate": 0.5,
            "preprocess": "none",
            "splits": 2,
            "seed": 3,
            "threads": 1,
        }


def reference_match_config(args) -> MatchConfig:
    """The matcher-flag reading that predates the method-spec grammar, kept
    as the oracle for ``cli._match_config``."""
    aliases = {"eig": METHOD_EIGENVECTOR, "rowsum": METHOD_ROW_SUM}
    method = aliases[args.method]
    if args.threshold is not None and args.kmeans:
        raise UsageError("--threshold and --kmeans are mutually exclusive")
    if args.threshold is None and not args.kmeans:
        raise UsageError("choose exactly one of --threshold or --kmeans")
    threshold = args.threshold
    if threshold is not None and threshold != "auto":
        try:
            threshold = float(threshold)
        except ValueError:
            raise UsageError(f"bad --threshold value: {args.threshold!r}") from None
    if (
        method == METHOD_ROW_SUM
        and args.threshold == "auto"
        and args.inlier_rate is None
    ):
        raise UsageError("bare --threshold with rowsum needs --inlier-rate")
    try:
        return MatchConfig(
            method=method,
            threshold=threshold,
            inlier_rate=args.inlier_rate,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def config_or_refusal(read, args):
    try:
        return read(args)
    except UsageError:
        return "exit 2"


class TestMatcherFlags:
    @pytest.mark.parametrize("method", ["eig", "rowsum"])
    @pytest.mark.parametrize(
        "branch",
        [
            "--kmeans",
            "--threshold",
            "--threshold 0.3",
            "--threshold auto",
            "--threshold inf",
            "--threshold 0",
            "--threshold=-1",
            "--threshold nan",
            "--threshold abc",
            "--threshold=",
            "--threshold kmeans",
            "--threshold 0.5:x",
            "--threshold 0.3 --kmeans",
            "",
        ],
    )
    def test_same_config_as_the_reference(self, method, branch):
        for rate in ("", "--inlier-rate 0.8", "--inlier-rate 1.5"):
            for rest in ("", "--preprocess none --seed 9"):
                argv = f"match x y --method {method} {branch} {rate} {rest} --out o"
                args = build_parser().parse_args(argv.split())
                expected = config_or_refusal(reference_match_config, args)
                assert config_or_refusal(_match_config, args) == expected, argv

    @pytest.mark.parametrize("value", ["kmeans", "0.5:x"])
    def test_spec_syntax_in_threshold_is_usage_error(self, tmp_path, capsys, value):
        data, path_a, path_b = tmp_path / "data", *write_test_images(tmp_path)
        assert run(f"gen --d 3 --n 20 --r 0.5 --out {data}".split()) == 0
        match_inputs = f"match {data/'X.csv'} {data/'Y.csv'}"
        for inputs in (match_inputs, f"imgdiff {path_a} {path_b}"):
            out = tmp_path / "out"
            argv = f"{inputs} --method eig --threshold {value} --out {out}"
            assert run(argv.split()) == 2
            assert "usage error: " in capsys.readouterr().err
            assert not out.exists()
