"""Command-line interface: gen | match | eval | bench | imgdiff.

Exit codes: 0 on success, 1 on runtime/data errors, 2 on usage errors.  Every
command writes a ``manifest.json`` next to its outputs with the full set of
options needed to regenerate them (timing fields excluded).
"""

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__, bench, fileio
from .classify import MatchConfig, error_rates, match
from .overlap import PreprocessMode, build_overlap
from .parallel import parallel_match, usable_cpus
from .synth import ScenarioSpec, generate

_PREPROCESS_ALIASES = {
    "none": PreprocessMode.NONE,
    "cn": PreprocessMode.CENTER_NORMALIZE,
}


class UsageError(Exception):
    """Inconsistent or invalid flags; exits with status 2."""


class _Parser(argparse.ArgumentParser):
    """Takes each flag by its full name only, not by a prefix, and reports a
    bad command line as a usage error; subcommand parsers are of this class."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"usage error: {message}\n")


def _thread_count(text: str) -> int:
    """A ``--threads`` value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, got {text!r}"
        )
    return value


def _parse_list(text: str, kind: type, what: str) -> list:
    """The comma-separated values of ``text``; empty fields are skipped, and
    at least one value is required."""
    try:
        values = [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad {what} list: {text!r}") from None
    if not values:
        raise UsageError(f"empty {what} list: {text!r}")
    return values


def _add_match_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--method", required=True, choices=["eig", "rowsum"], help="matcher"
    )
    p.add_argument(
        "--threshold",
        nargs="?",
        const="auto",
        default=None,
        metavar="VALUE",
        help="fixed threshold; bare flag uses the built-in default "
        "(0.5 for eig, d*(r*n+1)/2 for rowsum, which needs --inlier-rate)",
    )
    p.add_argument(
        "--kmeans", action="store_true", help="classify by exact 1-D 2-means"
    )
    p.add_argument(
        "--inlier-rate",
        type=float,
        default=None,
        help="known inlier fraction, used by the default rowsum threshold",
    )
    p.add_argument(
        "--preprocess",
        choices=sorted(_PREPROCESS_ALIASES),
        default="cn",
        help="cn = row-center then column-normalize (default), none = raw",
    )


def _match_config(args) -> MatchConfig:
    """The matcher flags read as the ``bench`` method spec ``M:kmeans``
    (``--kmeans``), ``M:auto`` (bare ``--threshold``) or ``M:V``, with
    ``--inlier-rate`` as its inlier rate."""
    if args.threshold is not None and args.kmeans:
        raise UsageError("--threshold and --kmeans are mutually exclusive")
    if args.threshold is None and not args.kmeans:
        raise UsageError("choose exactly one of --threshold or --kmeans")
    if args.threshold == "kmeans":
        raise UsageError(f"bad --threshold value: {args.threshold!r}")
    branch = "kmeans" if args.kmeans else args.threshold
    try:
        cfg = bench.parse_method(f"{args.method}:{branch}")
        if cfg.reads_inlier_rate and args.inlier_rate is None:
            raise UsageError("bare --threshold with rowsum needs --inlier-rate")
        return replace(cfg, inlier_rate=args.inlier_rate)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, args, outputs: dict, options=None) -> None:
    """Write ``manifest.json``; its options default to every option of the
    command as parsed, but ``--out``."""
    if options is None:
        options = {
            k: v for k, v in vars(args).items() if k not in ("command", "func", "out")
        }
    fileio.write_manifest(
        out / "manifest.json",
        {
            "tool": "gramoverlap",
            "version": __version__,
            "command": args.command,
            "options": options,
            "outputs": outputs,
        },
    )


# --- gen ---


def _cmd_gen(args) -> int:
    try:
        spec = ScenarioSpec(
            d=args.d,
            n=args.n,
            r=args.r,
            kind=args.kind,
            sigma2=args.sigma2,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    pair = generate(spec)
    out = _out_dir(args)
    fileio.write_matrix_csv(out / "X.csv", pair.x)
    fileio.write_matrix_csv(out / "Y.csv", pair.y)
    fileio.write_labels(out / "labels.csv", pair.inliers)
    _write_manifest(out, args, {"x": "X.csv", "y": "Y.csv", "labels": "labels.csv"})
    return 0


# --- match ---


def _diagnostics_payload(
    cfg: MatchConfig, mode: PreprocessMode, splits: int, diag=None, report=None
) -> dict:
    payload = {"method": cfg.method, "preprocess": mode.value, "splits": splits}
    if report is None:
        payload.update(diag.to_dict())
    else:
        payload["shards"] = [d.to_dict() for d in report.shard_diagnostics]
        payload["shard_times_ms"] = report.shard_times_ms
        payload["workers"] = report.workers
        payload["shard_sizes"] = [int(s.size) for s in report.shards]
        payload["warnings"] = report.warnings
    return payload


def _read_inputs(args, threads: int) -> tuple[np.ndarray, np.ndarray]:
    """X and Y.  At two or more ``threads``, Y is read on one worker thread
    while the calling thread reads X.  The two reads overlap because most of
    each block's conversion runs in numpy's C parsers and array passes,
    which release the GIL; the line pass and the calls between them hold
    it.  X's error, if any, is the one raised, and Y's is then dropped, as in
    a serial read."""
    if threads < 2:
        return fileio.read_matrix_csv(args.x), fileio.read_matrix_csv(args.y)
    with ThreadPoolExecutor(max_workers=1) as pool:
        y = pool.submit(fileio.read_matrix_csv, args.y)
        return fileio.read_matrix_csv(args.x), y.result()


def _cmd_match(args) -> int:
    cfg = _match_config(args)
    mode = _PREPROCESS_ALIASES[args.preprocess]
    if args.splits < 1:
        raise UsageError("--splits must be at least 1")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    threads = args.threads or usable_cpus()
    x, y = _read_inputs(args, threads)

    if args.splits == 1:
        t0 = time.perf_counter()
        h = build_overlap(x, y, mode)
        partition, diag = match(h, cfg)
        wall_ms = (time.perf_counter() - t0) * 1e3
        payload = _diagnostics_payload(cfg, mode, 1, diag=diag)
    else:
        report = parallel_match(
            x, y, args.splits, cfg, mode, args.seed, max_workers=threads
        )
        partition = report.partition
        wall_ms = report.total_time_ms
        payload = _diagnostics_payload(cfg, mode, args.splits, report=report)
    payload["seed"] = args.seed
    payload["n_estimated_inliers"] = int(partition.inliers.size)
    payload["wall_time_ms"] = wall_ms

    out = _out_dir(args)
    fileio.write_partition_csv(out / "partition.csv", partition)
    fileio.write_manifest(out / "diagnostics.json", payload)
    _write_manifest(
        out, args, {"partition": "partition.csv", "diagnostics": "diagnostics.json"}
    )
    return 0


# --- eval ---


def _cmd_eval(args) -> int:
    partition = fileio.read_partition_csv(args.partition)
    truth = fileio.read_labels(args.labels)
    report = error_rates(truth, partition)
    print(f"{report.error_g:.6f},{report.error_b:.6f},{report.error_w:.6f}")
    return 0


# --- bench ---


# The bench flags that a sweep refuses: another sweep's grid or its
# --threads, and a fixed value for its own axis.
_FOREIGN_BENCH_FLAGS = {
    "r": ("r", "sigma2_grid", "splits_grid", "threads"),
    "sigma2": ("sigma2", "r_grid", "splits_grid", "threads"),
    "splits": ("r_grid", "sigma2_grid"),
}


def _cmd_bench(args) -> int:
    axis = args.sweep
    for dest in _FOREIGN_BENCH_FLAGS[axis]:
        if getattr(args, dest) is not None:
            raise UsageError(f"--sweep {axis} takes no --{dest.replace('_', '-')}")
    sigma2 = 0.0 if args.sigma2 is None else args.sigma2
    # The scenario fields a sweep holds fixed: r and sigma2, but its own axis.
    fixed = {k: v for k, v in (("r", args.r), ("sigma2", sigma2)) if k != axis}
    text = getattr(args, f"{axis}_grid")
    if text is None or ("r" in fixed and args.r is None):
        with_r = " and --r" if "r" in fixed else ""
        raise UsageError(f"--sweep {axis} needs --{axis}-grid{with_r}")
    if axis == "splits":
        grid = _parse_list(text, int, "integer")
    else:
        grid = _parse_list(text, float, "numeric")
    methods = None if args.methods is None else args.methods.split(",")
    scenario = dict(d=args.d, n=args.n, kind=args.kind, seed=args.seed, **fixed)
    try:
        specs, _ = bench.check_sweep(
            axis, grid, args.trials, methods, args.threads, **scenario
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = bench.run_sweep(
        axis, grid, args.trials, methods, _PREPROCESS_ALIASES[args.preprocess],
        args.threads, **scenario,
    )
    options = {
        "sweep": axis,
        "trials": args.trials,
        "methods": ",".join(label for label, _ in specs),
        "preprocess": args.preprocess,
        f"{axis}_grid": grid,
        **scenario,
    }
    name = f"sweep_{axis}.csv"
    out = _out_dir(args)
    bench.write_sweep_csv(out / name, rows)
    _write_manifest(out, args, {"sweep": name}, options)
    return 0


# --- imgdiff ---


def _cmd_imgdiff(args) -> int:
    cfg = _match_config(args)
    mode = _PREPROCESS_ALIASES[args.preprocess]
    # In series, unlike match's CSVs: a PPM read is one frombuffer over the
    # file's bytes, with no conversion for a second thread to overlap.
    img_a = fileio.read_ppm(args.image_a)
    img_b = fileio.read_ppm(args.image_b)
    if img_a.shape != img_b.shape:
        raise ValueError(
            f"image dimensions differ: {img_a.shape[:2]} vs {img_b.shape[:2]}"
        )
    height, width = img_a.shape[:2]
    n = height * width

    luma = fileio.luminance(img_a)
    mask_img = np.repeat(luma[:, :, None], 3, axis=2)

    highlighted: np.ndarray
    payload: dict
    if np.array_equal(img_a, img_b):
        # Pixel-identical inputs mean "no difference"; skip matching entirely
        # instead of letting a constant statistic fall back to all-outliers.
        highlighted = np.empty(0, dtype=np.intp)
        payload = {"identical_inputs": True, "n_pixels": n, "n_classified": 0}
    else:
        points_a = fileio.image_to_points(img_a)
        points_b = fileio.image_to_points(img_b)
        t0 = time.perf_counter()
        h = build_overlap(points_a, points_b, mode)
        partition, diag = match(h, cfg)
        wall_ms = (time.perf_counter() - t0) * 1e3
        highlighted = partition.outliers
        payload = {
            "identical_inputs": False,
            "n_pixels": n,
            "n_classified": n,
            "n_highlighted": int(highlighted.size),
            "wall_time_ms": wall_ms,
        }
        payload.update(_diagnostics_payload(cfg, mode, 1, diag=diag))
        payload["n_estimated_inliers"] = int(partition.inliers.size)

    flat = mask_img.reshape(-1, 3)
    flat[highlighted] = (255, 255, 0)
    out = _out_dir(args)
    fileio.write_ppm(out / "mask.ppm", mask_img)
    fileio.write_manifest(out / "diagnostics.json", payload)
    _write_manifest(out, args, {"mask": "mask.ppm", "diagnostics": "diagnostics.json"})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gramoverlap",
        description="Recover matched (inlier) points of two paired point sets "
        "by comparing their Gram matrices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic labeled instance")
    p.add_argument("--d", type=int, required=True, help="feature dimension")
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--r", type=float, required=True, help="inlier fraction")
    p.add_argument(
        "--kind",
        choices=["gaussian_outliers", "permuted_inliers"],
        default="gaussian_outliers",
    )
    p.add_argument("--sigma2", type=float, default=0.0, help="noise variance on Y")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("match", help="classify indices of a paired point set")
    p.add_argument("x", metavar="X.csv")
    p.add_argument("y", metavar="Y.csv")
    _add_match_flags(p)
    p.add_argument("--splits", type=int, default=1, help="split-merge shard count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--threads",
        type=_thread_count,
        default=None,
        help="most threads match runs: the two input reads run concurrently "
        "at 2 or more, and shards that form H run on up to this many workers "
        "(default: usable CPU count)",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("eval", help="error rates of a partition vs. truth labels")
    p.add_argument("partition", metavar="partition.csv")
    p.add_argument("labels", metavar="labels.csv")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bench", help="run a parameter sweep and write a CSV")
    p.add_argument("--sweep", choices=["r", "sigma2", "splits"], required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r", type=float, default=None, help="fixed inlier fraction")
    p.add_argument(
        "--sigma2", type=float, default=None, help="fixed noise variance (default 0)"
    )
    p.add_argument("--r-grid", default=None, help="comma list of inlier fractions")
    p.add_argument("--sigma2-grid", default=None, help="comma list of variances")
    p.add_argument("--splits-grid", default=None, help="comma list of shard counts")
    p.add_argument(
        "--methods",
        default=None,
        help="comma list like eig:0.5,eig:kmeans,rowsum:kmeans (default "
        f"{','.join(bench.DEFAULT_METHODS)}, or {bench.DEFAULT_SPLITS_METHOD} "
        "for the splits sweep)",
    )
    p.add_argument(
        "--kind",
        choices=["gaussian_outliers", "permuted_inliers"],
        default="permuted_inliers",
    )
    p.add_argument(
        "--preprocess", choices=sorted(_PREPROCESS_ALIASES), default="cn"
    )
    p.add_argument(
        "--threads",
        type=_thread_count,
        default=None,
        help="most split-merge workers; only the splits sweep reads it "
        "(default: usable CPU count)",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("imgdiff", help="highlight differing pixels of two images")
    p.add_argument("image_a", metavar="A.ppm")
    p.add_argument("image_b", metavar="B.ppm")
    _add_match_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_imgdiff)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use.  It holds no state of a
    call: each parse makes a new namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
