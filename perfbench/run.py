"""Benchmark of gramoverlap's CSV -> partition path.

Run one workload (the last line of stdout is the JSON result):

    python3 perfbench/run.py --workload match-d50 --seed 1 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  ``--workload all`` runs every workload, each in its
own process, and prints every metric by name with its unit.  The load is one
client in a closed loop: the next operation starts when the previous one and
its output check have finished.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# numpy is imported later, after fix_environment; these modules do not use it.
from layers import LAYERS, OBSERVERS, per_layer
from stats import median, tail_percentile
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# One BLAS thread everywhere: the dense stages are memory-bound numpy passes,
# and a fixed count keeps pool workers x BLAS threads <= nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS_ENV_VAR = "GRAMOVERLAP_THREADS"
# glibc's mmap and trim thresholds, fixed so that they no longer adapt.  Left
# adaptive, a run either mapped and unmapped every n-by-n array or kept them
# on the heap, depending on the order of its first frees: runs of the same
# imgdiff operation on 32x32 images then differed by 7 MB of peak RSS and
# 1.3x in tail latency.
# Fixed here, arrays up to 32 MB (every n-by-n array of these workloads) come
# from the heap, which is never trimmed, as in a long-running process whose
# adaptive thresholds have settled.  Mapping every array instead also gave a
# steady peak RSS, but slower operations and a wider tail spread.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 1 << 30

SETUP_REPEATS = 5  # setup_s is the median of this many set-ups
# The timed phase runs past --seconds, by up to GRACE_S, until it holds MIN_OPS
# operations: with fewer, the tail rank falls to the bottom few samples.
MIN_OPS = 25
GRACE_S = 20


def declared() -> dict:
    """BENCHMARK.json: the workloads, metric names and units this file reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in declared()[kind]}


def fix_environment() -> None:
    """Pin BLAS threads and drop the program's thread variable.

    Must run before numpy is first imported.
    """
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop(THREADS_ENV_VAR, None)


def fix_allocator() -> bool:
    """Fix glibc's mmap and trim thresholds; False where there is no glibc."""
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(
        mallopt(m_mmap_threshold, MMAP_THRESHOLD)
        and mallopt(m_trim_threshold, TRIM_THRESHOLD)
    )


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# --- environment record -------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(directory: Path) -> str:
    """SHA-256 over the Python files under ``directory``, for checkouts
    without git."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(path.relative_to(directory).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes

    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment_record(args, workload) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads_runtime": openblas_threads(),
        "malloc_thresholds": [MMAP_THRESHOLD, TRIM_THRESHOLD] if args.allocator_fixed else None,
        "program_threads": workload.threads,
        "git_commit": git_commit(),
        "program_digest": source_digest(SRC / "gramoverlap"),
    }


# --- memory pre-flight --------------------------------------------------------


def mem_available_bytes() -> int:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise OSError("MemAvailable missing from /proc/meminfo")


def preflight(workload, available: int):
    """Refusal message when the workload's dense builds would not fit."""
    need = workload.dense_peak_bytes()
    if need > available:
        return (
            f"{workload.name}: {workload.concurrent_builds} dense build(s) of "
            f"order {workload.dense_n} need about {need / 2**20:.0f} MiB, "
            f"MemAvailable is {available / 2**20:.0f} MiB; not run"
        )
    return None


# --- one workload in this process ---------------------------------------------


class Runner:
    """Runs, checks and counts the operations of one workload.

    Operation ``k`` runs on input ``k mod workload.inputs``; each output is
    compared with the first output on the same input.
    """

    def __init__(self, workload):
        self.workload = workload
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.references: dict[int, object] = {}
        self.errors: dict[int, float] = {}  # error_w of each input

    def operation(self, threads=None) -> float:
        """Run and check one operation; returns its wall time in seconds."""
        from workloads import CheckError

        i = self.count % self.workload.inputs
        self.count += 1
        self.attempted += 1
        t0 = perf_counter()
        try:
            raw = self.workload.run(i, threads)
        except (Exception, SystemExit) as exc:  # a failed operation is counted
            seconds = perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            self.fail(f"raised {type(exc).__name__}: {exc}")
            return seconds
        seconds = perf_counter() - t0
        try:
            signature, error_w = self.workload.check(i, raw)
        except CheckError as exc:
            self.fail(str(exc))
            return seconds
        reference = self.references.setdefault(i, signature)
        self.errors.setdefault(i, error_w)
        if signature != reference:
            self.fail("output differs from the first operation's on the same input")
        elif error_w > self.workload.error_bound:
            self.fail(f"error_w {error_w:.4f} above bound {self.workload.error_bound}")
        return seconds

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"operation {self.count} failed: {message}", file=sys.stderr)


def setup(runner, seed: int, workdir: Path) -> tuple[float, float]:
    """Time one set-up: a fresh interpreter importing the package, then making
    and writing the inputs and one untimed warm-up operation.

    Returns the import time and the time of the rest.
    """
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import gramoverlap"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    t1 = perf_counter()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    runner.workload.prepare(seed, workdir)
    runner.count = 0
    runner.operation()
    t2 = perf_counter()
    return t1 - t0, t2 - t1


def timed_phase(runner, kinds, seconds: float, calib, tracer=None):
    """Cycle through ``kinds`` until ``seconds`` have passed and every kind
    has enough samples.

    Returns the wall times per kind, and the same times scaled by the machine
    speed measured around each operation.
    """
    samples = {kind: [] for kind in kinds}
    need = MIN_OPS if tracer is None else 1
    stop = perf_counter() + seconds
    limit = stop + GRACE_S
    k = 0
    order, wall, refs = [], [], [calib.kernel_s()]
    while True:
        now = perf_counter()
        if now >= limit or (
            now >= stop
            and k % len(kinds) == 0
            and min(map(len, samples.values())) >= need
        ):
            break
        kind = kinds[k % len(kinds)]
        k += 1
        if kind == "traced":
            tracer.op = runner.count
            tracer.install()
            try:
                seconds_taken = runner.operation()
            finally:
                tracer.uninstall()
        else:
            seconds_taken = runner.operation(1 if kind == "one_thread" else None)
        refs.append(calib.kernel_s())
        samples[kind].append(seconds_taken)
        order.append(kind)
        wall.append(seconds_taken)
    scaled = {kind: [] for kind in kinds}
    for kind, t in zip(order, calib.scale_all(wall, refs)):
        scaled[kind].append(t)
    print("# reference_ms " + " ".join(f"{t * 1e3:.1f}" for t in refs))
    return samples, scaled


def end_to_end(runner, raw: list, lat: list, setup_s: float) -> dict:
    """End-to-end metrics from the calibrated latencies ``lat``; the wall
    times ``raw`` are printed beside them."""
    tail = tail_percentile(lat)
    print(
        f"# latency_ms_tail is p{tail[1]:.1f} of {len(lat)} samples, "
        f"{tail[2]} beyond it"
    )
    print(f"# wall-clock latency_ms_p50 {median(raw) * 1e3:.6g} ms (not calibrated)")
    print("# wall-clock latencies_ms " + " ".join(f"{t * 1e3:.1f}" for t in raw))
    error_w = sum(runner.errors.values()) / len(runner.errors) if runner.errors else 1.0
    failed_frac = runner.failed / runner.attempted
    print(f"# error_w {error_w:.6g} frac (bound {runner.workload.error_bound})")
    print(f"# failed_frac {failed_frac:.6g} frac ({runner.failed}/{runner.attempted})")
    return {
        "latency_ms_p50": median(lat) * 1e3,
        "latency_ms_tail": tail[0] * 1e3,
        "points_per_s": runner.workload.points * len(lat) / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "accuracy_w": 1.0 - error_w,
        "ok_frac": 1.0 - failed_frac,
        "setup_s": setup_s,
    }


def run_workload(args) -> int:
    if not (SRC / "gramoverlap" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    fix_environment()
    args.allocator_fixed = fix_allocator()
    sys.path.insert(0, str(SRC))
    import gramoverlap

    if Path(gramoverlap.__file__).resolve().parent != (SRC / "gramoverlap").resolve():
        print(f"imported gramoverlap from {gramoverlap.__file__}", file=sys.stderr)
        return 2
    from calibrate import Calibration
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workload.threads = min(workload.threads, nproc())
    print(f"# env {json.dumps(environment_record(args, workload), sort_keys=True)}")

    refusal = preflight(workload, mem_available_bytes())
    if refusal is not None:
        print(refusal, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0

    runner = Runner(workload)
    calib = Calibration()
    workdir = STATE / f"work-{workload.name}-{os.getpid()}"
    try:
        refs, setups = [calib.kernel_s()], []
        for _ in range(SETUP_REPEATS):
            setups.append(setup(runner, args.seed, workdir))
            refs.append(calib.kernel_s())
        # Warm-ups are checked but not timed: only their failures count.
        runner.attempted = runner.failed
        setup_s = median(calib.scale_all([sum(parts) for parts in setups], refs))
        print("# set-ups, wall clock (import s, inputs and warm-up s): " + ", ".join(
            f"({a:.3f}, {b:.3f})" for a, b in setups
        ))
        if args.trace:
            tracer = Tracer("gramoverlap", LAYERS, OBSERVERS)
            kinds = ["traced", "plain"]
            if workload.concurrent_builds > 1:
                kinds.append("one_thread")
            samples, _ = timed_phase(runner, kinds, args.seconds, calib, tracer)
            # Counts are compared only between runs of the same program and
            # the same benchmark code.
            code = f"{source_digest(SRC / 'gramoverlap')}-{source_digest(HERE)}"
            store = f"{workload.name}-seed{args.seed}-{code}.json"
            metrics = per_layer(tracer, samples, workload.inputs, STATE / "counts" / store)
            reported = units("per_layer")
        else:
            raw, scaled = timed_phase(runner, ["plain"], args.seconds, calib)
            metrics = end_to_end(runner, raw["plain"], scaled["plain"], setup_s)
            reported = units("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, unit in reported.items():
        value = metrics[key]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{key} {shown} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in reported.items()},
    }
    print(json.dumps(result))
    return 0


# --- all workloads ------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process with an explicit environment."""
    env = dict(os.environ)
    env.pop(THREADS_ENV_VAR, None)
    env.update({var: str(BLAS_THREADS) for var in BLAS_ENV})
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in declared()["workloads"]:
        name = workload["name"]
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    summary = {"correct": correct, "attempted": attempted, "failed": failed}
    print(json.dumps({**summary, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    names = [w["name"] for w in declared()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
