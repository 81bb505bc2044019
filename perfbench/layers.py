"""What a traced run measures: observers on the program's functions, and the
per-layer metrics of one operation computed from its spans."""

import json
import os
import sys
from pathlib import Path

from stats import median
from tracing import self_times

# The program's modules whose public functions the traced run wraps.
LAYERS = ("cli", "fileio", "synth", "overlap", "linalg", "classify", "parallel", "bench")

# Counts that must repeat exactly for the same program, workload and seed.
EXACT_COUNTS = (
    "fileio.bytes_read",
    "fileio.bytes_written",
    "overlap.h_bytes",
    "linalg.gram_flops",
    "linalg.check_symmetric_calls",
    "linalg.power_iterations",
    "classify.two_means_calls",
    "classify.eig_solves_per_overlap",
)


def _bytes_read(span, args, kwargs, result):
    span.attrs["fileio.bytes_read"] = os.path.getsize(args[0])


def _bytes_written(span, args, kwargs, result):
    span.attrs["fileio.bytes_written"] = os.path.getsize(args[0])


def _h_bytes(span, args, kwargs, result):
    span.attrs["overlap.h_bytes"] = 8 * result.n**2


def _gram_flops(span, args, kwargs, result):
    d, n = args[0].shape
    span.attrs["linalg.gram_flops"] = 2 * d * n * n


def _power_iterations(span, args, kwargs, result):
    span.attrs["linalg.power_iterations"] = result.iterations


def _shards(span, args, kwargs, result):
    times = result.shard_times_ms
    span.attrs["parallel.shard_ms_p50"] = median(times)
    span.attrs["parallel.shard_ms_max"] = max(times)
    span.attrs["parallel.shard_imbalance"] = max(times) / median(times)


# Manifests and diagnostics.json are left out of fileio.bytes_written: their
# timing fields change length from run to run, and the count must be exact.
OBSERVERS = {
    **{
        f"fileio.read_{f}": _bytes_read
        for f in ("matrix_csv", "ppm", "labels", "partition_csv")
    },
    **{
        f"fileio.write_{f}": _bytes_written
        for f in ("matrix_csv", "ppm", "labels", "partition_csv")
    },
    "overlap.build_overlap": _h_bytes,
    "linalg.gram": _gram_flops,
    "linalg.power_iteration": _power_iterations,
    "parallel.parallel_match": _shards,
}


def op_layer_metrics(spans, selfs) -> dict:
    """Per-layer metrics of one operation from its spans and their self times."""
    total, own, calls, attrs, module_self = {}, {}, {}, {}, {}
    for span, self_s in zip(spans, selfs):
        total[span.name] = total.get(span.name, 0.0) + span.duration * 1e3
        own[span.name] = own.get(span.name, 0.0) + self_s * 1e3
        calls[span.name] = calls.get(span.name, 0) + 1
        module_self[span.module] = module_self.get(span.module, 0.0) + self_s * 1e3
        for key, value in span.attrs.items():
            attrs[key] = attrs.get(key, 0) + value

    def ms(*names):
        return sum(total.get(n, 0.0) for n in names)

    def prefixed(prefix):
        return sum(v for k, v in total.items() if k.startswith(prefix))

    gram_ms = ms("linalg.gram")
    builds = calls.get("overlap.build_overlap", 0)
    return {
        "fileio.read_ms": prefixed("fileio.read_"),
        "fileio.write_ms": prefixed("fileio.write_"),
        "fileio.bytes_read": attrs.get("fileio.bytes_read", 0),
        "fileio.bytes_written": attrs.get("fileio.bytes_written", 0),
        "overlap.preprocess_ms": ms("overlap.preprocess"),
        "overlap.build_ms": ms("overlap.build_overlap"),
        "overlap.build_self_ms": own.get("overlap.build_overlap", 0.0),
        "overlap.row_sums_ms": ms("overlap.row_sums"),
        "overlap.h_bytes": attrs.get("overlap.h_bytes", 0),
        "linalg.gram_ms": gram_ms,
        "linalg.gram_flops": attrs.get("linalg.gram_flops", 0),
        "linalg.gram_gflops": (
            attrs.get("linalg.gram_flops", 0) / (gram_ms * 1e6) if gram_ms else 0.0
        ),
        "linalg.hadamard_ms": ms("linalg.hadamard"),
        "linalg.check_symmetric_ms": ms("linalg.check_symmetric"),
        "linalg.check_symmetric_calls": calls.get("linalg.check_symmetric", 0),
        "linalg.power_iteration_ms": ms("linalg.power_iteration"),
        "linalg.power_iterations": attrs.get("linalg.power_iterations", 0),
        "classify.match_self_ms": sum(
            own.get(f"classify.{f}", 0.0)
            for f in ("match", "eigenvector_match", "row_sum_match")
        ),
        "classify.two_means_ms": ms("classify.two_means_1d"),
        "classify.two_means_calls": calls.get("classify.two_means_1d", 0),
        "classify.eig_solves_per_overlap": (
            calls.get("linalg.power_iteration", 0) / builds if builds else 0.0
        ),
        "parallel.self_ms": module_self.get("parallel", 0.0),
        "parallel.shard_ms_p50": attrs.get("parallel.shard_ms_p50", 0.0),
        "parallel.shard_ms_max": attrs.get("parallel.shard_ms_max", 0.0),
        "parallel.shard_imbalance": attrs.get("parallel.shard_imbalance", 0.0),
        "synth.generate_ms": ms("synth.generate"),
        "bench.self_ms": module_self.get("bench", 0.0),
        "cli.self_ms": module_self.get("cli", 0.0),
    }


def check_counts(by_input: dict[int, list[dict]], store: Path) -> int:
    """Number of exact counts that differ between operations on the same
    input, in this run or against an earlier run of the same program,
    workload and seed (kept in ``store``)."""
    mismatches = 0
    previous = json.loads(store.read_text()) if store.is_file() else {}
    counts = {}
    for i, ops in by_input.items():
        counts[str(i)] = {key: ops[0][key] for key in EXACT_COUNTS}
        earlier = previous.get(str(i), counts[str(i)])
        for key in EXACT_COUNTS:
            values = {m[key] for m in ops} | {earlier[key]}
            if len(values) > 1:
                mismatches += 1
                print(f"count {key} differs on input {i}: {sorted(values)}", file=sys.stderr)
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps({**previous, **counts}, sort_keys=True) + "\n")
    return mismatches


def per_layer(tracer, samples: dict, inputs: int, store: Path) -> dict:
    """Per-layer metrics of a traced run: the median over traced operations,
    exact counts from the first one, and the trace's own health figures.

    ``samples`` holds the wall times of the traced, plain and (if run)
    one-thread operations; ``store`` keeps counts for later runs to compare.
    """
    by_op: dict[int, tuple[list, list]] = {}
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        spans, own = by_op.setdefault(span.op, ([], []))
        spans.append(span)
        own.append(self_s)
    ops = {op: op_layer_metrics(*by_op[op]) for op in sorted(by_op)}
    metrics = {key: median([m[key] for m in ops.values()]) for key in ops[min(ops)]}
    # Counts are exact: the first traced operation's, not a median.
    metrics.update({key: ops[min(ops)][key] for key in EXACT_COUNTS})
    by_input: dict[int, list[dict]] = {}
    for op, m in ops.items():
        by_input.setdefault(op % inputs, []).append(m)
    metrics["trace.count_mismatches"] = check_counts(by_input, store)

    plain = median(samples["plain"])
    metrics["trace.overhead_frac"] = median(samples["traced"]) / plain - 1.0
    metrics["parallel.speedup_vs_1_thread"] = (
        median(samples["one_thread"]) / plain if "one_thread" in samples else 0.0
    )
    return metrics
