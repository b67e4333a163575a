#!/usr/bin/env python3
"""Compare a bench --json run against a checked-in baseline.

Usage: check_bench_regression.py CURRENT.json BASELINE.json [--tolerance 0.30]

Records are matched on (bench, shape, isa, metric), and only the metrics in
the _COMPARED_METRICS table are gated, each in its own direction:
higher-is-better throughput (kernel GFLOP/s, the scale-graph and serving
rates) fails when the current value falls more than `tolerance` below the
baseline (a floor); lower-is-better latency and memory (serving refresh
percentiles, serving-matrix megabytes) fails when it rises more than
`tolerance` above it (a ceiling). Metrics outside the table — e.g. rss_mb,
whose absolute value is host-dependent — ride along in the JSON as
informational context but never gate. Records present on one side only are
reported but never fail the check — shapes and ISAs legitimately differ
across hosts (e.g. a runner without AVX2 produces scalar-only records). A
run that is consistently better than its baseline should refresh the
baseline via bench/update_ci_baseline.sh.

Malformed input (unreadable file, invalid JSON, a record that is not an
object, or one missing/mistyping a required field) exits with status 2 and
a message naming the file and the offending record — never a raw
KeyError/TypeError traceback, which CI logs would otherwise surface as an
inscrutable "the gate itself crashed".
"""

import argparse
import json
import sys


class BenchFormatError(Exception):
    """A bench JSON file that cannot be interpreted; str() names the file
    and, when applicable, the offending record."""


# Fields every compared record must carry, with the types the comparison
# relies on. `value` additionally accepts int (JSON has one number type,
# but json.load yields int for whole numbers).
_REQUIRED = {
    "bench": str,
    "shape": str,
    "isa": str,
    "value": (int, float),
}

# Metrics the gate compares, with their direction: "higher" metrics get a
# floor at baseline * (1 - tolerance), "lower" ones a ceiling at
# baseline * (1 + tolerance). Anything else in the JSON is informational.
_COMPARED_METRICS = {
    "gflops": "higher",        # bench_nn_kernels: kernel arithmetic rate.
    "medges_per_s": "higher",  # bench_scale_graph: edge-log write / build.
    "kwalks_per_s": "higher",  # bench_scale_graph: temporal walk sampling.
    "keps": "higher",          # bench_scale_graph: training-epoch edges.
    "ingest_meps": "higher",   # bench_serve: overlay ingest into the delta.
    "exact_kqps": "higher",    # bench_serve: exact-scan query throughput.
    "ann_kqps": "higher",      # bench_serve: IVF-flat ANN query throughput.
    "serve_keps": "higher",    # bench_serve: end-to-end ingest+refresh.
    "int8_exact_kqps": "higher",  # bench_serve: int8 scan + fp32 re-rank.
    "int8_ann_kqps": "higher",    # bench_serve: int8 IVF-flat candidates.
    "bf16_exact_kqps": "higher",  # bench_serve: bf16 quantized exact scan.
    "bf16_ann_kqps": "higher",    # bench_serve: bf16 IVF-flat candidates.
    "refresh_p50_ms": "lower",    # bench_serve: incremental refresh latency.
    "refresh_p95_ms": "lower",
    "fp32_matrix_mb": "lower",    # bench_serve: serving-matrix footprint.
    "int8_matrix_mb": "lower",
    "bf16_matrix_mb": "lower",
}


def _describe(record, index):
    head = json.dumps(record, default=repr)
    if len(head) > 200:
        head = head[:200] + "..."
    return f"record #{index}: {head}"


def load(path):
    """Parses `path` into {(bench, shape, isa, metric): value}.

    Raises BenchFormatError on anything the comparison below could trip
    over; records whose "metric" is not in _COMPARED_METRICS are ignored
    (and may therefore have any shape).
    """
    try:
        with open(path) as f:
            records = json.load(f)
    except OSError as e:
        raise BenchFormatError(f"{path}: cannot read: {e}") from e
    except json.JSONDecodeError as e:
        raise BenchFormatError(f"{path}: invalid JSON: {e}") from e

    if not isinstance(records, list):
        raise BenchFormatError(
            f"{path}: top level must be a JSON array of records, "
            f"got {type(records).__name__}"
        )

    out = {}
    for i, r in enumerate(records):
        if not isinstance(r, dict):
            raise BenchFormatError(
                f"{path}: {_describe(r, i)} is not a JSON object"
            )
        if r.get("metric") not in _COMPARED_METRICS:
            continue
        for field, want in _REQUIRED.items():
            if field not in r:
                raise BenchFormatError(
                    f"{path}: {_describe(r, i)} is missing field "
                    f"{field!r}"
                )
            if not isinstance(r[field], want) or isinstance(r[field], bool):
                raise BenchFormatError(
                    f"{path}: {_describe(r, i)} field {field!r} has type "
                    f"{type(r[field]).__name__}, expected "
                    f"{want[0].__name__ if isinstance(want, tuple) else want.__name__}"
                )
        out[(r["bench"], r["shape"], r["isa"], r["metric"])] = float(
            r["value"]
        )
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--tolerance", type=float, default=0.30)
    args = parser.parse_args()

    try:
        current = load(args.current)
        baseline = load(args.baseline)
    except BenchFormatError as e:
        print(f"ERROR  {e}", file=sys.stderr)
        return 2

    failures = []
    for key in sorted(baseline):
        bench, shape, isa, metric = key
        base = baseline[key]
        cur = current.get(key)
        if cur is None:
            print(
                f"NOTE  {bench} {shape} [{isa}] {metric}: "
                f"in baseline only (skipped)"
            )
            continue
        if _COMPARED_METRICS[metric] == "higher":
            bound, kind = base * (1.0 - args.tolerance), "floor"
            ok = cur >= bound
        else:
            bound, kind = base * (1.0 + args.tolerance), "ceiling"
            ok = cur <= bound
        status = "ok" if ok else "REGRESSION"
        print(
            f"{status:>10}  {bench} {shape} [{isa}] {metric}: "
            f"{cur:.2f} vs baseline {base:.2f} ({kind} {bound:.2f})"
        )
        if not ok:
            failures.append(key)
    for key in sorted(set(current) - set(baseline)):
        bench, shape, isa, metric = key
        print(f"NOTE  {bench} {shape} [{isa}] {metric}: new record, no baseline")

    if failures:
        print(
            f"\n{len(failures)} record(s) regressed more than "
            f"{args.tolerance:.0%} from baseline."
        )
        return 1
    print("\nAll matched records within tolerance.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
