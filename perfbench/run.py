"""debondsim benchmark: time to an audited solution, per workload.

    python3 perfbench/run.py --workload front_kkt --seed 0 --seconds 20 --trace 0

One operation is ``griffith.run`` followed by ``energy_audit.audit`` on the
workload's inputs.  The run repeats it for about ``--seconds`` seconds in
this one process, checks every result, and reports medians.  With
``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it wraps each layer's public calls, writes the spans to
``perfbench/out/`` and prints the per-layer metrics.  The last line of
standard output is the result object; the line before it is a report
with the raw samples and the environment.  See perfbench/README.md.
"""

import os

# one thread everywhere, pinned before numpy loads (children inherit it)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import checkout  # noqa: E402


def metric_specs(trace: int) -> dict:
    """Metric name -> unit, from BENCHMARK.json at the checkout root."""
    with open(checkout.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_object(values, report, specs) -> dict:
    """The result: correctness, operation counts and metrics with units."""
    correct = values is not None and report["failed"] == 0 and not report["problems"]
    metrics = {}
    if values is not None:
        if set(values) != set(specs):
            raise RuntimeError("computed metrics do not match BENCHMARK.json: "
                               f"{sorted(set(values) ^ set(specs))}")
        metrics = {k: {"value": values[k], "unit": specs[k]} for k in specs}
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def output_lines(values, report, specs) -> list:
    """The report line and, last, the result line; NaN is refused."""
    return [json.dumps({"report": report}, allow_nan=False),
            json.dumps(result_object(values, report, specs), allow_nan=False)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="front_kkt, static_load or rim_debond")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        checkout.import_debondsim()
        specs = metric_specs(args.trace)
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2

    import bench
    import workloads

    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}")
    if args.trace:
        spans = checkout.ROOT / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        values, report = bench.measure_traced(args.workload, args.seed, args.seconds,
                                              spans_path=spans)
    else:
        values, report = bench.measure(args.workload, args.seed, args.seconds)
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=bench.environment())
    lines = output_lines(values, report, specs)
    print("\n".join(lines))
    return 0 if json.loads(lines[-1])["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
