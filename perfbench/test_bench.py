"""Self-test of the benchmark.

A coarse-step run of every workload, plain and traced, must pass its own
correctness gate, name exactly the metrics of BENCHMARK.json and print
lines that match schema.json.  Without the program's sources the command
must fail without printing a result.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run  # first: pins the thread counts before numpy loads
import checkout

checkout.import_debondsim()

import jsonschema  # noqa: E402

import bench  # noqa: E402
import workloads  # noqa: E402

COARSE = 2.0  # twice the lattice step (the traced run also goes to 4x)
OUT = checkout.ROOT / "perfbench" / "out"
SCHEMA = json.loads((checkout.ROOT / "perfbench" / "schema.json").read_text())
REPORT_SCHEMA = {"$ref": "#/$defs/report_line", "$defs": SCHEMA["$defs"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_coarse_run_matches_schema(name, trace):
    spans = OUT / f"selftest-spans-{name}.json"
    if trace:
        values, report = bench.measure_traced(name, 0, 0.0, spans, COARSE)
    else:
        values, report = bench.measure(name, 0, 0.0, COARSE)
    report.update(workload=name, seed=0, trace=trace, environment=bench.environment())
    specs = run.metric_specs(trace)
    report_line, result_line = (json.loads(s) for s in run.output_lines(values, report, specs))

    jsonschema.validate(result_line, SCHEMA)
    jsonschema.validate(report_line, REPORT_SCHEMA)
    assert result_line["correct"], report["problems"]
    assert set(result_line["metrics"]) == set(specs)
    if trace:
        written = json.loads(spans.read_text())
        assert len(written["spans"]) == report["spans"]


def test_refuses_to_run_without_sources():
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(checkout.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(checkout.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "front_kkt",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
