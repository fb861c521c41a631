"""The benchmark's own tests: schema, metric names, and a smoke run of each workload.

    python3 -m pytest perfbench -q

The smoke runs use ``--scale smoke`` (tiny inputs) and a sub-second
measuring window, so the whole file runs in well under a minute.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402
import tracing  # noqa: E402
from run import tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, *, trace: int = 0, seed: int = 5, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def detail(workload: str, seed: int, trace: int) -> dict:
    record = json.loads((HERE / "out" / f"{workload}-s{seed}-t{trace}.json").read_text())
    return record["detail"]


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["command"][1] == "perfbench/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", m["name"])
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_catalogue_matches_benchmark_json():
    from workloads import WORKLOADS as CLASSES

    assert set(WORKLOADS) == set(CLASSES) == set(catalogue.ALL) == set(catalogue.HEADLINE)
    assert [m["name"] for m in SPEC["per_layer"]] == list(catalogue.LAYERS)
    assert len(catalogue.DETAIL) == 14
    for name, (unit, better, workloads, _) in catalogue.DETAIL.items():
        assert NAME.match(name) and UNIT.match(unit) and better in ("lower", "higher")
        assert set(workloads) <= set(WORKLOADS)
    for layer, moves, workloads in catalogue.LAYERS.values():
        assert moves in catalogue.DETAIL or moves in {m["name"] for m in SPEC["end_to_end"]}
        assert set(workloads) <= set(WORKLOADS)
    assert set(catalogue.SELF_TIME.values()) <= set(catalogue.LAYERS)


def test_self_times_add_up_to_the_unit():
    tracer = tracing.Tracer()
    with tracer.unit_span("u"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(10_000))
            sum(range(10_000))
    self_times = tracer.self_times("u")
    assert set(self_times) == {"unit", "outer", "inner"}
    assert all(t >= 0 for t in self_times.values())
    root = next(s for s in tracer.spans if s.name == "unit")
    assert math.isclose(sum(self_times.values()), root.duration, rel_tol=1e-9)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail(list(range(19))) is None
    pct, value = tail([float(i) for i in range(100)])
    assert pct == 90 and 88 <= value <= 90
    pct, value = tail([float(i) for i in range(100)], higher_is_better=True)
    assert pct == 10 and 9 <= value <= 11


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = run_bench(workload, trace=trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0
    # The named end-to-end figures each workload declares are printed by name.
    expected = {name for name, (_, _, workloads, _) in catalogue.DETAIL.items() if workload in workloads}
    reported = set(detail(workload, 5, trace))
    if trace:
        assert reported == {"tracing_overhead_s"}
    else:
        assert reported == expected - {"tracing_overhead_s"} | set(catalogue.DIAGNOSTICS)
        for name in reported:
            assert name in proc.stdout


def test_fixed_seed_repeats_across_processes():
    for workload, keys in [("train-su4", ("fit_sim_s", "test_rmse")), ("serve-replay", ("sim_p50_ms", "sim_p95_ms"))]:
        first = run_bench(workload, seed=11)
        one = detail(workload, 11, 0)
        second = run_bench(workload, seed=11)
        two = detail(workload, 11, 0)
        assert first.returncode == second.returncode == 0
        for key in keys:
            assert one[key]["value"] == two[key]["value"], key


def test_fails_without_the_program():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = run_bench("train-su4", cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip().startswith("{")
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
