"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-su4 [--seed 0] [--seconds 10] [--trace 0]

Run from the root of a checkout.  The run sets up the workload several
times (``setup_s`` is their median), then repeats the workload's timed
step until ``--seconds`` have passed and reports medians.  It prints a
table of every metric by name and unit, writes the full result to
``perfbench/out/`` and prints, as its last line, one JSON object with
the metrics ``BENCHMARK.json`` declares: the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``.  A failed output
check prints ``"correct": false`` and exits with status 1.

With ``--trace 1`` every set-up is traced, and timed steps alternate
between untraced and traced; the per-layer metrics describe one set-up
plus one step (plus the paper-model pass on train-su4), and
``tracing_overhead_s`` is the traced minus the untraced step median.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread (at most nproc): steadier timings on a shared host.
# Set before NumPy is imported anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from catalogue import DETAIL, DIAGNOSTICS, GAUGES, LAYERS, SELF_TIME  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(SRC))

#: Seed used when none is given.
DEFAULT_SEED = 0
#: Held back: use only to confirm a claim made on other seeds.
CONFIRM_SEED = 20161
#: Set-ups per run: at least this many, and for at least SETUP_SECONDS;
#: ``setup_s`` is their median.
SETUPS = 3
SETUP_SECONDS = 1.0
#: Timings of the reference computation taken between two steps.
REFERENCE_REPEATS = 5
#: Fewest timed steps per run, whatever ``--seconds`` says.
MIN_STEPS = 3


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, higher_is_better: bool = False) -> tuple[int, float] | None:
    """The worst-side percentile with at least ten samples beyond it, if any.

    For a time that is the highest such percentile; for a rate (higher is
    better) the lowest.  ``None`` when fewer than twenty samples leave no
    such percentile past the median.
    """
    n = len(values)
    pct = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if pct <= 50:
        return None
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return (100 - pct, float(cuts[99 - pct])) if higher_is_better else (pct, float(cuts[pct - 1]))


class Reference:
    """A fixed computation timed between steps, to express host cost in its units.

    The host's speed drifts by tens of percent over minutes (neighbours
    on shared cores), and every host timing drifts with it.  Dividing a
    step's wall time by the wall time of a fixed computation measured
    just before and after the step cancels most of that drift, provided
    the computation stresses the machine the way the step does.  So each
    workload names its kind:

    * ``"hermitian"`` — outer products of gathered rows segment-summed
      with ``np.add.reduceat``, the memory-bound shape of Hermitian
      assembly that dominates a fit;
    * ``"topk"`` — a float32 GEMM, a top-10 selection, Python tuples and
      an interpreter loop, the mix of a serving replay.

    Neither calls the program, so a change to the program cannot move it.
    """

    def __init__(self, kind: str) -> None:
        rng = np.random.default_rng(0)
        self.kind = kind
        self.rows = rng.random((1000, 32))
        self.starts = np.arange(0, 1000, 20)
        self.users = rng.random((256, 32), dtype=np.float32)
        self.items = rng.random((32, 4000), dtype=np.float32)

    def _hermitian(self) -> None:
        outer = np.einsum("ki,kj->kij", self.rows, self.rows)
        assert np.add.reduceat(outer, self.starts, axis=0).shape == (50, 32, 32)

    def _topk(self) -> None:
        scores = self.users @ self.items
        idx = np.argpartition(scores, scores.shape[1] - 10, axis=1)[:, -10:]
        vals = np.take_along_axis(scores, idx, axis=1)
        rows = [[(int(i), float(v)) for i, v in zip(ri, rv)] for ri, rv in zip(idx, vals)]
        total = 0
        for i in range(30_000):
            total += i
        assert len(rows) == scores.shape[0] and total > 0

    def wall(self) -> float:
        """Median wall seconds of one reference computation, right now."""
        work = self._hermitian if self.kind == "hermitian" else self._topk
        walls = []
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            work()
            walls.append(time.perf_counter() - start)
        return median(walls)


def git_sha() -> str:
    """HEAD of the checkout, read without running git ("unknown" outside a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info() -> dict:
    return {
        "git_sha": git_sha(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
    }


def import_program():
    """Import the program from this checkout's ``src/`` (and nowhere else)."""
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"repro imported from {where}, not from {SRC}")


def run_workload(workload, seed: int, seconds: float, traced: bool) -> dict:
    """Set up, step until ``seconds`` pass, check; returns the raw result."""
    from workloads import check_repeat

    tracer = Tracer()

    def unit(name: str, trace_this: bool = True):
        return _traced(tracer, name) if traced and trace_this else contextlib.nullcontext()

    setup_walls, setup_layers, unit_walls = [], [], {}
    state = None
    setup_end = time.perf_counter() + SETUP_SECONDS
    i = 0
    while i < SETUPS or time.perf_counter() < setup_end:
        start = time.perf_counter()
        with unit(f"setup-{i}"):
            state, layers = workload.setup(seed)
        setup_walls.append(time.perf_counter() - start)
        setup_layers.append(layers)
        unit_walls[f"setup-{i}"] = setup_walls[-1]
        i += 1

    reference = Reference(workload.reference)
    reference_walls = [reference.wall()]
    steps, traced_steps, untraced_walls, traced_walls = [], [], [], []
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep < (2 * MIN_STEPS if traced else MIN_STEPS) or time.perf_counter() < deadline:
        # A traced run alternates untraced and traced steps.
        trace_this = rep % 2 == 1
        start = time.perf_counter()
        with unit(f"step-{rep}", trace_this):
            step = workload.step(state, rep)
        wall = time.perf_counter() - start
        reference_walls.append(reference.wall())
        if traced and trace_this:
            traced_walls.append(wall)
            traced_steps.append((f"step-{rep}", step))
            unit_walls[f"step-{rep}"] = wall
        else:
            untraced_walls.append(wall)
        steps.append(step)
        rep += 1

    extra = {}
    if hasattr(workload, "paper_models"):
        start = time.perf_counter()
        with unit("models"):
            extra = workload.paper_models()
        unit_walls["models"] = time.perf_counter() - start

    for step in steps[1:]:
        check_repeat(steps[0], step, workload.repeat_keys)
    workload.final_check(state)
    return {
        "setup_walls": setup_walls,
        "setup_layers": setup_layers,
        "steps": steps,
        "traced_steps": traced_steps,
        "untraced_walls": untraced_walls,
        "traced_walls": traced_walls,
        "unit_walls": unit_walls,
        "reference_walls": reference_walls,
        "extra": extra,
        "tracer": tracer,
    }


@contextlib.contextmanager
def _traced(tracer, unit: str):
    """Wrap the program's layer entry points for one unit of work only."""
    with instrument(tracer), tracer.unit_span(unit):
        yield


def end_to_end(workload, raw: dict) -> tuple[dict, dict]:
    """(driver metrics, detail figures) of an untraced run."""
    steps = raw["steps"]
    refs = raw["reference_walls"]
    # Each step against the mean of the reference timed just before and after it.
    costs = [s.wall_s / (0.5 * (refs[j] + refs[j + 1])) for j, s in enumerate(steps)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    driver = {
        "setup_s": median(raw["setup_walls"]),
        "peak_rss_mb": rss_mb,
        "step_cost": median(costs),
        "sim_ms": median([workload.headline_sim_ms(s) for s in steps]),
    }
    detail = {
        "setup_s": _timing(raw["setup_walls"]),
        "peak_rss_mb": {"value": rss_mb},
        "step_wall_s": _timing([s.wall_s for s in steps]),
        "reference_wall_s": {"value": median(refs), "n": len(refs)},
    }
    keys = sorted({k for s in steps for k in s.values} - {"sim_service_s"})
    for key in keys:
        samples = [s.values[key] for s in steps]
        if key.endswith("_wall_s") or key == "replay_qps":
            detail[key] = _timing(samples, higher_is_better=key == "replay_qps")
        else:
            detail[key] = {"value": median(samples), "n": len(samples)}
    for key, value in raw["extra"].items():
        detail[key] = {"value": value, "n": 1}
    return driver, detail


def _timing(samples, higher_is_better: bool = False) -> dict:
    out = {"value": median(samples), "n": len(samples)}
    t = tail(samples, higher_is_better)
    if t is not None:
        out[f"p{t[0]}"] = t[1]
    return out


def per_layer(raw: dict) -> tuple[dict, list]:
    """Per-layer metrics of a traced run: one set-up + one step (+ models)."""
    tracer = raw["tracer"]
    groups = {
        "setup": [(f"setup-{i}", layers) for i, layers in enumerate(raw["setup_layers"])],
        "step": [(unit, step.layers) for unit, step in raw["traced_steps"]],
        "models": [("models", {})] if raw["extra"] else [],
    }
    metrics = {name: 0.0 for name in LAYERS}
    problems = []
    overhead = median(raw["traced_walls"]) - median(raw["untraced_walls"])
    for kind, units in groups.items():
        if not units:
            continue
        per_unit = []
        for unit, layers in units:
            values = dict(layers)
            for key, value in tracer.counts.get(unit, {}).items():
                values[key] = values.get(key, 0.0) + value
            self_times = tracer.self_times(unit)
            for span_name, metric in SELF_TIME.items():
                values[metric] = self_times.get(span_name, 0.0)
            # The self times of a unit add up to its traced wall time.
            total, wall = sum(self_times.values()), raw["unit_walls"][unit]
            if abs(total - wall) > abs(overhead) + 1e-3:
                problems.append(f"{unit}: self times sum to {total:.6f} s, traced wall {wall:.6f} s")
            per_unit.append(values)
        for name in LAYERS:
            samples = [v.get(name, 0.0) for v in per_unit]
            if name in GAUGES:
                if kind == "step":
                    metrics[name] = median(samples)
            else:
                metrics[name] += median(samples)
    metrics["tracing_overhead_s"] = overhead
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"input seed; {CONFIRM_SEED} is held back for confirming claims")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full", help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")

    workdir = OUT / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.scale, workdir)
    correct, problem = True, ""
    try:
        raw = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        correct, problem, raw = False, str(exc), None
    finally:
        workload.close()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    detail: dict = {}
    values: dict = {}
    attempted = failed = 0
    if raw is not None:
        attempted = sum(s.attempted for s in raw["steps"])
        failed = sum(s.failed for s in raw["steps"])
        if args.trace:
            values, problems = per_layer(raw)
            if problems:
                correct, problem = False, "; ".join(problems)
            detail = {"tracing_overhead_s": {"value": values["tracing_overhead_s"]}}
        else:
            values, detail = end_to_end(workload, raw)
        if args.trace:
            OUT.mkdir(parents=True, exist_ok=True)
            spans = OUT / f"spans-{args.workload}-s{args.seed}.json"
            spans.write_text(json.dumps(raw["tracer"].export()))

    print_table(args, detail, values, units)
    if problem:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    samples = {}
    if raw is not None:
        samples = {"setup_s": raw["setup_walls"], "step_wall_s": [s.wall_s for s in raw["steps"]], "reference_wall_s": raw["reference_walls"]}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, scale=args.scale,
                  detail=detail, samples=samples, host=host_info())
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


def print_table(args, detail: dict, values: dict, units: dict) -> None:
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    for name, entry in detail.items():
        unit = DETAIL[name][0] if name in DETAIL else DIAGNOSTICS[name]
        extras = " ".join(f"{k}={v:.6g}" for k, v in entry.items() if k != "value")
        print(f"  {name:<26} {entry['value']:>14.6g} {unit:<11} {extras}")
    print("# reported")
    for name in units:
        if name in values:
            print(f"  {name:<26} {values[name]:>14.6g} {units[name]}")


if __name__ == "__main__":
    sys.exit(main())
