"""CI smoke: hazard-analyze and verify every scheduler's real schedules.

One command — ``python -m repro.analysis.smoke`` — fits a small SU-ALS
workload (data-parallel, dual-socket, 4 GPUs) and an MO-ALS workload
under **every registered scheduler** with ``verify=True``, checks the
factors are byte-identical to the unverified run, and hazard-analyzes
the update graphs standalone.  It then ``verify=True``-executes the
shape-only graphs the paper-scale iteration models run
(:func:`~repro.core.perfmodel.iteration_graphs`) for Netflix, YahooMusic
and Hugewiki on 1, 2 and 4 GPUs, again under every scheduler.  Any
hazard or trace violation raises
:class:`~repro.analysis.hazards.HazardError` and fails the job.

This is the analysis counterpart of the tier-1 suite: fast (seconds),
no fixtures, exercised on every push by the CI ``analysis`` job.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from repro.analysis.hazards import analyze_graph
from repro.core.als_mo import MemoryOptimizedALS
from repro.core.als_su import ScaleUpALS
from repro.core.config import ALSConfig
from repro.core.perfmodel import iteration_graphs
from repro.core.schedule import execute_graph, scheduler_names
from repro.datasets.registry import HUGEWIKI, NETFLIX, YAHOOMUSIC, DatasetSpec
from repro.datasets.synthetic import generate_ratings
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.topology import MachineTopology

CONFIG = ALSConfig(f=8, lam=0.05, iterations=2, seed=11, row_batch=96)
SPEC = DatasetSpec("analysis-smoke", 240, 72, 3600, 8, 0.05, kind="synthetic")


def _su_solver(scheduler: str, verify: bool) -> ScaleUpALS:
    machine = MultiGPUMachine(n_gpus=4, topology=MachineTopology.dual_socket(4))
    return ScaleUpALS(
        CONFIG,
        machine=machine,
        force_data_parallel=True,
        q_override=2,
        scheduler=scheduler,
        verify=verify,
    )


def _mo_solver(scheduler: str, verify: bool) -> MemoryOptimizedALS:
    return MemoryOptimizedALS(CONFIG, scheduler=scheduler, verify=verify)


def main() -> int:
    """Run the smoke pass; returns a process exit status."""
    workload = generate_ratings(SPEC, seed=3, noise_sigma=0.2)
    failures = 0
    for name in scheduler_names():
        for label, build in (("su", _su_solver), ("mo", _mo_solver)):
            try:
                verified = build(name, True)
                plain = build(name, False)
                res_v = verified.fit(workload.train)
                res_p = plain.fit(workload.train)
                if not (np.array_equal(res_v.x, res_p.x) and np.array_equal(res_v.theta, res_p.theta)):
                    raise AssertionError("verify=True changed the factors")
            except Exception as exc:
                failures += 1
                print(f"FAIL {label}/{name}: {exc}", file=sys.stderr)
                continue
            print(f"ok {label}/{name}: {len(verified.traces)} graphs verified, factors identical")

    # Standalone analyzer over a real update graph: hazard-clean, and the
    # only warnings permitted are ORPHAN-free too (a regression here means
    # a builder started producing unconsumed objects).
    solver = _su_solver("serial", False)
    theta = np.zeros((workload.train.shape[1], CONFIG.f))
    graph, _ = solver.build_update_graph(workload.train, theta, label="x")
    hazards = analyze_graph(graph, solver.machine)
    for hazard in hazards:
        failures += 1
        print(f"FAIL analyze_graph: {hazard}", file=sys.stderr)
    if not hazards:
        print(f"ok analyze_graph: {len(graph)} tasks, 0 hazards")
    failures += _paper_scale_graphs()
    return 1 if failures else 0


def _paper_scale_graphs() -> int:
    """Verify-execute the paper models' graphs under every scheduler; returns the failure count."""
    failures = 0
    for dataset, n_gpus, name in itertools.product((NETFLIX, YAHOOMUSIC, HUGEWIKI), (1, 2, 4), scheduler_names()):
        config = ALSConfig(f=dataset.f, lam=dataset.lam)
        solver = MemoryOptimizedALS(config) if n_gpus == 1 else ScaleUpALS(config, n_gpus=n_gpus)
        try:
            for graph in iteration_graphs(solver, dataset):
                execute_graph(graph, solver.machine, name, verify=True)
        except ValueError as exc:  # HazardError and graph validation failures
            failures += 1
            print(f"FAIL {dataset.name}/{n_gpus}gpu/{name}: {exc}", file=sys.stderr)
            continue
        print(f"ok {dataset.name}/{n_gpus}gpu/{name}: shape-only iteration verified")
    return failures


if __name__ == "__main__":
    sys.exit(main())
