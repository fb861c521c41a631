"""What each metric means, which workload reports it and what should move it.

``BENCHMARK.json`` at the repository root holds the metrics every run
prints on its last line (names, units, directions, regression bounds).
This module holds the rest of the map:

* ``DETAIL`` — the fourteen named end-to-end figures, each reported by
  the workloads listed with it and printed in the run's table;
* ``HEADLINE`` — what the workload-generic ``step_cost`` and ``sim_ms``
  stand for on each workload;
* ``DIAGNOSTICS`` — the raw host timings behind ``step_cost``;
* ``LAYERS`` — every per-layer metric with its module, the end-to-end
  metric it should move and the workloads it is exercised on (elsewhere
  it is predicted to read zero).
"""

from __future__ import annotations

ALL = ("train-su4", "serve-replay", "lifecycle-mixed")
TRAIN = ("train-su4",)
SERVING = ("serve-replay", "lifecycle-mixed")
LIFECYCLE = ("lifecycle-mixed",)

# name: (unit, better, workloads, meaning)
DETAIL = {
    "setup_s": ("s", "lower", ALL, "data generation, any set-up fit, service build and load probe"),
    "peak_rss_mb": ("MB", "lower", ALL, "peak resident memory of the workload process"),
    "fit_wall_s": ("s", "lower", TRAIN, "CuMF.fit host wall time"),
    "fit_sim_s": ("sim_s", "lower", TRAIN, "FitResult.total_seconds"),
    "test_rmse": ("rmse", "lower", TRAIN, "final test RMSE at the fixed iteration count"),
    "paper_models_wall_s": ("s", "lower", TRAIN, "host cost of the Table-5 x 1/2/4-GPU iteration models"),
    "paper_hugewiki_su4_sim_s": ("sim_s/iter", "lower", TRAIN, "full-scale Hugewiki SU-ALS on 4 GPUs (Figure 10)"),
    "replay_qps": ("1/s", "higher", SERVING, "queries replayed per host wall second"),
    "sim_p50_ms": ("sim_ms", "lower", SERVING, "TrafficReport.latency_p50_s of the read replay"),
    "sim_p95_ms": ("sim_ms", "lower", SERVING, "TrafficReport.latency_p95_s of the read replay"),
    "rollout_window_p95_ms": ("sim_ms", "lower", LIFECYCLE, "TrafficReport.window_p95_s during the rolling swap"),
    "refresh_wall_s": ("s", "lower", LIFECYCLE, "RecommenderService.refresh incl. the registry publish"),
    "failed_share": ("fraction", "lower", SERVING, "(error envelopes + shed + dropped) / attempted operations"),
    "tracing_overhead_s": ("s", "lower", ALL, "traced minus untraced step wall (traced run only)"),
}

# What the workload-generic headline metrics of BENCHMARK.json stand for.
# ``step_cost`` is the step's wall time in units of the reference
# computation timed beside it (see run.Reference).
HEADLINE = {
    "train-su4": {"step_cost": "fit_wall_s / reference", "sim_ms": "fit_sim_s in ms"},
    "serve-replay": {"step_cost": "one trace replay / reference", "sim_ms": "sim_p95_ms"},
    "lifecycle-mixed": {"step_cost": "one cycle (read replay, rate() batch, refresh, rollout replay) / reference", "sim_ms": "sim_p95_ms"},
}

# name: unit
DIAGNOSTICS = {"step_wall_s": "s", "reference_wall_s": "s"}

# name: (layer, moves, workloads it is exercised on)
LAYERS = {
    "datasets.generate_s": ("repro.datasets", "setup_s", ALL),
    "hermitian.calls": ("repro.core.hermitian", "fit_wall_s", ALL),
    "hermitian.self_s": ("repro.core.hermitian", "fit_wall_s", ALL),
    "hermitian.nnz": ("repro.core.hermitian", "fit_wall_s", ALL),
    "hermitian.flops_computed": ("repro.core.hermitian", "fit_wall_s", ALL),
    "hermitian.bytes_computed": ("repro.core.hermitian", "peak_rss_mb", ALL),
    "solve.calls": ("repro.core.hermitian", "fit_wall_s", ALL),
    "solve.self_s": ("repro.core.hermitian", "fit_wall_s", ALL),
    "solve.systems": ("repro.core.hermitian", "fit_wall_s", ALL),
    "schedule.calls": ("repro.core.schedule", "fit_wall_s", ALL),
    "schedule.self_s": ("repro.core.schedule", "fit_wall_s", ALL),
    "reduce.calls": ("repro.comm.reduction", "fit_wall_s", ()),
    "reduce.self_s": ("repro.comm.reduction", "fit_wall_s", ()),
    "reduce.bytes_computed": ("repro.comm.reduction", "fit_wall_s", ()),
    "fit.self_s": ("repro.core.solver", "fit_wall_s", ALL),
    "gpu.sim.h2d_s": ("repro.gpu", "fit_sim_s", ALL),
    "gpu.sim.kernels_s": ("repro.gpu", "fit_sim_s", ALL),
    "gpu.sim.scatter_s": ("repro.gpu", "fit_sim_s", ALL),
    "gpu.sim.gather_s": ("repro.gpu", "fit_sim_s", ALL),
    "perfmodel.calls": ("repro.core.perfmodel", "paper_models_wall_s", TRAIN),
    "perfmodel.self_s": ("repro.core.perfmodel", "paper_models_wall_s", TRAIN),
    "store.batches": ("repro.serving.store", "replay_qps", SERVING),
    "store.queries": ("repro.serving.store", "replay_qps", SERVING),
    "store.self_s": ("repro.serving.store", "replay_qps", SERVING),
    "store.sim_service_s": ("repro.serving.store", "sim_p95_ms", SERVING),
    "store.score_bytes_computed": ("repro.serving.store", "replay_qps", SERVING),
    "simulator.self_s": ("repro.serving.simulator", "replay_qps", SERVING),
    "simulator.mean_batch": ("repro.serving.simulator", "replay_qps", SERVING),
    "routing.imbalance": ("repro.serving.routing", "sim_p95_ms", SERVING),
    "routing.max_utilization": ("repro.serving.cluster", "sim_p95_ms", SERVING),
    "cache.hits": ("repro.serving.cache", "sim_p95_ms", LIFECYCLE),
    "cache.misses": ("repro.serving.cache", "sim_p95_ms", LIFECYCLE),
    "cache.hit_rate": ("repro.serving.cache", "sim_p95_ms", LIFECYCLE),
    "cache.promotions": ("repro.serving.cache", "rollout_window_p95_ms", LIFECYCLE),
    "cache.waves": ("repro.serving.cache", "rollout_window_p95_ms", LIFECYCLE),
    "cache.stale_hits": ("repro.serving.cache", "failed_share", ()),
    "tenancy.shed": ("repro.serving.tenancy", "failed_share", ()),
    "tenancy.degraded": ("repro.serving.tenancy", "sim_p95_ms", LIFECYCLE),
    "tenancy.slo_violations": ("repro.serving.tenancy", "sim_p95_ms", ()),
    "service.rate.calls": ("repro.serving.service", "failed_share", LIFECYCLE),
    "service.rate.self_s": ("repro.serving.service", "step_cost", LIFECYCLE),
    "service.rate.errors": ("repro.serving.service", "failed_share", ()),
    "refresh.rows": ("repro.serving.lifecycle", "refresh_wall_s", LIFECYCLE),
    "refresh.self_s": ("repro.serving.lifecycle", "refresh_wall_s", LIFECYCLE),
    "registry.publish_s": ("repro.serving.lifecycle", "refresh_wall_s", LIFECYCLE),
    "registry.bytes": ("repro.serving.lifecycle", "refresh_wall_s", LIFECYCLE),
    "rollout.events": ("repro.serving.lifecycle", "rollout_window_p95_ms", LIFECYCLE),
    "rollout.dropped": ("repro.serving.lifecycle", "failed_share", ()),
    "tracing_overhead_s": ("perfbench.tracing", "step_cost", ALL),
}

# Self-time span names (see tracing._SITES) -> per-layer metric.
SELF_TIME = {
    "datasets.generate": "datasets.generate_s",
    "hermitian": "hermitian.self_s",
    "solve": "solve.self_s",
    "schedule": "schedule.self_s",
    "reduce": "reduce.self_s",
    "fit": "fit.self_s",
    "perfmodel": "perfmodel.self_s",
    "store": "store.self_s",
    "simulator": "simulator.self_s",
    "service.rate": "service.rate.self_s",
    "refresh": "refresh.self_s",
    "registry.publish": "registry.publish_s",
}

# Per-step gauges: reported as the median over traced steps, not summed.
GAUGES = ("simulator.mean_batch", "routing.imbalance", "routing.max_utilization", "cache.hit_rate")
