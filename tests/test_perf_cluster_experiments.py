"""Tests for the perf accounting, analytical model, cluster model and experiments."""

from __future__ import annotations

import math

import pytest

from repro.cluster.nodes import AWS_M3_2XLARGE, AWS_M3_XLARGE, HPC_NODE, ClusterSpec
from repro.cluster.perf import (
    distributed_als_iteration_time,
    distributed_sgd_epoch_time,
    parameter_server_epoch_time,
    rotation_als_iteration_time,
)
import repro.core.perfmodel as perfmodel
from repro.core.als_mo import MemoryOptimizedALS
from repro.core.als_su import ScaleUpALS
from repro.core.config import ALSConfig
from repro.core.perfmodel import mo_als_iteration_time, su_als_iteration_time
from repro.core.schedule import execute_graph
from repro.datasets.registry import FACTORBIRD, HUGEWIKI, NETFLIX, SPARKALS, YAHOOMUSIC
from repro.experiments import figure2_rows, reduction_rows, table1_rows, table3_rows, table5_rows
from repro.experiments.figure11_large import figure11_rows
from repro.perf.analytical import als_iteration_cost, batch_solve_cost, get_hermitian_cost, memory_footprint_floats
from repro.perf.counters import OpCounter
from repro.perf.roofline import attainable_gflops, classify, roofline_time
from repro.perf.timeline import SimClock
from repro.sparse.shape import RatingsShape
from repro.gpu.specs import TITAN_X


class TestTimelineAndCounters:
    def test_clock_advances_and_breaks_down(self):
        clock = SimClock()
        clock.advance(1.0, "a")
        clock.advance(2.0, "b")
        clock.advance(0.5, "a")
        assert clock.now == pytest.approx(3.5)
        assert clock.breakdown() == {"a": pytest.approx(1.5), "b": pytest.approx(2.0)}

    def test_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_counter_merge_and_intensity(self):
        a = OpCounter(flops=100, bytes_read=20, bytes_written=5)
        b = OpCounter(flops=50, bytes_read=0, bytes_written=25)
        merged = a.merge(b)
        assert merged.flops == 150 and merged.bytes_total == 50
        assert merged.arithmetic_intensity() == pytest.approx(3.0)


class TestAnalyticalTable3:
    def test_hermitian_cost_formula(self):
        cost_a, cost_b = get_hermitian_cost(m=100, nz=1000, f=10, rows=100)
        assert cost_a == pytest.approx(1000 * 10 * 11 / 2)
        assert cost_b == pytest.approx(1000 + 1000 * 10 + 2 * 100 * 10)

    def test_one_item_scales_to_all_items(self):
        one_a, one_b = get_hermitian_cost(m=100, nz=1000, f=10, rows=1)
        all_a, all_b = get_hermitian_cost(m=100, nz=1000, f=10)
        assert all_a == pytest.approx(100 * one_a)
        assert all_b == pytest.approx(100 * one_b)

    def test_batch_solve_cubic(self):
        assert batch_solve_cost(10, 7) == pytest.approx(7 * 1000)

    def test_memory_footprint(self):
        fp = memory_footprint_floats(m=100, n=50, nz=1000, f=10, rows=100)
        assert fp["A"] == pytest.approx(100 * 100)
        assert fp["B"] == pytest.approx(50 * 10 + 100 * 10 + (2 * 1000 + 101))

    def test_iteration_cost_includes_both_passes(self):
        cost = als_iteration_cost(m=100, n=50, nz=1000, f=10)
        assert cost.solve == pytest.approx((100 + 50) * 1000)
        assert cost.total > 0 and cost.flops() == pytest.approx(2 * cost.total)

    def test_validation(self):
        with pytest.raises(ValueError):
            get_hermitian_cost(0, 10, 5)
        with pytest.raises(ValueError):
            batch_solve_cost(5, -1)


class TestRoofline:
    def test_ceiling_min_of_compute_and_memory(self):
        low = attainable_gflops(TITAN_X, 0.001)
        high = attainable_gflops(TITAN_X, 1e6)
        assert low < high
        assert high == pytest.approx(TITAN_X.effective_gflops)

    def test_roofline_time_binding_resource(self):
        assert roofline_time(TITAN_X, flops=TITAN_X.effective_gflops * 1e9, dram_bytes=0) == pytest.approx(1.0)
        assert roofline_time(TITAN_X, flops=0, dram_bytes=TITAN_X.global_bw) == pytest.approx(1.0)

    def test_classification(self):
        memory_bound = classify(TITAN_X, "m", flops=1e6, dram_bytes=1e9, seconds=0.01)
        compute_bound = classify(TITAN_X, "c", flops=1e13, dram_bytes=1e6, seconds=1.0)
        assert memory_bound.is_memory_bound()
        assert not compute_bound.is_memory_bound()


class TestGPUPerfModel:
    def test_netflix_iteration_seconds_in_paper_ballpark(self):
        """Figure 7: RMSE 0.92 reached around 30 s, i.e. a handful of seconds/iteration."""
        t = mo_als_iteration_time(NETFLIX).seconds
        assert 1.0 < t < 20.0

    def test_register_ablation_slowdown_factor(self):
        base = mo_als_iteration_time(NETFLIX).seconds
        no_reg = mo_als_iteration_time(NETFLIX, ALSConfig(f=100, lam=0.05, use_registers=False)).seconds
        assert 1.5 < no_reg / base < 4.0  # paper: ~2.5x on Netflix

    def test_texture_ablation_direction(self):
        base = mo_als_iteration_time(NETFLIX).seconds
        no_tex = mo_als_iteration_time(NETFLIX, ALSConfig(f=100, lam=0.05, use_texture=False)).seconds
        assert no_tex > base

    def test_multi_gpu_speedup_close_to_linear(self):
        """Figure 9: ~3.8x speedup on 4 GPUs for Netflix/YahooMusic."""
        for dataset in (NETFLIX, YAHOOMUSIC):
            t1 = mo_als_iteration_time(dataset).seconds
            t4 = su_als_iteration_time(dataset, n_gpus=4).seconds
            assert 3.0 < t1 / t4 <= 4.05

    def test_two_gpus_faster_than_one_slower_than_four(self):
        t1 = mo_als_iteration_time(NETFLIX).seconds
        t2 = su_als_iteration_time(NETFLIX, n_gpus=2).seconds
        t4 = su_als_iteration_time(NETFLIX, n_gpus=4).seconds
        assert t4 < t2 < t1

    def test_hugewiki_uses_data_parallelism_for_theta_pass(self):
        t = su_als_iteration_time(HUGEWIKI, n_gpus=4)
        assert t.q_x >= 1 and t.seconds > 0
        # The update-Θ pass must have charged reduction transfers.
        assert any(k.startswith("reduce:") for k in t.breakdown)

    @pytest.mark.parametrize(
        "model,solver,dataset,qs",
        [
            (su_als_iteration_time, lambda: ScaleUpALS(ALSConfig(f=HUGEWIKI.f, lam=HUGEWIKI.lam), n_gpus=4), HUGEWIKI, (42, 6)),
            (mo_als_iteration_time, lambda: MemoryOptimizedALS(ALSConfig(f=FACTORBIRD.f, lam=FACTORBIRD.lam)), FACTORBIRD, (41, 44)),
        ],
        ids=["hugewiki-su4", "factorbird-mo"],
    )
    @pytest.mark.parametrize("run", [1, 5])
    def test_bounded_runs_match_whole_graph_bitwise(self, monkeypatch, model, solver, dataset, qs, run):
        """A shape-only pass run in bounded runs charges exactly what the whole graph does."""
        whole = solver()
        shape = RatingsShape.of(dataset)
        for r, label in ((shape, "x"), (shape.transpose(), "theta")):
            graph, out = whole.build_update_graph(r, None, label)
            assert out is None and all(task.run is None for task in graph.tasks)
            execute_graph(graph, whole.machine)
        monkeypatch.setattr(perfmodel, "RUN_BATCHES", run)
        model = model(dataset)
        assert (model.q_x, model.q_theta) == qs
        assert model.seconds == whole.machine.elapsed_seconds()
        assert model.breakdown == whole.machine.clock.breakdown()


class TestClusterModel:
    def test_more_nodes_make_sgd_epochs_faster(self):
        small = ClusterSpec(HPC_NODE, 8)
        big = ClusterSpec(HPC_NODE, 64)
        assert distributed_sgd_epoch_time(HUGEWIKI, big) < distributed_sgd_epoch_time(HUGEWIKI, small)

    def test_hpc_cluster_beats_aws_cluster(self):
        aws = ClusterSpec(AWS_M3_XLARGE, 32)
        hpc = ClusterSpec(HPC_NODE, 64)
        assert distributed_sgd_epoch_time(HUGEWIKI, hpc) < distributed_sgd_epoch_time(HUGEWIKI, aws)

    def test_sparkals_iteration_dominated_by_shuffle(self):
        cluster = ClusterSpec(AWS_M3_2XLARGE, 50)
        t = distributed_als_iteration_time(SPARKALS, cluster)
        assert t > 30.0  # the paper measured 240 s; ours must at least be tens of seconds

    def test_parameter_server_epoch_scale(self):
        cluster = ClusterSpec(AWS_M3_2XLARGE, 50)
        t = parameter_server_epoch_time(FACTORBIRD, cluster)
        assert 100.0 < t < 5000.0

    def test_cache_hit_rate_validation(self):
        with pytest.raises(ValueError):
            parameter_server_epoch_time(FACTORBIRD, ClusterSpec(AWS_M3_2XLARGE, 10), cache_hit_rate=1.5)

    def test_rotation_als_scales_with_nodes_overhead(self):
        few = rotation_als_iteration_time(SPARKALS, ClusterSpec(AWS_M3_2XLARGE, 10))
        many_overhead = rotation_als_iteration_time(SPARKALS, ClusterSpec(AWS_M3_2XLARGE, 10), per_superstep_overhead_s=50)
        assert many_overhead > few


class TestExperiments:
    def test_figure2_and_table5_cover_all_workloads(self):
        assert len(figure2_rows()) == 7
        names = {r["name"] for r in table5_rows()}
        assert {"Netflix", "YahooMusic", "Hugewiki", "Facebook"} <= names

    def test_table3_rows_scale_consistently(self):
        rows = table3_rows(NETFLIX, batch_rows=1000)
        one, batch, full = rows[0], rows[1], rows[2]
        assert batch["hermitian_A_macs"] == pytest.approx(1000 * one["hermitian_A_macs"])
        assert full["batch_solve_macs"] == pytest.approx(NETFLIX.m * one["batch_solve_macs"])

    def test_reduction_ablation_shape(self):
        rows = reduction_rows(n_gpus=4)
        by_name = {r["scheme"]: r for r in rows}
        assert by_name["one-phase-parallel"]["speedup_vs_reduce_to_one"] > 1.3  # paper: 1.7x
        assert by_name["two-phase-topology"]["speedup_vs_one_phase"] > 1.2  # paper: 1.5x

    def test_table1_shape_cumf_faster_and_cheaper(self):
        rows = table1_rows()
        assert {r["baseline"] for r in rows} == {"NOMAD", "SparkALS", "Factorbird"}
        for row in rows:
            assert row["cumf_speedup"] > 1.5
            assert row["cumf_cost_fraction"] < 0.15

    def test_figure11_cumf_wins_every_comparable_workload(self):
        rows = figure11_rows()
        for row in rows:
            if math.isnan(row["baseline_seconds"]):
                continue
            assert row["cumf_seconds"] < row["baseline_seconds"]
