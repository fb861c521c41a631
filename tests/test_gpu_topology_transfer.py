"""Tests for the interconnect topology, transfer engine, machine and streams."""

from __future__ import annotations

import pytest

from repro.gpu.machine import MultiGPUMachine
from repro.gpu.stream import CopyStream
from repro.gpu.topology import Link, MachineTopology
from repro.gpu.transfer import Transfer, TransferEngine
from repro.gpu.specs import TITAN_X
from repro.gpu.kernel import KernelProfile


class TestTopology:
    def test_single_socket_layout(self):
        topo = MachineTopology.single_socket(4)
        assert topo.n_gpus() == 4
        assert all(topo.socket_of(i) == 0 for i in range(4))
        assert topo.same_socket(0, 3)

    def test_dual_socket_layout(self):
        topo = MachineTopology.dual_socket(4)
        assert topo.socket_of(0) == 0 and topo.socket_of(3) == 1
        assert topo.same_socket(0, 1)
        assert not topo.same_socket(1, 2)

    def test_path_between_gpus_same_socket(self):
        topo = MachineTopology.dual_socket(4)
        links = topo.gpu_path(0, 1)
        assert len(links) == 2  # gpu0 -> pcie0 -> gpu1

    def test_path_between_gpus_cross_socket(self):
        topo = MachineTopology.dual_socket(4)
        links = topo.gpu_path(0, 3)
        assert len(links) == 3  # gpu0 -> pcie0 -> pcie1 -> gpu3

    def test_cross_socket_bandwidth_lower(self):
        topo = MachineTopology.dual_socket(4)
        assert topo.gpu_bandwidth(0, 3) < topo.gpu_bandwidth(0, 1)

    def test_path_to_self_is_empty(self):
        topo = MachineTopology.single_socket(2)
        assert topo.path("gpu:0", "gpu:0") == []

    def test_unknown_node_raises(self):
        topo = MachineTopology.single_socket(2)
        with pytest.raises(KeyError):
            topo.path("gpu:0", "gpu:99")

    def test_needs_at_least_one_gpu(self):
        with pytest.raises(ValueError):
            MachineTopology.single_socket(0)

    @pytest.mark.parametrize(
        "topo",
        [MachineTopology.single_socket(1), MachineTopology.single_socket(4), MachineTopology.dual_socket(2), MachineTopology.dual_socket(4)],
        ids=lambda topo: topo.description,
    )
    def test_cached_routes_equal_the_search(self, topo):
        for src in topo.nodes:
            for dst in topo.nodes:
                want = [] if src == dst else topo._search(src, dst)
                assert topo.path(src, dst) == want  # fills the cache
                assert topo.path(src, dst) == want  # served from it

    def test_route_cache_follows_link_changes(self):
        topo = MachineTopology.dual_socket(4)
        assert [link.name for link in topo.gpu_path(0, 3)] == ["pcie-gpu0", "qpi", "pcie-gpu3"]
        topo.links.append(Link("gpu:0", "gpu:3", 20e9, name="nvlink"))
        assert [link.name for link in topo.gpu_path(0, 3)] == ["nvlink"]
        topo.links = [link for link in topo.links if link.name not in ("nvlink", "qpi")]
        with pytest.raises(ValueError, match="no path"):
            topo.gpu_path(0, 3)
        topo.nodes.append("gpu:9")
        topo.links.append(Link("gpu:9", "pcie:0", 12e9, name="pcie-gpu9"))
        assert [link.name for link in topo.path("gpu:0", "gpu:9")] == ["pcie-gpu0", "pcie-gpu9"]

    def test_returned_route_is_a_private_list(self):
        topo = MachineTopology.single_socket(2)
        topo.gpu_path(0, 1).clear()
        assert len(topo.gpu_path(0, 1)) == 2


class TestTransferEngine:
    def test_single_transfer_time(self):
        topo = MachineTopology.single_socket(2, pcie_gbs=10.0)
        engine = TransferEngine(topo)
        report = engine.batch_time([Transfer("gpu:0", "gpu:1", 10e9)])
        assert report.seconds == pytest.approx(1.0, rel=0.01)

    def test_full_duplex_opposite_directions_do_not_contend(self):
        topo = MachineTopology.single_socket(2, pcie_gbs=10.0)
        engine = TransferEngine(topo)
        one_way = engine.batch_time([Transfer("gpu:0", "gpu:1", 10e9)]).seconds
        both_ways = engine.batch_time(
            [Transfer("gpu:0", "gpu:1", 10e9), Transfer("gpu:1", "gpu:0", 10e9)]
        ).seconds
        assert both_ways == pytest.approx(one_way, rel=0.01)

    def test_same_direction_contention_serialises(self):
        topo = MachineTopology.single_socket(3, pcie_gbs=10.0)
        engine = TransferEngine(topo)
        # Both transfers target gpu:2 — its incoming lane carries both.
        report = engine.batch_time(
            [Transfer("gpu:0", "gpu:2", 10e9), Transfer("gpu:1", "gpu:2", 10e9)]
        )
        assert report.seconds == pytest.approx(2.0, rel=0.01)
        assert "gpu:2" in report.bottleneck

    def test_zero_byte_and_self_transfers_are_free(self):
        topo = MachineTopology.single_socket(2)
        engine = TransferEngine(topo)
        assert engine.batch_time([Transfer("gpu:0", "gpu:0", 5e9)]).seconds == 0.0
        assert engine.batch_time([Transfer("gpu:0", "gpu:1", 0.0)]).seconds == 0.0

    def test_sequential_slower_than_batched_for_disjoint_paths(self):
        topo = MachineTopology.dual_socket(4)
        engine = TransferEngine(topo)
        transfers = [Transfer("gpu:0", "gpu:1", 5e9), Transfer("gpu:2", "gpu:3", 5e9)]
        assert engine.sequential_time(transfers) > engine.batch_time(transfers).seconds

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Transfer("gpu:0", "gpu:1", -5)


class TestMultiGPUMachine:
    def test_default_topology_matches_gpu_count(self):
        assert MultiGPUMachine(1).topology.n_gpus() == 1
        assert MultiGPUMachine(4).topology.n_gpus() == 4

    def test_mismatched_topology_rejected(self):
        with pytest.raises(ValueError):
            MultiGPUMachine(2, topology=MachineTopology.single_socket(4))

    def test_parallel_kernels_take_slowest_device_time(self):
        machine = MultiGPUMachine(2, spec=TITAN_X)
        fast = KernelProfile("fast", flops=1e9)
        slow = KernelProfile("slow", flops=4e9)
        elapsed = machine.run_parallel_kernels({0: fast, 1: slow})
        assert elapsed == pytest.approx(machine.device(1).busy_seconds())
        assert machine.elapsed_seconds() == pytest.approx(elapsed)

    def test_transfer_helpers_and_cost(self):
        machine = MultiGPUMachine(2)
        machine.run_transfers([machine.h2d(0, 12e9)])
        assert machine.elapsed_seconds() > 0
        assert machine.elapsed_cost_usd() == pytest.approx(
            machine.cost.hourly_usd * machine.elapsed_seconds() / 3600.0
        )

    def test_reset_clears_state(self):
        machine = MultiGPUMachine(2)
        machine.run_parallel_kernels({0: KernelProfile("k", flops=1e9)})
        machine.reset()
        assert machine.elapsed_seconds() == 0.0
        assert machine.device(0).busy_seconds() == 0.0


class TestCopyStream:
    def test_prefetch_fully_hidden_under_compute(self):
        stream = CopyStream()
        stream.blocking_copy(1.0)
        stream.prefetch(0.5)
        stream.compute(2.0)
        report = stream.drain()
        assert report.exposed_copy_seconds == pytest.approx(1.0)
        assert report.hidden_copy_seconds == pytest.approx(0.5)

    def test_prefetch_partially_exposed(self):
        stream = CopyStream()
        stream.prefetch(3.0)
        stream.compute(1.0)
        report = stream.drain()
        assert report.exposed_copy_seconds == pytest.approx(2.0)

    def test_pending_copy_exposed_on_drain(self):
        stream = CopyStream()
        stream.prefetch(1.5)
        report = stream.drain()
        assert report.exposed_copy_seconds == pytest.approx(1.5)

    def test_negative_durations_rejected(self):
        stream = CopyStream()
        with pytest.raises(ValueError):
            stream.prefetch(-1)
        with pytest.raises(ValueError):
            stream.compute(-1)
