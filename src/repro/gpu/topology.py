"""Interconnect topology of a single machine with multiple GPUs.

§4.2 of the paper distinguishes two machine layouts:

* a *flat* machine where all GPUs hang off one PCIe root complex
  (Figure 5a assumes this), and
* a *two-socket* machine where every two GPUs connect to one socket and
  sockets are joined by an inter-socket link (QPI); intra-socket transfers
  enjoy zero-copy full-duplex PCIe while inter-socket transfers cross the
  slower socket link (motivates the two-phase reduction of Figure 5b).

The topology is an undirected multigraph of full-duplex links.  A directed
transfer occupies each link on its path in one direction only, so traffic
flowing in opposite directions over the same link does not contend — this
is the property the parallel-reduction scheme exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Link", "MachineTopology"]

GB = 1e9


@dataclass(frozen=True)
class Link:
    """A full-duplex link between two topology nodes.

    ``bandwidth`` is the sustained bandwidth of *one direction* in bytes/s;
    the reverse direction has the same, independent capacity.
    """

    a: str
    b: str
    bandwidth: float
    latency_s: float = 10e-6
    name: str = ""

    def endpoints(self) -> tuple[str, str]:
        """Both endpoints, in construction order."""
        return (self.a, self.b)

    def directed_key(self, src: str, dst: str) -> tuple[str, str]:
        """Canonical key for the ``src → dst`` direction of this link."""
        if {src, dst} != {self.a, self.b}:
            raise ValueError(f"({src}, {dst}) are not the endpoints of {self}")
        return (src, dst)


@dataclass
class MachineTopology:
    """Named nodes (GPUs, PCIe switches, sockets, host) joined by links."""

    nodes: list[str] = field(default_factory=list)
    links: list[Link] = field(default_factory=list)
    gpu_socket: dict = field(default_factory=dict)
    description: str = ""
    # Routes found so far, valid for the (nodes, links) they were found on.
    _routes: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _routed_on: tuple = field(default=((), ()), init=False, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def single_socket(cls, n_gpus: int, pcie_gbs: float = 12.0, host_gbs: float = 12.0) -> "MachineTopology":
        """All GPUs on one PCIe root complex (the Figure 5a assumption)."""
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        topo = cls(description=f"single-socket, {n_gpus} GPU(s)")
        topo.nodes = ["host:0", "pcie:0"] + [f"gpu:{i}" for i in range(n_gpus)]
        topo.links = [Link("host:0", "pcie:0", host_gbs * GB, name="root")]
        for i in range(n_gpus):
            topo.links.append(Link(f"gpu:{i}", "pcie:0", pcie_gbs * GB, name=f"pcie-gpu{i}"))
            topo.gpu_socket[i] = 0
        return topo

    @classmethod
    def dual_socket(
        cls,
        n_gpus: int,
        pcie_gbs: float = 12.0,
        qpi_gbs: float = 5.0,
        host_gbs: float = 12.0,
    ) -> "MachineTopology":
        """Two sockets, GPUs split evenly between them, joined by a QPI link.

        This is the machine of §5.4: "a two-socket machine with four GPUs,
        a typical configuration is that every two GPUs connect to one
        socket".  The default inter-socket bandwidth (5 GB/s) reflects the
        well-known inefficiency of peer-to-peer traffic that has to cross
        QPI, which is what makes the two-phase reduction worthwhile.
        """
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        topo = cls(description=f"dual-socket, {n_gpus} GPU(s)")
        topo.nodes = ["host:0", "host:1", "pcie:0", "pcie:1"] + [f"gpu:{i}" for i in range(n_gpus)]
        topo.links = [
            Link("host:0", "pcie:0", host_gbs * GB, name="root0"),
            Link("host:1", "pcie:1", host_gbs * GB, name="root1"),
            Link("pcie:0", "pcie:1", qpi_gbs * GB, name="qpi"),
        ]
        for i in range(n_gpus):
            socket = 0 if i < (n_gpus + 1) // 2 else 1
            topo.links.append(Link(f"gpu:{i}", f"pcie:{socket}", pcie_gbs * GB, name=f"pcie-gpu{i}"))
            topo.gpu_socket[i] = socket
        return topo

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def n_gpus(self) -> int:
        """Number of GPU nodes."""
        return len(self.gpu_socket)

    def socket_of(self, gpu_id: int) -> int:
        """Socket a GPU is attached to."""
        return self.gpu_socket[gpu_id]

    def same_socket(self, gpu_a: int, gpu_b: int) -> bool:
        """True if both GPUs hang off the same socket."""
        return self.socket_of(gpu_a) == self.socket_of(gpu_b)

    def _adjacency(self) -> dict:
        adj: dict[str, list[tuple[str, Link]]] = {n: [] for n in self.nodes}
        for link in self.links:
            adj[link.a].append((link.b, link))
            adj[link.b].append((link.a, link))
        return adj

    def path(self, src: str, dst: str) -> list[Link]:
        """Shortest path (by hop count) between two nodes, as a link list.

        Each route is searched once and then served from a cache, which
        is dropped whenever ``nodes`` or ``links`` no longer hold what
        the cached routes were found on.
        """
        if src == dst:
            return []
        shape = (tuple(self.nodes), tuple(self.links))
        if shape != self._routed_on:
            self._routes = {}
            self._routed_on = shape
        route = self._routes.get((src, dst))
        if route is None:
            route = self._routes[(src, dst)] = tuple(self._search(src, dst))
        return list(route)

    def _search(self, src: str, dst: str) -> list[Link]:
        """Breadth-first search for a fewest-hop route from ``src`` to ``dst``."""
        adj = self._adjacency()
        if src not in adj or dst not in adj:
            raise KeyError(f"unknown node in path request: {src!r} → {dst!r}")
        frontier = [src]
        came_from: dict[str, tuple[str, Link]] = {}
        visited = {src}
        while frontier:
            nxt: list[str] = []
            for node in frontier:
                for neigh, link in adj[node]:
                    if neigh in visited:
                        continue
                    visited.add(neigh)
                    came_from[neigh] = (node, link)
                    if neigh == dst:
                        links: list[Link] = []
                        cur = dst
                        while cur != src:
                            prev, lk = came_from[cur]
                            links.append(lk)
                            cur = prev
                        return list(reversed(links))
                    nxt.append(neigh)
            frontier = nxt
        raise ValueError(f"no path between {src!r} and {dst!r}")

    def gpu_path(self, gpu_a: int, gpu_b: int) -> list[Link]:
        """Path between two GPUs."""
        return self.path(f"gpu:{gpu_a}", f"gpu:{gpu_b}")

    def host_path(self, gpu_id: int) -> list[Link]:
        """Path from a GPU to the host memory of its own socket."""
        return self.path(f"gpu:{gpu_id}", f"host:{self.socket_of(gpu_id)}")

    def point_to_point_bandwidth(self, src: str, dst: str) -> float:
        """Bottleneck (min-link) bandwidth of the path ``src → dst``."""
        links = self.path(src, dst)
        if not links:
            return float("inf")
        return min(link.bandwidth for link in links)

    def gpu_bandwidth(self, gpu_a: int, gpu_b: int) -> float:
        """Bottleneck bandwidth between two GPUs."""
        return self.point_to_point_bandwidth(f"gpu:{gpu_a}", f"gpu:{gpu_b}")
