"""Query-traffic simulation against a :class:`~repro.serving.cluster.ServingCluster`.

The serving tier is driven the way an online recommender actually sees
load: requests arrive as a Poisson process (optionally with bursts), are
coalesced into batched windows — a window dispatches when it is full or
when its collection deadline passes, whichever comes first, the same
policy a batched-window cache/ANN scheduler uses — and each batch is
served by one :meth:`FactorStore.recommend_batch` call on the replica
the cluster's router picks.  Time is the simulated-seconds timeline:
arrivals come from the trace, service times from the replica's
per-device kernel estimates, so the report shows the
throughput/latency trade-off of the batching window on the simulated
hardware.

Traces may additionally be *tenant-labelled* (``QueryTrace.tenants``,
built with :meth:`QueryTrace.multi_tenant` / :meth:`QueryTrace.merge`).
Every replay runs the same loop: admission, window fill, overload
action, grouped dispatch.  When the simulator is also given a
:class:`~repro.serving.tenancy.TenantPolicyTable`, each tenant is its own
flow: per-tenant token buckets enforce rate caps, a start-time
weighted-fair-queueing clock orders dispatch so backlogged tenants share
capacity by weight, and overload is *shed* (deadline blown, cap
exceeded, queue overflow) or *degraded* (reduced-``k``) per policy
instead of queueing unboundedly.  Outcomes land in
:class:`TrafficReport.per_tenant` as one
:class:`~repro.serving.tenancy.TenantReport` per tenant.  Without a
policy table (or without labels) the whole trace is one default flow
under the trivial policy — plain FIFO windows — and labels only feed
the per-tenant report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

import repro.obs as obs
from repro.datasets.synthetic import powerlaw_weights
from repro.obs.stats import event_window_p95, percentile_summary, utilization
from repro.serving.tenancy import (
    DEFAULT_TENANT,
    STATUS_DEGRADED,
    STATUS_DROPPED,
    STATUS_OK,
    STATUS_SHED_CAP,
    STATUS_SHED_DEADLINE,
    STATUS_SHED_QUEUE,
    TenantPolicy,
    TenantPolicyTable,
    TenantScheduler,
    build_tenant_reports,
)
from repro.sparse.csr import CSRMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, hints only
    from repro.serving.cluster import ServingCluster

__all__ = ["LifecycleEvent", "QueryTrace", "RequestSimulator", "TrafficReport"]


@dataclass(frozen=True)
class LifecycleEvent:
    """A model-lifecycle action scheduled on the simulated timeline.

    ``action`` runs (once) when the replay clock passes ``time`` — e.g.
    drain a replica, swap its snapshot, return it to rotation.  Events
    fire between batch dispatches at arrival-time granularity; events
    scheduled past the last arrival are applied when the trace ends, so
    a rollout always completes.  Build rollout event lists with
    :meth:`~repro.serving.lifecycle.RolloutController.plan_events`.
    """

    time: float
    action: Callable[[], None]
    label: str = ""

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("event time must be non-negative")
        if not callable(self.action):
            raise ValueError("event action must be callable")


@dataclass(frozen=True)
class QueryTrace:
    """A pre-generated stream of queries: arrival times plus user ids.

    ``tenants`` optionally labels every query with the tenant that sent
    it; unlabelled traces behave exactly as before.  Single-tenant
    streams come from :meth:`poisson`/:meth:`bursty` with ``tenant=...``,
    mixed workloads from :meth:`multi_tenant` or by :meth:`merge`-ing
    per-tenant streams (e.g. a bursty aggressor over a steady baseline).
    """

    arrivals: np.ndarray
    users: np.ndarray
    label: str = "trace"
    tenants: np.ndarray | None = None

    def __post_init__(self) -> None:
        arrivals = np.asarray(self.arrivals, dtype=np.float64)
        users = np.asarray(self.users, dtype=np.int64)
        if arrivals.ndim != 1 or arrivals.shape != users.shape:
            raise ValueError("arrivals and users must be aligned 1-D arrays")
        if arrivals.size and np.any(np.diff(arrivals) < 0):
            raise ValueError("arrivals must be non-decreasing")
        object.__setattr__(self, "arrivals", arrivals)
        object.__setattr__(self, "users", users)
        if self.tenants is not None:
            tenants = np.asarray(self.tenants)
            if tenants.dtype.kind != "U":
                tenants = tenants.astype(np.str_)
            if tenants.shape != arrivals.shape:
                raise ValueError("tenants must align with arrivals")
            object.__setattr__(self, "tenants", tenants)

    @property
    def n_requests(self) -> int:
        """Number of queries in the trace."""
        return int(self.arrivals.size)

    @property
    def duration(self) -> float:
        """Time of the last arrival."""
        return float(self.arrivals[-1]) if self.arrivals.size else 0.0

    # ------------------------------------------------------------------ #
    @staticmethod
    def _sample_users(
        n_requests: int, n_users: int, rng: np.random.Generator, user_exponent: float
    ) -> np.ndarray:
        weights = powerlaw_weights(n_users, user_exponent, rng)
        return rng.choice(n_users, size=n_requests, p=weights).astype(np.int64)

    @classmethod
    def poisson(
        cls,
        n_requests: int,
        rate_qps: float,
        n_users: int,
        seed: int = 0,
        user_exponent: float = 0.8,
        tenant: str | None = None,
    ) -> "QueryTrace":
        """Poisson arrivals at ``rate_qps`` with power-law user popularity."""
        if n_requests <= 0 or rate_qps <= 0 or n_users <= 0:
            raise ValueError("n_requests, rate_qps and n_users must be positive")
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(rng.exponential(1.0 / rate_qps, size=n_requests))
        users = cls._sample_users(n_requests, n_users, rng, user_exponent)
        tenants = None if tenant is None else np.full(n_requests, tenant)
        return cls(arrivals, users, label=f"poisson@{rate_qps:g}qps", tenants=tenants)

    @classmethod
    def bursty(
        cls,
        n_requests: int,
        base_qps: float,
        burst_qps: float,
        n_users: int,
        burst_every_s: float = 1.0,
        burst_len_s: float = 0.2,
        seed: int = 0,
        user_exponent: float = 0.8,
        tenant: str | None = None,
    ) -> "QueryTrace":
        """On/off traffic: ``base_qps`` with periodic bursts of ``burst_qps``."""
        if min(n_requests, base_qps, burst_qps, n_users) <= 0:
            raise ValueError("n_requests, rates and n_users must be positive")
        if burst_len_s <= 0 or burst_every_s <= burst_len_s:
            raise ValueError("need 0 < burst_len_s < burst_every_s")
        rng = np.random.default_rng(seed)
        arrivals = np.empty(n_requests, dtype=np.float64)
        quiet_len = burst_every_s - burst_len_s
        # Piecewise-constant-rate Poisson process: draw each gap at the rate
        # of the regime the clock is in; a gap that would cross the regime
        # boundary is discarded and re-drawn from the boundary at the new
        # rate (valid by memorylessness).  Deciding the rate once from the
        # *previous* arrival time would sample every boundary-crossing gap
        # at the wrong rate — quiet-rate draws could leap over entire
        # bursts.  The clock is a (period, in-period offset) pair rather
        # than one float so regime boundaries stay exact.
        period = 0
        offset = 0.0
        for i in range(n_requests):
            while True:
                in_burst = offset >= quiet_len
                rate = burst_qps if in_burst else base_qps
                limit = burst_every_s if in_burst else quiet_len
                gap = rng.exponential(1.0 / rate)
                if offset + gap < limit:
                    offset += gap
                    break
                if in_burst:
                    period += 1
                    offset = 0.0
                else:
                    offset = quiet_len
            arrivals[i] = period * burst_every_s + offset
        users = cls._sample_users(n_requests, n_users, rng, user_exponent)
        tenants = None if tenant is None else np.full(n_requests, tenant)
        return cls(arrivals, users, label=f"bursty@{base_qps:g}/{burst_qps:g}qps", tenants=tenants)

    @classmethod
    def merge(cls, *traces: "QueryTrace", label: str = "merged") -> "QueryTrace":
        """Interleave traces by arrival time into one tenant-labelled stream.

        Queries from unlabelled input traces get the ``"default"``
        tenant; the stable sort keeps same-instant arrivals in input
        order, so merged replays are deterministic.
        """
        if not traces:
            raise ValueError("merge needs at least one trace")
        arrivals = np.concatenate([t.arrivals for t in traces])
        users = np.concatenate([t.users for t in traces])
        tenants = np.concatenate(
            [
                t.tenants if t.tenants is not None else np.full(t.n_requests, DEFAULT_TENANT)
                for t in traces
            ]
        )
        order = np.argsort(arrivals, kind="stable")
        return cls(arrivals[order], users[order], label=label, tenants=tenants[order])

    @classmethod
    def multi_tenant(
        cls,
        rates_qps: Mapping[str, float],
        duration_s: float,
        n_users: int,
        seed: int = 0,
        user_exponent: float = 0.8,
    ) -> "QueryTrace":
        """Independent per-tenant Poisson streams over ``duration_s``, merged.

        ``rates_qps`` maps tenant name to offered load; each tenant gets
        its own RNG stream (derived from ``seed``), so adding a tenant
        does not perturb the others' arrivals.
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not rates_qps:
            raise ValueError("rates_qps must name at least one tenant")
        streams = []
        for offset, (tenant, rate) in enumerate(sorted(rates_qps.items())):
            if rate <= 0:
                raise ValueError(f"rate for tenant {tenant!r} must be positive")
            rng = np.random.default_rng(seed + offset)
            # Draw past the horizon, then truncate: 1.5x the expected
            # count (plus slack) makes undershoot vanishingly unlikely.
            n_draw = int(rate * duration_s * 1.5) + 16
            arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n_draw))
            arrivals = arrivals[arrivals <= duration_s]
            users = cls._sample_users(arrivals.size, n_users, rng, user_exponent)
            streams.append(cls(arrivals, users, label=tenant, tenants=np.full(arrivals.size, tenant)))
        rates = "/".join(f"{rates_qps[name]:g}" for name in sorted(rates_qps))
        return cls.merge(*streams, label=f"multi-tenant@{rates}qps")


@dataclass(frozen=True)
class TrafficReport:
    """Outcome of replaying one trace through a serving cluster.

    The per-replica fields merge the replicas' timelines: one query
    count, busy time and utilization (busy / makespan) per replica, plus
    the name of the routing policy used (also for a one-replica cluster).

    When the replay carried :class:`LifecycleEvent` s (e.g. a rolling
    snapshot swap), ``per_version_queries`` counts the queries each model
    version answered, ``n_dropped`` counts queries that arrived while no
    replica was in rotation (zero for a well-planned rollout), and
    ``window_p95_s`` is the latency p95 of the queries that arrived
    inside the event window — the rollout-degradation figure to compare
    against the steady-state p95.

    Tenant-labelled replays additionally fill ``per_tenant`` (one
    :class:`~repro.serving.tenancy.TenantReport` per tenant) and the
    ``n_shed`` / ``n_degraded`` totals; aggregate percentiles and
    throughput then cover *served* queries only, since a shed request
    never consumed serving capacity.

    When the replicas are tiered cache fronts
    (:class:`~repro.serving.cache.tiered.TieredFactorStore`), ``cache``
    holds the cache counters *accrued during this replay* summed over
    the replicas (hits/misses/promotions/..., with ``hit_rate``
    recomputed from the deltas); it stays empty for plain stores.
    """

    label: str
    n_requests: int
    n_batches: int
    mean_batch_size: float
    makespan_s: float
    throughput_qps: float
    service_seconds: float
    latency_p50_s: float
    latency_p95_s: float
    latency_max_s: float
    wall_seconds: float
    n_replicas: int = 1
    router: str = ""
    per_replica_queries: tuple = ()
    per_replica_busy_s: tuple = ()
    per_replica_utilization: tuple = ()
    per_version_queries: dict = field(default_factory=dict)
    n_dropped: int = 0
    n_events: int = 0
    window_queries: int = 0
    window_p95_s: float = 0.0
    per_tenant: dict = field(default_factory=dict)
    n_shed: int = 0
    n_degraded: int = 0
    cache: dict = field(default_factory=dict)

    def summary(self) -> str:
        """Multi-line human-readable report."""
        text = (
            f"trace {self.label}: {self.n_requests} queries in {self.n_batches} batches "
            f"(mean {self.mean_batch_size:.1f}/batch)\n"
            f"  simulated throughput {self.throughput_qps:,.0f} qps over {self.makespan_s:.4f} s "
            f"(service {self.service_seconds:.4f} s)\n"
            f"  simulated latency p50 {self.latency_p50_s * 1e3:.2f} ms, "
            f"p95 {self.latency_p95_s * 1e3:.2f} ms, max {self.latency_max_s * 1e3:.2f} ms\n"
            f"  host wall time {self.wall_seconds:.3f} s"
        )
        if self.n_replicas > 1:
            per_replica = ", ".join(
                f"r{idx}: {queries}q/{util:.0%}"
                for idx, (queries, util) in enumerate(
                    zip(self.per_replica_queries, self.per_replica_utilization)
                )
            )
            text += f"\n  {self.n_replicas} replicas via {self.router}: {per_replica}"
        if self.n_events:
            versions = ", ".join(
                f"{name or 'unversioned'}: {count}q"
                for name, count in sorted(self.per_version_queries.items())
            )
            text += (
                f"\n  {self.n_events} lifecycle events: {versions}; "
                f"dropped {self.n_dropped}; "
                f"window p95 {self.window_p95_s * 1e3:.2f} ms over {self.window_queries} queries"
            )
        for name in sorted(self.per_tenant):
            tenant = self.per_tenant[name]
            line = (
                f"\n  tenant {name}: {tenant.n_served}/{tenant.n_requests} served "
                f"(share {tenant.share:.0%}), p95 {tenant.latency_p95_s * 1e3:.2f} ms"
            )
            if tenant.n_shed:
                line += (
                    f", shed {tenant.n_shed} "
                    f"(cap {tenant.n_shed_cap}, deadline {tenant.n_shed_deadline}, "
                    f"queue {tenant.n_shed_queue})"
                )
            if tenant.n_degraded:
                line += f", degraded {tenant.n_degraded}"
            if tenant.deadline_ms is not None:
                line += f", SLO {tenant.deadline_ms:g} ms: {tenant.n_slo_violations} violations"
            text += line
        if self.cache:
            text += (
                f"\n  cache: hit rate {self.cache.get('hit_rate', 0.0):.0%} "
                f"({self.cache.get('hits', 0)} hits / {self.cache.get('misses', 0)} misses), "
                f"{self.cache.get('promotions', 0)} promotions in {self.cache.get('waves', 0)} waves, "
                f"{self.cache.get('stale_hits', 0)} stale"
            )
        return text


def _cache_snapshot(replicas: Sequence) -> list:
    """Per-unit cache counters before a replay (``None`` for plain stores)."""
    return [
        rep.cache_stats.as_dict() if getattr(rep, "cache_stats", None) is not None else None
        for rep in replicas
    ]


def _cache_delta(replicas: Sequence, before: list) -> dict:
    """Cache counters accrued since ``before``, summed over the units.

    Replays read *deltas*, not the raw counters, for the same reason
    service time does: on a long-lived store the cache may already have
    history from earlier traffic.
    """
    agg: dict = {}
    found = False
    for rep, snap in zip(replicas, before):
        stats = getattr(rep, "cache_stats", None)
        if stats is None:
            continue
        found = True
        after = stats.as_dict()
        base = snap if snap is not None else {}
        for key, value in after.items():
            if key == "hit_rate":
                continue
            agg[key] = agg.get(key, 0) + value - base.get(key, 0)
    if not found:
        return {}
    total = agg.get("hits", 0) + agg.get("misses", 0)
    agg["hit_rate"] = agg.get("hits", 0) / total if total else 0.0
    return agg


def _publish_report(report: TrafficReport, served: np.ndarray, tenants: np.ndarray | None) -> None:
    """Stream a finished replay's aggregates into the active registry.

    Served latencies land in the same per-tenant ``serve.latency_s``
    histograms the facade data plane feeds, so one Prometheus export
    covers interactive calls and replays alike; headline aggregates
    become gauges a dashboard (or a future autoscaler) reads directly.
    """
    registry = obs.get_registry()
    if tenants is None:
        registry.histogram("serve.latency_s", tenant="default").observe_many(served)
    else:
        for tenant in np.unique(tenants):
            registry.histogram("serve.latency_s", tenant=str(tenant)).observe_many(
                served[tenants == tenant]
            )
    registry.counter("serve.replayed").inc(report.n_requests)
    if report.n_shed:
        registry.counter("serve.shed").inc(report.n_shed)
    if report.n_dropped:
        registry.counter("serve.dropped").inc(report.n_dropped)
    registry.gauge("serve.latency_p95_s").set(report.latency_p95_s)
    if report.makespan_s > 0:
        registry.gauge("serve.throughput_qps").set(report.throughput_qps)
    for r, util in enumerate(report.per_replica_utilization):
        registry.gauge("serve.utilization", replica=f"replica:{r}").set(util)


class _Flow:
    """One tenant's requests on the replay timeline.

    ``members`` lists the tenant's requests in arrival order, the first
    ``admitted`` of which have been through admission.  ``idx``/``tag``
    hold the admitted requests with their weighted-fair-queueing finish
    tags; ``[head, tail)`` is still waiting.  Within a flow the
    ``(tag, idx)`` keys increase, so merging the flows' heads by that key
    dispatches in exactly the order one global priority queue would.
    """

    __slots__ = ("name", "policy", "members", "admitted", "finish", "idx", "tag", "head", "tail")

    def __init__(self, name: str, policy: TenantPolicy, members: np.ndarray):
        self.name = name
        self.policy = policy
        self.members = members
        self.admitted = 0
        self.finish = 0.0
        self.idx = np.empty(members.size, dtype=np.intp)
        self.tag = np.empty(members.size, dtype=np.float64)
        self.head = self.tail = 0

    @property
    def backlog(self) -> int:
        return self.tail - self.head

    def key(self) -> tuple:
        """Dispatch key of the flow's oldest waiting request."""
        return self.tag[self.head], self.idx[self.head]

    def enqueue(self, ids: np.ndarray, virtual: float) -> None:
        """Stamp and queue admitted requests (see :meth:`TenantScheduler.stamp`).

        Each tag is the previous one plus ``1 / weight``, starting from
        the later of the virtual clock and the flow's last finish; the
        sequential cumsum yields the same floats as stamping one by one.
        """
        steps = np.full(ids.size + 1, 1.0 / self.policy.weight)
        steps[0] = max(virtual, self.finish)
        end = self.tail + ids.size
        self.idx[self.tail : end] = ids
        self.tag[self.tail : end] = np.cumsum(steps)[1:]
        self.tail = end
        self.finish = float(self.tag[end - 1])


class RequestSimulator:
    """Replays a :class:`QueryTrace` through a serving cluster in batched windows.

    Parameters
    ----------
    store:
        The :class:`~repro.serving.cluster.ServingCluster` to drive; a
        lone store is replayed as ``ServingCluster([store])``.  The
        simulator keeps one server-free timeline per replica, offers the
        cluster's routing policy the outstanding work of the replicas in
        rotation (``active_indices`` / ``route_among``), and reports
        per-replica query counts and utilization.
    k:
        Top-k size of every query.
    exclude:
        Optional seen-item matrix applied to every query.
    max_batch:
        A window dispatches as soon as it holds this many requests.
    window_s:
        A window also dispatches once this much (simulated) time passed
        since its first request arrived — the latency/throughput knob.
    policies:
        Optional tenant policy table (anything
        :meth:`~repro.serving.tenancy.TenantPolicyTable.coerce` accepts).
        Combined with a tenant-labelled trace it makes every tenant a
        flow of its own: token-bucket caps, WFQ dispatch order,
        deadline shedding and reduced-``k`` degradation.  ``None`` (or
        an unlabelled trace) replays one default flow in arrival order.
    max_pending:
        Bound on the admitted-but-undispatched queue.  On overflow the
        lowest-priority tenant's newest request is shed (typed ``shed``
        outcome) — the backpressure that keeps an overloaded replay
        from queueing unboundedly.
    """

    def __init__(
        self,
        store: "ServingCluster",
        k: int = 10,
        exclude: CSRMatrix | None = None,
        max_batch: int = 256,
        window_s: float = 0.02,
        policies: TenantPolicyTable | None = None,
        max_pending: int | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if window_s < 0:
            raise ValueError("window_s must be non-negative")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.store = store
        self.k = k
        self.exclude = exclude
        self.max_batch = max_batch
        self.window_s = window_s
        self.policies = TenantPolicyTable.coerce(policies)
        self.max_pending = max_pending

    def run(self, trace: QueryTrace, events: Sequence[LifecycleEvent] = ()) -> TrafficReport:
        """Serve every query in the trace; returns the traffic report.

        ``events`` schedules lifecycle actions (drain / snapshot swap /
        restore, see :class:`LifecycleEvent`) on the replay timeline:
        each fires once, when the clock reaches the next arrival at or
        past its time, and routing only considers replicas that are in
        rotation afterwards.  Should every replica be drained at once,
        the replay fast-forwards to the next event; with none left the
        remaining queries are *dropped* and counted in the report.
        Events scheduled past the last arrival fire when the trace ends.

        Each window runs four steps.  *Admission*: arrivals up to the
        window's close pass their tenant's token bucket (fail → ``shed``,
        or flagged degraded when the policy has a ``degrade_k``) and
        queue-length limit, then join their flow with a WFQ finish tag.
        *Window fill*: the flows' heads merge in tag order up to
        ``max_batch`` — a single flow is plain FIFO.  *Overload action*:
        a request whose queueing delay exceeds its deadline is shed;
        past ``degrade_after`` of it, it is served at reduced ``k``.
        *Grouped dispatch*: the window is served as one batch per
        effective ``k`` (full ``k`` first) on the routed replica.
        """
        backend = self.store
        replicas = list(backend.serving_units())
        backend.reset_routing()
        n_replicas = len(replicas)
        cache_before = _cache_snapshot(replicas)
        arrivals, users = trace.arrivals, trace.users
        n = trace.n_requests
        # Labels schedule only together with a policy table; otherwise the
        # trace is one default flow and labels feed the report alone.
        table = self.policies if trace.tenants is not None else None
        if table is None:
            flows = [_Flow(DEFAULT_TENANT, TenantPolicy(DEFAULT_TENANT), np.arange(n))]
            codes = np.zeros(n, dtype=np.intp)
        else:
            names, codes = np.unique(trace.tenants, return_inverse=True)
            flows = [
                _Flow(str(name), table.policy_for(str(name)), np.flatnonzero(codes == code))
                for code, name in enumerate(names)
            ]
        scheduler = TenantScheduler(table if table is not None else TenantPolicyTable())
        reduced_k = np.array([min(self.k, flow.policy.degrade_k or self.k) for flow in flows])
        pending = sorted(events, key=lambda event: event.time)
        next_event = 0
        status = np.zeros(n, dtype=np.int8)
        degraded = np.zeros(n, dtype=bool)
        latencies = np.zeros(n, dtype=np.float64)
        server_free = [0.0] * n_replicas
        replica_busy = [0.0] * n_replicas
        replica_queries = [0] * n_replicas
        version_queries: dict[str, int] = {}
        service_total = 0.0
        n_batches = 0
        virtual = 0.0  # WFQ virtual clock
        a = 0  # next arrival not yet through admission
        obs_on = obs.enabled()
        tracer = obs.get_tracer()
        wall_start = time.perf_counter()

        def fire(until: float) -> bool:
            """Apply the lifecycle events the clock has reached."""
            nonlocal next_event
            first = next_event
            while next_event < len(pending) and pending[next_event].time <= until:
                pending[next_event].action()
                next_event += 1
            return next_event > first

        def admit(flow: _Flow, ids: np.ndarray) -> np.ndarray:
            """Pass arrivals through the flow's queue limit and token bucket."""
            policy = flow.policy
            if policy.rate_cap_qps is None and policy.queue_limit is None:
                return ids
            kept = []
            for r in ids.tolist():
                if policy.queue_limit is not None and flow.backlog + len(kept) >= policy.queue_limit:
                    status[r] = STATUS_SHED_QUEUE
                    continue
                if not scheduler.try_acquire(flow.name, float(arrivals[r])):
                    if policy.degrade_k is None:
                        status[r] = STATUS_SHED_CAP
                        continue
                    degraded[r] = True
                kept.append(r)
            return np.array(kept, dtype=np.intp)

        while True:
            # The next window starts at the earliest unresolved request:
            # a backlogged admitted one, else the next arrival.
            heads = [flow.idx[flow.head] for flow in flows if flow.backlog]
            if heads:
                t0 = float(arrivals[min(heads)])
            elif a < n:
                t0 = float(arrivals[a])
            else:
                break
            fire(t0)
            active = backend.active_indices()
            # Nothing in rotation: fast-forward to the event that will
            # change that, or drop everything still unresolved.
            while not active and next_event < len(pending):
                pending[next_event].action()
                next_event += 1
                active = backend.active_indices()
            if not active:
                break
            # The window closes at its deadline or at the first server
            # availability, whichever is later.
            free_min = min(server_free[r] for r in active)
            horizon = max(t0 + self.window_s, free_min)
            # Admission.  Cap overflow sheds on the spot (or marks for
            # degraded service), so a tenant hammering past its cap never
            # occupies queue space; a full flow buffer (``queue_limit``)
            # tail-drops before stamping, which keeps a flooding tenant's
            # finish tags near the virtual clock.
            cutoff = int(np.searchsorted(arrivals, horizon, side="right"))
            if cutoff > a:
                for flow in flows:
                    stop = int(np.searchsorted(flow.members, cutoff))
                    ids = admit(flow, flow.members[flow.admitted : stop])
                    flow.admitted = stop
                    if ids.size:
                        flow.enqueue(ids, virtual)
                a = cutoff
            # Backpressure: evict the lowest-priority tenant's newest.
            excess = sum(flow.backlog for flow in flows) - self.max_pending if self.max_pending else 0
            while excess > 0:
                victim = min((f for f in flows if f.backlog), key=lambda f: (f.policy.priority, f.name))
                drop = min(excess, victim.backlog)
                victim.tail -= drop
                status[victim.idx[victim.tail : victim.tail + drop]] = STATUS_SHED_QUEUE
                excess -= drop
            # Window fill: only requests that arrived by the window's close
            # are eligible (after a replica rejoins the rotation the close
            # can fall before requests admitted earlier).  Take runs from
            # the flow with the smallest head key until another flow's
            # head comes first, applying each request's overload action at
            # the moment it would dispatch.
            starts = [flow.head for flow in flows]
            runs: list[np.ndarray] = []
            room = self.max_batch
            live = [flow for flow in flows if flow.backlog and flow.idx[flow.head] < cutoff]
            while live and room:
                flow = min(live, key=_Flow.key)
                head = flow.head
                ready = flow.tail
                if flow.idx[ready - 1] >= cutoff:
                    ready = head + int(np.searchsorted(flow.idx[head:ready], cutoff))
                stop = ready
                rivals = [f.key() for f in live if f is not flow]
                if rivals:
                    tag, idx = min(rivals)
                    stop = head + int(np.searchsorted(flow.tag[head:ready], tag))
                    while stop < ready and flow.tag[stop] == tag and flow.idx[stop] < idx:
                        stop += 1
                if flow.policy.deadline_ms is None:
                    flow.head = min(stop, head + room)
                    run = flow.idx[head : flow.head]
                else:
                    kept = []
                    while flow.head < stop and len(kept) < room:
                        r = int(flow.idx[flow.head])
                        flow.head += 1
                        action = scheduler.overload_action(flow.policy, horizon - float(arrivals[r]))
                        if action == "shed":
                            status[r] = STATUS_SHED_DEADLINE
                            continue
                        if action == "degraded":
                            degraded[r] = True
                        kept.append(r)
                    run = np.array(kept, dtype=np.intp)
                runs.append(run)
                room -= run.size
                virtual = max(virtual, float(flow.tag[flow.head - 1]))
                if flow.head == ready:
                    live.remove(flow)
            if room == self.max_batch:
                continue  # whole window shed; move to the next one
            ids = np.concatenate(runs)
            if not room:
                dispatch = max(float(arrivals[ids].max()), free_min)
            else:
                dispatch = horizon
            # Events due before the dispatch moment take effect now, so a
            # replica drained while the window was collecting is not
            # routed to.  If the rotation emptied, the window's picks go
            # back to the head of their flows.
            if fire(dispatch):
                active = backend.active_indices()
                if not active:
                    for flow, start in zip(flows, starts):
                        keep = status[flow.idx[start : flow.head]] == STATUS_DROPPED
                        head = flow.head - int(keep.sum())
                        flow.tag[head : flow.head] = flow.tag[start : flow.head][keep]
                        flow.idx[head : flow.head] = flow.idx[start : flow.head][keep]
                        flow.head = head
                    continue
            # Route on outstanding work at dispatch time; a load-blind
            # policy may pick a replica that is still busy, in which case
            # the batch queues behind it (that queueing delay is exactly
            # what separates the routing policies).
            loads = [max(0.0, server_free[r] - dispatch) for r in active]
            choice = active[backend.route_among(loads)]
            replica = replicas[choice]
            version = replica.version
            done = max(dispatch, server_free[choice])
            groups = [(self.k, ids)]
            if degraded[ids].any():
                k_of = np.where(degraded[ids], reduced_k[codes[ids]], self.k)
                groups = [(k_eff, ids[k_of == k_eff]) for k_eff in np.unique(k_of)[::-1].tolist()]
            for k_eff, members in groups:
                before = replica.stats.simulated_seconds
                replica.recommend_batch(users[members], k=k_eff, exclude=self.exclude)
                service = replica.stats.simulated_seconds - before
                done += service
                latencies[members] = done - arrivals[members]
                status[members] = STATUS_OK if k_eff == self.k else STATUS_DEGRADED
                replica_busy[choice] += service
                replica_queries[choice] += members.size
                version_queries[version] = version_queries.get(version, 0) + members.size
                service_total += service
                n_batches += 1
                if obs_on:
                    tracer.add_span(
                        f"batch[{members.size}]",
                        start=done - service,
                        end=done,
                        category="request",
                        process="serve",
                        track=f"replica:{choice}",
                        n=members.size,
                        k=k_eff,
                        version=version,
                    )
            server_free[choice] = done
        # Late events (scheduled past the last arrival) still apply, so a
        # rollout that outlives the trace completes instead of wedging the
        # cluster half-drained.
        fire(float("inf"))
        wall = time.perf_counter() - wall_start
        served_mask = (status == STATUS_OK) | (status == STATUS_DEGRADED)
        n_served = int(served_mask.sum())
        served = latencies[served_mask]
        makespan = max(server_free) - float(arrivals[0]) if n_served else 0.0
        window_queries = 0
        window_p95 = 0.0
        if pending and n_served:
            lo, hi = pending[0].time, pending[-1].time
            window_queries, window_p95 = event_window_p95(arrivals, latencies, lo, hi, served_mask=served_mask)
        per_tenant: dict = {}
        if trace.tenants is not None:
            per_tenant = build_tenant_reports(trace.tenants, status, latencies, makespan, table)
        p50, p95, lat_max = percentile_summary(served)
        report = TrafficReport(
            label=trace.label,
            n_requests=n,
            n_batches=n_batches,
            mean_batch_size=n_served / n_batches if n_batches else 0.0,
            makespan_s=makespan,
            throughput_qps=n_served / makespan if makespan > 0 else float("inf"),
            service_seconds=service_total,
            latency_p50_s=p50,
            latency_p95_s=p95,
            latency_max_s=lat_max,
            wall_seconds=wall,
            n_replicas=n_replicas,
            router=backend.routing_label(),
            per_replica_queries=tuple(replica_queries),
            per_replica_busy_s=tuple(replica_busy),
            per_replica_utilization=utilization(replica_busy, makespan),
            per_version_queries=version_queries,
            n_dropped=int((status == STATUS_DROPPED).sum()),
            n_events=len(pending),
            window_queries=window_queries,
            window_p95_s=window_p95,
            per_tenant=per_tenant,
            n_shed=int(np.isin(status, (STATUS_SHED_CAP, STATUS_SHED_DEADLINE, STATUS_SHED_QUEUE)).sum()),
            n_degraded=int((status == STATUS_DEGRADED).sum()),
            cache=_cache_delta(replicas, cache_before),
        )
        if obs_on:
            tenants = trace.tenants[served_mask] if trace.tenants is not None else None
            _publish_report(report, served, tenants)
        return report
