"""Declarative solver construction: names in, :class:`Solver` out.

The registry is the training-side counterpart of
:class:`~repro.serving.service.config.ServingConfig`: instead of every
experiment driver importing solver classes and hand-wiring their
constructors, a solver is requested by *name* plus uniform keyword
hyper-parameters, and the registered factory adapts them to whatever
constructor shape the implementation has:

>>> make_solver("mo", f=16, lam=0.05, iterations=10, seed=1)
>>> make_solver("ccd++", config=ALSConfig(f=16, iterations=10))
>>> make_solver({"name": "nomad", "f": 16, "iterations": 12, "workers": 30})

Every factory accepts the same surface — an optional ``config`` (any
solver family's config; common fields are mapped across, with
``iterations`` ↔ ``epochs`` translated for the SGD family), loose
hyper-parameter keywords, and the simulated-hardware keywords
(``machine`` / ``n_gpus`` / ``spec`` / ``reduction`` / ``scheduler``),
which apply to the GPU solvers and are ignored by the CPU baselines
exactly as ``CuMF(backend="mo", n_gpus=4)`` always ignored ``n_gpus``.

Registered out of the box: the three cuMF ALS levels (``base``, ``mo``,
``su``), the streaming minibatch solver (``streaming-als``) and every
baseline the paper compares against (``ccd++``,
``libmf-sgd``, ``nomad``, ``pals``, ``spark-als``).  New solvers join
with :func:`register_solver` and immediately work everywhere a name is
accepted — ``CuMF(backend=...)``, the experiment drivers, the
conformance suite and ``bench_solvers.py``.

The table is :data:`SOLVERS`, one :class:`~repro.core.registry.Registry`;
``register_solver`` / ``make_solver`` / ``get_solver_spec`` /
``solver_names`` / ``solver_catalogue`` are its bound methods.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.registry import Registry
from repro.gpu.specs import TITAN_X

__all__ = [
    "SOLVERS",
    "register_solver",
    "make_solver",
    "get_solver_spec",
    "solver_names",
    "solver_catalogue",
]

#: Every registered solver; a built solver is anything with ``fit`` and ``iterate``.
SOLVERS = Registry("solver", lambda obj: hasattr(obj, "fit") and hasattr(obj, "iterate"))
register_solver = SOLVERS.register
make_solver = SOLVERS.make
get_solver_spec = SOLVERS.get
solver_names = SOLVERS.names
solver_catalogue = SOLVERS.catalogue


# ---------------------------------------------------------------------- #
# config adaptation: any family's config + loose keywords -> the target
# family's config, with iterations <-> epochs translated.
# ---------------------------------------------------------------------- #
def _common_fields(config) -> dict:
    """The hyper-parameters every solver family shares, off any config."""
    if config is None:
        return {}
    out = {}
    for name in ("f", "lam", "seed"):
        if hasattr(config, name):
            out[name] = getattr(config, name)
    rounds = getattr(config, "iterations", None)
    if rounds is None:
        rounds = getattr(config, "epochs", None)
    if rounds is not None:
        out["iterations"] = rounds
    return out


def _als_config(config, overrides: dict):
    from repro.core.config import ALSConfig

    overrides = dict(overrides)
    if "epochs" in overrides:
        overrides.setdefault("iterations", overrides.pop("epochs"))
    if isinstance(config, ALSConfig):
        return config.with_(**overrides) if overrides else config
    return ALSConfig(**{**_common_fields(config), **overrides})


def _sgd_config(config, overrides: dict):
    from repro.baselines.sgd_hogwild import SGDConfig

    overrides = dict(overrides)
    if "iterations" in overrides:
        overrides.setdefault("epochs", overrides.pop("iterations"))
    if isinstance(config, SGDConfig):
        return replace(config, **overrides) if overrides else config
    mapped = _common_fields(config)
    if "iterations" in mapped:
        mapped["epochs"] = mapped.pop("iterations")
    return SGDConfig(**{**mapped, **overrides})


def _ccd_config(config, overrides: dict):
    from repro.baselines.ccd import CCDConfig

    overrides = dict(overrides)
    if "epochs" in overrides:
        overrides.setdefault("iterations", overrides.pop("epochs"))
    if isinstance(config, CCDConfig):
        return replace(config, **overrides) if overrides else config
    return CCDConfig(**{**_common_fields(config), **overrides})


# ---------------------------------------------------------------------- #
# factories — lazy imports keep the registry importable from anywhere.
# ---------------------------------------------------------------------- #
def _base_factory(config=None, *, machine=None, n_gpus=1, spec=TITAN_X, reduction=None, **hyper):
    from repro.core.als_base import BaseALS

    return BaseALS(_als_config(config, hyper))


def _mo_factory(config=None, *, machine=None, n_gpus=1, spec=TITAN_X, reduction=None, scheduler=None, **hyper):
    from repro.core.als_mo import MemoryOptimizedALS

    return MemoryOptimizedALS(_als_config(config, hyper), machine=machine, spec=spec, scheduler=scheduler)


def _su_factory(
    config=None,
    *,
    machine=None,
    n_gpus=4,
    spec=TITAN_X,
    reduction=None,
    q_override=None,
    force_data_parallel=False,
    scheduler=None,
    **hyper,
):
    from repro.core.als_su import ScaleUpALS

    return ScaleUpALS(
        _als_config(config, hyper),
        machine=machine,
        n_gpus=n_gpus,
        spec=spec,
        reduction=reduction,
        q_override=q_override,
        force_data_parallel=force_data_parallel,
        scheduler=scheduler,
    )


def _streaming_factory(
    config=None,
    *,
    machine=None,
    n_gpus=1,
    spec=TITAN_X,
    reduction=None,
    scheduler=None,
    n_chunks=4,
    **hyper,
):
    from repro.core.streaming import StreamingALS

    return StreamingALS(
        _als_config(config, hyper),
        machine=machine,
        n_gpus=n_gpus,
        spec=spec,
        reduction=reduction,
        scheduler=scheduler,
        n_chunks=n_chunks,
    )


def _ccd_factory(config=None, *, machine=None, n_gpus=1, spec=TITAN_X, reduction=None, **hyper):
    from repro.baselines.ccd import CCDPlusPlus

    return CCDPlusPlus(config=_ccd_config(config, hyper))


def _libmf_factory(config=None, *, machine=None, n_gpus=1, spec=TITAN_X, reduction=None, cores=30, node=None, full_scale=None, **hyper):
    from repro.baselines.sgd_hogwild import ParallelSGD

    return ParallelSGD(_sgd_config(config, hyper), cores=cores, node=node, full_scale=full_scale)


def _nomad_factory(config=None, *, machine=None, n_gpus=1, spec=TITAN_X, reduction=None, workers=30, cluster=None, full_scale=None, **hyper):
    from repro.baselines.nomad import NomadSGD

    return NomadSGD(_sgd_config(config, hyper), workers=workers, cluster=cluster, full_scale=full_scale)


def _pals_factory(config=None, *, machine=None, n_gpus=1, spec=TITAN_X, reduction=None, workers=8, **hyper):
    from repro.baselines.pals import PALS

    return PALS(_als_config(config, hyper), workers=workers)


def _spark_factory(config=None, *, machine=None, n_gpus=1, spec=TITAN_X, reduction=None, workers=50, **hyper):
    from repro.baselines.spark_als import SparkALS

    return SparkALS(_als_config(config, hyper), workers=workers)


register_solver(
    "base",
    _base_factory,
    kind="als",
    description="Algorithm 1: plain-NumPy ALS, the numerical reference",
    aliases=("base-als",),
)
register_solver(
    "mo",
    _mo_factory,
    kind="als",
    description="Algorithm 2: memory-optimized ALS on one simulated GPU",
    aliases=("mo-als",),
)
register_solver(
    "su",
    _su_factory,
    kind="als",
    description="Algorithm 3: scale-up ALS across a simulated multi-GPU machine",
    aliases=("su-als",),
)
register_solver(
    "streaming-als",
    _streaming_factory,
    kind="als",
    description="minibatch ALS over rating chunks arriving as scheduled task-graph waves",
    aliases=("streaming",),
)
register_solver(
    "ccd++",
    _ccd_factory,
    kind="ccd",
    description="CCD++ cyclic coordinate descent [32]",
    aliases=("ccd",),
)
register_solver(
    "libmf-sgd",
    _libmf_factory,
    kind="sgd",
    description="libMF-style block-partitioned parallel SGD [36]",
    aliases=("libmf", "hogwild-sgd"),
)
register_solver(
    "nomad",
    _nomad_factory,
    kind="sgd",
    description="NOMAD asynchronous column-token SGD [33]",
    aliases=("nomad-sgd",),
)
register_solver(
    "pals",
    _pals_factory,
    kind="als",
    description="PALS: row-partitioned ALS with full Θ replication [35]",
)
register_solver(
    "spark-als",
    _spark_factory,
    kind="als",
    description="SparkALS: ALS shipping per-partition Θ subsets",
    aliases=("spark",),
)
