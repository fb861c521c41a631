"""One shared vocabulary for hyper-parameter validation.

Every solver config used to police its own constructor with home-grown
``ValueError`` strings, so the same mistake — ``f=0``, a negative epoch
count, a learning rate of zero — read differently depending on which
solver rejected it.  :func:`validate_hyperparameters` is the single
gate: each config passes the fields it has, only those are checked, and
a given violation raises the *identical* message everywhere (the
conformance suite regression-tests this across ``ALSConfig``,
``SGDConfig``, CCD++ and PALS).
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "duplicate_name_error",
    "factory_arguments_error",
    "prebuilt_override_error",
    "require",
    "spec_needs_name_error",
    "unbuildable_error",
    "unknown_name_error",
    "validate_hyperparameters",
]

#: Canonical message per violation; keyed by field for the docs/tests.
MESSAGES = {
    "f": "f must be positive",
    "lam": "lam must be non-negative",
    "iterations": "iterations must be non-negative",
    "epochs": "epochs must be non-negative",
    "lr": "lr must be positive",
    "lr_decay": "lr_decay must be in (0, 1]",
    "inner_sweeps": "inner_sweeps must be >= 1",
    "workers": "workers must be >= 1",
    "cores": "cores must be >= 1",
    "bin_size": "bin_size must be in [1, 1024]",
    "row_batch": "row_batch must be positive",
    "init_scale": "init_scale must be positive",
    "ratings": "ratings must be finite (no NaN or inf)",
    "factors": "factors must be finite (no NaN or inf)",
}


def unknown_name_error(kind: str, name: object, known: Iterable[str]) -> ValueError:
    """The one unknown-registry-name error.

    Every :class:`~repro.core.registry.Registry` — solvers, schedulers and
    routers — raises it on an unrecognised name with its own label, so
    callers can match ``unknown solver`` / ``unknown router`` /
    ``unknown scheduler``::

        unknown solver 'mos'; choose from ['base', 'ccd++', ...]
        unknown router 'rand'; choose from ['least-loaded', 'll', ...]
        unknown scheduler 'hefty'; choose from ['eager', 'eager-greedy', ...]
    """
    return ValueError(f"unknown {kind} {name!r}; choose from {sorted(known)}")


def require(condition: object, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` is truthy.

    The one-line gate config and registry modules use for their ad-hoc
    invariants (``replicas must be at least 1``, ``max_rows must be
    positive``, ...).  Routing every such check through this helper keeps
    the project invariant — config/registry ``ValueError``s come from
    :mod:`repro.core.validation` — mechanically checkable; ``reprolint``
    rule REP003 enforces it.
    """
    if not condition:
        raise ValueError(message)


def duplicate_name_error(kind: str, label: object) -> ValueError:
    """The one duplicate-registration error, identical for every registry."""
    return ValueError(f"{kind} name already registered: {label!r}")


def spec_needs_name_error(kind: str) -> ValueError:
    """The one missing-'name'-key error for declarative spec dicts."""
    return ValueError(f"a {kind} spec dict needs a 'name' key")


def prebuilt_override_error(kind: str) -> ValueError:
    """The one overrides-refused error for already-built instances."""
    return ValueError(f"cannot apply overrides to an already-built {kind}")


def factory_arguments_error(kind: str, name: str, exc: Exception) -> ValueError:
    """The one bad-factory-keywords error, wrapping the factory's TypeError."""
    return ValueError(f"invalid arguments for {kind} {name!r}: {exc}")


def unbuildable_error(kind: str, obj: object) -> TypeError:
    """The one error for an object a registry cannot build a component from."""
    return TypeError(f"cannot build a {kind} from {type(obj).__name__}")


def validate_hyperparameters(
    *,
    f: int | None = None,
    lam: float | None = None,
    iterations: int | None = None,
    epochs: int | None = None,
    lr: float | None = None,
    lr_decay: float | None = None,
    inner_sweeps: int | None = None,
    workers: int | None = None,
    cores: int | None = None,
    bin_size: int | None = None,
    row_batch: int | None = None,
    init_scale: float | None = None,
) -> None:
    """Check only the fields that were passed; raise the canonical message.

    Keeping every solver config on this one helper means ``ALSConfig(f=0)``,
    ``SGDConfig(f=0)`` and ``CCDPlusPlus(f=0)`` all fail with the same
    ``ValueError("f must be positive")`` — callers can match on the message
    without knowing which solver family rejected the value.
    """
    if f is not None and f <= 0:
        raise ValueError(MESSAGES["f"])
    if lam is not None and lam < 0:
        raise ValueError(MESSAGES["lam"])
    if iterations is not None and iterations < 0:
        raise ValueError(MESSAGES["iterations"])
    if epochs is not None and epochs < 0:
        raise ValueError(MESSAGES["epochs"])
    if lr is not None and lr <= 0:
        raise ValueError(MESSAGES["lr"])
    if lr_decay is not None and not 0 < lr_decay <= 1:
        raise ValueError(MESSAGES["lr_decay"])
    if inner_sweeps is not None and inner_sweeps < 1:
        raise ValueError(MESSAGES["inner_sweeps"])
    if workers is not None and workers < 1:
        raise ValueError(MESSAGES["workers"])
    if cores is not None and cores < 1:
        raise ValueError(MESSAGES["cores"])
    if bin_size is not None and not 1 <= bin_size <= 1024:
        raise ValueError(MESSAGES["bin_size"])
    if row_batch is not None and row_batch <= 0:
        raise ValueError(MESSAGES["row_batch"])
    if init_scale is not None and init_scale <= 0:
        raise ValueError(MESSAGES["init_scale"])
