"""Versioned factor snapshots: the handoff between training and rollout.

A rollout needs a durable, addressable notion of "model v2";
:class:`SnapshotRegistry` provides it on top of the trainer's
:class:`~repro.core.checkpoint.CheckpointManager` file format.  Every
published version is one checkpoint file whose extras carry the fold-in
hyper-parameters and a registry marker, written with the ``protected``
flag so a trainer rotating its own checkpoints in the same directory can
never evict a published version.  Retention of old versions is the
registry's own call (``keep``), independent of the trainer's.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core.checkpoint import CheckpointManager
from repro.core.validation import MESSAGES, require

__all__ = ["Snapshot", "SnapshotRegistry"]

_MARKER = "registry_version"


@dataclass(frozen=True)
class Snapshot:
    """One published model version, ready to build a store from."""

    version: int
    x: np.ndarray
    theta: np.ndarray
    lam: float
    weighted: bool
    tag: str
    path: str

    @property
    def label(self) -> str:
        """The version string stores serve under (``"v<version>"``)."""
        return f"v{self.version}"


class SnapshotRegistry:
    """Publishes, lists, loads and prunes versioned factor snapshots.

    Parameters
    ----------
    directory:
        Where versions live (one ``cumf_iter<version>.npz`` each).  The
        directory may be shared with a trainer's checkpoints; neither
        side's retention touches the other's files.
    keep:
        How many versions to retain (oldest pruned first); ``None``
        keeps everything.
    """

    def __init__(self, directory: str | os.PathLike, keep: int | None = None):
        require(keep is None or keep >= 1, "must keep at least one version")
        self.manager = CheckpointManager(directory, keep=1)
        self.keep = keep

    @property
    def directory(self) -> str:
        """Filesystem location of the registry."""
        return self.manager.directory

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SnapshotRegistry({self.directory!r}, versions={self.versions()})"

    # ------------------------------------------------------------------ #
    # listing
    # ------------------------------------------------------------------ #
    def _is_version(self, iteration: int) -> bool:
        try:
            with np.load(self.manager._path(iteration)) as blob:
                return _MARKER in blob.files
        except (OSError, ValueError):  # pragma: no cover - benign race
            return False

    def versions(self) -> list[int]:
        """Published versions, ascending (trainer checkpoints excluded)."""
        return [it for it in self.manager.list_iterations() if self._is_version(it)]

    def latest_version(self) -> int | None:
        """Newest published version, or ``None`` for an empty registry."""
        published = self.versions()
        return published[-1] if published else None

    # ------------------------------------------------------------------ #
    # publishing
    # ------------------------------------------------------------------ #
    def publish(
        self,
        x: np.ndarray,
        theta: np.ndarray,
        *,
        lam: float = 0.05,
        weighted: bool = True,
        tag: str = "",
    ) -> int:
        """Persist a new version; returns its number.

        Version numbers strictly increase and never collide with trainer
        iterations already present in a shared directory (the next
        number is past *every* existing file).  Non-finite factors are
        refused before anything is written: a NaN or inf row would
        otherwise be served (and rolled out) as an empty ``ok`` answer.
        """
        x = np.asarray(x, dtype=np.float64)
        theta = np.asarray(theta, dtype=np.float64)
        require(np.isfinite(x).all() and np.isfinite(theta).all(), MESSAGES["factors"])
        existing = self.manager.list_iterations()
        version = existing[-1] + 1 if existing else 0
        # The manager must not rotate anything while the registry saves;
        # version retention is applied below, by the registry itself.
        self.manager.keep = len(existing) + 1
        self.manager.save(
            version,
            x,
            theta,
            lam=np.float64(lam),
            weighted=np.bool_(weighted),
            tag=np.str_(tag),
            registry_version=np.int64(version),
            protected=np.bool_(True),
        )
        self._prune_versions()
        return version

    def publish_result(self, result, tag: str = "") -> int:
        """Publish a finished :class:`~repro.core.config.FitResult`."""
        lam = result.config.lam if result.config is not None else 0.05
        return self.publish(result.x, result.theta, lam=lam, tag=tag or result.solver)

    def publish_store(self, store, tag: str = "") -> int:
        """Publish a live store's factors (fold-in rows become trained rows)."""
        return self.publish(
            store.x, store.theta, lam=store.lam, weighted=store.weighted, tag=tag
        )

    def rollback(self, version: int) -> int:
        """Re-publish an older version as the new head; returns its number.

        The roll-forward-to-the-past pattern: version numbers stay
        strictly monotonic (serving history remains auditable and a
        later roll*back of the rollback* is just another rollback), so
        reverting v1 → v0 publishes a v2 carrying v0's exact factors and
        fold-in hyper-parameters, tagged with its provenance.  Roll the
        new head out with a
        :class:`~repro.serving.lifecycle.rollout.RolloutController` (or
        :meth:`RecommenderService.rollback`, which does both).
        """
        published = self.versions()
        require(version in published, f"no version {version} in {self.directory!r}; published: {published}")
        require(version != published[-1], f"version {version} is already the latest; nothing to roll back")
        snap = self.load(version)
        return self.publish(
            snap.x,
            snap.theta,
            lam=snap.lam,
            weighted=snap.weighted,
            tag=f"rollback-of-{snap.label}",
        )

    def _prune_versions(self) -> None:
        if self.keep is None:
            return
        published = self.versions()
        for version in published[: max(0, len(published) - self.keep)]:
            try:
                os.remove(self.manager._path(version))
            except FileNotFoundError:  # pragma: no cover - benign race
                pass

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    def load(self, version: int | None = None) -> Snapshot:
        """Restore one version (default: the latest)."""
        if version is None:
            version = self.latest_version()
            require(version is not None, f"no versions published in {self.directory!r}")
        restored = self.manager.load(version)
        require(_MARKER in restored.extras, f"iteration {version} in {self.directory!r} is not a registry version")
        return Snapshot(
            version=int(restored.extras[_MARKER]),
            x=restored.x,
            theta=restored.theta,
            lam=float(restored.extras["lam"]),
            weighted=bool(restored.extras["weighted"]),
            tag=str(restored.extras["tag"]),
            path=restored.path,
        )

    def build_store(self, version: int | None = None, **store_kwargs):
        """Build a servable :class:`~repro.serving.store.FactorStore`.

        The store is stamped with the version label, so per-version
        query counts show up in traffic reports during a rollout.
        """
        from repro.serving.store import FactorStore

        snap = self.load(version)
        return FactorStore(
            snap.x,
            snap.theta,
            lam=snap.lam,
            weighted=snap.weighted,
            version=snap.label,
            **store_kwargs,
        )
