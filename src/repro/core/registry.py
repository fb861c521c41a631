"""One name → factory registry, shared by solvers, schedulers and routers.

A component family is requested by *name* everywhere a choice is made —
``CuMF(backend="su")``, ``ScaleUpALS(scheduler="eager")``,
``ServingConfig(router="p2c")`` — and each family keeps one
:class:`Registry` instance behind its public functions:
:data:`~repro.core.solver.registry.SOLVERS`,
:data:`~repro.core.schedule.SCHEDULERS` and
:data:`~repro.serving.routing.ROUTERS`.  The instances differ only in
their label (which names the family in every error message) and in the
predicate that recognises an already-built component.

:meth:`Registry.make` accepts a registered name or alias, a
``{"name": ..., **kwargs}`` dict (explicit keywords override the
dict's), a :class:`RegistrySpec` this registry holds, or an already-built
component (returned as-is; overrides are refused because its
configuration is fixed).  Every error is raised through a
:mod:`repro.core.validation` helper, so the message for a given mistake
is the same in every family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.validation import (
    duplicate_name_error,
    factory_arguments_error,
    prebuilt_override_error,
    spec_needs_name_error,
    unbuildable_error,
    unknown_name_error,
)

__all__ = ["Registry", "RegistrySpec"]


@dataclass(frozen=True)
class RegistrySpec:
    """One registry entry: a canonical name, a factory, and metadata."""

    name: str
    factory: Callable[..., Any]
    description: str = ""
    kind: str = ""
    aliases: tuple[str, ...] = ()


class Registry:
    """Canonical names and aliases → :class:`RegistrySpec`, in one namespace.

    ``label`` names the family in error messages (``"solver"``);
    ``is_built(obj)`` says whether ``obj`` already is a built component
    that :meth:`make` passes through.
    """

    def __init__(self, label: str, is_built: Callable[[object], bool]):
        self.label = label
        self._is_built = is_built
        self._specs: dict[str, RegistrySpec] = {}
        self._aliases: dict[str, str] = {}

    def register(
        self,
        name: str,
        factory: Callable[..., Any],
        *,
        description: str = "",
        kind: str = "",
        aliases: tuple[str, ...] = (),
    ) -> RegistrySpec:
        """Add ``factory`` under ``name`` (plus ``aliases``); returns the spec.

        ``factory(**kwargs)`` builds a fresh component per call; names and
        aliases share one namespace and must be unique.
        """
        spec = RegistrySpec(name=name, factory=factory, description=description, kind=kind, aliases=tuple(aliases))
        taken = {*self._specs, *self._aliases}
        for label in (name, *spec.aliases):
            if label in taken:
                raise duplicate_name_error(self.label, label)
            taken.add(label)
        self._specs[name] = spec
        for alias in spec.aliases:
            self._aliases[alias] = name
        return spec

    def unregister(self, name: str) -> RegistrySpec:
        """Remove the entry ``name`` (or an alias) resolves to, aliases included."""
        spec = self.get(name)
        del self._specs[spec.name]
        for alias in spec.aliases:
            del self._aliases[alias]
        return spec

    def names(self) -> tuple[str, ...]:
        """Canonical names of every entry (aliases excluded)."""
        return tuple(self._specs)

    def catalogue(self) -> list[dict]:
        """One row per entry: name, kind, description, aliases."""
        return [{"name": spec.name, "kind": spec.kind, "description": spec.description, "aliases": list(spec.aliases)} for spec in self._specs.values()]

    def get(self, name: str) -> RegistrySpec:
        """Resolve a name or alias to its :class:`RegistrySpec` (ValueError if unknown)."""
        try:
            return self._specs[self._aliases.get(name, name)]
        except KeyError:
            raise unknown_name_error(self.label, name, {*self._specs, *self._aliases}) from None

    def make(self, spec, /, **kwargs):
        """Build a component from a name, dict, held spec, or built instance."""
        if isinstance(spec, str):
            return self._build(self.get(spec), kwargs)
        if isinstance(spec, dict):
            merged = dict(spec)
            try:
                name = merged.pop("name")
            except KeyError:
                raise spec_needs_name_error(self.label) from None
            merged.update(kwargs)
            return self._build(self.get(name), merged)
        if isinstance(spec, RegistrySpec) and self._specs.get(spec.name) is spec:
            return self._build(spec, kwargs)
        if self._is_built(spec):
            if kwargs:
                raise prebuilt_override_error(self.label)
            return spec
        raise unbuildable_error(self.label, spec)

    def _build(self, spec: RegistrySpec, kwargs: dict):
        """Invoke a factory, turning bad keywords into a ValueError."""
        try:
            return spec.factory(**kwargs)
        except TypeError as exc:
            raise factory_arguments_error(self.label, spec.name, exc) from None
