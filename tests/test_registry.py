"""The one name → factory registry behind solvers, schedulers and routers."""

from __future__ import annotations

import pytest

from repro.core.schedule import SCHEDULERS
from repro.core.solver.registry import SOLVERS
from repro.serving.routing import ROUTERS

REGISTRIES = {"solver": (SOLVERS, "su"), "scheduler": (SCHEDULERS, "serial"), "router": (ROUTERS, "round-robin")}


@pytest.mark.parametrize("label", sorted(REGISTRIES))
def test_registry_contract(label):
    registry, builtin = REGISTRIES[label]
    assert registry.label == label

    # Bad factory keywords are a ValueError naming the entry, never a raw TypeError.
    with pytest.raises(ValueError, match=f"invalid arguments for {label} '{builtin}'"):
        registry.make(builtin, bogus=1)

    # A spec held by another registry is refused; this registry's own spec builds.
    for other, other_name in (entry for key, entry in REGISTRIES.items() if key != label):
        with pytest.raises(TypeError, match=f"cannot build a {label} from"):
            registry.make(other.get(other_name))
    assert registry.make(registry.get(builtin)) is not None

    # Names and aliases share one namespace: every clash is refused.
    spec = registry.register("contract-probe", lambda: None, description="probe", aliases=("contract-alias",))
    try:
        assert registry.get("contract-alias") is spec
        assert {"name": "contract-probe", "kind": "", "description": "probe", "aliases": ["contract-alias"]} in registry.catalogue()
        for clash, aliases in (("contract-probe", ()), ("contract-alias", ()), ("fresh", ("contract-alias",)), ("fresh", (builtin,)), (builtin, ())):
            with pytest.raises(ValueError, match=f"{label} name already registered"):
                registry.register(clash, lambda: None, aliases=aliases)
        with pytest.raises(ValueError, match=f"{label} name already registered: 'twice'"):
            registry.register("fresh", lambda: None, aliases=("twice", "twice"))
        assert "fresh" not in registry.names()
    finally:
        # unregister (here by alias) frees the name together with its aliases.
        assert registry.unregister("contract-alias") is spec
    assert "contract-probe" not in registry.names()
    for gone in ("contract-probe", "contract-alias"):
        with pytest.raises(ValueError, match=f"unknown {label} '{gone}'"):
            registry.get(gone)
    registry.register("contract-probe", lambda: None, aliases=("contract-alias",))
    registry.unregister("contract-probe")
    assert "contract-alias" not in {alias for row in registry.catalogue() for alias in row["aliases"]}
