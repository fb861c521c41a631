"""reprolint: each rule triggers and stays quiet, and src/ itself is clean."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.lint import LINT_RULES, lint_paths, lint_source, main
from repro.core.schedule import make_scheduler, register_scheduler
from repro.core.solver.registry import make_solver, register_solver
from repro.serving.routing import make_router, register_router

SRC = str(Path(__file__).resolve().parent.parent / "src")


def rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


def lint_as(source: str, path: str):
    """Lint ``source`` as if it lived at ``path`` (rule scoping is path-based)."""
    return lint_source(source, path)


class TestRuleTriggers:
    def test_rep001_wall_clock_in_simulated_path(self):
        source = "import time\n\ndef tick():\n    return time.perf_counter()\n"
        assert rules_of(lint_as(source, "src/repro/gpu/clocky.py")) == {"REP001"}
        # The same read is fine outside the simulated substrate...
        assert lint_as(source, "src/repro/serving/clocky.py") == []
        # ...and in the session layer, which measures real host time.
        assert lint_as(source, "src/repro/core/solver/session.py") == []

    def test_rep001_from_import_of_wall_clock(self):
        source = "from time import perf_counter\n"
        assert rules_of(lint_as(source, "src/repro/perf/t.py")) == {"REP001"}

    def test_rep002_loop_closure_without_default_binding(self):
        source = "def build(graph, items):\n    for start in items:\n        def run():\n            emit(start)\n        graph.append(run)\n"
        findings = lint_as(source, "src/repro/core/builder.py")
        assert rules_of(findings) == {"REP002"}
        assert "start=start" in findings[0].message

    def test_rep002_default_binding_is_clean(self):
        source = "def build(graph, items):\n    for start in items:\n        def run(start=start):\n            emit(start)\n        graph.append(run)\n"
        assert lint_as(source, "src/repro/core/builder.py") == []

    def test_rep002_lambda_capture(self):
        source = "def build(items):\n    return [lambda: item for item in items]\n"
        assert rules_of(lint_as(source, "src/repro/core/b.py")) == {"REP002"}

    def test_rep003_bare_valueerror_in_registry_module(self):
        source = "def register(name):\n    if not name:\n        raise ValueError('bad name')\n"
        assert rules_of(lint_as(source, "src/repro/widgets/registry.py")) == {"REP003"}
        # Same code in a non-registry module is out of scope...
        assert lint_as(source, "src/repro/widgets/helpers.py") == []
        # ...as is repro.obs, which cannot import repro.core.validation.
        assert lint_as(source, "src/repro/obs/registry.py") == []

    def test_rep003_validation_helpers_are_clean(self):
        source = (
            "from repro.core.validation import require, unknown_name_error\n"
            "\n"
            "def register(name):\n"
            "    require(name, 'bad name')\n"
            "    raise unknown_name_error('widget', name, ())\n"
        )
        assert lint_as(source, "src/repro/widgets/registry.py") == []

    def test_rep004_module_level_observability_capture(self):
        source = "from repro import obs\n\nREGISTRY = obs.get_registry()\n"
        assert rules_of(lint_as(source, "src/repro/serving/m.py")) == {"REP004"}

    def test_rep004_call_time_capture_is_clean(self):
        source = "from repro import obs\n\ndef record():\n    obs.get_registry().counter('hits')\n"
        assert lint_as(source, "src/repro/serving/m.py") == []

    def test_rep005_registry_dict_mutated_outside_register(self):
        source = "_REGISTRY = {}\n\ndef sneak(name, spec):\n    _REGISTRY[name] = spec\n"
        assert rules_of(lint_as(source, "src/repro/widgets/catalogue.py")) == {"REP005"}

    def test_rep005_register_function_may_mutate_its_own_dict(self):
        source = "_REGISTRY = {}\n\ndef register_widget(name, spec):\n    _REGISTRY[name] = spec\n"
        assert lint_as(source, "src/repro/widgets/catalogue.py") == []

    def test_rep005_foreign_registry_attribute_always_flagged(self):
        source = "from repro.core.solver import registry\n\ndef register_widget(name, spec):\n    registry._REGISTRY[name] = spec\n"
        assert rules_of(lint_as(source, "src/repro/widgets/catalogue.py")) == {"REP005"}

    def test_rep005_registry_tables_mutated_from_another_module(self):
        source = "from repro.core.solver.registry import SOLVERS\n\ndef sneak(name, spec):\n    SOLVERS._specs[name] = spec\n"
        assert rules_of(lint_as(source, "src/repro/widgets/catalogue.py")) == {"REP005"}
        # A register_* function elsewhere does not own another object's tables.
        for line in ("SOLVERS._specs[name] = spec", "SOLVERS._aliases.pop(name)", "del SOLVERS._aliases[name]"):
            source = f"from repro.core.solver.registry import SOLVERS\n\ndef register_widget(name, spec):\n    {line}\n"
            assert rules_of(lint_as(source, "src/repro/widgets/catalogue.py")) == {"REP005"}, line

    def test_rep005_registry_tables_owned_by_register_and_unregister(self):
        source = (
            "class Registry:\n"
            "    def register(self, name, spec):\n"
            "        self._specs[name] = spec\n"
            "        self._aliases[name] = name\n"
            "\n"
            "    def unregister(self, name):\n"
            "        del self._specs[name]\n"
            "        self._aliases.pop(name)\n"
        )
        assert lint_as(source, "src/repro/core/registry.py") == []
        # Any other method of the class, or another class, is flagged.
        sneaky = source + "\n    def clear(self):\n        self._specs.clear()\n"
        assert rules_of(lint_as(sneaky, "src/repro/core/registry.py")) == {"REP005"}
        other = source.replace("class Registry:", "class Catalogue:")
        assert rules_of(lint_as(other, "src/repro/core/registry.py")) == {"REP005"}

    def test_rep006_isinstance_fork_on_protocol(self):
        source = "def dispatch(router):\n    if isinstance(router, Router):\n        return router.select([])\n"
        assert rules_of(lint_as(source, "src/repro/serving/d.py")) == {"REP006"}

    def test_rep006_tuple_classinfo(self):
        source = "def dispatch(x):\n    return isinstance(x, (str, Router))\n"
        assert rules_of(lint_as(source, "src/repro/serving/d.py")) == {"REP006"}

    def test_rep007_global_numpy_seed(self):
        source = "import numpy as np\n\ndef setup():\n    np.random.seed(42)\n"
        assert rules_of(lint_as(source, "src/repro/experiments/e.py")) == {"REP007"}

    def test_rep007_global_stdlib_seed_and_seed_import(self):
        source = "import random\n\ndef setup():\n    random.seed(0)\n"
        assert rules_of(lint_as(source, "src/repro/experiments/e.py")) == {"REP007"}
        assert rules_of(lint_as("from numpy.random import seed\n", "src/repro/a.py")) == {"REP007"}
        assert rules_of(lint_as("from random import seed\n", "src/repro/a.py")) == {"REP007"}

    def test_rep007_explicit_generators_are_clean(self):
        source = (
            "import numpy as np\n"
            "\n"
            "def sample(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.random(3)\n"
        )
        assert lint_as(source, "src/repro/experiments/e.py") == []

    def test_rep008_time_sleep_anywhere(self):
        source = "import time\n\ndef wait():\n    time.sleep(0.1)\n"
        # "Anywhere" really is anywhere: serving is outside REP001's
        # simulated-path scope but sleeps are still flagged.
        assert rules_of(lint_as(source, "src/repro/serving/w.py")) == {"REP008"}
        assert rules_of(lint_as("from time import sleep\n", "src/repro/serving/w.py")) == {"REP008"}

    def test_rep008_wall_clock_reads_outside_sim_paths_stay_clean(self):
        source = "import time\n\ndef stamp():\n    return time.perf_counter()\n"
        assert lint_as(source, "src/repro/serving/w.py") == []

    def test_catalogue_is_complete(self):
        assert set(LINT_RULES) == {
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
            "REP006",
            "REP007",
            "REP008",
        }


class TestSuppression:
    SOURCE = "def dispatch(router):\n    if isinstance(router, Router):  # reprolint: ignore[REP006]\n        return router.select([])\n"

    def test_inline_ignore_with_rule_id(self):
        assert lint_as(self.SOURCE, "src/repro/serving/d.py") == []

    def test_inline_ignore_blanket(self):
        source = self.SOURCE.replace("ignore[REP006]", "ignore")
        assert lint_as(source, "src/repro/serving/d.py") == []

    def test_inline_ignore_of_a_different_rule_does_not_suppress(self):
        source = self.SOURCE.replace("ignore[REP006]", "ignore[REP001]")
        assert rules_of(lint_as(source, "src/repro/serving/d.py")) == {"REP006"}

    def test_select_and_ignore_filters(self, tmp_path):
        bad = tmp_path / "repro" / "gpu" / "registry.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\ndef register(t):\n    if t < 0:\n        raise ValueError('no')\n    return time.monotonic()\n")
        both = lint_paths([str(tmp_path)])
        assert rules_of(both) == {"REP001", "REP003"}
        assert rules_of(lint_paths([str(tmp_path)], select={"REP003"})) == {"REP003"}
        assert rules_of(lint_paths([str(tmp_path)], ignore={"REP003"})) == {"REP001"}


class TestCLI:
    def write_bad(self, tmp_path) -> str:
        bad = tmp_path / "repro" / "gpu" / "wall.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\ndef now():\n    return time.time()\n")
        return str(tmp_path)

    def test_exit_status_and_text_output(self, tmp_path, capsys):
        root = self.write_bad(tmp_path)
        assert main([root]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "1 finding(s)" in out
        assert main([root, "--ignore", "REP001"]) == 0

    def test_json_output(self, tmp_path, capsys):
        root = self.write_bad(tmp_path)
        assert main([root, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "REP001"
        assert payload[0]["line"] == 4

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in LINT_RULES:
            assert rule in out

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        broken = tmp_path / "repro" / "gpu" / "broken.py"
        broken.parent.mkdir(parents=True)
        broken.write_text("def oops(:\n")
        findings = lint_paths([str(tmp_path)])
        assert rules_of(findings) == {"REP000"}


class TestProjectIsClean:
    def test_src_tree_lints_clean(self):
        assert lint_paths([SRC]) == []


class TestRegistryErrorParity:
    """The three registries share one validation vocabulary (REP003's point)."""

    def test_duplicate_name_messages_match(self):
        with pytest.raises(ValueError, match="solver name already registered: 'su'"):
            register_solver("su", lambda **kw: None)
        with pytest.raises(ValueError, match="router name already registered: 'round-robin'"):
            register_router("round-robin", lambda **kw: None)
        with pytest.raises(ValueError, match="scheduler name already registered: 'serial'"):
            register_scheduler("serial", lambda **kw: None)

    def test_spec_dict_needs_name_messages_match(self):
        for maker, kind in ((make_solver, "solver"), (make_router, "router"), (make_scheduler, "scheduler")):
            with pytest.raises(ValueError, match=f"a {kind} spec dict needs a 'name' key"):
                maker({"f": 8})

    def test_prebuilt_override_messages_match(self):
        solver = make_solver("base", f=4, iterations=1)
        with pytest.raises(ValueError, match="already-built solver"):
            make_solver(solver, f=8)
        router = make_router("round-robin")
        with pytest.raises(ValueError, match="already-built router"):
            make_router(router, seed=1)
        scheduler = make_scheduler("serial")
        with pytest.raises(ValueError, match="already-built scheduler"):
            make_scheduler(scheduler, window=2)
