"""reprolint: an AST lint pass encoding this project's hand-enforced invariants.

Generic linters cannot know that this repo simulates time, swaps its
observability registry, or routes registry errors through one shared
vocabulary — invariants CHANGES.md shows were policed by hand, PR after
PR.  ``reprolint`` makes them mechanical.  Eight rules:

======= ====================== ==================================================
rule    name                   invariant
======= ====================== ==================================================
REP001  wall-clock             no ``time.time()`` / ``perf_counter`` in
                               simulated-path modules — time goes through SimClock
REP002  loop-closure           no closure capturing a loop variable without
                               binding it as a default (the PR 7 ``Task.run`` bug)
REP003  raw-valueerror         config/registry modules raise through
                               ``repro.core.validation`` helpers, not bare
                               ``ValueError(...)``
REP004  module-registry-capture no module-level ``obs.get_registry()`` /
                               ``get_tracer()`` capture (stales the no-op swap)
REP005  registry-mutation      a ``Registry``'s tables (``_specs`` /
                               ``_aliases``) are only mutated by its own
                               ``register`` / ``unregister``; module registry
                               dicts (``_REGISTRY`` / ``_ALIASES``) only by
                               ``register_*`` functions in their own module
REP006  protocol-isinstance    no ``isinstance`` forks against the
                               ``Router`` protocol
REP007  global-seed            no global ``np.random.seed`` / ``random.seed``
                               seeding — solvers and traces take ``seed=``
REP008  sleep                  no ``time.sleep`` anywhere — waiting is either
                               simulated (SimClock) or event-driven
======= ====================== ==================================================

Findings can be narrowed with ``--select`` / ``--ignore`` (comma lists of
rule ids) and silenced per line with ``# reprolint: ignore[REP006]`` (or
a blanket ``# reprolint: ignore``).  Output is text (default) or
``--format json``.  Exit status is 1 when findings remain, 0 otherwise.

Run it as the ``reprolint`` console script or ``python -m
repro.analysis.lint``; CI runs ``reprolint src`` on every push.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = ["LINT_RULES", "Finding", "lint_paths", "lint_source", "main"]

#: Rule id → one-line description (the README catalogue is generated from this).
LINT_RULES = {
    "REP001": "wall-clock read in a simulated-path module; charge time through SimClock",
    "REP002": "closure captures a loop variable without binding it as a default",
    "REP003": "bare ValueError in a config/registry module; raise through repro.core.validation",
    "REP004": "module-level observability capture; call obs.get_registry()/get_tracer() at use time",
    "REP005": "registry table mutated outside Registry.register/unregister (or a module dict outside its register_* functions)",
    "REP006": "isinstance fork against a runtime protocol (Router)",
    "REP007": "global RNG seeding (np.random.seed / random.seed); pass seed= explicitly",
    "REP008": "time.sleep call; wait on the simulated clock or an event, never the host",
}

#: Module paths whose time is simulated: wall-clock reads are a bug here.
SIMULATED_PATH_PREFIXES = ("repro/gpu/", "repro/comm/", "repro/sparse/", "repro/perf/", "repro/core/")
#: ...except the session layer, which deliberately measures host wall time.
SIMULATED_PATH_EXEMPT = ("repro/core/solver/",)
#: Basenames of config/registry modules whose ValueErrors must be shared.
CONFIG_REGISTRY_BASENAMES = ("config.py", "registry.py", "routing.py", "schedule.py")
#: ...except repro.obs, a leaf layer that cannot import repro.core.validation.
CONFIG_REGISTRY_EXEMPT = ("repro/obs/", "repro/core/validation.py")

_WALL_CLOCK_ATTRS = ("time", "perf_counter", "monotonic", "process_time", "monotonic_ns", "perf_counter_ns")
_WALL_CLOCK_NAMES = ("perf_counter", "monotonic", "process_time", "monotonic_ns", "perf_counter_ns")
_OBS_CAPTURES = ("get_registry", "get_tracer")
_REGISTRY_DICTS = ("_REGISTRY", "_ALIASES")
_REGISTRY_CLASS = "Registry"
_REGISTRY_TABLES = ("_specs", "_aliases")
_REGISTRY_MUTATORS = ("update", "pop", "clear", "setdefault", "popitem")
_PROTOCOL_TYPES = ("Router",)
_REGISTER_FN = re.compile(r"^_?(un)?register")
_IGNORE_RE = re.compile(r"#\s*reprolint:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One lint finding: where it is, which rule fired, and why."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _norm(path: str) -> str:
    return Path(path).as_posix()


def _in_simulated_path(path: str) -> bool:
    norm = _norm(path)
    if any(exempt in norm for exempt in SIMULATED_PATH_EXEMPT):
        return False
    return any(prefix in norm for prefix in SIMULATED_PATH_PREFIXES)


def _in_config_registry(path: str) -> bool:
    norm = _norm(path)
    if any(exempt in norm for exempt in CONFIG_REGISTRY_EXEMPT):
        return False
    return "repro/" in norm and norm.rsplit("/", 1)[-1] in CONFIG_REGISTRY_BASENAMES


def _call_name(func: ast.expr) -> str:
    """The trailing identifier of a call target (``obs.get_registry`` → ``get_registry``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


class _Linter(ast.NodeVisitor):
    """One file's worth of rule state: loop targets, function stack, module dicts."""

    def __init__(self, path: str, tree: ast.Module):
        self.path = path
        self.findings: list[Finding] = []
        self.loop_targets: list[set[str]] = []
        self.function_stack: list[str] = []
        self.class_stack: list[str] = []
        self.simulated = _in_simulated_path(path)
        self.config_registry = _in_config_registry(path)
        self.module_registry_dicts = self._module_registry_dicts(tree)

    @staticmethod
    def _module_registry_dicts(tree: ast.Module) -> set[str]:
        """Registry dict names assigned at this module's top level."""
        names: set[str] = set()
        for stmt in tree.body:
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in _REGISTRY_DICTS:
                    names.add(target.id)
        return names

    def report(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(self.path, node.lineno, node.col_offset, rule, message))

    # -- REP001: wall-clock reads in simulated-path modules -------------- #
    def _check_wall_clock(self, node: ast.Call) -> None:
        if not self.simulated:
            return
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "time":
            if func.attr in _WALL_CLOCK_ATTRS:
                self.report("REP001", node, f"wall-clock read time.{func.attr}() in a simulated-path module; use SimClock")
        elif isinstance(func, ast.Name) and func.id in _WALL_CLOCK_NAMES:
            self.report("REP001", node, f"wall-clock read {func.id}() in a simulated-path module; use SimClock")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.simulated and node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_NAMES or alias.name == "time":
                    self.report("REP001", node, f"importing time.{alias.name} into a simulated-path module; use SimClock")
        if node.module in ("random", "numpy.random"):
            for alias in node.names:
                if alias.name == "seed":
                    self.report("REP007", node, f"importing {node.module}.seed; pass seed= to the solver/trace instead of seeding globally")
        if node.module == "time":
            for alias in node.names:
                if alias.name == "sleep":
                    self.report("REP008", node, "importing time.sleep; wait on the simulated clock or an event, never the host")
        self.generic_visit(node)

    # -- REP007/REP008: global seeding and host sleeps --------------------- #
    def _check_seed_and_sleep(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "seed":
            value = func.value
            # np.random.seed / numpy.random.seed — any `<mod>.random.seed`.
            if isinstance(value, ast.Attribute) and value.attr == "random":
                self.report("REP007", node, f"global {ast.unparse(func)}() seeding; pass seed= to the solver/trace instead")
            # stdlib random.seed.
            elif isinstance(value, ast.Name) and value.id == "random":
                self.report("REP007", node, "global random.seed() seeding; pass seed= to the solver/trace instead")
        elif func.attr == "sleep" and isinstance(func.value, ast.Name) and func.value.id == "time":
            self.report("REP008", node, "time.sleep() blocks the host; wait on the simulated clock or an event instead")

    # -- REP002: closures over loop variables ---------------------------- #
    def _check_loop_closure(self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> None:
        if not self.loop_targets:
            return
        targets = set().union(*self.loop_targets)
        args = node.args
        params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
        if args.vararg is not None:
            params.add(args.vararg.arg)
        if args.kwarg is not None:
            params.add(args.kwarg.arg)
        body = node.body if isinstance(node.body, list) else [node.body]
        stored: set[str] = set()
        loaded: set[str] = set()
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name):
                    if isinstance(sub.ctx, ast.Load):
                        loaded.add(sub.id)
                    else:
                        stored.add(sub.id)
        for name in sorted((loaded & targets) - params - stored):
            self.report(
                "REP002",
                node,
                f"closure captures loop variable {name!r}; bind it as a default "
                f"(`{name}={name}`) before handing the closure to Task.run or a callback",
            )

    # -- REP003: bare ValueError in config/registry modules --------------- #
    def visit_Raise(self, node: ast.Raise) -> None:
        if self.config_registry and isinstance(node.exc, ast.Call) and _call_name(node.exc.func) == "ValueError":
            self.report(
                "REP003",
                node,
                "bare ValueError in a config/registry module; raise through a "
                "repro.core.validation helper (require, unknown_name_error, ...)",
            )
        self.generic_visit(node)

    # -- REP004: module-level observability captures ---------------------- #
    def _check_module_capture(self, node: ast.Call) -> None:
        if self.function_stack:
            return
        if _call_name(node.func) in _OBS_CAPTURES:
            self.report(
                "REP004",
                node,
                f"module-level {_call_name(node.func)}() capture goes stale when the "
                "registry is swapped; call it inside the function that uses it",
            )

    # -- REP005: registry table mutation ---------------------------------- #
    def _registry_table_name(self, expr: ast.expr) -> str:
        if isinstance(expr, ast.Name) and expr.id in _REGISTRY_DICTS:
            return expr.id
        if isinstance(expr, ast.Attribute) and expr.attr in (*_REGISTRY_DICTS, *_REGISTRY_TABLES):
            return f"{ast.unparse(expr.value)}.{expr.attr}"
        return ""

    def _mutation_allowed(self, expr: ast.expr) -> bool:
        """Only the owner's register/unregister code may mutate a table.

        A module dict is owned by that module's ``register_*`` functions; a
        ``Registry`` table by ``self`` inside ``Registry.register`` /
        ``unregister``.
        """
        if not any(_REGISTER_FN.match(fn) for fn in self.function_stack):
            return False
        if isinstance(expr, ast.Name):
            return expr.id in self.module_registry_dicts
        return (
            isinstance(expr, ast.Attribute)
            and expr.attr in _REGISTRY_TABLES
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and self.class_stack[-1:] == [_REGISTRY_CLASS]
        )

    def _check_registry_mutation(self, target: ast.expr, node: ast.AST) -> None:
        if isinstance(target, ast.Subscript):
            self._check_registry_write(target.value, node)

    def _check_registry_write(self, expr: ast.expr, node: ast.AST) -> None:
        name = self._registry_table_name(expr)
        if name and not self._mutation_allowed(expr):
            self.report("REP005", node, f"direct mutation of registry table {name}; go through Registry.register/unregister")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_registry_mutation(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_registry_mutation(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_registry_mutation(target, node)
        self.generic_visit(node)

    # -- REP006: isinstance forks on protocols ----------------------------- #
    def _check_protocol_isinstance(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Name) and node.func.id == "isinstance" and len(node.args) == 2):
            return
        classinfo = node.args[1]
        candidates = classinfo.elts if isinstance(classinfo, ast.Tuple) else [classinfo]
        for candidate in candidates:
            name = candidate.attr if isinstance(candidate, ast.Attribute) else getattr(candidate, "id", "")
            if name in _PROTOCOL_TYPES:
                self.report(
                    "REP006",
                    node,
                    f"isinstance fork against protocol {name}; dispatch through the "
                    "protocol surface instead of special-casing implementations",
                )

    # -- dispatch ---------------------------------------------------------- #
    def visit_Call(self, node: ast.Call) -> None:
        self._check_wall_clock(node)
        self._check_module_capture(node)
        self._check_protocol_isinstance(node)
        self._check_seed_and_sleep(node)
        if isinstance(node.func, ast.Attribute) and node.func.attr in _REGISTRY_MUTATORS:
            self._check_registry_write(node.func.value, node)
        self.generic_visit(node)

    def _visit_loop(self, node: ast.For | ast.AsyncFor) -> None:
        self.loop_targets.append({n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)})
        for stmt in (*node.body, *node.orelse):
            self.visit(stmt)
        self.loop_targets.pop()
        self.visit(node.iter)

    visit_For = _visit_loop
    visit_AsyncFor = _visit_loop

    def _visit_comprehension(self, node: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp) -> None:
        targets: set[str] = set()
        for gen in node.generators:
            self.visit(gen.iter)
            targets |= {n.id for n in ast.walk(gen.target) if isinstance(n, ast.Name)}
        self.loop_targets.append(targets)
        for gen in node.generators:
            for cond in gen.ifs:
                self.visit(cond)
        if isinstance(node, ast.DictComp):
            self.visit(node.key)
            self.visit(node.value)
        else:
            self.visit(node.elt)
        self.loop_targets.pop()

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._check_loop_closure(node)
        for default in (*node.args.defaults, *(d for d in node.args.kw_defaults if d is not None)):
            self.visit(default)
        for decorator in node.decorator_list:
            self.visit(decorator)
        self.function_stack.append(node.name)
        for stmt in node.body:
            self.visit(stmt)
        self.function_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_loop_closure(node)
        self.function_stack.append("<lambda>")
        self.visit(node.body)
        self.function_stack.pop()


# ---------------------------------------------------------------------- #
# driving
# ---------------------------------------------------------------------- #
def _inline_ignores(source: str) -> dict[int, set[str] | None]:
    """Line number → ignored rule ids (``None`` means every rule)."""
    ignores: dict[int, set[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _IGNORE_RE.search(line)
        if match is None:
            continue
        if match.group(1) is None:
            ignores[lineno] = None
        else:
            ignores[lineno] = {rule.strip() for rule in match.group(1).split(",") if rule.strip()}
    return ignores


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one module's source text; returns findings (inline ignores applied)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 1, exc.offset or 0, "REP000", f"syntax error: {exc.msg}")]
    linter = _Linter(path, tree)
    linter.visit(tree)
    ignores = _inline_ignores(source)
    kept = []
    for finding in sorted(linter.findings, key=lambda f: (f.line, f.col, f.rule)):
        rules = ignores.get(finding.line, ())
        if rules is None or (rules and finding.rule in rules):
            continue
        kept.append(finding)
    return kept


def _iter_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def lint_paths(paths: list[str], select: set[str] | None = None, ignore: set[str] | None = None) -> list[Finding]:
    """Lint files/directories; ``select``/``ignore`` filter by rule id."""
    findings: list[Finding] = []
    for path in _iter_files(paths):
        findings.extend(lint_source(path.read_text(), str(path)))
    if select:
        findings = [f for f in findings if f.rule in select]
    if ignore:
        findings = [f for f in findings if f.rule not in ignore]
    return findings


def _parse_rules(raw: str | None) -> set[str] | None:
    if not raw:
        return None
    return {rule.strip().upper() for rule in raw.split(",") if rule.strip()}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(prog="reprolint", description="project-invariant lint pass (rules REP001-REP008)")
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories to lint (default: src)")
    parser.add_argument("--select", help="comma-separated rule ids to enable (default: all)")
    parser.add_argument("--ignore", help="comma-separated rule ids to disable")
    parser.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    parser.add_argument("--list-rules", action="store_true", help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, summary in LINT_RULES.items():
            print(f"{rule}  {summary}")
        return 0

    findings = lint_paths(args.paths, select=_parse_rules(args.select), ignore=_parse_rules(args.ignore))
    if args.format == "json":
        print(json.dumps([asdict(f) for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding)
        if findings:
            print(f"reprolint: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
