"""Static analysis for the task-graph substrate and the project itself.

Three passes, all side-effect free:

* :mod:`repro.analysis.hazards` — dataflow hazard detection over a
  :class:`~repro.core.taskgraph.TaskGraph` *before* it runs (WAW / RAW /
  WAR races, orphan objects, infeasible pins, off-topology transfers);
* :mod:`repro.analysis.verify` — replay an
  :class:`~repro.core.schedule.ExecutionTrace` against its graph and
  machine and prove the schedule respected dependencies, device
  exclusivity and link capacity;
* :mod:`repro.analysis.lint` — ``reprolint``, an AST lint encoding the
  project's own invariants (rules REP001–REP006).

``execute_graph(..., verify=True)`` runs the first two around every
execution; they are also importable standalone for tests and tools.
"""

from repro.analysis.hazards import GRAPH_RULES, Hazard, HazardError, analyze_graph, check_graph
from repro.analysis.verify import TRACE_RULES, check_trace, verify_trace

# reprolint loads on first use: ``python -m repro.analysis.lint`` imports
# this package before running the module, and importing it here as well
# would load it twice (runpy warns about exactly that).
_LINT_NAMES = frozenset({"LINT_RULES", "Finding", "lint_paths", "lint_source"})


def __getattr__(name: str):
    if name in _LINT_NAMES:
        from repro.analysis import lint

        return getattr(lint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "GRAPH_RULES",
    "TRACE_RULES",
    "LINT_RULES",
    "Hazard",
    "HazardError",
    "Finding",
    "analyze_graph",
    "check_graph",
    "verify_trace",
    "check_trace",
    "lint_paths",
    "lint_source",
]
