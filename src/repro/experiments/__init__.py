"""Experiment drivers — one per table / figure of the paper's evaluation.

Every driver returns plain data structures (lists of dicts) so that the
benchmark harness under ``benchmarks/`` can both print the regenerated
rows/series and assert the qualitative shape the paper reports; the
README's "Tests and benchmarks" section says how to regenerate them.
"""

from repro.experiments import common
from repro.experiments.figure2_scale import figure2_rows, table5_rows
from repro.experiments.table3_model import table3_rows
from repro.experiments.figure6_convergence import figure6_series
from repro.experiments.figure7_registers import figure7_series
from repro.experiments.figure8_texture import figure8_series
from repro.experiments.figure9_scaling import figure9_series
from repro.experiments.figure10_hugewiki import figure10_series
from repro.experiments.figure11_large import figure11_rows
from repro.experiments.table1_cost import table1_rows
from repro.experiments.reduction_ablation import reduction_rows

__all__ = [
    "common",
    "figure2_rows",
    "table5_rows",
    "table3_rows",
    "figure6_series",
    "figure7_series",
    "figure8_series",
    "figure9_series",
    "figure10_series",
    "figure11_rows",
    "table1_rows",
    "reduction_rows",
]
