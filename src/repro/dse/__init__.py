"""Automated design-space exploration (the paper's Section I use case).

:func:`explore` sweeps a cross product of design axes through the
evaluation engine; its :class:`ExplorationResult` ranks the engine's
outcome rows (one dict per legal design point) by Pareto frontier and
figure of merit.
"""

from .explorer import ExplorationResult, explore
from .space import (
    DesignCombo,
    DesignSpace,
    budgeted_combos,
    standard_transforms,
    suite_design_space,
)

__all__ = [
    "DesignCombo",
    "DesignSpace",
    "ExplorationResult",
    "budgeted_combos",
    "explore",
    "standard_transforms",
    "suite_design_space",
]
