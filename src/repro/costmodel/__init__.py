"""Cost models used as simulators and by the expert optimizers.

- :class:`~repro.costmodel.cout.CoutCostModel` — the paper's minimal,
  logical-only simulator (§3.1): the cost of a plan is the sum of the
  estimated result sizes of all its operators.
- :class:`~repro.costmodel.expert.ExpertCostModel` — a PostgreSQL-style
  physical cost model (per-operator formulas mirroring the execution engine's
  work model but fed by *estimated* cardinalities).  It plays two roles:
  the cost model inside the expert optimizers, and the "Expert Simulator"
  ablation of Figure 10.
"""

from repro.costmodel.base import CostModel
from repro.costmodel.cout import CoutCostModel
from repro.costmodel.expert import ExpertCostModel

__all__ = [
    "CostModel",
    "CoutCostModel",
    "ExpertCostModel",
]
