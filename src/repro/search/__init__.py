"""Plan search: best-first beam search guided by the value network (paper §4.2)."""

from repro.search.beam import BeamSearchPlanner

__all__ = [
    "BeamSearchPlanner",
]
