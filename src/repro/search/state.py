"""Search states: sets of partial plans for a query."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.plans.nodes import PlanNode


@dataclass(frozen=True)
class SearchState:
    """A set of partial plans covering disjoint alias subsets of one query.

    Beam search starts from the state containing one scan per alias and
    repeatedly joins two member plans until a state contains a single complete
    plan (paper §4.2).

    Attributes:
        plans: The member plans, stored in a canonical (fingerprint-sorted)
            order so equal states compare and hash equal.
        fingerprint: Stable identity of the state (derived from ``plans``).
    """

    plans: tuple[PlanNode, ...]
    fingerprint: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.plans, key=PlanNode.fingerprint))
        object.__setattr__(self, "plans", ordered)
        object.__setattr__(self, "fingerprint", "|".join(map(PlanNode.fingerprint, ordered)))

    @property
    def num_plans(self) -> int:
        """Number of member plans."""
        return len(self.plans)

    def covered_aliases(self) -> frozenset[str]:
        """Union of aliases covered by the member plans."""
        covered: frozenset[str] = frozenset()
        for plan in self.plans:
            covered |= plan.leaf_aliases
        return covered

    def is_terminal(self) -> bool:
        """Whether the state consists of exactly one (complete) plan."""
        return len(self.plans) == 1

    def replace_pair(self, i: int, j: int, joined: PlanNode) -> "SearchState":
        """New state with plans ``i`` and ``j`` replaced by their join."""
        low, high = (i, j) if i < j else (j, i)
        plans = self.plans
        return SearchState(
            plans=plans[:low] + plans[low + 1 : high] + plans[high + 1 :] + (joined,)
        )
