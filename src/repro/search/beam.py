"""Best-first beam search over search states, guided by the value network.

Paper §4.2: the search starts from a root state containing all base-table
scans.  A beam of size ``b`` keeps the most promising states (by predicted
latency).  Expanding a state applies every action — joining two eligible
member plans with a physical join operator, assigning scan operators when a
side is a bare table — and the children are scored by the value network.  The
search stops once ``k`` complete plans have been found; Balsa uses
``b = 20, k = 10`` during training.

A state's score is ``max`` over its member plans of ``V(query, plan)``
(footnote 6), and per-plan predictions are cached so each distinct subplan is
scored by the network exactly once per search.  Its activations are reused
as well: a child's only unscored plan is a join of two scored ones, and
``ValueNetwork.predict`` convolves that one new node on top of the rows it
kept for the inputs instead of the whole tree again.

:meth:`BeamSearchPlanner.search` is the native entry point and returns the
uniform :class:`~repro.planning.envelope.PlanResult` envelope; it accepts a
per-call ``top_k`` override and an absolute ``deadline`` at which the search
cuts off early (returning whatever complete plans it has, flagged
``deadline_exceeded``).  The registry-facing protocol adapter is
:class:`~repro.planning.adapters.BeamPlanner`.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.model.value_network import ValueNetwork
from repro.planning.envelope import PlanResult
from repro.plans.builders import all_join_operators, all_scan_operators, scan
from repro.plans.nodes import JoinNode, PlanNode, ScanNode
from repro.search.state import SearchState
from repro.sql.query import Query


@dataclass
class _BeamEntry:
    """Heap entry ordering states by predicted latency."""

    score: float
    order: int
    state: SearchState = field(compare=False)

    def __lt__(self, other: "_BeamEntry") -> bool:
        return (self.score, self.order) < (other.score, other.order)


class BeamSearchPlanner:
    """Beam-search planner over a value network.

    Args:
        beam_size: Beam width ``b``.
        top_k: Number of complete plans to collect before stopping (``k``).
        enumerate_scan_operators: Whether actions assign scan operators when a
            join side is a bare table (disable to shrink the action space).
        max_expansions: Safety bound on the number of state expansions.
    """

    name = "beam"

    def __init__(
        self,
        beam_size: int = 20,
        top_k: int = 10,
        enumerate_scan_operators: bool = True,
        max_expansions: int = 4000,
    ):
        self.beam_size = beam_size
        self.top_k = top_k
        self.enumerate_scan_operators = enumerate_scan_operators
        self.max_expansions = max_expansions

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def search(
        self,
        query: Query,
        network: ValueNetwork,
        score_fn: Callable[[Query, list[PlanNode]], Sequence[float]] | None = None,
        top_k: int | None = None,
        deadline: float | None = None,
    ) -> PlanResult:
        """Search for up to ``top_k`` complete plans for ``query``.

        Args:
            query: The query to plan.
            network: Value network guiding the search.
            score_fn: Optional replacement for ``network.predict`` — the
                planner service injects its scoring backend here (a bound
                ``ScoringBackend.submit``), so frontier expansions are
                scored on this thread or in scorer processes; the search is
                agnostic to which.
            top_k: Per-call override of the configured ``top_k``.
            deadline: Absolute ``time.perf_counter()`` timestamp at which the
                search stops expanding and returns whatever complete plans it
                has found so far (``deadline_exceeded`` is set on the result).
        """
        started = time.perf_counter()
        k = self.top_k if top_k is None else top_k
        predict = score_fn if score_fn is not None else network.predict
        plan_scores: dict[str, float] = {}
        counter = 0

        def score_plans(plans: Sequence[PlanNode]) -> None:
            """Batch-score plans not seen before in this search."""
            unseen: dict[str, PlanNode] = {}
            for plan in plans:
                fingerprint = plan.fingerprint()
                if fingerprint not in plan_scores:
                    unseen[fingerprint] = plan
            if not unseen:
                return
            predictions = predict(query, list(unseen.values()))
            for fingerprint, value in zip(unseen, predictions):
                plan_scores[fingerprint] = float(value)

        def state_score(state: SearchState) -> float:
            return max(plan_scores[p.fingerprint()] for p in state.plans)

        root_plans = [scan(query, alias) for alias in query.aliases]
        score_plans(root_plans)
        root = SearchState(plans=tuple(root_plans))
        if root.is_terminal():
            # Single-table query: the only plan is a scan of that table.
            plan = root.plans[0]
            return PlanResult(
                plans=[plan],
                predicted_latencies=[plan_scores[plan.fingerprint()]],
                planning_seconds=time.perf_counter() - started,
                states_expanded=0,
                plans_scored=len(plan_scores),
                planner_name=self.name,
            )

        beam: list[_BeamEntry] = [_BeamEntry(state_score(root), counter, root)]
        complete: dict[str, tuple[PlanNode, float]] = {}
        visited: set[str] = {root.fingerprint}
        expansions = 0
        out_of_budget = False

        while beam and len(complete) < k and expansions < self.max_expansions:
            if deadline is not None and time.perf_counter() >= deadline:
                out_of_budget = True
                break
            entry = heapq.heappop(beam)
            state = entry.state
            expansions += 1

            children = self._expand(query, state)
            if not children:
                continue
            # Only a child's new join can be unscored: its other member plans
            # were members of ``state``, scored before ``state`` was pushed.
            score_plans([joined for joined, _ in children])

            for _, child in children:
                if child.fingerprint in visited:
                    continue
                visited.add(child.fingerprint)
                if child.is_terminal():
                    plan = child.plans[0]
                    complete[plan.fingerprint()] = (
                        plan,
                        plan_scores[plan.fingerprint()],
                    )
                    continue
                counter += 1
                heapq.heappush(beam, _BeamEntry(state_score(child), counter, child))

            # Keep only the best ``beam_size`` states.
            if len(beam) > self.beam_size:
                beam = heapq.nsmallest(self.beam_size, beam)
                heapq.heapify(beam)

        ordered = sorted(complete.values(), key=lambda pair: pair[1])[:k]
        elapsed = time.perf_counter() - started
        return PlanResult(
            plans=[plan for plan, _ in ordered],
            predicted_latencies=[value for _, value in ordered],
            planning_seconds=elapsed,
            states_expanded=expansions,
            plans_scored=len(plan_scores),
            planner_name=self.name,
            deadline_exceeded=out_of_budget,
        )

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def _expand(
        self, query: Query, state: SearchState
    ) -> list[tuple[JoinNode, SearchState]]:
        """Apply every action to ``state``: join two eligible member plans.

        Returns each new join with the child state it is the new member of.
        """
        plans = state.plans
        variants = [self._scan_variants(plan) for plan in plans]
        # A predicate joins a pair in either order: ask once per unordered pair.
        connected = {
            (i, j)
            for i in range(len(plans))
            for j in range(i + 1, len(plans))
            if query.joins_between(plans[i].leaf_aliases, plans[j].leaf_aliases)
        }
        join_operators = all_join_operators()
        children: list[tuple[JoinNode, SearchState]] = []
        for i in range(len(plans)):
            for j in range(len(plans)):
                if (i, j) not in connected and (j, i) not in connected:
                    continue
                for left_variant in variants[i]:
                    for right_variant in variants[j]:
                        for join_operator in join_operators:
                            joined = JoinNode(left_variant, right_variant, join_operator)
                            children.append((joined, state.replace_pair(i, j, joined)))
        return children

    def _scan_variants(self, plan: PlanNode) -> list[PlanNode]:
        """Scan-operator assignments for a bare table; joined plans are fixed."""
        if isinstance(plan, ScanNode) and self.enumerate_scan_operators:
            return [plan.with_operator(op) for op in all_scan_operators()]
        return [plan]
