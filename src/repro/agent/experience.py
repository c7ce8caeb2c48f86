"""The experience buffer ``D_real`` with subplan label correction (paper §4.1).

Each execution of a plan contributes one :class:`ExecutionRecord`.  Training
examples are built by subplan augmentation, and every subplan's label is
corrected to the *best latency obtained so far* among all executions (over the
entire buffer) whose plan contains that subplan — the value-iteration flavour
the paper inherits from Neo.  Timed-out executions contribute the large
timeout label instead of their unknown true latency (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.plans.nodes import PlanNode
from repro.sql.query import Query


@dataclass
class ExecutionRecord:
    """One plan execution observed by the agent.

    Attributes:
        query_name: Name of the executed query.
        plan: The executed (complete) plan.
        latency: Observed latency, or the timeout label for timed-out runs.
        timed_out: Whether the execution was cut off by the timeout.
        iteration: Training iteration that produced the record (-1 for
            demonstrations or merged experience).
        agent_id: Identifier of the agent that collected the record (used by
            diversified experiences).
    """

    query_name: str
    plan: PlanNode
    latency: float
    timed_out: bool = False
    iteration: int = -1
    agent_id: int = 0


@dataclass
class TrainingPoint:
    """One value-network training example derived from experience.

    Attributes:
        query: The full query the subplan belongs to.
        plan: The subplan.
        label: The corrected latency label.
    """

    query: Query
    plan: PlanNode
    label: float


class ExperienceBuffer:
    """Stores execution records and derives corrected training data.

    Args:
        query_lookup: Callable resolving a query name to its :class:`Query`
            (normally ``environment.query_by_name``).
    """

    def __init__(self, query_lookup: Callable[[str], Query]):
        self._query_lookup = query_lookup
        self.records: list[ExecutionRecord] = []
        # (query, subplan fingerprint) -> best latency over the whole buffer.
        self._best_subplan_latency: dict[tuple[str, str], float] = {}
        # (query, complete-plan fingerprint) -> number of executions.
        self._visit_counts: dict[tuple[str, str], int] = {}
        # query -> best latency of an execution that did not time out.
        self._best_latency: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Adding experience
    # ------------------------------------------------------------------ #
    def add(self, record: ExecutionRecord) -> None:
        """Add one execution record and update the correction/visit indexes."""
        self.records.append(record)
        key = (record.query_name, record.plan.fingerprint())
        self._visit_counts[key] = self._visit_counts.get(key, 0) + 1
        for subplan in record.plan.iter_subplans():
            sub_key = (record.query_name, subplan.fingerprint())
            best = self._best_subplan_latency.get(sub_key)
            if best is None or record.latency < best:
                self._best_subplan_latency[sub_key] = record.latency
        if not record.timed_out:
            best = self._best_latency.get(record.query_name)
            if best is None or record.latency < best:
                self._best_latency[record.query_name] = record.latency

    def add_execution(
        self,
        query_name: str,
        plan: PlanNode,
        latency: float,
        *,
        timed_out: bool = False,
        iteration: int = -1,
        agent_id: int = 0,
    ) -> ExecutionRecord:
        """Record one execution without building the record by hand.

        The convenience entry point the online-experience loop uses to replay
        gateway observations (simulated-executed cost standing in for
        latency) through the same augmentation/correction machinery the
        agent's own iterations use.  Returns the record it added.
        """
        record = ExecutionRecord(
            query_name=query_name,
            plan=plan,
            latency=float(latency),
            timed_out=timed_out,
            iteration=iteration,
            agent_id=agent_id,
        )
        self.add(record)
        return record

    def extend(self, records: Iterable[ExecutionRecord]) -> None:
        """Add several records."""
        for record in records:
            self.add(record)

    # ------------------------------------------------------------------ #
    # Queries over the buffer
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.records)

    def visit_count(self, query_name: str, plan: PlanNode) -> int:
        """How many times this exact complete plan has been executed."""
        return self._visit_counts.get((query_name, plan.fingerprint()), 0)

    def has_executed(self, query_name: str, plan: PlanNode) -> bool:
        """Whether the exact complete plan has been executed before."""
        return self.visit_count(query_name, plan) > 0

    def num_unique_plans(self) -> int:
        """Number of distinct (query, complete plan) pairs executed."""
        return len(self._visit_counts)

    def best_latency(self, query_name: str) -> float | None:
        """Best latency of an execution of the query that did not time out
        (None if there is none), kept up to date by :meth:`add`."""
        return self._best_latency.get(query_name)

    def corrected_label(self, query_name: str, subplan: PlanNode) -> float:
        """Best latency over all executions containing ``subplan``."""
        return self._best_subplan_latency[(query_name, subplan.fingerprint())]

    # ------------------------------------------------------------------ #
    # Training data
    # ------------------------------------------------------------------ #
    def training_points(
        self, iteration: int | None = None, agent_id: int | None = None
    ) -> list[TrainingPoint]:
        """Build corrected, augmented training points.

        Args:
            iteration: When given, only records from this iteration are
                expanded (on-policy learning).  Label correction always uses
                the entire buffer.
            agent_id: Optional filter by collecting agent.

        Returns:
            The training points.
        """
        points: list[TrainingPoint] = []
        for record in self.records:
            if iteration is not None and record.iteration != iteration:
                continue
            if agent_id is not None and record.agent_id != agent_id:
                continue
            query = self._query_lookup(record.query_name)
            for subplan in record.plan.iter_subplans():
                label = self._best_subplan_latency[
                    (record.query_name, subplan.fingerprint())
                ]
                points.append(TrainingPoint(query=query, plan=subplan, label=label))
        return points

    # ------------------------------------------------------------------ #
    # Merging (diversified experiences, §6)
    # ------------------------------------------------------------------ #
    def merged_with(self, others: Iterable["ExperienceBuffer"]) -> "ExperienceBuffer":
        """A new buffer containing this buffer's records plus all ``others``."""
        merged = ExperienceBuffer(self._query_lookup)
        merged.extend(self.records)
        for other in others:
            merged.extend(other.records)
        return merged
