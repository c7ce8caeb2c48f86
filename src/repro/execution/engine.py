"""The execution engine: runs physical plans and reports simulated latencies."""

from __future__ import annotations

from dataclasses import dataclass, field


from repro.execution.latency import LatencyModel
from repro.execution.operators import (
    IntermediateExplosionError,
    execute_join,
    execute_scan,
)
from repro.execution.result import IntermediateResult
from repro.plans.nodes import JoinNode, PlanNode, ScanNode
from repro.plans.validation import validate_plan
from repro.sql.query import Query
from repro.storage.database import Database
from repro.utils.rng import derive_seed


@dataclass
class ExecutionResult:
    """Outcome of executing one plan.

    Attributes:
        query_name: Name of the executed query.
        plan_fingerprint: Identity of the executed plan.
        latency: Simulated latency in seconds.  When ``timed_out`` is true this
            is the timeout budget the execution was cut off at, not a true
            completion time.
        timed_out: Whether the execution exceeded the timeout budget.
        output_rows: Cardinality of the final result (0 when timed out).
        work: Accumulated work units at the point execution stopped.
        node_cardinalities: True output cardinality for every executed subtree,
            keyed by its frozenset of aliases.
    """

    query_name: str
    plan_fingerprint: str
    latency: float
    timed_out: bool
    output_rows: int
    work: float
    node_cardinalities: dict[frozenset, int] = field(default_factory=dict)


class ExecutionTimeout(Exception):
    """Internal signal: the work budget was exhausted mid-plan."""


class ExecutionEngine:
    """Executes physical plans against a :class:`~repro.storage.Database`.

    This is the "environment" of the reinforcement-learning loop (Figure 1 of
    the paper): the agent submits a plan, the engine returns its latency.
    Timeouts (paper §4.3) are supported natively: a plan whose accumulated
    work exceeds the budget is terminated early.

    Args:
        database: The database to execute against.
        latency_model: Work-to-latency conversion constants.
        max_intermediate_rows: Materialisation guard for disastrous plans.
        noise_seed: Root seed for per-execution latency noise (only relevant
            when the latency model's ``noise_std`` is positive).
    """

    def __init__(
        self,
        database: Database,
        latency_model: LatencyModel | None = None,
        max_intermediate_rows: int = 3_000_000,
        noise_seed: int = 0,
    ):
        self.database = database
        self.latency_model = latency_model or LatencyModel()
        self.max_intermediate_rows = max_intermediate_rows
        self.noise_seed = noise_seed
        self.num_executions = 0
        self.total_simulated_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def execute(
        self,
        query: Query,
        plan: PlanNode,
        timeout: float | None = None,
        validate: bool = True,
    ) -> ExecutionResult:
        """Execute ``plan`` for ``query``.

        Args:
            query: The query being executed.
            plan: A complete physical plan for the query.
            timeout: Optional latency budget in (simulated) seconds.  When the
                accumulated work exceeds this budget the execution stops and
                the result is marked ``timed_out``.
            validate: Whether to validate the plan against the query first.

        Returns:
            An :class:`ExecutionResult`.
        """
        if validate:
            validate_plan(query, plan, require_complete=True)
        work_budget = (
            None if timeout is None else self.latency_model.to_work(timeout)
        )
        state = _ExecutionState(budget=work_budget)
        timed_out = False
        exploded_rows = 0
        output_rows = 0
        try:
            result = self._execute_node(query, plan, state)
            output_rows = result.num_rows
        except ExecutionTimeout:
            timed_out = True
        except IntermediateExplosionError as explosion:
            timed_out = True
            exploded_rows = explosion.estimated_rows

        if timed_out:
            if timeout is not None:
                latency = timeout
            else:
                # No timeout was requested but the plan blew past the
                # materialisation guard: report a pessimistic latency that
                # reflects at least the work of producing the exploded
                # intermediate, so disastrous plans never look cheap.
                pessimistic_work = max(
                    state.work,
                    float(max(exploded_rows, self.max_intermediate_rows))
                    * self.latency_model.hash_probe_cost
                    * 4.0,
                )
                latency = self.latency_model.to_latency(pessimistic_work)
        else:
            latency = self.latency_model.to_latency(state.work)
            latency = self.latency_model.apply_noise(
                latency,
                derive_seed(self.noise_seed, query.name, plan.fingerprint(),
                            self.num_executions),
            )
            # Noise must never turn a completed run into a timeout violation.
            if timeout is not None:
                latency = min(latency, timeout)

        self.num_executions += 1
        self.total_simulated_seconds += latency
        return ExecutionResult(
            query_name=query.name,
            plan_fingerprint=plan.fingerprint(),
            latency=latency,
            timed_out=timed_out,
            output_rows=output_rows,
            work=state.work,
            node_cardinalities=dict(state.cardinalities),
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _execute_node(
        self, query: Query, node: PlanNode, state: "_ExecutionState"
    ) -> IntermediateResult:
        if isinstance(node, ScanNode):
            output = execute_scan(self.database, query, node, self.latency_model)
        elif isinstance(node, JoinNode):
            left = self._execute_node(query, node.left, state)
            right = self._execute_node(query, node.right, state)
            output = execute_join(
                self.database,
                query,
                node,
                left,
                right,
                self.latency_model,
                self.max_intermediate_rows,
            )
        else:  # pragma: no cover - only two node kinds exist
            raise TypeError(f"unknown plan node type {type(node)!r}")

        state.work += output.work
        state.cardinalities[node.leaf_aliases] = output.result.num_rows
        if state.budget is not None and state.work > state.budget:
            raise ExecutionTimeout()
        return output.result


@dataclass
class _ExecutionState:
    """Mutable per-execution accumulator."""

    budget: float | None
    work: float = 0.0
    cardinalities: dict[frozenset, int] = field(default_factory=dict)
