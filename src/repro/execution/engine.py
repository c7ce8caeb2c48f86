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


#: Node entries the ledger may hold; the first execution past it drops them
#: all.  A constant, not a parameter: an entry (its key, the alias sets the key
#: keeps alive, its value and its dict slot) measured 529 bytes over the
#: ``learn`` recipe (251 entries after 14 passes on one bundle), so a full
#: ledger is about 35 MB.
_LEDGER_NODES = 65_536


class ExecutionEngine:
    """Executes physical plans against a :class:`~repro.storage.Database`.

    This is the "environment" of the reinforcement-learning loop (Figure 1 of
    the paper): the agent submits a plan, the engine returns its latency.
    Timeouts (paper §4.3) are supported natively: a plan whose accumulated
    work exceeds the budget is terminated early.

    The engine keeps a *ledger* of what every plan node it finished cost, and
    replays a plan from it instead of materialising its joins again:

    - *Keyed*: by the query's :meth:`~repro.sql.query.Query.fingerprint`
      (never its name), then by node shape: a scan by ``(alias, scan
      operator)``, a join by ``(left alias set, right alias set, join
      operator)``.  An entry is an immutable ``(work, output rows)`` tuple.
      A join that raised :class:`IntermediateExplosionError` is a fact too,
      kept as ``(None, estimated rows)``.  A node's work and output depend
      only on the query and that shape, and on the query only up to its
      fingerprint but for one thing: the order of its joins and filters
      picks the predicate an index probe or the explosion guard reads.  So a
      query whose fingerprint was first recorded under another order
      executes without the ledger.
    - *Replay*: a plan whose nodes are all known is walked in the
      materialising recursion's postorder, adding the same work floats in
      the same order and checking the budget after each node; a recorded
      explosion raises at its node, before that node's work is added.
      ``latency``, ``work``, ``timed_out``, ``output_rows`` and
      ``node_cardinalities`` are therefore bit for bit what materialising
      gives.  Only the nodes the walk reaches must be known: the first
      unknown one sends the plan down the materialising path, which records
      every node it finishes, including one whose budget check then times
      out.  The ledger holds no budget, so the same plan under another
      timeout replays and stops where materialising would.  Validation, the
      budget check, the noise step and the :attr:`num_executions` /
      :attr:`total_simulated_seconds` counters run either way;
      :attr:`num_materialised` counts the executions the ledger could not
      answer.
    - *Bound*: ``_LEDGER_NODES`` entries plus at most one plan's nodes; an
      execution that finds it full drops it all first.  Entries are written
      once and never changed, so the engine takes no lock: a racing write
      stores the same tuple.
    - *Scope*: the engine, because the engine is bound to one database whose
      tables nothing mutates, with a latency model and guard fixed at
      construction.  Every agent, seed, baseline and expert executing on it
      shares the ledger.  ``validate=False`` is for plans known to be valid:
      a plan :func:`~repro.plans.validation.validate_plan` would reject can
      record entries no valid plan has.

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
        self.num_materialised = 0
        self.total_simulated_seconds = 0.0
        #: query fingerprint -> (the joins and filters it was recorded under,
        #: node shape -> (work, output rows))
        self._ledger: dict[str, tuple[tuple, dict[tuple, tuple]]] = {}
        self._ledger_nodes = 0

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
        nodes = self._ledger_of(query)
        state = _ExecutionState(budget=work_budget)
        timed_out = False
        exploded_rows = 0
        output_rows = 0
        try:
            if not self._replay_node(nodes, plan, state):
                self.num_materialised += 1
                state = _ExecutionState(budget=work_budget)
                self._execute_node(query, nodes, plan, state)
            output_rows = state.cardinalities[plan.leaf_aliases]
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
            # Without noise the seed goes unused: skip its SHA-256.
            noise_seed = None
            if self.latency_model.noise_std > 0:
                noise_seed = derive_seed(
                    self.noise_seed, query.name, plan.fingerprint(), self.num_executions
                )
            latency = self.latency_model.apply_noise(latency, noise_seed)
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
    def _ledger_of(self, query: Query) -> dict[tuple, tuple]:
        """The ledger's node entries for ``query``: a throwaway dict when its
        fingerprint was recorded under another order of joins or filters."""
        if self._ledger_nodes > _LEDGER_NODES:
            self._ledger = {}
            self._ledger_nodes = 0
        order = (query.joins, query.filters)
        recorded, nodes = self._ledger.setdefault(query.fingerprint(), (order, {}))
        return nodes if recorded == order else {}

    def _replay_node(
        self, nodes: dict[tuple, tuple], node: PlanNode, state: "_ExecutionState"
    ) -> bool:
        """Walk ``node`` from the ledger alone, as :meth:`_execute_node` would.

        Returns False at the first node the ledger lacks, leaving ``state``
        half-walked for the caller to drop; raises where materialising would.
        """
        if isinstance(node, JoinNode):
            if not (
                self._replay_node(nodes, node.left, state)
                and self._replay_node(nodes, node.right, state)
            ):
                return False
            entry = nodes.get(
                (node.left.leaf_aliases, node.right.leaf_aliases, node.operator)
            )
        else:
            entry = nodes.get((node.alias, node.operator))
        if entry is None:
            return False
        work, rows = entry
        if work is None:
            raise IntermediateExplosionError(rows, self.max_intermediate_rows)
        state.finish(node, work, rows)
        return True

    def _execute_node(
        self,
        query: Query,
        nodes: dict[tuple, tuple],
        node: PlanNode,
        state: "_ExecutionState",
    ) -> IntermediateResult:
        if isinstance(node, ScanNode):
            key = (node.alias, node.operator)
            output = execute_scan(self.database, query, node, self.latency_model)
        elif isinstance(node, JoinNode):
            left = self._execute_node(query, nodes, node.left, state)
            right = self._execute_node(query, nodes, node.right, state)
            key = (node.left.leaf_aliases, node.right.leaf_aliases, node.operator)
            try:
                output = execute_join(
                    self.database,
                    query,
                    node,
                    left,
                    right,
                    self.latency_model,
                    self.max_intermediate_rows,
                )
            except IntermediateExplosionError as explosion:
                self._record(nodes, key, (None, explosion.estimated_rows))
                raise
        else:  # pragma: no cover - only two node kinds exist
            raise TypeError(f"unknown plan node type {type(node)!r}")

        rows = output.result.num_rows
        self._record(nodes, key, (output.work, rows))
        state.finish(node, output.work, rows)
        return output.result

    def _record(self, nodes: dict[tuple, tuple], key: tuple, entry: tuple) -> None:
        if key not in nodes:
            nodes[key] = entry
            self._ledger_nodes += 1


@dataclass
class _ExecutionState:
    """Mutable per-execution accumulator."""

    budget: float | None
    work: float = 0.0
    cardinalities: dict[frozenset, int] = field(default_factory=dict)

    def finish(self, node: PlanNode, work: float, rows: int) -> None:
        """Account a finished node; raise once the budget is exceeded."""
        self.work += work
        self.cardinalities[node.leaf_aliases] = rows
        if self.budget is not None and self.work > self.budget:
            raise ExecutionTimeout()
