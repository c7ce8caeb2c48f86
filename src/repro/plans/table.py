"""A per-search table of plans interned as small integers.

Beam search decides almost everything about a candidate join from two ids
and an operator; the tree is needed only for what it expands or returns.  A
:class:`PlanTable` therefore records a join as the triple ``(left id, right
id, operator)`` and builds — and keeps — its :class:`JoinNode` the first time
someone asks for it (:meth:`PlanTable.node`).  :meth:`PlanTable.view` presents
ids as a ``Sequence[PlanNode]`` that builds on access, so a consumer written
against plan nodes (a scorer process, a test stub) sees real, checked nodes,
while ``ValueNetwork.predict`` reads the triples and builds nothing.

Per id the table also keeps two bit masks over the query's aliases: ``cover``
(the aliases under the plan) and ``reach`` (the aliases a join predicate
connects them to).  Two plans may be joined when ``reach[a] & cover[b]``, and
``JoinNode``'s invariant — inputs must not overlap — is ``cover[a] &
cover[b]``, checked as joins are recorded: once per joined pair, since the
scan-operator variants of a bare table share its masks.

Internal to the planning stack: nothing here is part of ``repro.api``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.plans.nodes import JoinNode, JoinOperator, PlanNode, ScanNode
from repro.sql.query import Query


class PlanTable:
    """Plans of one query, by id: scans as nodes, joins as triples.

    Attributes:
        cover: Per id, the bit mask of the query aliases under the plan.
        reach: Per id, the bit mask of the aliases joined to one under it.
        joins: Per id, ``(left id, right id, operator)``; ``None`` for a scan.
        slots: Scratch space of whoever scores views of this table (the
            value network's activation store: per id the store slot it gave
            the plan, valid while ``slots_owner`` is the store's generation).
            The table never reads either.
    """

    def __init__(self, query: Query):
        self._bit = {alias: 1 << index for index, alias in enumerate(query.aliases)}
        self._neighbours = dict.fromkeys(query.aliases, 0)
        for predicate in query.joins:
            a, b = predicate.left_alias, predicate.right_alias
            self._neighbours[a] |= self._bit[b]
            self._neighbours[b] |= self._bit[a]
        self._nodes: list[PlanNode | None] = []
        self.cover: list[int] = []
        self.reach: list[int] = []
        self.joins: list[tuple[int, int, JoinOperator] | None] = []
        self.slots: list[int] = []
        self.slots_owner: object = None

    def __len__(self) -> int:
        return len(self._nodes)

    def add_scan(self, plan: ScanNode) -> int:
        """Intern a scan of one of the query's aliases; returns its id."""
        self._nodes.append(plan)
        self.cover.append(self._bit[plan.alias])
        self.reach.append(self._neighbours[plan.alias])
        self.joins.append(None)
        return len(self._nodes) - 1

    def add_joins(
        self, left: int, right: int, triples: Sequence[tuple[int, int, JoinOperator]]
    ) -> range:
        """Record the joins of one pair of plans; returns their ids, in order.

        Each triple ``(left id, right id, operator)`` joins a plan with the
        masks of ``left`` to one with the masks of ``right`` — the two
        themselves, or their scan-operator variants, which share a bare
        scan's masks — so one overlap check and one cover and reach each
        serve them all.  One join is the one-triple case.

        Raises:
            ValueError: The inputs share an alias (what ``JoinNode`` itself
                refuses, decided here from the masks).
        """
        cover = self.cover
        if cover[left] & cover[right]:
            overlap = self.node(left).leaf_aliases & self.node(right).leaf_aliases
            raise ValueError(f"join inputs overlap on aliases {sorted(overlap)}")
        first, count = len(cover), len(triples)
        cover += [cover[left] | cover[right]] * count
        self.reach += [self.reach[left] | self.reach[right]] * count
        self.joins += triples
        self._nodes += [None] * count
        return range(first, first + count)

    def node(self, plan: int) -> PlanNode:
        """The plan node of id ``plan``, built on first use and kept."""
        node = self._nodes[plan]
        if node is None:
            left, right, operator = self.joins[plan]
            node = self._nodes[plan] = JoinNode(self.node(left), self.node(right), operator)
        return node

    def view(self, plans: Sequence[int]) -> "PlanView":
        """``plans`` (ids) as a sequence of plan nodes, built on access."""
        return PlanView(self, plans)


class PlanView(Sequence):
    """Ids of one :class:`PlanTable` read as plan nodes.

    Sized and sliceable without building anything (a slice is another view);
    indexing or iterating (``Sequence``'s iterator, which indexes) builds the
    nodes it yields.

    Attributes:
        table: The table the ids belong to.
        ids: The ids, in order.
    """

    __slots__ = ("table", "ids")

    def __init__(self, table: PlanTable, ids: Sequence[int]):
        self.table = table
        self.ids = ids

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PlanView(self.table, self.ids[index])
        return self.table.node(self.ids[index])
