"""Best-first beam search over search states, guided by the value network.

Paper §4.2: the search starts from a root state containing all base-table
scans.  A beam of size ``b`` keeps the most promising states (by predicted
latency).  Expanding a state applies every action — joining two eligible
member plans with a physical join operator, assigning scan operators when a
side is a bare table — and the children are scored by the value network.  The
search stops once ``k`` complete plans have been found; Balsa uses
``b = 20, k = 10`` during training.

A state's score is ``max`` over its member plans of ``V(query, plan)``
(footnote 6), and each distinct subplan is scored by the network exactly once
per search.  Its activations are reused as well: a child's only unscored
plan is a join of two scored ones, and ``ValueNetwork.predict`` convolves
that one new node on top of the rows it kept for the inputs instead of the
whole tree again.

The search runs on integers.  Every plan it touches is interned as a small
id in a per-search :class:`~repro.plans.table.PlanTable` — a scan as its
``ScanNode``, a join as the triple ``(left id, right id, operator)`` — next to
``scores`` (its predicted latency, by id).  A bare table's scan-operator
variants get ids too (a join input is always an id) but are never scored on
their own.  A state is the tuple of its members' ids; a child is its parent's
members minus the joined pair, plus the join's id.  Candidates come in *pair
blocks*: every join of one ordered pair of members — each left variant with
each right variant under each operator — is recorded by one
``PlanTable.add_joins`` call as a run of consecutive ids, and the search
keys the block by the pair, ``pair_ids[left member, right member]``.  Each
variant belongs to one member, so a pair is new or known as a whole.  What
is built when:

- a block of triples, and its masks, for a pair never joined in this
  search: one id per distinct join, each handed to ``score_fn`` exactly
  once, as part of a ``table.view(ids)``.  ``ValueNetwork.predict`` reads
  the triples; any other scorer (a scorer process, a test stub) indexes or
  iterates the view and gets real plan nodes, built as it reads them;
- for a pair seen before, nothing: its block is looked up, and its children
  are new unless a join of it was a member of a state expanded since (see
  below);
- a ``JoinNode`` only for the join a state *taken from the beam* adds (its
  fingerprint places it among the state's members) and for a *returned*
  plan: at most one per expansion plus one per plan in the result, whatever
  the number of candidates;
- a child's score, ``max(new join, members it keeps)``, from facts computed
  once per joined pair — there is no object per child — and a beam entry,
  the plain tuple ``(score, order, members kept, new join)``, only for the
  at most ``beam_size`` children that can survive the trim;
- a child's member tuple only when the child is taken from the beam to be
  expanded; a child trimmed from the beam never has one.

Two members may be joined when a predicate connects them:
``reach[a] & cover[b]`` over the table's alias masks.  The invariant
``JoinNode`` enforces on construction — inputs must not overlap — is
``cover[a] & cover[b]``, and ``PlanTable.add_joins`` checks it once per
block (a bare table's variants share its masks).

A child is generated at most once.  Rather than keep every child in a set,
the search keeps the states it expanded: a child of the pair ``(a, b)`` with
join ``j`` was generated before iff an expanded state is the child with one
of its *other* joins undone into the two members it joins — every child of
an expanded state is generated, and nothing else is.  Such a state holds
``j`` as a member, so the test runs only for a join that was a member of an
expanded state, and a new pair's children are new by construction.

Three ordering rules make this the search the object-per-candidate version
was, batch for batch and tie for tie: a state's members are walked in
*fingerprint* order, not id order (which fixes candidate order); an
expansion's new joins go to ``score_fn`` in the order they were first
created; and ``order``, a counter over every child generated, breaks score
ties.  With a NaN score in play tuples are only partly ordered, and the
trim is the sort's own doing over every child, so every child becomes an
entry then.

:meth:`BeamSearchPlanner.search` is the native entry point and returns the
uniform :class:`~repro.planning.envelope.PlanResult` envelope; it accepts a
per-call ``top_k`` override and an absolute ``deadline`` at which the search
cuts off early (returning whatever complete plans it has, flagged
``deadline_exceeded``).  The registry-facing protocol adapter is
:class:`~repro.planning.adapters.BeamPlanner`.
"""

from __future__ import annotations

import time
from bisect import bisect
from math import isnan
from typing import Callable, Sequence

from repro.model.value_network import ValueNetwork
from repro.planning.envelope import PlanResult
from repro.plans.builders import all_join_operators, all_scan_operators, scan
from repro.plans.nodes import PlanNode
from repro.plans.table import PlanTable
from repro.sql.query import Query


#: Safety bound on the number of states one search expands.
MAX_EXPANSIONS = 4000


class BeamSearchPlanner:
    """Beam-search planner over a value network.

    Args:
        beam_size: Beam width ``b`` (at least 1).
        top_k: Number of complete plans to collect before stopping (``k``,
            at least 1).
        enumerate_scan_operators: Whether actions assign scan operators when a
            join side is a bare table (disable to shrink the action space).

    A search stops after :data:`MAX_EXPANSIONS` state expansions.
    """

    name = "beam"

    def __init__(
        self,
        beam_size: int = 20,
        top_k: int = 10,
        enumerate_scan_operators: bool = True,
    ):
        if beam_size < 1:
            raise ValueError(f"beam_size must be at least 1, got {beam_size}")
        if top_k < 1:
            raise ValueError(f"top_k must be at least 1, got {top_k}")
        self.beam_size = beam_size
        self.top_k = top_k
        self.enumerate_scan_operators = enumerate_scan_operators

    def search(
        self,
        query: Query,
        network: ValueNetwork,
        score_fn: Callable[[Query, Sequence[PlanNode]], Sequence[float]] | None = None,
        top_k: int | None = None,
        deadline: float | None = None,
    ) -> PlanResult:
        """Search for up to ``top_k`` complete plans for ``query``.

        Plans are interned as integer ids for the length of the call (see the
        module docstring for what is built when, and the ordering rules):
        candidates are looked up, deduplicated and ranked as ids, and
        ``score_fn`` is handed a :class:`~repro.plans.table.PlanView` — a
        sized, sliceable sequence that yields real plan nodes — of only the
        joins it has not scored in this search, in the order they were created.

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

        Raises:
            ValueError: ``top_k`` is less than 1.
        """
        started = time.perf_counter()
        k = self.top_k if top_k is None else top_k
        if k < 1:
            raise ValueError(f"top_k must be at least 1, got {k}")
        predict = score_fn if score_fn is not None else network.predict

        table = PlanTable(query)
        for alias in query.aliases:
            table.add_scan(scan(query, alias))
        relations = len(table)
        scores: list[float | None] = [
            float(v) for v in predict(query, table.view(range(relations)))
        ]
        if relations == 1:
            # Single-table query: the only plan is a scan of that table.
            return PlanResult(
                plans=[table.node(0)],
                predicted_latencies=[scores[0]],
                planning_seconds=time.perf_counter() - started,
                states_expanded=0,
                plans_scored=1,
                planner_name=self.name,
            )

        # A bare table enters a join as each of its scan-operator variants.
        # They get ids, so a join is always an integer triple, but they are
        # never members of a state and never scored on their own.
        scan_variants: dict[int, tuple[int, ...]] = {}
        if self.enumerate_scan_operators:
            for member in range(relations):
                bare = table.node(member)
                scan_variants[member] = tuple(
                    table.add_scan(bare.with_operator(op)) for op in all_scan_operators()
                )
            scores += [None] * (len(table) - relations)
        first_join = len(table)
        join_operators = all_join_operators()
        #: ``(left member, right member)`` -> the ids of every join of the two.
        pair_ids: dict[tuple[int, int], range] = {}
        #: Per join id from ``first_join`` on, the members it joins.
        pair_of: list[tuple[int, int]] = []
        cover, reach = table.cover, table.reach
        # A NaN score is neither above nor below anything: with one in play
        # the beam's order is the sort's own doing, over every child.
        total_order = not any(map(isnan, scores[:relations]))

        def fingerprint(member: int) -> str:
            return table.node(member).fingerprint()

        # A beam entry is (score, order, kept, new): the state holding the
        # members ``kept`` (in fingerprint order) and the join ``new``.
        # ``order`` is unique, so entries compare on their first two fields.
        root = tuple(sorted(range(relations), key=fingerprint))
        beam: list[tuple] = [(max(scores[:relations]), 0, root, None)]
        #: Every state expanded so far, as sorted ids, and their members.
        expanded: set[tuple[int, ...]] = set()
        expanded_members: set[int] = set()
        complete: list[int] = []
        counter = 0
        expansions = 0
        out_of_budget = False

        def seen(kept: tuple[int, ...], joined: int) -> bool:
            """Whether the child ``kept`` + ``joined`` was generated before.

            It was iff an expanded state is that child with one of its
            joins other than ``joined`` undone into the two members it
            joins: every child of an expanded state is generated, and
            nothing else is.
            """
            for index, member in enumerate(kept):
                if member >= first_join:
                    parent = kept[:index] + kept[index + 1 :] + pair_of[member - first_join]
                    if tuple(sorted(parent + (joined,))) in expanded:
                        return True
            return False

        while beam and len(complete) < k and expansions < MAX_EXPANSIONS:
            if deadline is not None and time.perf_counter() >= deadline:
                out_of_budget = True
                break
            _, _, members, new = beam.pop(0)
            if new is not None:
                # The one join this state adds becomes a node here, for its
                # place among the members; every other member already is one.
                at = bisect(members, fingerprint(new), key=fingerprint)
                members = members[:at] + (new,) + members[at:]
            expansions += 1
            expanded.add(tuple(sorted(members)))
            expanded_members.update(members)

            # What every child of one joined pair shares: the members it
            # keeps, in fingerprint order, and their score.  A predicate
            # joins a pair in either order: ask once per pair.
            pairs = {}
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    if reach[members[i]] & cover[members[j]]:
                        kept = members[:i] + members[i + 1 : j] + members[j + 1 :]
                        kept_score = max(scores[m] for m in kept) if kept else None
                        pairs[i, j] = pairs[j, i] = kept, kept_score

            # Apply every action, a joined pair at a time.  A new pair records
            # every join of it, in (left variant, right variant, operator)
            # order, and its children are new by construction (no earlier
            # state can hold an id that did not exist).  A pair seen before is
            # only looked up, as a whole; a child of it can have been
            # generated before only if its join was a member of a state
            # expanded since.
            inputs = [scan_variants.get(member) or (member,) for member in members]
            groups: list[tuple[Sequence[int], tuple[int, ...], float]] = []
            known = len(table)
            for (i, j), (kept, kept_score) in sorted(pairs.items()):
                pair = members[i], members[j]
                joins = pair_ids.get(pair)
                if joins is None:
                    joins = pair_ids[pair] = table.add_joins(*pair, [
                        (left, right, operator)
                        for left in inputs[i]
                        for right in inputs[j]
                        for operator in join_operators
                    ])
                    pair_of += [pair] * len(joins)
                elif not expanded_members.isdisjoint(joins):
                    joins = [
                        joined for joined in joins
                        if joined not in expanded_members or not seen(kept, joined)
                    ]
                if kept:
                    groups.append((joins, kept, kept_score))
                else:
                    complete += joins
            if len(table) > known:
                # Ids are handed out in order: the new joins are the table's tail.
                unseen = table.view(range(known, len(table)))
                batch = [float(v) for v in predict(query, unseen)]
                total_order = total_order and not any(map(isnan, batch))
                scores += batch

            # A child's score is ``max(new join, kept members)`` as ``max``
            # has it: the join's unless the kept score is greater.
            child_scores: list[float] = []
            child_joins: list[int] = []
            child_kept: list[tuple[int, ...]] = []
            for joins, kept, kept_score in groups:
                child_scores += [
                    kept_score if kept_score > score else score
                    for score in map(scores.__getitem__, joins)
                ]
                child_joins += joins
                child_kept += [kept] * len(joins)
            # At most ``beam_size`` children survive the trim.  Under a total
            # order they are the first by (score, order) — a stable sort by
            # score — so only those become beam entries.
            picked = range(len(child_scores))
            if total_order and len(picked) > self.beam_size:
                picked = sorted(picked, key=child_scores.__getitem__)[: self.beam_size]
            beam += [
                (child_scores[c], counter + 1 + c, child_kept[c], child_joins[c])
                for c in picked
            ]
            counter += len(child_scores)

            # Keep only the best ``beam_size`` states, best first.
            beam.sort()
            del beam[self.beam_size :]

        ordered = sorted(complete, key=scores.__getitem__)[:k]
        return PlanResult(
            plans=[table.node(plan) for plan in ordered],
            predicted_latencies=[scores[plan] for plan in ordered],
            planning_seconds=time.perf_counter() - started,
            states_expanded=expansions,
            plans_scored=relations + len(table) - first_join,
            planner_name=self.name,
            deadline_exceeded=out_of_budget,
        )
