"""JSON wire codecs for the HTTP serving gateway.

The planning envelopes were designed JSON-friendly (plain dataclasses, no
live objects in the request path); this module makes the mapping explicit.
Every codec is a module-level ``*_to_json_dict`` function — paired with a
``*_from_json_dict`` for what the gateway reads (queries, plans, requests,
and results the shared cache tier hands back).  The planning envelopes carry
no codecs of their own, so the planning core does not import the gateway;
``PlanResult.to_json_dict`` is the one delegate left.

Design rules:

- **Typed rejection.**  Malformed input raises :class:`WireFormatError`
  (never a bare ``KeyError``/``TypeError``), so the gateway maps decode
  failures to HTTP 400 without guessing.
- **Strict JSON.**  Non-finite floats (``nan``/``inf`` predictions from
  samplers) are encoded as the strings ``"NaN"`` / ``"Infinity"`` /
  ``"-Infinity"`` rather than relying on Python's non-standard JSON
  extensions; decoders map them back.  The gateway serialises with
  ``allow_nan=False`` so a codec bug fails loudly instead of emitting
  invalid JSON.
- **Queries travel structurally or by name.**  A request's ``query`` field
  may be a full structural object (tables/joins/filters) or a workload query
  name resolved by the gateway's ``query_resolver``.
- **A result is serialised once.**  The bytes the gateway and the shared
  cache tier send are ``json.dumps`` of the dict codecs, byte for byte, but
  a :class:`PlanResult`'s share of them is rendered on first use and kept on
  the object (:func:`plan_result_json_bytes`), its plans node by node from
  templates; a reply splices the per-request fields behind it, filled into
  a template rather than built as a dict and encoded
  (:func:`service_response_json_bytes`).  The dict codecs stay the
  reference the templates are tested against, and serve every other route.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Callable

from repro.planning.envelope import PlanRequest, PlanResult
from repro.plans.nodes import JoinNode, JoinOperator, PlanNode, ScanNode, ScanOperator
from repro.sql.expr import ComparisonOp, FilterPredicate, JoinPredicate
from repro.sql.query import Query, TableRef

if TYPE_CHECKING:
    from repro.lifecycle.shadow import PromotionDecision
    from repro.service.metrics import ServiceMetrics
    from repro.service.service import ServiceResponse

#: Resolves a by-name ``query`` field to a workload query.
QueryResolver = Callable[[str], Query]


class WireFormatError(ValueError):
    """A JSON payload does not decode to the expected wire shape."""


# ---------------------------------------------------------------------- #
# Scalar helpers
# ---------------------------------------------------------------------- #
def _float_to_wire(value: float) -> float | str:
    """JSON-safe float: non-finite values become their string spellings."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return value


_WIRE_FLOATS = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


def _wire_floats_back(value: Any) -> Any:
    """Map the non-finite wire spellings back to floats, recursively.

    The inverse of :func:`jsonable` for the free-form ``knobs`` / ``extra``
    mappings.  A *legitimate* string value of ``"NaN"`` is indistinguishable
    from an encoded float on the wire — the documented trade-off of keeping
    the format strictly JSON.
    """
    if isinstance(value, str):
        return _WIRE_FLOATS.get(value, value)
    if isinstance(value, dict):
        return {name: _wire_floats_back(item) for name, item in value.items()}
    if isinstance(value, list):
        return [_wire_floats_back(item) for item in value]
    return value


def _float_from_wire(value: object, context: str) -> float:
    if isinstance(value, bool):
        raise WireFormatError(f"{context}: expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str) and value in _WIRE_FLOATS:
        return _WIRE_FLOATS[value]
    raise WireFormatError(f"{context}: expected a number, got {value!r}")


def _require_dict(payload: object, context: str) -> dict:
    if not isinstance(payload, dict):
        raise WireFormatError(
            f"{context}: expected a JSON object, got {type(payload).__name__}"
        )
    return payload


def _require_list(value: object, context: str) -> list:
    if not isinstance(value, list):
        raise WireFormatError(
            f"{context}: expected a JSON array, got {type(value).__name__}"
        )
    return value


def _require_str(value: object, context: str) -> str:
    if not isinstance(value, str):
        raise WireFormatError(
            f"{context}: expected a string, got {type(value).__name__}"
        )
    return value


def _require_int(value: object, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireFormatError(
            f"{context}: expected an integer, got {value!r}"
        )
    return value


def jsonable(value: Any) -> Any:
    """Best-effort conversion of ``value`` into JSON-native types.

    Used for the free-form ``knobs`` / ``extra`` mappings: numpy scalars
    become Python numbers, tuples/sets become lists, non-finite floats become
    their wire spellings, and anything else unrepresentable falls back to
    ``str`` (the fields are advisory, never load-bearing).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return _float_to_wire(value)
    if isinstance(value, Mapping):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(item) for item in value]
    if hasattr(value, "item"):  # numpy scalars
        try:
            return jsonable(value.item())
        except (TypeError, ValueError):
            pass
    return str(value)


# ---------------------------------------------------------------------- #
# Query
# ---------------------------------------------------------------------- #
def query_to_json_dict(query: Query) -> dict:
    """Structural JSON form of a :class:`Query` (tables, joins, filters)."""
    filters = []
    for flt in query.filters:
        value: Any = flt.value
        if isinstance(value, tuple):
            value = [jsonable(item) for item in value]
        else:
            value = jsonable(value)
        filters.append(
            {"alias": flt.alias, "column": flt.column, "op": flt.op.value, "value": value}
        )
    return {
        "name": query.name,
        "tables": [{"table": t.table, "alias": t.alias} for t in query.tables],
        "joins": [
            {
                "left_alias": j.left_alias,
                "left_column": j.left_column,
                "right_alias": j.right_alias,
                "right_column": j.right_column,
            }
            for j in query.joins
        ],
        "filters": filters,
    }


def query_from_json_dict(payload: object) -> Query:
    """Decode :func:`query_to_json_dict` output back into a :class:`Query`."""
    payload = _require_dict(payload, "query")
    name = _require_str(payload.get("name", ""), "query.name")
    raw_tables = _require_list(payload.get("tables"), "query.tables")
    if not raw_tables:
        raise WireFormatError("query.tables: a query needs at least one table")
    tables = []
    for index, entry in enumerate(raw_tables):
        entry = _require_dict(entry, f"query.tables[{index}]")
        tables.append(
            TableRef(
                table=_require_str(entry.get("table"), f"query.tables[{index}].table"),
                alias=_require_str(entry.get("alias"), f"query.tables[{index}].alias"),
            )
        )
    joins = []
    for index, entry in enumerate(_require_list(payload.get("joins", []), "query.joins")):
        entry = _require_dict(entry, f"query.joins[{index}]")
        context = f"query.joins[{index}]"
        joins.append(
            JoinPredicate(
                left_alias=_require_str(entry.get("left_alias"), context),
                left_column=_require_str(entry.get("left_column"), context),
                right_alias=_require_str(entry.get("right_alias"), context),
                right_column=_require_str(entry.get("right_column"), context),
            )
        )
    filters = []
    for index, entry in enumerate(
        _require_list(payload.get("filters", []), "query.filters")
    ):
        entry = _require_dict(entry, f"query.filters[{index}]")
        context = f"query.filters[{index}]"
        op_value = _require_str(entry.get("op"), f"{context}.op")
        try:
            op = ComparisonOp(op_value)
        except ValueError:
            raise WireFormatError(
                f"{context}.op: unknown comparison operator {op_value!r}"
            ) from None
        value = entry.get("value")
        if op in (ComparisonOp.IN, ComparisonOp.BETWEEN):
            value = tuple(_require_list(value, f"{context}.value"))
            if op is ComparisonOp.BETWEEN and len(value) != 2:
                raise WireFormatError(
                    f"{context}.value: BETWEEN needs exactly [low, high]"
                )
        filters.append(
            FilterPredicate(
                alias=_require_str(entry.get("alias"), f"{context}.alias"),
                column=_require_str(entry.get("column"), f"{context}.column"),
                op=op,
                value=value,
            )
        )
    try:
        return Query(
            name=name, tables=tuple(tables), joins=tuple(joins), filters=tuple(filters)
        )
    except (TypeError, ValueError) as error:
        raise WireFormatError(f"query: {error}") from error


# ---------------------------------------------------------------------- #
# Plans
# ---------------------------------------------------------------------- #
def plan_to_json_dict(plan: PlanNode) -> dict:
    """JSON form of a plan tree (scan leaves and join internals)."""
    if isinstance(plan, ScanNode):
        return {
            "scan": {
                "alias": plan.alias,
                "table": plan.table,
                "operator": plan.operator.value,
            }
        }
    if isinstance(plan, JoinNode):
        return {
            "join": {
                "operator": plan.operator.value,
                "left": plan_to_json_dict(plan.left),
                "right": plan_to_json_dict(plan.right),
            }
        }
    raise WireFormatError(f"cannot encode plan node of type {type(plan).__name__}")


def plan_from_json_dict(payload: object, memo: dict | None = None) -> PlanNode:
    """Decode :func:`plan_to_json_dict` output back into a plan tree.

    With a ``memo`` (a dict the caller keeps across calls), a subtree equal
    to one decoded before through the same memo is that node again: every
    dict is still checked, but each distinct subtree is built once.  A scan
    is keyed by its fields, a join by its operator and its inputs' identity.
    """
    if memo is None:
        memo = {}
    payload = _require_dict(payload, "plan")
    if "scan" in payload:
        scan = _require_dict(payload["scan"], "plan.scan")
        try:
            operator = ScanOperator(scan.get("operator", ScanOperator.SEQ_SCAN.value))
        except ValueError:
            raise WireFormatError(
                f"plan.scan.operator: unknown operator {scan.get('operator')!r}"
            ) from None
        alias = _require_str(scan.get("alias"), "plan.scan.alias")
        table = _require_str(scan.get("table"), "plan.scan.table")
        key = (alias, table, operator)
        node = memo.get(key)
        if node is None:
            node = memo[key] = ScanNode(alias=alias, table=table, operator=operator)
        return node
    if "join" in payload:
        join = _require_dict(payload["join"], "plan.join")
        try:
            operator = JoinOperator(join.get("operator", JoinOperator.HASH_JOIN.value))
        except ValueError:
            raise WireFormatError(
                f"plan.join.operator: unknown operator {join.get('operator')!r}"
            ) from None
        try:
            left = plan_from_json_dict(join.get("left"), memo)
            right = plan_from_json_dict(join.get("right"), memo)
            key = (operator, id(left), id(right))
            node = memo.get(key)
            if node is None:
                node = memo[key] = JoinNode(left=left, right=right, operator=operator)
        except ValueError as error:  # overlapping alias sets
            raise WireFormatError(f"plan.join: {error}") from error
        return node
    raise WireFormatError("plan: expected exactly one of 'scan' or 'join'")


# ---------------------------------------------------------------------- #
# PlanRequest
# ---------------------------------------------------------------------- #
def plan_request_to_json_dict(request: PlanRequest) -> dict:
    """JSON form of a :class:`~repro.planning.envelope.PlanRequest`."""
    return {
        "query": query_to_json_dict(request.query),
        "k": request.k,
        "deadline_seconds": request.deadline_seconds,
        "priority": request.priority,
        "knobs": {str(name): jsonable(value) for name, value in request.knobs.items()},
    }


def plan_request_from_json_dict(
    payload: object, query_resolver: QueryResolver | None = None
) -> PlanRequest:
    """Decode a request payload; ``query`` may be structural or a name.

    Args:
        payload: Decoded JSON object.
        query_resolver: Maps a by-name ``query`` field (a string) to a
            workload :class:`Query`.  Required for by-name requests; a
            resolver miss (``KeyError``) becomes a :class:`WireFormatError`.
    """
    payload = _require_dict(payload, "plan request")
    raw_query = payload.get("query")
    if isinstance(raw_query, str):
        if query_resolver is None:
            raise WireFormatError(
                f"query: by-name reference {raw_query!r} needs a gateway "
                "workload to resolve against"
            )
        try:
            query = query_resolver(raw_query)
        except KeyError:
            raise WireFormatError(f"query: unknown query name {raw_query!r}") from None
    else:
        query = query_from_json_dict(raw_query)
    deadline = payload.get("deadline_seconds")
    if deadline is not None:
        deadline = _float_from_wire(deadline, "deadline_seconds")
    knobs = _require_dict(payload.get("knobs", {}), "knobs")
    try:
        return PlanRequest(
            query=query,
            k=_require_int(payload.get("k", 1), "k"),
            deadline_seconds=deadline,
            priority=_require_int(payload.get("priority", 0), "priority"),
            knobs=_wire_floats_back(knobs),
        )
    except (TypeError, ValueError) as error:
        raise WireFormatError(f"plan request: {error}") from error


# ---------------------------------------------------------------------- #
# PlanResult / ServiceResponse
# ---------------------------------------------------------------------- #
def plan_result_to_json_dict(result: PlanResult) -> dict:
    """JSON form of a :class:`~repro.planning.envelope.PlanResult`."""
    return {
        "plans": [plan_to_json_dict(plan) for plan in result.plans],
        **_plan_result_fields(result),
    }


def _plan_result_fields(result: PlanResult) -> dict:
    """Every field of :func:`plan_result_to_json_dict` after ``plans``."""
    return {
        "predicted_latencies": [
            _float_to_wire(value) for value in result.predicted_latencies
        ],
        "planning_seconds": _float_to_wire(result.planning_seconds),
        "states_expanded": result.states_expanded,
        "plans_scored": result.plans_scored,
        "planner_name": result.planner_name,
        "deadline_exceeded": bool(result.deadline_exceeded),
        "cacheable": bool(result.cacheable),
        "extra": {str(name): jsonable(value) for name, value in result.extra.items()},
    }


def plan_result_from_json_dict(payload: object) -> PlanResult:
    """Decode :func:`plan_result_to_json_dict` output.

    A search's plans share most of their subtrees; each distinct one is
    built once, and the plans share it as the search's did.
    """
    payload = _require_dict(payload, "plan result")
    memo: dict = {}
    plans = [
        plan_from_json_dict(entry, memo)
        for entry in _require_list(payload.get("plans", []), "plans")
    ]
    return plan_result_from_fields(plans, payload)


def plan_result_from_fields(plans: Sequence[PlanNode], payload: dict) -> PlanResult:
    """A :class:`PlanResult` of ``plans`` and the other fields of
    :func:`plan_result_to_json_dict` output, decoded from ``payload`` (its
    ``plans`` entry, if any, is not read)."""
    predictions = [
        _float_from_wire(value, f"predicted_latencies[{index}]")
        for index, value in enumerate(
            _require_list(payload.get("predicted_latencies", []), "predicted_latencies")
        )
    ]
    try:
        return PlanResult(
            plans=plans,
            predicted_latencies=predictions,
            planning_seconds=_float_from_wire(
                payload.get("planning_seconds", 0.0), "planning_seconds"
            ),
            states_expanded=_require_int(
                payload.get("states_expanded", 0), "states_expanded"
            ),
            plans_scored=_require_int(payload.get("plans_scored", 0), "plans_scored"),
            planner_name=_require_str(payload.get("planner_name", ""), "planner_name"),
            deadline_exceeded=bool(payload.get("deadline_exceeded", False)),
            cacheable=bool(payload.get("cacheable", True)),
            extra=_wire_floats_back(dict(_require_dict(payload.get("extra", {}), "extra"))),
        )
    except (TypeError, ValueError) as error:
        raise WireFormatError(f"plan result: {error}") from error


def _per_request_to_json_dict(response: "ServiceResponse") -> dict:
    """What a service response adds to its result: the query and the stats."""
    stats = response.stats
    return {
        "query_name": response.query.name if response.query is not None else None,
        "stats": None if stats is None else {
            "cache_hit": stats.cache_hit,
            "coalesced": stats.coalesced,
            "queue_wait_seconds": _float_to_wire(stats.queue_wait_seconds),
            "planning_seconds": _float_to_wire(stats.planning_seconds),
            "service_seconds": _float_to_wire(stats.service_seconds),
            "model_version": jsonable(stats.model_version),
            "planner_name": stats.planner_name,
            "deadline_exceeded": stats.deadline_exceeded,
            "priority": stats.priority,
        },
    }


def service_response_to_json_dict(response: "ServiceResponse") -> dict:
    """JSON form of a service response: the result plus per-request stats."""
    body = plan_result_to_json_dict(response)
    body.update(_per_request_to_json_dict(response))
    return body


# ---------------------------------------------------------------------- #
# Encoded bodies: what the gateway and the shared cache tier send
# ---------------------------------------------------------------------- #
#: ``json.dumps(payload, allow_nan=False)`` without building an encoder per
#: call: that call constructs a fresh ``JSONEncoder`` whenever an argument
#: is not the default, and this one is bound once.
_strict_encode = json.JSONEncoder(allow_nan=False).encode


def json_bytes(payload: object) -> bytes:
    """Strict JSON as UTF-8, byte for byte ``json.dumps(payload,
    allow_nan=False)``: ASCII-escaped strings, ``", "`` and ``": "``
    separators, ``float.__repr__`` numbers.

    Raises ``ValueError`` on a bare non-finite number (the codecs spell
    those as strings, so one that got through is a codec bug).
    """
    return _strict_encode(payload).encode("utf-8")


def plan_result_json_bytes(result: PlanResult) -> bytes:
    """``plan_result_to_json_dict(result)`` serialised, once per object.

    The bytes are kept on ``result`` itself (``PlanResult._json_bytes``), so
    they live exactly as long as it does: a plan-cache hit hands back the
    object that was stored, every reply for it reuses one rendering, and
    eviction or invalidation frees the bytes with the entry.  Threads that
    race here render identical bytes; the last store wins.  A rendered
    result's fields must not be mutated afterwards.

    The plans are rendered from templates, not dicts (:func:`_plan_json`):
    a search's plans share their subtrees, and each shared node is rendered
    once.  The other fields go through the dict codec, spliced behind.

    Raises ``ValueError`` if a bare non-finite number got past the codecs.
    """
    rendered = result._json_bytes
    if rendered is None:
        memo: dict[int, str] = {}
        plans = ", ".join([_plan_json(plan, memo) for plan in result.plans])
        fields = json_bytes(_plan_result_fields(result))
        rendered = result._json_bytes = b'{"plans": [%s], %s' % (
            plans.encode("ascii"), fields[1:],
        )
    return rendered


#: One plan node as ``json_bytes(plan_to_json_dict(node))`` spells it, its
#: inputs' text filled in.
_SCAN_JSON = '{"scan": {"alias": %s, "table": %s, "operator": %s}}'
_JOIN_JSON = '{"join": {"operator": %s, "left": %s, "right": %s}}'


def _plan_json(plan: PlanNode, memo: dict[int, str]) -> str:
    """``plan``'s JSON text, rendered once per node object while ``memo``
    (node id -> text) lives: for the length of one result's rendering, so
    every id in it names a node the result holds."""
    text = memo.get(id(plan))
    if text is None:
        text = memo[id(plan)] = _render_plan_node(plan, memo)
    return text


def _render_plan_node(plan: PlanNode, memo: dict[int, str]) -> str:
    """One node of :func:`_plan_json`, filled into its template."""
    if isinstance(plan, ScanNode):
        return _SCAN_JSON % (
            encode_basestring_ascii(plan.alias),
            encode_basestring_ascii(plan.table),
            encode_basestring_ascii(plan.operator.value),
        )
    if isinstance(plan, JoinNode):
        return _JOIN_JSON % (
            encode_basestring_ascii(plan.operator.value),
            _plan_json(plan.left, memo),
            _plan_json(plan.right, memo),
        )
    raise WireFormatError(f"cannot encode plan node of type {type(plan).__name__}")


#: The per-request tail of a reply, ``_per_request_to_json_dict`` rendered
#: by hand from the closing brace of the result on: each field is filled
#: with its value spelled as ``json.dumps`` spells it.
_TAIL = (
    ', "query_name": %s, "stats": {"cache_hit": %s, "coalesced": %s, '
    '"queue_wait_seconds": %s, "planning_seconds": %s, "service_seconds": %s, '
    '"model_version": %s, "planner_name": %s, "deadline_exceeded": %s, '
    '"priority": %d}}'
)
_TAIL_WITHOUT_STATS = ', "query_name": %s, "stats": null}'

#: Types whose equal values have equal JSON: a ``model_version`` made of
#: them (or a tuple of them) is rendered once.  Not bool or float: ``1``,
#: ``1.0`` and ``True`` are equal keys but three spellings.
_PLAIN_TYPES = frozenset((str, int, type(None)))

#: JSON text of the ``model_version`` values seen, for plain ones.
_versions: dict = {}


def _float_text(value: float) -> str:
    """``json_bytes(_float_to_wire(value))`` of a float."""
    if value - value == 0.0:  # finite: inf - inf and nan - nan are nan
        return float.__repr__(value)
    if value != value:
        return '"NaN"'
    return '"Infinity"' if value > 0 else '"-Infinity"'


def _version_text(version: object) -> str:
    """``json_bytes(jsonable(version))`` as text, memoised for plain values."""
    if type(version) is tuple:
        plain = _PLAIN_TYPES.issuperset(map(type, version))
    else:
        plain = type(version) in _PLAIN_TYPES
    if not plain:
        return _strict_encode(jsonable(version))
    text = _versions.get(version)
    if text is None:
        if len(_versions) >= 64:  # versions come and go with promotions
            _versions.clear()
        text = _versions[version] = _strict_encode(jsonable(version))
    return text


def _dict_tail(response: "ServiceResponse") -> bytes:
    """What :func:`_per_request_json_tail` renders, through the dict codec."""
    return b", " + json_bytes(_per_request_to_json_dict(response))[1:]


def _per_request_json_tail(response: "ServiceResponse") -> bytes:
    """``b", "`` and ``json_bytes(_per_request_to_json_dict(response))``
    without its opening brace.

    Filled into :data:`_TAIL`, with no dict built.  A field of a type the
    template does not spell (a flag that is not a ``bool``, a timing that is
    not a ``float``, ...) sends the whole tail through the dict codec.
    """
    query = response.query
    stats = response.stats
    if query is None:
        name = "null"
    elif type(query.name) is str:
        name = encode_basestring_ascii(query.name)
    else:
        return _dict_tail(response)
    if stats is None:
        return (_TAIL_WITHOUT_STATS % name).encode("ascii")
    cache_hit, coalesced = stats.cache_hit, stats.coalesced
    exceeded, planner = stats.deadline_exceeded, stats.planner_name
    queue_wait, planning = stats.queue_wait_seconds, stats.planning_seconds
    service = stats.service_seconds
    if not (
        type(cache_hit) is bool and type(coalesced) is bool
        and type(exceeded) is bool and type(planner) is str
        and type(stats.priority) is int and type(queue_wait) is float
        and type(planning) is float and type(service) is float
    ):
        return _dict_tail(response)
    return (_TAIL % (
        name,
        "true" if cache_hit else "false",
        "true" if coalesced else "false",
        _float_text(queue_wait),
        _float_text(planning),
        _float_text(service),
        _version_text(stats.model_version),
        encode_basestring_ascii(planner),
        "true" if exceeded else "false",
        stats.priority,
    )).encode("ascii")


def service_response_json_bytes(response: "ServiceResponse") -> bytes:
    """``service_response_to_json_dict(response)`` serialised.

    Byte for byte ``json.dumps`` of that dict, but only the per-request tail
    (``query_name`` and ``stats``) is encoded here, from a template: the
    result fields come first in the body, so their memoised rendering is
    spliced in front.
    """
    origin = response._origin
    head = plan_result_json_bytes(response if origin is None else origin)
    return head[:-1] + _per_request_json_tail(response)


def service_responses_json_bytes(responses: "list[ServiceResponse]") -> bytes:
    """``{"results": [...]}`` over :func:`service_response_json_bytes`."""
    return b'{"results": [%s]}' % b", ".join(
        service_response_json_bytes(response) for response in responses
    )


# ---------------------------------------------------------------------- #
# ServiceMetrics
# ---------------------------------------------------------------------- #
def service_metrics_to_json_dict(metrics: "ServiceMetrics") -> dict:
    """Faithful (non-flattened) JSON form of a metrics report."""
    from dataclasses import asdict

    body = {
        name: (_float_to_wire(value) if isinstance(value, float) else value)
        for name, value in asdict(metrics).items()
        if name not in ("cache", "scoring")
    }
    body["cache"] = asdict(metrics.cache)
    body["scoring"] = asdict(metrics.scoring)
    body["derived"] = {
        "hit_rate": _float_to_wire(metrics.hit_rate),
        "mean_queue_wait_seconds": _float_to_wire(metrics.mean_queue_wait_seconds),
        "mean_planning_seconds": _float_to_wire(metrics.mean_planning_seconds),
        "queries_per_second": _float_to_wire(metrics.queries_per_second),
    }
    return body


# ---------------------------------------------------------------------- #
# PromotionDecision
# ---------------------------------------------------------------------- #
def promotion_decision_to_json_dict(decision: "PromotionDecision") -> dict:
    """JSON form of a shadow-gate (or live-traffic) promotion decision."""
    return {
        "candidate_version": decision.candidate_version,
        "serving_version": decision.serving_version,
        "promoted": decision.promoted,
        "reason": decision.reason,
        "probes": [
            {
                "query_name": probe.query_name,
                "serving_cost": _float_to_wire(probe.serving_cost),
                "candidate_cost": _float_to_wire(probe.candidate_cost),
                "regression": _float_to_wire(probe.regression),
            }
            for probe in decision.probes
        ],
        "max_regression": _float_to_wire(decision.max_regression),
        "regression_threshold": _float_to_wire(decision.regression_threshold),
        "total_regression": _float_to_wire(decision.total_regression),
        "total_threshold": _float_to_wire(decision.total_threshold),
        "created_at": _float_to_wire(decision.created_at),
    }
