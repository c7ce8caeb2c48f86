"""Shared fixtures: a small synthetic database, queries and derived objects.

Fixtures are session-scoped where safe (the database and statistics are
read-only) so the suite stays fast.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cardinality.estimator import HistogramEstimator
from repro.catalog.datagen import generate_database
from repro.catalog.imdb import make_imdb_schema
from repro.catalog.tpch import make_tpch_schema
from repro.execution.engine import ExecutionEngine
from repro.featurization.featurizer import QueryPlanFeaturizer
from repro.plans.builders import scan
from repro.plans.nodes import JoinNode, JoinOperator, PlanNode
from repro.service.shared_tier import SharedCacheClient
from repro.sql.expr import ComparisonOp, FilterPredicate, JoinPredicate
from repro.sql.query import Query, TableRef


@pytest.fixture(scope="session")
def imdb_database():
    """A small IMDb-like database (its PK/FK indexes declared, built on first probe)."""
    schema = make_imdb_schema(fact_rows=500)
    return generate_database(schema, scale=1.0, seed=7)


@pytest.fixture(scope="session")
def tpch_database():
    """A small TPC-H-like database (its PK/FK indexes declared, built on first probe)."""
    schema = make_tpch_schema(base_rows=300)
    return generate_database(schema, scale=1.0, seed=7)


@pytest.fixture(scope="session")
def engine(imdb_database):
    """Execution engine over the IMDb-like database."""
    return ExecutionEngine(imdb_database)


@pytest.fixture(scope="session")
def estimator(imdb_database):
    """Histogram cardinality estimator over the IMDb-like database."""
    return HistogramEstimator(imdb_database)


@pytest.fixture(scope="session")
def featurizer(imdb_database, estimator):
    """Query/plan featuriser over the IMDb-like schema."""
    return QueryPlanFeaturizer(imdb_database.schema, estimator)


def left_deep_of(
    query: Query, alias_order: list[str], operator: JoinOperator = JoinOperator.HASH_JOIN
) -> PlanNode:
    """A left-deep plan joining ``alias_order`` (sequential scans, one join operator)."""
    plan: PlanNode = scan(query, alias_order[0])
    for alias in alias_order[1:]:
        plan = JoinNode(plan, scan(query, alias), operator)
    return plan


def make_three_table_query(name: str = "q3") -> Query:
    """title ⋈ movie_companies ⋈ company_name with two filters."""
    return Query(
        name=name,
        tables=(
            TableRef("title", "t"),
            TableRef("movie_companies", "mc"),
            TableRef("company_name", "cn"),
        ),
        joins=(
            JoinPredicate("t", "id", "mc", "movie_id"),
            JoinPredicate("mc", "company_id", "cn", "id"),
        ),
        filters=(
            FilterPredicate("t", "production_year", ComparisonOp.GT, 1980),
            FilterPredicate("cn", "country_code", ComparisonOp.EQ, 2),
        ),
    )


def make_five_table_query(name: str = "q5") -> Query:
    """A 5-way star join around title with three filters."""
    return Query(
        name=name,
        tables=(
            TableRef("title", "t"),
            TableRef("movie_companies", "mc"),
            TableRef("company_name", "cn"),
            TableRef("movie_info", "mi"),
            TableRef("info_type", "it"),
        ),
        joins=(
            JoinPredicate("t", "id", "mc", "movie_id"),
            JoinPredicate("mc", "company_id", "cn", "id"),
            JoinPredicate("t", "id", "mi", "movie_id"),
            JoinPredicate("mi", "info_type_id", "it", "id"),
        ),
        filters=(
            FilterPredicate("t", "production_year", ComparisonOp.BETWEEN, (1950, 2000)),
            FilterPredicate("cn", "country_code", ComparisonOp.IN, (0, 1, 2)),
            FilterPredicate("it", "info", ComparisonOp.EQ, 1),
        ),
    )


@pytest.fixture(scope="session")
def three_table_query():
    """A 3-table SPJ query."""
    return make_three_table_query()


@pytest.fixture(scope="session")
def five_table_query():
    """A 5-table SPJ query."""
    return make_five_table_query()


class PlanCall(threading.Thread):
    """One ``service.plan(request)`` on its own thread, started at once.

    This is the concurrency the HTTP gateway produces (one thread per
    connection, each calling ``plan``); ``result`` joins and returns the
    response or re-raises what ``plan`` raised.
    """

    def __init__(self, service, request):
        super().__init__(daemon=True)
        self.service = service
        self.request = request
        self.response = None
        self.error: BaseException | None = None
        self.start()

    def run(self) -> None:
        try:
            self.response = self.service.plan(self.request)
        except BaseException as error:  # noqa: BLE001 - re-raised by result()
            self.error = error

    def result(self, timeout: float = 10.0):
        self.join(timeout)
        assert not self.is_alive(), f"plan({self.request!r}) still running"
        if self.error is not None:
            raise self.error
        return self.response


def wait_until(condition, timeout: float = 5.0) -> bool:
    """Poll ``condition`` every millisecond until it holds or time runs out."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.001)
    return True


@pytest.fixture()
def shared_client():
    """Hands out ``SharedCacheClient``s and closes every one at teardown."""
    clients = []

    def make(address) -> SharedCacheClient:
        client = SharedCacheClient(address)
        clients.append(client)
        return client

    yield make
    for client in clients:
        client.close()
