"""Thread-safety of the shared mutable session state: catalog
register/drop during in-flight queries, and concurrent dictionary /
registry mutation."""

from __future__ import annotations

import threading

from repro.core.derivation import Derivation, DerivationRegistry
from repro.core.dictionary import default_dictionary
from repro.core.semantics import DOMAIN, VALUE, Schema, SemanticType
from repro.datagen.synthetic import KEYED_RIGHT_SCHEMA, keyed_tables
from repro.errors import ScrubJayError
from repro.serve import QueryService

from tests.serve.conftest import (
    HOT_DOMAINS,
    HOT_VALUES,
    JOIN_DOMAINS,
    JOIN_VALUES,
    make_session,
    row_multiset,
)


def test_register_while_queries_in_flight():
    """A churn thread registers and drops datasets continuously while
    clients query; every query must see a consistent snapshot — either
    a correct answer or (never) a crash/corrupted row set."""
    session = make_session()
    expected_join = row_multiset(
        session.ask(JOIN_DOMAINS, JOIN_VALUES).collect()
    )
    expected_hot = row_multiset(
        session.ask(HOT_DOMAINS, HOT_VALUES).collect()
    )
    stop = threading.Event()
    churn_errors = []

    # The churn datasets live on an unrelated dimension ("racks") so
    # the planner can never substitute them into the test queries —
    # answers must stay identical to the churn-free baseline even
    # though every register/drop invalidates the plan cache.
    churn_schema = Schema({
        "rack": SemanticType(DOMAIN, "racks", "identifier"),
        "hum": SemanticType(
            VALUE, "humidity", "relative humidity percent"
        ),
    })

    def churn():
        extra = [{"rack": r, "hum": 40.0 + r} for r in range(20)]
        i = 0
        try:
            while not stop.is_set():
                name = f"churn-{i % 3}"
                session.register_rows(extra, churn_schema, name=name)
                session.drop(name)
                i += 1
        except Exception as exc:  # pragma: no cover
            churn_errors.append(exc)

    churner = threading.Thread(target=churn)
    churner.start()
    try:
        with QueryService(session, num_workers=4, max_queue=256) as svc:
            query_errors = []
            mismatches = []

            def client(i):
                try:
                    for _ in range(10):
                        got = row_multiset(
                            svc.query(
                                HOT_DOMAINS,
                                HOT_VALUES,
                                tenant=f"t{i}",
                            ).collect()
                        )
                        if got != expected_hot:
                            mismatches.append(got)
                        got = row_multiset(
                            svc.query(
                                JOIN_DOMAINS,
                                JOIN_VALUES,
                                tenant=f"t{i}",
                            ).collect()
                        )
                        if got != expected_join:
                            mismatches.append(got)
                except Exception as exc:
                    query_errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert query_errors == []
            assert mismatches == []
    finally:
        stop.set()
        churner.join(10.0)
        session.close()
    assert churn_errors == []


def test_concurrent_register_same_name_exactly_one_wins():
    session = make_session()
    _, rows = keyed_tables(10, num_keys=4)
    outcomes = []
    barrier = threading.Barrier(8)

    def racer():
        barrier.wait()
        try:
            session.register_rows(rows, KEYED_RIGHT_SCHEMA, name="dup")
            outcomes.append("ok")
        except ScrubJayError:
            outcomes.append("dup")

    threads = [threading.Thread(target=racer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    session.close()
    assert outcomes.count("ok") == 1
    assert outcomes.count("dup") == 7


def test_concurrent_dictionary_definition_bumps_version_once_per_name():
    d = default_dictionary()
    v0 = d.version
    barrier = threading.Barrier(8)
    errors = []

    def definer(i):
        barrier.wait()
        try:
            # all 8 threads racing over the same 4 new names
            d.define_dimension(
                f"dim-{i % 4}", continuous=True, ordered=True
            )
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [
        threading.Thread(target=definer, args=(i,)) for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    # 4 distinct new dimensions → exactly 4 version bumps, no lost or
    # double-counted updates
    assert d.version == v0 + 4


def test_concurrent_registry_registration():
    registry = DerivationRegistry()
    barrier = threading.Barrier(8)
    errors = []

    def make_cls(i):
        return type(
            f"Deriv{i}",
            (Derivation,),
            {"op_name": f"deriv-{i}", "__module__": __name__},
        )

    classes = [make_cls(i) for i in range(8)]

    def registrar(i):
        barrier.wait()
        try:
            registry.register(classes[i])
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [
        threading.Thread(target=registrar, args=(i,)) for i in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(registry.op_names()) == 8
    for i in range(8):
        assert registry.get(f"deriv-{i}") is classes[i]
