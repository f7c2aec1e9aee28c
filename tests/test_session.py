"""ScrubJaySession: the single analyst entry point."""

import pytest

from repro import (
    Schema,
    ScrubJaySession,
    SemanticType,
    DOMAIN,
    VALUE,
)
from repro.core.derivation import Transformation
from repro.errors import ScrubJayError, SemanticError

SCHEMA = Schema({
    "node": SemanticType(DOMAIN, "compute nodes", "identifier"),
    "temp": SemanticType(VALUE, "temperature", "degrees Celsius"),
})


def test_register_rows_and_lookup(session):
    ds = session.register_rows([{"node": 1, "temp": 20.0}], SCHEMA, "t")
    assert session.dataset("t") is ds
    assert session.schemas() == {"t": SCHEMA}


def test_register_duplicate_name_rejected(session):
    session.register_rows([], SCHEMA, "t")
    with pytest.raises(ScrubJayError, match="already registered"):
        session.register_rows([], SCHEMA, "t")


def test_register_validates_against_dictionary(session):
    bad = Schema({"x": SemanticType(DOMAIN, "not a dim", "identifier")})
    with pytest.raises(SemanticError):
        session.register_rows([], bad, "bad")


def test_unknown_dataset_lookup(session):
    with pytest.raises(ScrubJayError, match="no dataset"):
        session.dataset("ghost")


def test_ingest_csv_registers(session, tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("node,temp\n1,20.0\n")
    ds = session.ingest().csv(str(path), SCHEMA).register("csvdata")
    assert ds.collect() == [{"node": 1, "temp": 20.0}]
    assert "csvdata" in session.schemas()


def test_define_dimension_and_unit(session):
    session.define_dimension("gpu utilization", True, True)
    session.define_unit("gpu percent", "quantity", "gpu utilization")
    schema = Schema({
        "u": SemanticType(VALUE, "gpu utilization", "gpu percent"),
    })
    session.register_rows([], schema, "gpus")


def test_register_session_local_derivation(session):
    class Noop(Transformation):
        op_name = "noop_test_only"

        def __init__(self):
            pass

        def applies(self, schema, dictionary):
            return True

        def derive_schema(self, schema, dictionary):
            return schema

        def apply(self, dataset, dictionary):
            return dataset

    session.register_derivation(Noop)
    assert session.registry.get("noop_test_only") is Noop
    # the global registry is untouched
    from repro.core.derivation import GLOBAL_REGISTRY
    from repro.errors import PipelineError

    with pytest.raises(PipelineError):
        GLOBAL_REGISTRY.get("noop_test_only")


def test_ask_plans_and_executes(fig5_session):
    rows = fig5_session.ask(
        domains=["jobs", "racks"], values=["applications", "heat"]
    ).collect()
    assert rows
    amg = [r for r in rows if r["job_name"] == "AMG"]
    assert amg and all(r["rack"] == 17 for r in amg)
    # planted heat differential: rack 17 hot-cold = 6
    assert amg[0]["heat"] == pytest.approx(6.0, abs=0.5)


def test_context_manager_closes():
    with ScrubJaySession() as sj:
        sj.register_rows([], SCHEMA, "t")
    assert sj.ctx._stopped


def test_explain_renders_plan(fig5_session):
    text = fig5_session.explain(domains=["jobs", "racks"],
                                values=["applications", "heat"])
    assert "Load[job_queue_log]" in text
    assert "interpolation_join" in text


def test_session_forwards_adaptive_knobs():
    from repro import TuningProfile

    profile = TuningProfile(broadcast_threshold_rows=0)
    with ScrubJaySession(profile).ctx as ctx:
        assert ctx.adaptive.broadcast_threshold_rows == 0
    profile = TuningProfile(broadcast_threshold_rows=123)
    sj = ScrubJaySession(profile)
    assert sj.ctx.adaptive.broadcast_threshold_rows == 123
    sj.ctx.stop()


def test_constructor_takes_a_profile_and_no_stray_arguments():
    # the pre-profile shim is gone: flat knobs and a positional ctx are
    # ordinary argument errors, not warnings
    from repro import SJContext

    with pytest.raises(TypeError, match="cache_dir"):
        ScrubJaySession(cache_dir="/tmp/nowhere")
    with pytest.raises(TypeError, match="TuningProfile"):
        ScrubJaySession(SJContext())
