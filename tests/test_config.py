"""The unified typed configuration layer: knob registry, profiles,
provenance, aliases, typed errors, and the generated documentation.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import KNOBS, ScrubJaySession, ServeConfig, TuningProfile
from repro.config import diff, knob_table, resolve
from repro.errors import ConfigError, TransientTaskError
from repro.rdd.executors import FaultInjectingExecutor, SerialExecutor


# ----------------------------------------------------------------------
# knob registry & resolution
# ----------------------------------------------------------------------


def test_every_knob_is_typed_bounded_and_documented():
    for name, k in KNOBS.items():
        assert k.kind in ("bool", "int", "float", "str")
        assert k.doc, f"{name} lacks documentation"
        if k.kind in ("int", "float") and not k.nullable:
            assert k.low is not None or k.high is not None or isinstance(
                k.default, bool
            ), f"numeric knob {name} declares no bounds"


def test_aliases_resolve_dotted_underscored_and_leaf_names():
    assert resolve("adaptive.broadcast_threshold_bytes") == \
        "adaptive.broadcast_threshold_bytes"
    assert resolve("adaptive_broadcast_threshold_bytes") == \
        "adaptive.broadcast_threshold_bytes"
    assert resolve("projection") == "engine.projection"  # unique leaf
    # historical spellings from the flat-kwarg era
    assert resolve("broadcast_threshold") == \
        "adaptive.broadcast_threshold_bytes"
    assert resolve("num_workers") == "executor.num_workers"
    assert resolve("executor") == "executor.kind"


def test_columnar_knob_is_gone():
    # plans run on the row path only; the knob is an unknown name now
    with pytest.raises(ConfigError) as ei:
        TuningProfile(columnar=True)
    assert ei.value.knob == "columnar"


def test_real_executors_and_stage_replay_knob_are_gone():
    # tasks run in the driver: no thread/process executor to pick, and
    # no worker pool whose death a stage replay would recover from
    assert len(KNOBS) == 33
    for kind in ("threads", "processes"):
        with pytest.raises(ConfigError, match="must be one of"):
            TuningProfile(executor_kind=kind)
    with pytest.raises(ConfigError) as ei:
        TuningProfile(max_stage_attempts=2)
    assert ei.value.knob == "max_stage_attempts"


def test_unknown_knob_raises_typed_error_with_suggestion():
    with pytest.raises(ConfigError) as ei:
        resolve("broadcast_treshold")  # typo
    assert ei.value.knob == "broadcast_treshold"
    assert "broadcast_threshold" in str(ei.value)  # difflib hint
    with pytest.raises(ConfigError):
        TuningProfile(definitely_not_a_knob=1)


def test_out_of_bounds_values_raise_naming_the_knob():
    with pytest.raises(ConfigError) as ei:
        TuningProfile(broadcast_threshold=-1)
    assert ei.value.knob == "adaptive.broadcast_threshold_bytes"
    assert "lower bound" in str(ei.value)
    with pytest.raises(ConfigError, match="expects"):
        TuningProfile(projection="yes")  # bool knob, string value
    with pytest.raises(ConfigError, match="must be one of"):
        TuningProfile(executor_kind="gpu")


FLOAT_KNOBS = [name for name, k in KNOBS.items() if k.kind == "float"]


@pytest.mark.parametrize("name", FLOAT_KNOBS)
def test_nan_is_rejected_by_every_float_knob(name):
    # NaN compares false against both bounds, so a bare range check
    # would accept it
    with pytest.raises(ConfigError) as ei:
        TuningProfile().set(name, float("nan"))
    assert ei.value.knob == name
    section, leaf = name.split(".", 1)
    if section == "serve":
        with pytest.raises(ConfigError) as ei:
            ServeConfig(**{leaf: float("nan")})
        assert ei.value.knob == name


# ----------------------------------------------------------------------
# profile: provenance, pinning, introspection
# ----------------------------------------------------------------------


def test_provenance_tracks_default_and_user():
    p = TuningProfile(projection=False)
    assert p.provenance("engine.projection") == "user-pinned"
    assert p.provenance("serve.result_ttl") == "default"
    p.set("serve.result_ttl", 5.0)
    assert p.provenance("serve.result_ttl") == "user-pinned"
    snap = p.snapshot()
    assert snap["knobs"]["engine.projection"] == {
        "value": False, "provenance": "user-pinned",
    }
    assert snap["version"] == p.version


def test_diff_compares_profiles_and_mappings():
    a = TuningProfile()
    b = TuningProfile(broadcast_threshold=1024, projection=False)
    d = diff(a, b)
    assert d == {
        "adaptive.broadcast_threshold_bytes": (8 << 20, 1024),
        "engine.projection": (True, False),
    }
    assert diff(b, b) == {}
    # plain mappings work too, with missing knobs read as defaults
    assert diff({}, {"engine.projection": False}) == {
        "engine.projection": (True, False),
    }


# ----------------------------------------------------------------------
# session & engine integration
# ----------------------------------------------------------------------


def test_engine_config_is_frozen_mutation_goes_through_profile():
    sj = ScrubJaySession()
    try:
        with pytest.raises(dataclasses.FrozenInstanceError):
            sj.engine.config.projection = False
        assert sj.engine.config.projection is True
        sj.profile.set("engine.projection", False)
        assert sj.engine.config.projection is False
        sj.profile.set("adaptive.broadcast_threshold_bytes", 123)
        assert sj.ctx.adaptive.broadcast_threshold_bytes == 123
        assert sj.ctx.planner.config.broadcast_threshold_bytes == 123
    finally:
        sj.close()


def test_retry_knob_written_on_a_live_session_takes_effect():
    sj = ScrubJaySession()
    try:
        policy = sj.ctx.executor.retry_policy
        assert policy.max_task_attempts == 3
        sj.profile.set("retry.max_task_attempts", 1)
        assert sj.profile.provenance("retry.max_task_attempts") == \
            "user-pinned"
        assert sj.ctx.executor.retry_policy.max_task_attempts == 1
        # the rest of the policy (backoff, transient classes) is kept
        assert sj.ctx.executor.retry_policy.backoff_base == \
            policy.backoff_base
    finally:
        sj.close()


def test_retry_knob_reaches_a_wrapped_executor():
    inj = FaultInjectingExecutor(SerialExecutor(), kill_tasks_per_stage=1)
    sj = ScrubJaySession(executor=inj)
    try:
        sj.profile.set("retry.max_task_attempts", 1)
        assert inj.inner.retry_policy.max_task_attempts == 1
        # one attempt: the injected kill is no longer retried away
        with pytest.raises(TransientTaskError):
            sj.ctx.parallelize(range(8), 2).map(lambda x: x).collect()
    finally:
        sj.close()


def test_session_profile_is_introspectable():
    sj = ScrubJaySession(TuningProfile(num_workers=3))
    try:
        assert sj.profile.get("executor.num_workers") == 3
        assert sj.profile.provenance("executor.num_workers") == \
            "user-pinned"
        assert diff(sj.profile, TuningProfile()) == {
            "executor.num_workers": (3, None),
        }
    finally:
        sj.close()


# ----------------------------------------------------------------------
# serve config
# ----------------------------------------------------------------------


def test_serve_config_validates_at_construction():
    cfg = ServeConfig(num_workers=2, result_ttl=1.5)
    assert cfg.num_workers == 2
    with pytest.raises(ConfigError) as ei:
        ServeConfig(num_workers=0)
    assert ei.value.knob == "serve.num_workers"
    with pytest.raises(ConfigError):
        ServeConfig(result_ttl=-1.0)


def test_serve_config_overrides_reject_unknown_knobs():
    cfg = ServeConfig()
    with pytest.raises(ConfigError) as ei:
        cfg.with_overrides(num_wokers=2)  # typo
    assert "num_workers" in str(ei.value)  # suggestion present


def test_session_serve_rejects_unknown_and_out_of_bounds_knobs():
    sj = ScrubJaySession()
    try:
        with pytest.raises(ConfigError, match="num_workers"):
            sj.serve(num_wokers=2)
        with pytest.raises(ConfigError, match="max_queue"):
            sj.serve(max_queue=-1)
        with pytest.raises(ConfigError, match="shards"):
            sj.serve(shard_on={"t": ["k"]})  # shard arg, no shards=
    finally:
        sj.close()


def test_session_serve_reads_profile_serve_knobs():
    sj = ScrubJaySession(TuningProfile(
        serve_num_workers=2, result_ttl=3.5))
    try:
        svc = sj.serve()
        try:
            assert svc.config.num_workers == 2
            assert svc.config.result_ttl == 3.5
            assert svc.result_cache.ttl == 3.5
            snap_profile = svc.snapshot().profile
            assert snap_profile["knobs"]["serve.result_ttl"][
                "provenance"] == "user-pinned"
        finally:
            svc.close()
    finally:
        sj.close()


# ----------------------------------------------------------------------
# generated documentation
# ----------------------------------------------------------------------


def test_design_doc_knob_table_is_current():
    """DESIGN.md embeds ``repro.config.knob_table()`` output; a knob
    added or changed without regenerating the table fails here."""
    with open("DESIGN.md", encoding="utf-8") as f:
        design = f.read()
    assert knob_table() in design, (
        "DESIGN.md knob table is stale - regenerate with "
        "python -c 'from repro.config import knob_table; "
        "print(knob_table())'"
    )
