"""The serve layer's result-cache key.

Plans come from the session's memo (keyed by
:func:`repro.core.plan_memo.plan_key`), so equal questions share a plan
fingerprint; the result key adds the state fingerprint and the catalog
data version: a plan stays valid when a dataset is dropped and
re-registered with the same schema but different rows — its cached
*result* does not.
"""

from __future__ import annotations

from repro.util.hashing import content_hash


def result_key(
    plan_fingerprint: str,
    state_fingerprint: str,
    catalog_version: int,
    data_versions=None,
) -> str:
    """Cache key for a materialized query result.

    ``data_versions`` — the *non-zero* per-dataset feed versions of
    the plan's inputs (:meth:`repro.session.ScrubJaySession.
    data_versions`) — lets a feed advance re-key only queries reading
    that dataset, without the fleet-wide churn of bumping
    ``catalog_version``. An empty/absent mapping hashes to the
    pre-streaming key form, keeping historical keys stable.
    """
    payload = {
        "plan": plan_fingerprint,
        "state": state_fingerprint,
        "catalog_version": catalog_version,
    }
    if data_versions:
        payload["data_versions"] = dict(sorted(data_versions.items()))
    return content_hash(payload)
