"""Deterministic content hashing.

Plan fingerprints, schema fingerprints and the serve tier's cache
keys name a derivation by its *content*, so two analysts issuing the
same derivation sequence get the same key. That requires a hash that
is stable across processes and sessions — Python's builtin ``hash`` is
salted per process, so we canonicalise to JSON and hash with SHA-256
instead.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def stable_json(obj: Any) -> str:
    """Serialize ``obj`` to a canonical JSON string.

    Keys are sorted and separators fixed so that logically equal inputs
    always produce byte-identical output. Non-JSON-native objects may
    participate by exposing ``to_json_dict()``.
    """
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def _jsonable(obj: Any) -> Any:
    if hasattr(obj, "to_json_dict"):
        return _jsonable(obj.to_json_dict())
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(str(_jsonable(v)) for v in obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def content_hash(obj: Any) -> str:
    """Return a stable hex digest identifying ``obj`` by content."""
    return hashlib.sha256(stable_json(obj).encode("utf-8")).hexdigest()
