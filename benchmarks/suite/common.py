"""What the four workloads share: the workload protocol the runner
drives, seeded request drawing, and the public-counter readers.

``repro`` must be importable before this module is (run.py puts the
checkout's ``src/`` on ``sys.path`` first).
"""

from __future__ import annotations

import os
import random
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

Request = Tuple[str, Any]  # (operation kind, parameters)


class Workload:
    """One end-to-end scenario. The runner calls, in order:

    ``generate`` → ``prepare_oracles`` (untimed) → ``build`` → ``warm``
    (those three timed as ``setup_s``), then ``requests``/``execute``/
    ``check`` in a closed loop per caller, then ``finish`` and
    ``close``.

    ``execute`` is the only timed call: it must return typed rows or
    groups already in the caller's hands. ``check`` runs after the
    clock stops and returns an error string or None.
    """

    name = ""
    #: operation kinds, cheapest first (documentation order)
    kinds: Tuple[str, ...] = ()
    #: closed-loop callers (never more than cores)
    callers = 1
    #: whole cycles per second per caller on the seed commit at full
    #: size: what turns ``--seconds`` into a constant cycle count
    cycles_per_second: float

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    # -- set-up --------------------------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def prepare_oracles(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def warm(self) -> List[Tuple[Request, Any]]:
        """One untimed-by-the-loop pass over every kind; returns
        (request, result) pairs for the runner to check."""
        raise NotImplementedError

    # -- the loop ------------------------------------------------------
    def cycles(self, seconds: float) -> int:
        """Whole cycles each caller replays in a measured phase: the
        number that fills ``seconds`` at the seed commit's pace, never
        the clock, so two runs do identical work (a faster run of
        ``stream_refresh`` would otherwise append more and scan a larger
        store, a slower one less). At smoke sizes two: a traced run
        records one and leaves one plain."""
        if self.smoke:
            return 2
        return max(2, round(seconds * self.cycles_per_second))

    def requests(self, caller: int) -> List[Request]:
        """The next cycle's requests for one caller: the fixed mix in a
        seeded order, parameters never repeated within a run."""
        raise NotImplementedError

    def before(self, caller: int, request: Request) -> Request:
        """Untimed preparation of one request (e.g. generating the
        rows an append will carry)."""
        return request

    def execute(self, caller: int, request: Request) -> Any:
        raise NotImplementedError

    def check(self, caller: int, request: Request,
              result: Any) -> Optional[str]:
        raise NotImplementedError

    # -- wrap-up -------------------------------------------------------
    def finish(self) -> List[str]:
        """End-of-run checks; each returned string is one failure."""
        return []

    def close(self) -> None:
        raise NotImplementedError

    # -- reporting -----------------------------------------------------
    def sizes(self) -> Dict[str, Any]:
        return {}

    def input_rows(self) -> Sequence[Sequence[Dict[str, Any]]]:
        """Generated row lists, for the input digest."""
        return ()

    def counters(self) -> Dict[str, float]:
        """Cumulative public counters (registry counters, service
        snapshot) the traced run diffs around its measured phase."""
        return {}

    def rows_stored(self) -> int:
        return 0

    def wire_sample(self, request: Request, result: Any) -> Tuple[int, int]:
        """(bytes, rows) of one reply as framed on the wire; (0, 0)
        for a workload that has no wire."""
        return 0, 0

    def profile_knobs(self) -> Dict[str, Any]:
        """Every non-default TuningProfile knob in use."""
        return {}


# ----------------------------------------------------------------------
# request drawing
# ----------------------------------------------------------------------

def mixed_cycle(rng: random.Random,
                mix: Sequence[Tuple[str, int]]) -> List[str]:
    """One cycle's kinds: ``count`` of each, in a seeded order."""
    kinds = [kind for kind, count in mix for _ in range(count)]
    rng.shuffle(kinds)
    return kinds


def unique_draws(rng: random.Random, space: int) -> Iterator[int]:
    """Integers in ``[0, space)`` without replacement, lazily and in a
    seeded order (a full-period affine walk, so nothing is stored and
    no request repeats until the space is used up)."""
    if space <= 0:
        raise ValueError("empty request space")
    start = rng.randrange(space)
    step = rng.randrange(1, space) if space > 1 else 1
    from math import gcd

    while gcd(step, space) != 1:
        step += 1
    value = start
    while True:
        yield value
        value = (value + step) % space


# ----------------------------------------------------------------------
# public counters
# ----------------------------------------------------------------------

def registry_counters(ctx: Any) -> Dict[str, float]:
    """``ctx.metrics`` counters with label sets folded: both the exact
    ``name{labels}`` series and the per-name total are returned."""
    out: Dict[str, float] = {}
    for series, value in ctx.metrics.snapshot()["counters"].items():
        out[series] = out.get(series, 0) + value
        base = series.split("{", 1)[0]
        if base != series:
            out[base] = out.get(base, 0) + value
    return out


def service_counters(svc: Any) -> Dict[str, float]:
    """The numeric leaves of ``svc.snapshot()`` the layer metrics use."""
    snap = svc.snapshot()
    out: Dict[str, float] = {
        "serve.submitted": snap.submitted,
        "serve.completed": snap.completed,
        "serve.failed": snap.failed,
        "serve.shed": snap.shed,
    }
    for cache in ("plan_cache", "result_cache"):
        stats = getattr(snap, cache) or {}
        for key in ("hits", "misses", "evictions"):
            out[f"serve.{cache}.{key}"] = stats.get(key, 0)
    for key, value in ((snap.shards or {}).get("routing") or {}).items():
        out[f"serve.sharded.{key}"] = value
    streams = snap.streams or {}
    for key in ("refresh_delta", "refresh_replay"):
        out[f"stream.{key}"] = streams.get(key, 0)
    return out


def non_default_knobs(profile: Any) -> Dict[str, Any]:
    return {
        name: entry["value"]
        for name, entry in profile.snapshot()["knobs"].items()
        if entry["provenance"] != "default"
    }


def dir_bytes(root: str) -> Tuple[int, int]:
    """(bytes, files) under a directory."""
    total = files = 0
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
                files += 1
            except OSError:
                pass
    return total, files
