"""Only the path ``benchmarks/suite/tracing.py`` patches: plans are
memoized by the session's :class:`repro.core.plan_memo.PlanMemo`, and
patching this unused subclass leaves that memo (and ``sj.ask``) out of
the suite's serve layers. It goes once the suite names the core class.
"""

from __future__ import annotations

from repro.core.plan_memo import PlanMemo


class PlanCache(PlanMemo):
    get_or_solve = PlanMemo.get_or_solve
