"""Fault tolerance for the RDD engine: retry policy and the task runner.

The paper's substrate (Spark) re-executes lost tasks from lineage. Here
every executor runs its tasks through :func:`run_task_with_retry`,
which replays a task (same partition, same closure — tasks are
deterministic, so replay is exact) with exponential backoff when it
fails for a *transient* reason, and gives up immediately on
deterministic application errors. Tasks run in the driver, so a task's
inputs are always in hand and there is no worker pool to lose.

The budgets live in one :class:`RetryPolicy`, carried by the executor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Tuple, Type

from repro.errors import FatalTaskError, TransientTaskError


@dataclass
class RetryPolicy:
    """Budget and backoff for per-task retry.

    Parameters
    ----------
    max_task_attempts:
        Total attempts per task (1 disables per-task retry and its
        wrapper entirely — the zero-overhead path).
    backoff_base / backoff_factor / max_backoff:
        Exponential backoff: attempt ``k`` (1-based) sleeps
        ``min(base * factor**(k-1), max_backoff)`` seconds before the
        next attempt.
    transient_exceptions:
        Exception types treated as retryable. Everything else is
        deterministic → fatal on first occurrence.
    sleep:
        Injectable clock for tests (defaults to ``time.sleep``).
    """

    max_task_attempts: int = 3
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    max_backoff: float = 1.0
    transient_exceptions: Tuple[Type[BaseException], ...] = (
        TransientTaskError,
        ConnectionError,
        EOFError,
    )
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.max_task_attempts < 1:
            raise ValueError("max_task_attempts must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Seconds to wait after failed attempt ``attempt`` (1-based)."""
        return min(
            self.backoff_base * (self.backoff_factor ** (attempt - 1)),
            self.max_backoff,
        )

    def is_transient(self, exc: BaseException) -> bool:
        return isinstance(exc, self.transient_exceptions)


#: Policy used when none is configured.
DEFAULT_RETRY_POLICY = RetryPolicy()


#: Retry policy that disables retry — the raw seed behaviour.
def no_retry_policy() -> RetryPolicy:
    return RetryPolicy(max_task_attempts=1)


def _annotate(exc: BaseException, index: int, attempt: int) -> None:
    """Chain the task's partition index into an exception in place,
    without changing its type (callers match on the original class)."""
    try:
        exc.partition_index = index  # type: ignore[attr-defined]
        exc.add_note(
            f"[repro.rdd] task for partition {index} "
            f"failed on attempt {attempt}"
        )
    except Exception:  # pragma: no cover - exotic exception classes
        pass


def run_task_with_retry(
    fn: Callable[[int, List[Any]], List[Any]],
    index: int,
    items: List[Any],
    policy: RetryPolicy,
) -> List[Any]:
    """Run one partition task under the retry policy.

    Transient failures are retried with exponential backoff up to
    ``policy.max_task_attempts``; exhausting the budget raises
    :class:`~repro.errors.FatalTaskError` chained to the last transient
    cause. Deterministic (non-transient) exceptions propagate unchanged
    on the first attempt, annotated with the partition index.
    """
    attempt = 1
    while True:
        try:
            return fn(index, items)
        except Exception as exc:
            if not policy.is_transient(exc):
                _annotate(exc, index, attempt)
                raise
            if attempt >= policy.max_task_attempts:
                raise FatalTaskError(
                    f"task for partition {index} failed after "
                    f"{attempt} attempts: {exc}",
                    task_index=index,
                    partition_index=index,
                    attempts=attempt,
                ) from exc
            policy.sleep(policy.backoff(attempt))
            attempt += 1


def make_retrying_task(
    fn: Callable[[int, List[Any]], List[Any]], policy: RetryPolicy
) -> Callable[[int, List[Any]], List[Any]]:
    """Bind ``fn`` to the retry runner; identity when retry is disabled
    (``max_task_attempts == 1``) so the no-fault path adds zero frames."""
    if policy.max_task_attempts == 1:
        return fn

    def task(index: int, items: List[Any]) -> List[Any]:
        return run_task_with_retry(fn, index, items, policy)

    return task
