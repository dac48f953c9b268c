"""Retry and bounded-parallel batch execution."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..errors import BackendUnavailable, FailureBudgetExceeded, TransientBackendError

DEFAULT_FAILURE_BUDGET = 0.05

_jitter = random.Random()


def with_retry(
    fn: Callable[[], Any],
    endpoint: str,
    max_attempts: int,
    backoff_base_ms: int,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[Any, int]:
    """Call fn, retrying transient failures.

    Delay before the k-th retry (k from 0) is uniform in
    [0, backoff_base_ms * 2^k] milliseconds (full jitter). Non-transient
    exceptions propagate untouched on the first occurrence. Returns
    (value, attempts). Exhaustion raises BackendUnavailable.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    attempts = 0
    while True:
        attempts += 1
        try:
            return fn(), attempts
        except TransientBackendError as exc:
            if attempts >= max_attempts:
                raise BackendUnavailable(endpoint, attempts, str(exc)) from exc
            ceiling_ms = backoff_base_ms * (2 ** (attempts - 1))
            sleep(_jitter.uniform(0.0, ceiling_ms) / 1000.0)


@dataclass
class BatchResult:
    ok: bool
    value: Any = None
    error: Exception | None = None


def _run_one(task: Callable[[], Any]) -> BatchResult:
    try:
        return BatchResult(ok=True, value=task())
    except Exception as exc:  # noqa: BLE001 - per-item error channel
        return BatchResult(ok=False, error=exc)


def run_batch(
    tasks: Sequence[Callable[[], Any]], max_in_flight: int
) -> list[BatchResult]:
    """Run each task once, at most max_in_flight at a time; results come
    back in input order regardless of completion order. Failures are
    carried per item, never raised out of the batch. At width 1 the tasks
    run in the calling thread, in order, and no pool is started. Retry
    belongs to the clients.
    """
    if max_in_flight < 1:
        raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
    if max_in_flight == 1 or not tasks:
        return [_run_one(task) for task in tasks]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        return list(pool.map(_run_one, tasks))


def enforce_failure_budget(results: Sequence[BatchResult], budget: float) -> None:
    """Raise when the failed fraction exceeds the budget.

    Silent sample loss would bias anything computed downstream of the batch,
    so callers opt in to a hard stop instead of quietly dropping items.
    """
    if not results:
        return
    failed = sum(1 for r in results if not r.ok)
    if failed / len(results) > budget:
        raise FailureBudgetExceeded(failed, len(results), budget)
