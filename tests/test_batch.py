"""Retry policy and bounded-parallel batch execution."""

import random
import threading
import time

import pytest

from evoloop.backends import (
    BatchResult,
    enforce_failure_budget,
    run_batch,
    with_retry,
)
from evoloop.errors import (
    BackendUnavailable,
    FailureBudgetExceeded,
    TransientBackendError,
)


def no_sleep(_seconds):
    pass


class Flaky:
    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientBackendError(f"boom {self.calls}")
        return "ok"


class TestWithRetry:
    def test_first_try_success(self):
        value, attempts = with_retry(lambda: 42, "ep", 3, 100, sleep=no_sleep)
        assert (value, attempts) == (42, 1)

    def test_two_failures_then_success(self):
        fn = Flaky(2)
        value, attempts = with_retry(fn, "ep", 3, 100, sleep=no_sleep)
        assert value == "ok"
        assert attempts == 3
        assert fn.calls == 3

    def test_exhaustion_raises_unavailable(self):
        fn = Flaky(99)
        with pytest.raises(BackendUnavailable) as exc:
            with_retry(fn, "scorer", 4, 100, sleep=no_sleep)
        assert exc.value.attempts == 4
        assert exc.value.endpoint == "scorer"
        assert fn.calls == 4

    def test_non_transient_error_propagates_immediately(self):
        calls = []

        def fn():
            calls.append(1)
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            with_retry(fn, "ep", 5, 100, sleep=no_sleep)
        assert len(calls) == 1

    def test_backoff_delays_respect_exponential_jitter_ceiling(self):
        delays = []
        with pytest.raises(BackendUnavailable):
            with_retry(Flaky(99), "ep", 4, 80, sleep=delays.append)
        assert len(delays) == 3  # no sleep after the final attempt
        for k, delay in enumerate(delays):
            assert 0.0 <= delay <= 0.080 * (2 ** k)

    def test_max_attempts_one_means_no_retry(self):
        fn = Flaky(1)
        with pytest.raises(BackendUnavailable):
            with_retry(fn, "ep", 1, 100, sleep=no_sleep)
        assert fn.calls == 1


class TestRunBatch:
    def test_empty(self):
        assert run_batch([], max_in_flight=1) == []

    def test_results_in_input_order_under_random_latency(self):
        rng = random.Random(606)
        latencies = [rng.uniform(0, 0.003) for _ in range(1000)]

        def make_task(i):
            def task():
                time.sleep(latencies[i])
                return i, threading.get_ident()
            return task

        for width in (1, 4, 16):
            results = run_batch([make_task(i) for i in range(1000)], max_in_flight=width)
            assert [r.value[0] for r in results] == list(range(1000)), width
            assert all(r.ok for r in results), width
            # width 1 runs every task in the calling thread; wider runs use a pool
            on_caller = {r.value[1] == threading.get_ident() for r in results}
            assert on_caller == {width == 1}, width

    def test_concurrency_never_exceeds_limit(self):
        lock = threading.Lock()
        state = {"now": 0, "peak": 0}

        def task():
            with lock:
                state["now"] += 1
                state["peak"] = max(state["peak"], state["now"])
            time.sleep(0.002)
            with lock:
                state["now"] -= 1
            return True

        run_batch([task] * 100, max_in_flight=8)
        assert state["peak"] <= 8

    def test_item_failures_are_carried_not_raised(self):
        def ugly():
            raise KeyError("missing")

        for width in (1, 4):
            bad = Flaky(1)
            results = run_batch([lambda: 1, bad, ugly], max_in_flight=width)
            assert results[0].ok and results[0].value == 1
            assert not results[1].ok
            assert isinstance(results[1].error, TransientBackendError)
            assert bad.calls == 1  # one attempt; retry belongs to the clients
            assert not results[2].ok
            assert isinstance(results[2].error, KeyError)

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            run_batch([lambda: 1], max_in_flight=0)


class TestFailureBudget:
    def _results(self, failed, total):
        out = []
        for i in range(total):
            ok = i >= failed
            out.append(BatchResult(ok=ok, error=None if ok else RuntimeError("x")))
        return out

    def test_at_budget_passes(self):
        enforce_failure_budget(self._results(5, 100), budget=0.05)

    def test_over_budget_raises(self):
        with pytest.raises(FailureBudgetExceeded) as exc:
            enforce_failure_budget(self._results(6, 100), budget=0.05)
        assert exc.value.failed == 6
        assert exc.value.total == 100

    def test_empty_results_pass(self):
        enforce_failure_budget([], budget=0.05)
