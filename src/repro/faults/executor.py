"""The retrying fork executor: map a task over items on forked workers.

:func:`fork_map` runs ``task(item)`` for every item on at most ``workers``
forked processes and returns the results in item (*slot*) order.  The task
and its items reach the workers by fork inheritance through a module global,
so closures, bound methods, oracles and shields never need to pickle; only
the results travel back.

Failures are recovered **per slot** under a :class:`~repro.faults.RetryPolicy`:
a crashed, erroring (``OSError``) or hung worker fails its slot, which is
re-submitted to a fresh pool after a deterministic backoff; once its attempts
are exhausted the slot runs in-process, where fault injection is disabled, so
progress is guaranteed.  A dying worker breaks its whole pool, so the slots
in flight or queued beside it fail that attempt too.  Completed slots are
never re-executed.  Every recovery decision lands in a
:class:`~repro.faults.FaultLog` and emits a ``RuntimeWarning``.  Tasks must
be idempotent per item, which makes a recovered map bit-identical to a clean
one.

Where ``fork`` is unavailable, or there is at most one item or one worker,
every slot runs in-process through the same inline lane.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .plan import active_plan, fault_site
from .retry import FaultLog, RetryPolicy

__all__ = ["fork_map"]

#: ``(task, items)`` of the running map, inherited by its forked workers.
_JOB: Optional[Tuple[Callable[[Any], Any], Sequence[Any]]] = None


def _run_slot(site: str, slot: int, attempt: int):
    task, items = _JOB
    fault_site(site, index=slot, attempt=attempt)
    return task(items[slot])


def fork_map(
    task: Callable[[Any], Any],
    items: Sequence[Any],
    workers: int,
    *,
    site: str,
    policy: Optional[RetryPolicy] = None,
    fault_log: Optional[FaultLog] = None,
    inline: Optional[Callable[[Any], Any]] = None,
    label: Optional[str] = None,
    started_at: Optional[float] = None,
) -> List[Any]:
    """``[task(item) for item in items]``, on up to ``workers`` forked processes.

    Every item is submitted up front, so a free worker pulls the next one.
    ``inline`` (default ``task``) runs a slot in-process: the fallback lane
    and the recovery lane.  ``site`` names the fault-injection site hit at
    the start of every forked slot.  Recoveries are recorded in
    ``fault_log`` with ``at_seconds`` measured from ``started_at`` (default:
    the call), and warned about as ``"{label} recovery: ..."`` (default
    label: the site).
    """
    global _JOB
    items = list(items)
    policy = policy if policy is not None else RetryPolicy()
    fault_log = fault_log if fault_log is not None else FaultLog()
    inline = inline if inline is not None else task
    label = label if label is not None else site
    started_at = time.perf_counter() if started_at is None else started_at

    def run_inline(slot: int, attempt: int):
        fault_site(site, index=slot, attempt=attempt, inline=True)
        return inline(items[slot])

    if workers <= 1 or len(items) <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [run_inline(slot, 0) for slot in range(len(items))]

    def note(slot: int, attempt: int, outcome: str, detail: str, backoff: float = 0.0):
        fault_log.record(
            site=site,
            index=slot,
            attempt=attempt,
            outcome=outcome,
            detail=detail,
            backoff_seconds=backoff,
            at_seconds=time.perf_counter() - started_at,
        )
        warnings.warn(
            f"{label} recovery: slot {slot} failed on attempt {attempt + 1}/"
            f"{policy.max_attempts} ({detail}); {outcome}",
            RuntimeWarning,
            stacklevel=3,
        )

    # Adopt any env-var fault plan before the fork so workers inherit it with
    # this (parent) pid pinned as crash-exempt.
    active_plan()
    results: Dict[int, Any] = {}
    pending: Dict[int, int] = {slot: 0 for slot in range(len(items))}  # slot -> attempt
    previous, _JOB = _JOB, (task, items)
    try:
        while pending:
            batch = sorted(pending.items())
            size = min(workers, len(batch))
            failed: List[Tuple[int, int, str]] = []
            executor = None
            try:
                executor = ProcessPoolExecutor(
                    max_workers=size, mp_context=multiprocessing.get_context("fork")
                )
                futures = {
                    executor.submit(_run_slot, site, slot, attempt): (slot, attempt)
                    for slot, attempt in batch
                }
                timeout = policy.wave_timeout(len(batch), size)
                done, not_done = wait(set(futures), timeout=timeout)
                for future in done:
                    slot, attempt = futures[future]
                    try:
                        results[slot] = future.result()
                    except (BrokenProcessPool, OSError) as error:
                        failed.append((slot, attempt, f"{type(error).__name__}: {error}"))
                        continue
                    del pending[slot]
                for future in not_done:
                    reason = f"no result within the {timeout:.3g}s watchdog deadline"
                    failed.append((*futures[future], reason))
            except OSError as error:
                failed = [
                    (slot, attempt, f"could not fork workers: {error}") for slot, attempt in batch
                ]
            finally:
                if executor is not None:
                    # Never wait on a possibly-hung worker; the pool is
                    # per-wave, so retiring it is free.
                    executor.shutdown(wait=False, cancel_futures=True)
            wave_backoff = 0.0
            for slot, attempt, reason in sorted(failed):
                if attempt + 1 < policy.max_attempts:
                    backoff = policy.backoff_for(site, slot, attempt + 1)
                    wave_backoff = max(wave_backoff, backoff)
                    note(slot, attempt, "retry", reason, backoff)
                    pending[slot] = attempt + 1
                else:
                    note(slot, attempt, "recovered-inline", reason)
                    results[slot] = run_inline(slot, attempt)
                    del pending[slot]
            if wave_backoff > 0.0:
                time.sleep(wave_backoff)
    finally:
        _JOB = previous
    return [results[slot] for slot in range(len(items))]
