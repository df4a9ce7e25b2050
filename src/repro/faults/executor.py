"""The retrying fork executor: run a task on forked workers, with recovery.

Two modes share one recovery lane:

* :func:`fork_map` runs ``task(item)`` for every item on at most ``workers``
  forked processes and returns the results in item (*slot*) order.  The task
  and its items reach the workers by fork inheritance through a module
  global, so closures, bound methods, oracles and shields never need to
  pickle; only the results travel back.
* :class:`ForkQueue` is the ordered, lazily fed, cancellable mode used for
  speculation: the caller submits items one at a time as it produces them,
  each is forked at once onto its own process (inheriting whatever the
  caller built so far), results are taken back in whatever order the caller
  replays them, and slots whose results are no longer wanted are killed
  rather than awaited.

Failures are recovered **per slot** under a :class:`~repro.faults.RetryPolicy`:
a crashed, erroring (``OSError``) or hung worker fails its slot, which is
re-forked after a deterministic backoff; once its attempts are exhausted the
slot runs in-process, where fault injection is disabled, so progress is
guaranteed.  In :func:`fork_map` a dying worker breaks its whole pool, so the
slots in flight or queued beside it fail that attempt too; a
:class:`ForkQueue` slot has a process of its own and fails alone.  Completed
slots are never re-executed, and a worker past the watchdog deadline is
killed and reaped, never left running.  Every recovery decision lands in a
:class:`~repro.faults.FaultLog` and emits a ``RuntimeWarning``.  Tasks must
be idempotent per item, which makes a recovered run bit-identical to a clean
one.

Where ``fork`` is unavailable, with at most one worker, or when called from
inside a forked slot (no nested forks), every slot runs in-process through
the same inline lane.  ``workers=None`` means :func:`usable_cpus`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait as wait_ready
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .plan import active_plan, fault_site
from .retry import FaultLog, RetryPolicy

__all__ = ["ForkQueue", "fork_map", "usable_cpus"]

#: ``(task, items)`` of the running map, inherited by its forked workers.
_JOB: Optional[Tuple[Callable[[Any], Any], Sequence[Any]]] = None

#: Set in every forked worker: executor calls made there run in-process.
_IN_WORKER = False


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _can_fork() -> bool:
    return not _IN_WORKER and "fork" in multiprocessing.get_all_start_methods()


def _reap(processes) -> None:
    """Kill and join worker processes (no-op on ones that already exited)."""
    for process in processes:
        if process.is_alive():
            process.kill()
    for process in processes:
        process.join()


def _run_slot(site: str, slot: int, attempt: int):
    global _IN_WORKER
    _IN_WORKER = True
    task, items = _JOB
    fault_site(site, index=slot, attempt=attempt)
    return task(items[slot])


class _Recovery:
    """The retry bookkeeping one call of either mode shares across its slots."""

    def __init__(self, task, site, policy, fault_log, inline, label, started_at) -> None:
        self.site = site
        self.policy = policy if policy is not None else RetryPolicy()
        self.fault_log = fault_log if fault_log is not None else FaultLog()
        self.inline = inline if inline is not None else task
        self.label = label if label is not None else site
        self.started_at = time.perf_counter() if started_at is None else started_at

    def run_inline(self, item, slot: int, attempt: int):
        fault_site(self.site, index=slot, attempt=attempt, inline=True)
        return self.inline(item)

    def failed(self, slot: int, attempt: int, reason: str) -> Optional[float]:
        """Record a failed attempt; the backoff before the retry, or ``None``
        once the attempts are exhausted and the slot must run inline."""
        if attempt + 1 < self.policy.max_attempts:
            backoff = self.policy.backoff_for(self.site, slot, attempt + 1)
            self._note(slot, attempt, "retry", reason, backoff)
            return backoff
        self._note(slot, attempt, "recovered-inline", reason)
        return None

    def _note(
        self, slot: int, attempt: int, outcome: str, detail: str, backoff: float = 0.0
    ) -> None:
        self.fault_log.record(
            site=self.site,
            index=slot,
            attempt=attempt,
            outcome=outcome,
            detail=detail,
            backoff_seconds=backoff,
            at_seconds=time.perf_counter() - self.started_at,
        )
        warnings.warn(
            f"{self.label} recovery: slot {slot} failed on attempt {attempt + 1}/"
            f"{self.policy.max_attempts} ({detail}); {outcome}",
            RuntimeWarning,
            stacklevel=4,
        )


def fork_map(
    task: Callable[[Any], Any],
    items: Sequence[Any],
    workers: Optional[int],
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
    workers = usable_cpus() if workers is None else workers
    recovery = _Recovery(task, site, policy, fault_log, inline, label, started_at)
    policy = recovery.policy

    if workers <= 1 or len(items) <= 1 or not _can_fork():
        return [recovery.run_inline(items[slot], slot, 0) for slot in range(len(items))]

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
            futures: Dict[Any, Tuple[int, int]] = {}
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
                    # The pool is per-wave, so retiring it is free.  Workers
                    # still busy past the watchdog are killed and reaped:
                    # never waited on, never left running.
                    hung = any(not future.done() for future in futures)
                    processes = list((executor._processes or {}).values())
                    executor.shutdown(wait=not hung, cancel_futures=True)
                    if hung:
                        _reap(processes)
            wave_backoff = 0.0
            for slot, attempt, reason in sorted(failed):
                backoff = recovery.failed(slot, attempt, reason)
                if backoff is None:
                    results[slot] = recovery.run_inline(items[slot], slot, attempt)
                    del pending[slot]
                else:
                    wave_backoff = max(wave_backoff, backoff)
                    pending[slot] = attempt + 1
            if wave_backoff > 0.0:
                time.sleep(wave_backoff)
    finally:
        _JOB = previous
    return [results[slot] for slot in range(len(items))]


def _fork_slot(task, item, site: str, slot: int, attempt: int, connection) -> None:
    """A :class:`ForkQueue` worker: run one slot, send back what happened."""
    global _IN_WORKER
    _IN_WORKER = True
    try:
        fault_site(site, index=slot, attempt=attempt)
        payload = ("ok", task(item))
    except OSError as error:
        payload = ("failed", f"{type(error).__name__}: {error}")
    except Exception as error:  # a bug in the task: re-raised by the parent
        payload = ("raise", error)
    connection.send(payload)


class _Slot:
    __slots__ = ("item", "attempt", "process", "connection", "forked_at", "error")

    def __init__(self, item) -> None:
        self.item = item
        self.attempt = 0
        self.process = None
        self.connection = None
        self.forked_at = 0.0
        self.error = ""


class ForkQueue:
    """Ordered, lazily fed, cancellable forked slots (speculative execution).

    ``submit(item)`` forks a worker for ``task(item)`` at once and returns
    the slot number; ``take(slot)`` waits for that slot's result, retrying a
    crashed, erroring or hung worker under ``policy`` and finally running
    ``task`` in-process; ``drop(slot)`` kills a slot whose result is no longer wanted; and
    ``close()`` (or leaving the ``with`` block) kills every slot not yet
    taken.  Results never arrive unasked, so the caller replays them in its
    own order and the recovery events of taken slots land in ``fault_log``
    in that order; a dropped slot leaves no trace.

    ``depth`` is how many slots the caller should keep submitted ahead of
    the one it takes next: ``workers`` (default :func:`usable_cpus`) when
    forking, else 1, in which case ``submit`` only queues the item and
    ``take`` runs it in-process, exactly as a plain loop would.
    """

    def __init__(
        self,
        task: Callable[[Any], Any],
        workers: Optional[int] = None,
        *,
        site: str,
        policy: Optional[RetryPolicy] = None,
        fault_log: Optional[FaultLog] = None,
        label: Optional[str] = None,
        started_at: Optional[float] = None,
    ) -> None:
        workers = usable_cpus() if workers is None else workers
        self.task = task
        self.forking = workers > 1 and _can_fork()
        self.depth = workers if self.forking else 1
        self._recovery = _Recovery(task, site, policy, fault_log, None, label, started_at)
        self._slots: Dict[int, _Slot] = {}
        self._submitted = 0
        if self.forking:
            # Adopt any env-var fault plan before the first fork (see fork_map).
            active_plan()

    def __enter__(self) -> "ForkQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(self, item) -> int:
        slot = self._submitted
        self._submitted += 1
        entry = self._slots[slot] = _Slot(item)
        if self.forking:
            self._fork(slot, entry)
        return slot

    def take(self, slot: int):
        """The result of ``slot``'s task, however many attempts it takes."""
        entry = self._slots.pop(slot)
        if not self.forking:
            return self._recovery.run_inline(entry.item, slot, 0)
        while True:
            kind, value = self._collect(entry)
            if kind == "ok":
                return value
            if kind == "raise":
                raise value
            backoff = self._recovery.failed(slot, entry.attempt, value)
            if backoff is None:
                return self._recovery.run_inline(entry.item, slot, entry.attempt)
            time.sleep(backoff)
            entry.attempt += 1
            self._fork(slot, entry)

    def drop(self, slot: int) -> None:
        """Kill ``slot``'s worker and forget it."""
        self._retire([self._slots.pop(slot)])

    def close(self) -> None:
        """Kill every slot not yet taken; their results are never read."""
        entries, self._slots = list(self._slots.values()), {}
        self._retire(entries)

    # ------------------------------------------------------------ internals
    def _fork(self, slot: int, entry: _Slot) -> None:
        entry.process = entry.connection = None
        try:
            reader, writer = multiprocessing.Pipe(duplex=False)
        except OSError as error:
            entry.error = f"could not fork a worker: {error}"
            return
        process = multiprocessing.get_context("fork").Process(
            target=_fork_slot,
            args=(self.task, entry.item, self._recovery.site, slot, entry.attempt, writer),
            daemon=True,
        )
        try:
            process.start()
        except OSError as error:
            reader.close()
            entry.error = f"could not fork a worker: {error}"
            return
        finally:
            writer.close()
        entry.process, entry.connection, entry.forked_at = process, reader, time.perf_counter()

    def _collect(self, entry: _Slot) -> Tuple[str, Any]:
        """``(kind, value)`` of one attempt: ``ok`` with the result, ``raise``
        with the task's exception, or ``failed`` with the reason."""
        if entry.process is None:
            return "failed", entry.error
        deadline = self._recovery.policy.deadline_seconds
        timeout = None
        if deadline is not None:
            timeout = max(0.0, entry.forked_at + deadline - time.perf_counter())
        try:
            if not wait_ready([entry.connection, entry.process.sentinel], timeout):
                return "failed", f"no result within the {deadline:.3g}s watchdog deadline"
            try:
                if entry.connection.poll():
                    return entry.connection.recv()
            except (EOFError, OSError):
                pass
            entry.process.join()
            return "failed", f"worker exited with code {entry.process.exitcode} and no result"
        finally:
            self._retire([entry])

    @staticmethod
    def _retire(entries: List[_Slot]) -> None:
        _reap([entry.process for entry in entries if entry.process is not None])
        for entry in entries:
            if entry.connection is not None:
                entry.connection.close()
            entry.process = entry.connection = None
