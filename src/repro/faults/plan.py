"""Deterministic, seeded fault injection for the execution substrate.

A :class:`FaultPlan` is a scripted list of :class:`FaultSpec` entries, each
naming a *site* (an instrumented point in the codebase), a fault *kind*, and
the coordinates at which it fires (shard/slot index, retry attempt, how many
times).  Sites call :func:`fault_site`; with no plan active the call is a
dictionary lookup away from free, so the hooks stay compiled into production
code paths — the same discipline the shields themselves follow: the safety
machinery is always on, never a debug build.

Instrumented sites:

=================  ===========================================================
``shard.worker``   entry of one shard execution in :mod:`repro.shard.pool`
``cegis.worker``   entry of one parallel CEGIS branch task
``verify.worker``  entry of one forked proof: a certificate-recheck branch
                   query or a speculative shrink candidate of Algorithm 2
``store.put``      just before the write-then-rename commit of a store object
``store.get``      just after a store object is read back
``solver.lp``      the HiGHS ``linprog`` call sites (barrier / Farkas search)
=================  ===========================================================

Fault kinds:

==================  ==========================================================
``crash``           ``os._exit`` — only ever fires in a forked worker, never
                    in the process that activated the plan
``hang``            sleep ``delay_seconds`` (slow shard / hung worker)
``oserror``         raise a transient ``OSError``
``partial-write``   (``store.put``) leave a truncated temp file and raise
``corrupt-read``    (``store.get``) surface an integrity failure
``lp-timeout``      (``solver.lp``) behave as if the LP hit its time limit
==================  ==========================================================

Plans are seeded (:func:`FaultPlan.random`), serializable, and activatable
through the ``REPRO_FAULT_PLAN`` environment variable so that forked workers
*and* spawned subprocesses inherit them; in-process activation uses
:func:`fault_plan` (a context manager) or :func:`activate`/:func:`deactivate`.
Faults never fire on the in-process recovery lane (``inline=True``): that lane
is the guaranteed-progress fallback, so injection cannot livelock a run.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = [
    "FAULT_SITES",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "activate",
    "deactivate",
    "active_plan",
    "fault_plan",
    "fault_site",
]

FAULT_SITES = (
    "shard.worker", "cegis.worker", "verify.worker", "store.put", "store.get", "solver.lp"
)
FAULT_KINDS = ("crash", "hang", "oserror", "partial-write", "corrupt-read", "lp-timeout")

#: Exit status of an injected worker crash — distinct from interpreter faults
#: so a post-mortem can tell scripted deaths from real ones.
CRASH_EXIT_CODE = 23

ENV_VAR = "REPRO_FAULT_PLAN"


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: where, what, and when it fires."""

    site: str
    kind: str
    #: Shard / parallel-slot index the fault targets; ``None`` matches any.
    index: Optional[int] = None
    #: Retry attempt (0 = first try) the fault targets; ``None`` matches any.
    attempt: Optional[int] = 0
    #: How many times the fault fires before disarming (per process).
    count: int = 1
    #: Sleep duration of ``hang`` faults.
    delay_seconds: float = 0.25

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r} (known: {FAULT_SITES})")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (known: {FAULT_KINDS})")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultSpec":
        return cls(
            site=str(payload["site"]),
            kind=str(payload["kind"]),
            index=None if payload.get("index") is None else int(payload["index"]),
            attempt=None if payload.get("attempt") is None else int(payload["attempt"]),
            count=int(payload.get("count", 1)),
            delay_seconds=float(payload.get("delay_seconds", 0.25)),
        )


@dataclass
class FaultPlan:
    """A process-wide scripted fault schedule."""

    specs: List[FaultSpec] = field(default_factory=list)
    seed: int = 0
    #: pid of the process that activated the plan.  ``crash`` faults refuse to
    #: fire there: killing the orchestrating parent is never part of a
    #: recovery drill.  Set by :func:`activate` / env-var parsing.
    activated_pid: Optional[int] = None

    def __post_init__(self) -> None:
        self._fired = [0] * len(self.specs)

    # ------------------------------------------------------------- scripting
    @classmethod
    def random(cls, seed: int, sites=("shard.worker",), max_faults: int = 2,
               max_index: int = 4) -> "FaultPlan":
        """A seeded random plan — the fuzzer's generator."""
        rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(97,)))
        kinds = ("crash", "hang", "oserror")
        specs = []
        for _ in range(int(rng.integers(1, max_faults + 1))):
            specs.append(
                FaultSpec(
                    site=str(rng.choice(list(sites))),
                    kind=str(rng.choice(list(kinds))),
                    index=int(rng.integers(0, max_index)),
                    attempt=0,
                    count=1,
                    delay_seconds=float(rng.uniform(0.05, 0.3)),
                )
            )
        return cls(specs=specs, seed=int(seed))

    # --------------------------------------------------------- serialization
    def to_payload(self) -> Dict[str, Any]:
        return {"seed": self.seed, "specs": [spec.to_dict() for spec in self.specs]}

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "FaultPlan":
        return cls(
            specs=[FaultSpec.from_dict(entry) for entry in payload.get("specs", [])],
            seed=int(payload.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, encoded: str) -> "FaultPlan":
        return cls.from_payload(json.loads(encoded))

    # -------------------------------------------------------------- matching
    def match(self, site: str, index: Optional[int], attempt: int) -> Optional[int]:
        """Position of the first armed spec matching the coordinates."""
        for position, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if self._fired[position] >= spec.count:
                continue
            if spec.index is not None and index is not None and spec.index != index:
                continue
            if spec.attempt is not None and spec.attempt != attempt:
                continue
            return position
        return None

    def consume(self, position: int) -> FaultSpec:
        self._fired[position] += 1
        return self.specs[position]


# ---------------------------------------------------------------- activation
_ACTIVE: Optional[FaultPlan] = None


def activate(plan: FaultPlan, export: bool = True) -> FaultPlan:
    """Install ``plan`` process-wide; with ``export``, also in the environment
    so spawned subprocesses inherit it (forked workers inherit it either way)."""
    global _ACTIVE
    plan = replace(plan, activated_pid=os.getpid())
    _ACTIVE = plan
    if export:
        os.environ[ENV_VAR] = plan.to_json()
    return plan


def deactivate() -> None:
    global _ACTIVE
    _ACTIVE = None
    os.environ.pop(ENV_VAR, None)


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, adopting any ``REPRO_FAULT_PLAN`` env plan lazily."""
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    encoded = os.environ.get(ENV_VAR)
    if not encoded:
        return None
    plan = FaultPlan.from_json(encoded)
    plan.activated_pid = os.getpid()
    _ACTIVE = plan
    return plan


@contextmanager
def fault_plan(plan: FaultPlan, export: bool = True):
    """``with fault_plan(plan): ...`` — scoped activation, always deactivated."""
    activated = activate(plan, export=export)
    try:
        yield activated
    finally:
        deactivate()


# ----------------------------------------------------------------- the hook
def fault_site(site: str, index: Optional[int] = None, attempt: int = 0,
               inline: bool = False) -> Optional[FaultSpec]:
    """Fire any scripted fault armed for this site.

    ``crash``/``hang``/``oserror`` faults act here (exit, sleep, raise); data
    faults (``partial-write``, ``corrupt-read``, ``lp-timeout``) are returned
    to the caller, which knows how to corrupt its own operation.  ``inline``
    marks the guaranteed in-process recovery lane: nothing fires there and the
    spec stays armed, so recovery always makes progress.
    """
    plan = _ACTIVE if _ACTIVE is not None else active_plan()
    if plan is None:
        return None
    position = plan.match(site, index=index, attempt=attempt)
    if position is None:
        return None
    if inline:
        return None
    spec = plan.specs[position]
    if spec.kind == "crash":
        if plan.activated_pid is not None and os.getpid() == plan.activated_pid:
            # Never kill the activating process; leave the spec armed for a
            # forked worker to trip over.
            return None
        plan.consume(position)
        os._exit(CRASH_EXIT_CODE)
    plan.consume(position)
    if spec.kind == "hang":
        time.sleep(spec.delay_seconds)
        return spec
    if spec.kind == "oserror":
        raise OSError(f"injected transient OSError at {site} (index={index}, attempt={attempt})")
    return spec
