"""Differential fuzzing of the equivalence claims the shield stack rests on.

The repo carries four execution paths (scalar interpreted, batched
interpreted, compiled, monitored), five certificate backends, and a
content-addressed artifact store — all claiming equivalence or stability.
This package hunts for gaps mechanically:

* :mod:`repro.fuzz.generators` — random programs, invariants, polynomial
  dynamics, disturbance models, and adversarial states (``inf``/``nan``/
  ``-0.0``), all derived from one integer seed through
  ``np.random.SeedSequence`` so every failure replays from that integer;
* :mod:`repro.fuzz.properties` — the eight property families
  (``compiled``, ``fold``, ``serialize``, ``backends``, ``shard``,
  ``analysis``, ``faults``, ``synthesis``), each a ``generate``/``check`` pair where
  ``check`` returns a divergence message or ``None``;
* :mod:`repro.fuzz.shrink` — a greedy, deterministic minimizer that strips a
  failing case (drop guard branches, zero coefficients, shrink fleets and
  horizons) while the property keeps failing;
* :mod:`repro.fuzz.runner` — the campaign driver behind ``repro fuzz``,
  which persists shrunk reproducers into the counterexample corpus replayed
  by ``tests/test_counterexample_replay.py``.
"""

from .properties import FAMILIES, PropertyFamily, case_rng
from .runner import FuzzReport, load_reproducer, replay_reproducer, run_fuzz
from .shrink import shrink_case

__all__ = [
    "FAMILIES",
    "PropertyFamily",
    "case_rng",
    "FuzzReport",
    "run_fuzz",
    "shrink_case",
    "load_reproducer",
    "replay_reproducer",
]
