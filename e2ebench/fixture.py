"""The pinned pendulum shield that ``recheck_pendulum`` and ``deploy_fleet`` use.

The artifact (program, invariants and per-branch synthesis regions) lives in
``fixture/pendulum_shield.json``; ``fixture/manifest.json`` records its
SHA-256 and how it was made.  Loading checks the hash, so those two workloads
keep the same input when Algorithm 1 or CEGIS change.

Regenerate it from ``synth_pendulum``'s input (timing fields are dropped,
so the same code reproduces the same bytes)::

    python3 e2ebench/fixture.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE = HERE / "fixture" / "pendulum_shield.json"
MANIFEST = HERE / "fixture" / "manifest.json"
SCRATCH = ROOT / ".e2ebench_tmp"

#: Provenance fields that hold wall-clock readings, not shield content.
TIMING_FIELDS = ("synthesis_seconds", "total_seconds")


class FixtureError(RuntimeError):
    pass


def load_fixture():
    """The pinned :class:`~repro.lang.serialize.ShieldArtifact`, hash-checked."""
    from repro.lang.serialize import artifact_from_dict_checked

    data = FIXTURE.read_bytes()
    expected = json.loads(MANIFEST.read_text())["sha256"]
    actual = hashlib.sha256(data).hexdigest()
    if actual != expected:
        raise FixtureError(
            f"{FIXTURE.name} has sha256 {actual}, manifest pins {expected}; "
            "regenerate it with `python3 e2ebench/fixture.py`"
        )
    artifact = artifact_from_dict_checked(json.loads(data), origin=str(FIXTURE))
    if artifact.environment != "pendulum" or not artifact.metadata.get("branch_regions"):
        raise FixtureError(f"{FIXTURE.name} is not a pendulum shield with branch regions")
    return artifact


def regenerate() -> str:
    from workloads import synthesize_pendulum

    SCRATCH.mkdir(exist_ok=True)
    store = tempfile.mkdtemp(prefix="fixture-", dir=SCRATCH)
    try:
        result = synthesize_pendulum(store)
    finally:
        shutil.rmtree(store, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    payload = result.artifact.to_dict()
    for name in TIMING_FIELDS:
        payload["metadata"].pop(name, None)
    data = json.dumps(payload, indent=2, sort_keys=True).encode()
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_bytes(data)
    digest = hashlib.sha256(data).hexdigest()
    manifest = {
        "file": FIXTURE.name,
        "sha256": digest,
        "branches": len(result.program.branches),
        "regenerate": "python3 e2ebench/fixture.py",
    }
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    return digest


def main() -> int:
    argparse.ArgumentParser(description="Regenerate the pinned pendulum shield.").parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    digest = regenerate()
    print(f"wrote {FIXTURE.relative_to(ROOT)} (sha256 {digest})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
