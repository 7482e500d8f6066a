"""Bits, not tolerances: 200 seeded coherent-state pipelines, pinned by sha256.

Each pipeline makes a coherent state at a seeded (l, phi) in a seeded
sector, applies X, four seeded operator kinds, e^(eta J), evolve under
FreeRotor or Linear(omega) and time reversal, takes three inner products
and round-trips the final state through JSON.  Its digest covers every
intermediate state's coefficient bytes and leakage, the overlaps' repr
and the JSON text, so a change that moves one last bit anywhere in
hilbert or coherent shows here.

A change that moves a bit on purpose rewrites
tests/data/states_pipelines_sha256.json
(PYTHONPATH=src python tests/test_state_pipelines.py) and says why.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib

import numpy as np

from circle_cs import coherent, hilbert

GOLDEN = pathlib.Path(__file__).parent / "data" / "states_pipelines_sha256.json"
SEED = 20_260_038
PIPELINES = 200


def _spec(index: int) -> dict:
    rng = np.random.default_rng([SEED, index])
    return {
        "l": float(rng.uniform(-3.0, 3.0)),
        "phi": float(rng.uniform(0.0, 2.0 * math.pi)),
        "sector": ("boson", "fermion")[int(rng.integers(2))],
        "kinds": [hilbert.OPERATOR_KINDS[int(k)] for k in rng.integers(6, size=4)],
        "eta": complex(rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0)),
        "omega": None if rng.random() < 0.5 else float(rng.uniform(-2.0, 2.0)),
        "t": float(rng.uniform(-5.0, 5.0)),
    }


def _digest(spec: dict) -> str:
    h = hashlib.sha256()

    def record(s: hilbert.StateVector) -> hilbert.StateVector:
        h.update(s.coeffs.tobytes())
        h.update(repr(s.leakage).encode())
        return s

    p = coherent.PhasePoint(spec["l"], spec["phi"])
    trunc = hilbert.Truncation(coherent.required_two_jmax(spec["l"]))
    psi = record(coherent.coherent_state(p, hilbert.Sector(spec["sector"]), trunc))
    x_psi = record(hilbert.apply_operator("X", psi))
    state = psi
    for kind in spec["kinds"]:
        state = record(hilbert.apply_operator(kind, state))
    state = record(hilbert.apply_exp_j(state, spec["eta"]))
    omega = spec["omega"]
    hamiltonian = coherent.FreeRotor() if omega is None else coherent.Linear(omega)
    evolved = record(coherent.evolve(state, hamiltonian, spec["t"]))
    final = record(hilbert.apply_time_reversal(evolved))
    overlaps = (hilbert.inner(psi, final), hilbert.inner(final, final), hilbert.inner(psi, x_psi))
    h.update(repr(overlaps).encode())
    text = hilbert.state_to_json(final)
    h.update(text.encode())
    record(hilbert.state_from_json(text))
    return h.hexdigest()


def _digests() -> list[str]:
    return [_digest(_spec(i)) for i in range(PIPELINES)]


def test_the_seeded_state_pipelines_keep_their_bits():
    golden = json.loads(GOLDEN.read_text("utf-8"))
    assert (golden["seed"], len(golden["sha256"])) == (SEED, PIPELINES)
    for index, (digest, pinned) in enumerate(zip(_digests(), golden["sha256"])):
        assert digest == pinned, f"pipeline {index}: {_spec(index)}"


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({"seed": SEED, "sha256": _digests()}, indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN}")
