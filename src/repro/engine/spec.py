"""Execution job specs and content-addressed fingerprints.

A *spec* is everything needed to reproduce one device execution: either a
full bound circuit (:class:`CircuitSpec`) or a prepared ansatz state plus
a measurement basis (:class:`StateSpec` — the prepared-state fast path).
The basis is a qubit-wise Pauli label (every VarSaw/JigSaw/baseline
measurement) or, for non-product bases, a suffix circuit.  Specs are
immutable once submitted.

Each spec exposes a :meth:`fingerprint`: a digest over the exact content
that determines its noisy outcome distribution — circuit structure,
statevector bytes, measured qubits, readout mapping mode, and the gate
load charged to depolarizing noise.  Shots are deliberately *excluded*:
two specs that differ only in shot count share one exact PMF, so they
dedup to a single simulation while still sampling (and being charged)
separately.  The engine mixes a device/noise-flag fingerprint into its
cache keys so a cache is never polluted across backend configurations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..circuits import Circuit

__all__ = [
    "CircuitSpec",
    "StateSpec",
    "circuit_fingerprint",
    "device_fingerprint",
    "state_digest",
]


def _hasher() -> "hashlib._Hash":
    return hashlib.blake2b(digest_size=16)


def _feed_circuit(h, circuit: Circuit) -> None:
    h.update(f"c:{circuit.n_qubits}".encode())
    for ins in circuit.instructions:
        param = ins.param
        if param is not None and not isinstance(param, (int, float)):
            raise ValueError(
                f"cannot fingerprint unbound parameter {param!r}; "
                "bind the circuit before submitting it"
            )
        h.update(
            f"|{ins.name}:{','.join(map(str, ins.qubits))}:"
            f"{'' if param is None else float(param).hex()}".encode()
        )
    h.update(
        f"|m:{','.join(map(str, sorted(circuit.measured_qubits)))}".encode()
    )


@lru_cache(maxsize=4096)
def _normalize_basis(label: str) -> str:
    """Canonical form of a Pauli basis label: upper case, Z read as I.

    I and Z both measure a qubit as is (no rotation gate), so two labels
    dedup exactly when their basis rotations apply the same gates.
    """
    label = label.upper()
    if label.strip("IXYZ"):
        raise ValueError(f"invalid Pauli basis label {label!r}")
    return label.replace("Z", "I")


def circuit_fingerprint(circuit: Circuit) -> str:
    """Structural digest of a bound circuit (gates + measured qubits)."""
    h = _hasher()
    _feed_circuit(h, circuit)
    return h.hexdigest()


def device_fingerprint(backend) -> str:
    """Digest of everything on a backend that shapes exact PMFs.

    Covers the backend kind (a ``clifford`` and a ``density`` backend
    over one device must never share memoized PMFs), per-qubit readout
    rates, crosstalk, gate-noise rates/scales, and the backend's noise
    kill-switches — but *not* its RNG state, which only affects
    sampling.
    """
    device = backend.device
    h = _hasher()
    h.update(
        f"d:{device.name}:{device.n_qubits}"
        f":k{getattr(backend, 'backend_kind', 'dense')}"
        f":ro{int(backend.readout_enabled)}"
        f":gn{int(backend.gate_noise_enabled)}".encode()
    )
    # Backend subclasses with extra PMF-shaping knobs (e.g. the density
    # backend's amplitude damping) contribute them here.
    extra = getattr(backend, "pmf_fingerprint_extra", None)
    if extra is not None:
        h.update(f"|e:{extra()}".encode())
    # Drifting devices: fold the schedule + epoch in so two clock
    # states never share cached PMFs, even if their rates momentarily
    # coincide (the concrete rates below are hashed too, but equal
    # rates at different epochs are still distinct calibration states).
    drift = getattr(device, "drift_state_fingerprint", None)
    if drift is not None:
        h.update(f"|t:{drift()}".encode())
    readout = device.readout
    h.update(
        f"|x:{readout.crosstalk_strength.hex()}"
        f":{readout.scale.hex()}".encode()
    )
    for err in readout.qubit_errors:
        h.update(f"|q:{err.p01.hex()}:{err.p10.hex()}".encode())
    gn = device.gate_noise
    h.update(
        f"|g:{gn.error_1q.hex()}:{gn.error_2q.hex()}:{gn.scale.hex()}".encode()
    )
    return h.hexdigest()


def state_digest(state: np.ndarray) -> str:
    """Content digest of a statevector's bytes.

    Whole-iteration batches submit many specs sharing one prepared
    state; callers that hold the array can compute this once and pass
    it to every :class:`StateSpec` instead of re-hashing per spec.
    """
    h = _hasher()
    h.update(np.ascontiguousarray(state).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class CircuitSpec:
    """One full-circuit execution request (mirrors ``backend.run``)."""

    circuit: Circuit
    shots: int
    map_to_best: bool = False

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if not self.circuit.measured_qubits:
            raise ValueError("circuit measures no qubits")

    def fingerprint(self) -> str:
        """Content digest over circuit structure + readout mapping."""
        h = _hasher()
        _feed_circuit(h, self.circuit)
        h.update(f"|b:{int(self.map_to_best)}".encode())
        return h.hexdigest()


@dataclass(frozen=True)
class StateSpec:
    """One prepared-state execution request (``Batch.submit_state``).

    The measurement basis is exactly one of ``basis`` — a Pauli label
    such as ``"XYZI"`` (qubit 0 leftmost), stored with Z read as I —
    or ``suffix``, a circuit applied before measurement (the general
    commutation estimator's entangling diagonalizations).
    ``gate_load`` is the (one-qubit, two-qubit) gate count of the state
    preparation, charged to depolarizing noise on top of the basis
    change.  ``digest`` is an optional precomputed :func:`state_digest`
    of ``state`` (an optimization for batches whose specs share a
    state); when given, it MUST match the array's content.
    """

    state: np.ndarray = field(repr=False)
    measured_qubits: tuple[int, ...]
    shots: int
    basis: str | None = None
    suffix: Circuit | None = None
    map_to_best: bool = False
    gate_load: tuple[int, int] = (0, 0)
    digest: str | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if (self.basis is None) == (self.suffix is None):
            raise ValueError(
                "a StateSpec takes exactly one of basis= or suffix="
            )
        if self.basis is not None:
            basis = _normalize_basis(self.basis)
            if 2 ** len(basis) != self.state.shape[0]:
                raise ValueError(
                    f"basis {basis!r} does not match a state of length "
                    f"{self.state.shape[0]}"
                )
            object.__setattr__(self, "basis", basis)
        object.__setattr__(
            self,
            "measured_qubits",
            tuple(int(q) for q in self.measured_qubits),
        )
        object.__setattr__(
            self,
            "gate_load",
            (int(self.gate_load[0]), int(self.gate_load[1])),
        )
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if not self.measured_qubits:
            raise ValueError("no measured qubits")

    def fingerprint(self) -> str:
        """Content digest over state bytes + basis + measurement."""
        h = _hasher()
        h.update(b"s:")
        digest = self.digest
        if digest is None:
            digest = state_digest(self.state)
        h.update(digest.encode())
        if self.basis is not None:
            h.update(f"|p:{self.basis}".encode())
        else:
            _feed_circuit(h, self.suffix)
        h.update(
            f"|m:{','.join(map(str, sorted(self.measured_qubits)))}"
            f"|b:{int(self.map_to_best)}"
            f"|l:{self.gate_load[0]},{self.gate_load[1]}".encode()
        )
        return h.hexdigest()
