"""Workload bundles: Hamiltonian + ansatz + device + reference energy.

Experiments in the paper repeat the same setup dance — build a molecule's
Hamiltonian, an EfficientSU2 ansatz of matching width, a noisy device
model, and look up the ideal energy.  :func:`make_workload` packages
that.  Estimators are built from a workload by
:meth:`repro.api.Session.estimator`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ansatz import EfficientSU2
from ..api import estimator_kinds
from ..hamiltonian import (
    MOLECULES,
    Hamiltonian,
    build_hamiltonian,
    ground_state_energy,
)
from ..noise import DeviceModel, ibmq_mumbai_like

__all__ = [
    "Workload",
    "make_workload",
    "make_spin_workload",
    "spin_hamiltonian_constructor",
    "ESTIMATOR_KINDS",
    "SPIN_MODELS",
]

#: Every registered estimator kind, in canonical order.  A snapshot of
#: :func:`repro.api.estimator_kinds` taken at import; out-of-tree kinds
#: registered later are addressable everywhere but only appear in the
#: live listing.
ESTIMATOR_KINDS = estimator_kinds()


@dataclass
class Workload:
    """Everything an experiment needs about one VQE problem instance."""

    key: str
    hamiltonian: Hamiltonian
    ansatz: EfficientSU2
    device: DeviceModel
    ideal_energy: float

    @property
    def n_qubits(self) -> int:
        return self.hamiltonian.n_qubits


def make_workload(
    key: str,
    reps: int = 2,
    entanglement: str = "full",
    device: DeviceModel | None = None,
) -> Workload:
    """Build the paper's setup for a Table 2 workload key.

    Defaults mirror Section 5.1: EfficientSU2 with full entanglement and
    2 repetition blocks, IBMQ-Mumbai-like noise.
    """
    spec = MOLECULES[key]
    hamiltonian = build_hamiltonian(key)
    ansatz = EfficientSU2(
        spec.n_qubits, reps=reps, entanglement=entanglement
    )
    if device is None:
        device = ibmq_mumbai_like()
    if device.n_qubits < spec.n_qubits:
        raise ValueError(
            f"device {device.name} has {device.n_qubits} qubits, "
            f"workload needs {spec.n_qubits}"
        )
    if spec.reference_energy is not None:
        ideal = spec.reference_energy
    else:
        ideal = ground_state_energy(hamiltonian)
    return Workload(
        key=key,
        hamiltonian=hamiltonian,
        ansatz=ansatz,
        device=device,
        ideal_energy=ideal,
    )


#: Spin-model workload names accepted by :func:`make_spin_workload`.
SPIN_MODELS = ("tfim", "heisenberg", "xy")


def spin_hamiltonian_constructor(model: str):
    """The Hamiltonian constructor behind one :data:`SPIN_MODELS` name.

    Shared by :func:`make_spin_workload` and the sweep task executors
    (which need a bare Hamiltonian without ansatz/device construction).
    """
    from ..hamiltonian import (
        heisenberg_hamiltonian,
        tfim_hamiltonian,
        xy_hamiltonian,
    )

    constructors = {
        "tfim": tfim_hamiltonian,
        "heisenberg": heisenberg_hamiltonian,
        "xy": xy_hamiltonian,
    }
    if model not in constructors:
        raise ValueError(
            f"unknown spin model {model!r}; choose from {sorted(constructors)}"
        )
    return constructors[model]


def make_spin_workload(
    model: str,
    n_qubits: int,
    reps: int = 2,
    entanglement: str = "full",
    device: DeviceModel | None = None,
    **model_kwargs,
) -> Workload:
    """Build a spin-chain workload ('tfim', 'heisenberg', or 'xy').

    Extra keyword arguments go to the Hamiltonian constructor
    (``coupling``, ``field``, ``anisotropy``, ``periodic``, ...).
    """
    hamiltonian = spin_hamiltonian_constructor(model)(
        n_qubits, **model_kwargs
    )
    if device is None:
        device = ibmq_mumbai_like()
    if device.n_qubits < n_qubits:
        raise ValueError(
            f"device {device.name} has {device.n_qubits} qubits, "
            f"workload needs {n_qubits}"
        )
    return Workload(
        key=hamiltonian.name,
        hamiltonian=hamiltonian,
        ansatz=EfficientSU2(n_qubits, reps=reps, entanglement=entanglement),
        device=device,
        ideal_energy=ground_state_energy(hamiltonian),
    )
