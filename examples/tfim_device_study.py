"""Temporal optimization on device models: the Fig. 16 TFIM study.

Runs VQE on the paper's 5-qubit, 3-term Transverse-Field Ising Model with
VarSaw's Global sparsity on and off, on Lagos-like and Jakarta-like noise
models, under the same circuit budget.  Sparse VarSaw completes several
times the iterations and reaches a better objective.

Usage::

    python examples/tfim_device_study.py
"""

from repro import Session
from repro.ansatz import EfficientSU2
from repro.hamiltonian import ground_state_energy, paper_tfim
from repro.noise import ibm_jakarta_like, ibm_lagos_like
from repro.optimizers import SPSA
from repro.vqe import run_vqe
from repro.workloads import Workload


def main() -> None:
    hamiltonian = paper_tfim()
    ideal = ground_state_energy(hamiltonian)
    print(
        f"TFIM workload: {hamiltonian.n_qubits} qubits, "
        f"{hamiltonian.num_terms} Pauli terms, ideal energy {ideal:.3f}\n"
    )
    budget = 8_000
    for device in (ibm_lagos_like(scale=2.0), ibm_jakarta_like(scale=2.0)):
        workload = Workload(
            key="TFIM-5x3",
            hamiltonian=hamiltonian,
            ansatz=EfficientSU2(5, reps=2, entanglement="full"),
            device=device,
            ideal_energy=ideal,
        )
        print(f"--- {device.name} (budget {budget} circuits) ---")
        for kind, label in (
            ("varsaw_no_sparsity", "VarSaw w/o global sparsity"),
            ("varsaw_max_sparsity", "VarSaw w/  global sparsity"),
        ):
            session = Session(device, seed=16)
            estimator = session.estimator(kind, workload, shots=512)
            result = run_vqe(
                estimator,
                optimizer=SPSA(a=0.3, seed=16),
                max_iterations=100_000,
                circuit_budget=budget,
                seed=16,
            )
            print(
                f"  {label}: energy = {result.energy:7.3f}, "
                f"iterations = {result.iterations}"
            )
        print()


if __name__ == "__main__":
    main()
