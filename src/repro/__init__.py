"""repro — a from-scratch reproduction of VarSaw (ASPLOS 2023).

VarSaw tailors JigSaw-style measurement error mitigation to Variational
Quantum Algorithms by eliminating *spatial* redundancy across the
Hamiltonian's Pauli-string measurement subsets and *temporal* redundancy
across the iterative tuner's Global executions.

Quick start — a :class:`~repro.api.Session` owns the device, the
seeded backend, and one shared execution engine; estimators are named
by registry kind (``repro kinds`` lists all of them)::

    from repro import Session, make_workload, run_vqe

    workload = make_workload("H2-4")
    session = Session(workload.device, seed=7)
    estimator = session.estimator("varsaw", workload, shots=512)
    result = run_vqe(estimator, max_iterations=100, seed=7)
    print(result.energy, "vs ideal", workload.ideal_energy)
    print(session.ledger())      # circuits/shots/simulations charged

Schemes take typed, eagerly-validated parameters — a misspelled knob
raises immediately with the kind's accepted fields::

    estimator = session.estimator(
        "selective", workload, shots=512,
        mass_fraction=0.85, global_mode="always",
    )

and every spec round-trips through plain JSON (``make_spec``,
``spec.to_dict()``), so the same description works in sweep grids, the
CLI, and result stores.  See ``docs/architecture.md`` for the registry
extension how-to and ``docs/backends.md`` for the execution-backend
registry.

Package map (see ``docs/architecture.md`` for the full inventory):

* :mod:`repro.api` — the typed experiment API: ``EstimatorSpec``
  registry + ``Session`` (the single estimator-construction path).
* :mod:`repro.core` — VarSaw itself (spatial + temporal + cost model).
* :mod:`repro.mitigation` — JigSaw and matrix-based mitigation.
* :mod:`repro.vqe`, :mod:`repro.optimizers` — the VQE stack.
* :mod:`repro.engine` — batched, caching, parallel circuit execution
  (every estimator submits through it).
* :mod:`repro.backends` — the pluggable execution-backend registry
  (``dense``/``clifford``/``density``; ``Session(backend=...)``).
* :mod:`repro.circuits`, :mod:`repro.sim`, :mod:`repro.noise` — the
  quantum execution substrate.
* :mod:`repro.pauli`, :mod:`repro.hamiltonian`, :mod:`repro.ansatz` —
  operators and circuits.
* :mod:`repro.workloads`, :mod:`repro.analysis` — experiment harness.
* :mod:`repro.sweeps` — declarative, resumable, parallel experiment
  sweeps with a checkpointed JSONL results store.
"""

from .ansatz import EfficientSU2
from .api import (
    EstimatorSpec,
    Session,
    estimator_kinds,
    make_spec,
    register_estimator,
)
from .backends import (
    BackendSpec,
    backend_kinds,
    make_backend,
    register_backend,
)
from .clifford import CliffordTableau, diagonalize_commuting
from .core import GlobalScheduler, VarSawEstimator, varsaw_subset_plan
from .engine import EngineConfig, EngineStats, ExecutionEngine
from .hamiltonian import Hamiltonian, build_hamiltonian, ground_state_energy
from .mitigation import JigSawEstimator, MatrixMitigator
from .noise import SimulatorBackend, ibmq_mumbai_like
from .pauli import PauliString
from .qaoa import QAOAAnsatz, make_qaoa_workload, maxcut_hamiltonian
from .sweeps import Point, ResultStore, SweepSpec, run_sweep
from .trotter import evolve_exact, trotter_circuit
from .vqe import BaselineEstimator, IdealEstimator, VQEResult, run_vqe
from .workloads import make_workload

__version__ = "1.0.0"

__all__ = [
    "Session",
    "EstimatorSpec",
    "register_estimator",
    "make_spec",
    "estimator_kinds",
    "BackendSpec",
    "register_backend",
    "make_backend",
    "backend_kinds",
    "PauliString",
    "Hamiltonian",
    "build_hamiltonian",
    "ground_state_energy",
    "EfficientSU2",
    "SimulatorBackend",
    "ibmq_mumbai_like",
    "BaselineEstimator",
    "IdealEstimator",
    "JigSawEstimator",
    "MatrixMitigator",
    "VarSawEstimator",
    "GlobalScheduler",
    "varsaw_subset_plan",
    "run_vqe",
    "VQEResult",
    "make_workload",
    "ExecutionEngine",
    "EngineConfig",
    "EngineStats",
    "CliffordTableau",
    "diagonalize_commuting",
    "QAOAAnsatz",
    "maxcut_hamiltonian",
    "make_qaoa_workload",
    "trotter_circuit",
    "evolve_exact",
    "SweepSpec",
    "Point",
    "ResultStore",
    "run_sweep",
    "__version__",
]
