"""Integration tests: QAOA workloads through the estimator stack."""

import numpy as np
import pytest

from repro import Session
from repro.noise import SimulatorBackend, ibmq_mumbai_like, ideal_device
from repro.qaoa import make_qaoa_workload
from repro.vqe import run_vqe


class TestWorkloadFactory:
    def test_ring_workload_shape(self):
        wl = make_qaoa_workload("ring", 6, reps=2)
        assert wl.n_qubits == 6
        assert wl.ideal_energy == pytest.approx(-6.0)
        assert wl.ansatz.num_parameters == 4

    def test_regular3_workload(self):
        wl = make_qaoa_workload("regular3", 8, reps=1)
        assert wl.n_qubits == 8
        assert wl.ideal_energy < 0

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="unknown QAOA problem"):
            make_qaoa_workload("clique_cover", 6)

    def test_too_small_device_rejected(self):
        from repro.noise import ibm_lagos_like

        with pytest.raises(ValueError, match="qubits"):
            make_qaoa_workload("ring", 12, device=ibm_lagos_like())


class TestEstimatorIntegration:
    @pytest.mark.parametrize(
        "kind", ["ideal", "baseline", "jigsaw", "varsaw"]
    )
    def test_every_scheme_evaluates(self, kind):
        wl = make_qaoa_workload("ring", 4, reps=1)
        backend = SimulatorBackend(ibmq_mumbai_like(), seed=5)
        estimator = Session(backend=backend).estimator(kind, wl, shots=256)
        value = estimator.evaluate(np.array([0.5, 0.3]))
        # Energies live between the ground state and the trivial offset.
        assert wl.ideal_energy - 1.0 < value < 1.0

    def test_ideal_estimator_matches_exact_expectation(self):
        wl = make_qaoa_workload("ring", 4, reps=1)
        backend = SimulatorBackend(seed=5)
        from repro.hamiltonian import Hamiltonian
        from repro.sim.statevector import run_statevector

        estimator = Session(backend=backend).estimator("ideal", wl)
        params = np.array([0.7, 0.4])
        state = run_statevector(wl.ansatz.bind(params))
        exact = wl.hamiltonian.expectation_exact(state)
        assert estimator.evaluate(params) == pytest.approx(exact, abs=1e-9)

    def test_varsaw_cheaper_per_iteration_than_jigsaw(self):
        wl = make_qaoa_workload("ring", 6, reps=1)
        params = np.array([0.5, 0.3])
        costs = {}
        for kind in ("jigsaw", "varsaw"):
            backend = SimulatorBackend(ibmq_mumbai_like(), seed=5)
            estimator = Session(backend=backend).estimator(kind, wl, shots=128)
            estimator.evaluate(params)
            costs[kind] = backend.circuits_run
        assert costs["varsaw"] < costs["jigsaw"]


class TestShortTuningRun:
    def test_qaoa_vqe_loop_improves_energy(self):
        wl = make_qaoa_workload("ring", 4, reps=1)
        backend = SimulatorBackend(ideal_device(4), seed=9)
        estimator = Session(backend=backend).estimator(
            "baseline", wl, shots=512
        )
        start = estimator.evaluate(np.array([0.05, 0.05]))
        result = run_vqe(
            estimator,
            max_iterations=40,
            seed=9,
            initial_params=np.array([0.05, 0.05]),
        )
        assert result.energy <= start + 1e-6
        assert result.iterations_completed() > 0
