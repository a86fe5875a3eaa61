"""Unit tests for the spin-model workload factory."""

import pytest

from repro import Session
from repro.noise import SimulatorBackend, ibm_lagos_like
from repro.workloads import SPIN_MODELS, make_spin_workload


class TestMakeSpinWorkload:
    @pytest.mark.parametrize("model", SPIN_MODELS)
    def test_all_models_construct(self, model):
        w = make_spin_workload(model, 5)
        assert w.n_qubits == 5
        assert w.ansatz.n_qubits == 5
        assert w.ideal_energy < 0  # all are negative-definite chains here

    def test_model_kwargs_forwarded(self):
        strong = make_spin_workload("tfim", 4, coupling=5.0, field=0.1)
        weak = make_spin_workload("tfim", 4, coupling=0.5, field=0.1)
        assert strong.ideal_energy < weak.ideal_energy

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            make_spin_workload("kitaev", 4)

    def test_device_capacity_check(self):
        with pytest.raises(ValueError):
            make_spin_workload("xy", 10, device=ibm_lagos_like())

    def test_ideal_energy_matches_exact(self):
        from repro.hamiltonian import ground_state_energy

        w = make_spin_workload("heisenberg", 4, field=0.2)
        assert w.ideal_energy == pytest.approx(
            ground_state_energy(w.hamiltonian)
        )

    def test_estimators_build_on_spin_workloads(self):
        w = make_spin_workload("xy", 4, anisotropy=0.3)
        backend = SimulatorBackend(w.device, seed=0)
        est = Session(backend=backend).estimator("varsaw", w, shots=32)
        import numpy as np

        energy = est.evaluate(np.zeros(w.ansatz.num_parameters))
        assert isinstance(energy, float)

    def test_ansatz_knobs(self):
        w = make_spin_workload("tfim", 4, reps=3, entanglement="circular")
        assert w.ansatz.reps == 3
        assert w.ansatz.entanglement == "circular"
