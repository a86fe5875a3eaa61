"""Unit tests for the Nelder-Mead simplex optimizer."""

import numpy as np
import pytest

from repro.optimizers import NelderMead


def sphere(x):
    return float(np.sum(x**2))

def rosenbrock(x):
    return float(
        np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2)
    )


class TestConvergence:
    def test_sphere_2d(self):
        result = NelderMead(initial_step=0.5).minimize(
            sphere, np.array([2.0, -1.5]), max_iterations=200
        )
        assert result.fun < 1e-6
        assert np.allclose(result.x, 0.0, atol=1e-3)

    def test_sphere_high_dim_adaptive(self):
        result = NelderMead(initial_step=0.5, adaptive=True).minimize(
            sphere, np.full(8, 1.0), max_iterations=800
        )
        assert result.fun < 1e-4

    def test_rosenbrock_2d(self):
        result = NelderMead(initial_step=0.5).minimize(
            rosenbrock, np.array([-1.0, 1.0]), max_iterations=600
        )
        assert result.fun < 1e-4
        assert np.allclose(result.x, 1.0, atol=0.05)

    def test_shifted_quadratic(self):
        target = np.array([0.3, -0.7, 1.1])

        def fun(x):
            return float(np.sum((x - target) ** 2))

        result = NelderMead().minimize(
            fun, np.zeros(3), max_iterations=400
        )
        assert np.allclose(result.x, target, atol=1e-3)

    def test_noisy_quadratic_still_improves(self):
        rng = np.random.default_rng(5)

        def noisy(x):
            return sphere(x) + float(rng.normal(0, 0.01))

        start = np.full(4, 1.5)
        result = NelderMead(initial_step=0.4).minimize(
            noisy, start, max_iterations=150
        )
        assert result.fun < sphere(start) * 0.1


class TestProtocolBehavior:
    def test_history_is_monotone_best_so_far(self):
        result = NelderMead().minimize(
            sphere, np.array([1.0, 1.0]), max_iterations=50
        )
        # Nelder-Mead never discards its best vertex, so the per-
        # iteration best is non-increasing.
        assert all(
            b <= a + 1e-12
            for a, b in zip(result.history, result.history[1:])
        )

    def test_budget_stop(self):
        calls = {"n": 0}

        def counted(x):
            calls["n"] += 1
            return sphere(x)

        result = NelderMead().minimize(
            counted,
            np.array([1.0, 1.0]),
            max_iterations=1000,
            should_stop=lambda: calls["n"] >= 20,
        )
        assert result.stop_reason == "budget_exhausted"
        assert result.iterations < 1000

    def test_callback_sees_best_vertex(self):
        seen = []

        def callback(iteration, x, value):
            seen.append((iteration, value))

        NelderMead().minimize(
            sphere, np.array([1.0, 0.5]), max_iterations=20,
            callback=callback,
        )
        assert len(seen) == 20
        assert seen[0][0] == 0

    def test_evaluation_accounting(self):
        calls = {"n": 0}

        def counted(x):
            calls["n"] += 1
            return sphere(x)

        result = NelderMead().minimize(
            counted, np.array([1.0, 1.0]), max_iterations=30
        )
        assert result.evaluations == calls["n"]

    def test_bad_initial_step_rejected(self):
        with pytest.raises(ValueError):
            NelderMead(initial_step=0.0)

    def test_non_adaptive_coefficients(self):
        result = NelderMead(adaptive=False).minimize(
            sphere, np.array([1.0, 1.0]), max_iterations=150
        )
        assert result.fun < 1e-5


class TestVQEIntegration:
    def test_tunes_a_small_vqe(self):
        from repro import Session
        from repro.noise import SimulatorBackend, ideal_device
        from repro.vqe import run_vqe
        from repro.workloads import make_workload

        workload = make_workload("H2-4")
        backend = SimulatorBackend(ideal_device(4), seed=3)
        estimator = Session(backend=backend).estimator(
            "baseline", workload, shots=512
        )
        start = np.full(workload.ansatz.num_parameters, 0.1)
        start_energy = estimator.evaluate(start)
        result = run_vqe(
            estimator,
            optimizer=NelderMead(initial_step=0.3),
            max_iterations=60,
            initial_params=start,
        )
        assert result.energy < start_energy
