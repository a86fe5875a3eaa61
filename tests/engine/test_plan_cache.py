"""Compiled-plan cache behavior and plan-path bit-identity."""

import numpy as np
import pytest

from repro.api import Session
from repro.backends.clifford import CliffordBackend
from repro.backends.density import DensityBackend
from repro.engine import EngineConfig
from repro.engine.engine import ExecutionEngine
from repro.engine.spec import CircuitSpec
from repro.circuits import Circuit
from repro.noise import SimulatorBackend, ibmq_mumbai_like
from repro.pauli import PauliString
from repro.sim import PMF
from repro.workloads import make_workload


def ansatz(theta, phi=0.25):
    qc = Circuit(3)
    qc.h(0)
    qc.cx(0, 1)
    qc.ry(theta, 2)
    qc.cx(1, 2)
    qc.rz(phi, 0)
    qc.measure((0, 1, 2))
    return qc


def run_trace(engine, thetas, shots=128):
    batch = engine.new_batch()
    handles = [
        batch.submit(CircuitSpec(ansatz(t), shots, False)) for t in thetas
    ]
    batch.run()
    return handles


class TestPlanCache:
    def test_one_plan_serves_every_binding(self, backend):
        engine = ExecutionEngine(backend, EngineConfig())
        run_trace(engine, [0.1, 0.2, 0.3])
        stats = engine.stats.plan_cache
        # One structure: a single compile, reused for the whole batch
        # (hit counts depend on grouping, misses must stay at one).
        assert stats.misses == 1
        run_trace(engine, [0.4, 0.5])
        after = engine.stats.plan_cache
        assert after.misses == 1
        assert after.hits > stats.hits
        engine.close()

    def test_distinct_structures_compile_separately(self, backend):
        engine = ExecutionEngine(backend, EngineConfig())
        other = ansatz(0.1)
        other.x(2)
        batch = engine.new_batch()
        batch.submit(CircuitSpec(ansatz(0.1), 64, False))
        batch.submit(CircuitSpec(other, 64, False))
        batch.run()
        assert engine.stats.plan_cache.misses == 2
        engine.close()

    def test_clear_caches_drops_plans(self, backend):
        engine = ExecutionEngine(backend, EngineConfig())
        run_trace(engine, [0.1])
        assert engine.stats.plan_cache.size == 1
        engine.clear_caches()
        assert engine.stats.plan_cache.size == 0
        engine.close()

    def test_plan_cache_size_zero_disables_the_plan_path(self, backend):
        engine = ExecutionEngine(
            backend, EngineConfig(plan_cache_size=0)
        )
        assert not engine._plan_batching
        assert not engine._plan_prepare
        assert not engine._suffix_plans
        run_trace(engine, [0.1, 0.2])
        stats = engine.stats.plan_cache
        assert stats.misses == 0 and stats.hits == 0
        engine.close()

    def test_lih6_jigsaw_compiles_only_the_ansatz(self):
        """LiH-6 JigSaw measures 77 bases, and none needs a plan.

        Basis rotations run as one product-basis pass, so three
        evaluations compile exactly one plan: the ansatz's.
        """
        workload = make_workload("LiH-6")
        with Session(ibmq_mumbai_like(scale=2.0), seed=3) as session:
            estimator = session.estimator("jigsaw", workload, shots=64)
            params = np.linspace(-1.0, 1.0, workload.ansatz.num_parameters)
            for shift in (0.0, 0.1, 0.2):
                estimator.evaluate(params + shift)
            assert session.stats().plan_cache.misses == 1


class TestPlanPathBitIdentity:
    def test_plan_path_matches_scalar_path_bitwise(self, noisy_device):
        thetas = [0.1, 0.7, -1.3, 0.7]

        def run(plan_cache_size):
            backend = SimulatorBackend(noisy_device, seed=7)
            engine = ExecutionEngine(
                backend,
                EngineConfig(
                    cache_size=0,
                    state_cache_size=0,
                    plan_cache_size=plan_cache_size,
                ),
            )
            handles = run_trace(engine, thetas)
            engine.close()
            return handles

        planned = run(64)
        scalar = run(0)
        for a, b in zip(planned, scalar):
            assert np.array_equal(a.pmf().probs, b.pmf().probs)
            assert a.result().data == b.result().data

    def test_state_specs_match_planless_path_bitwise(self, noisy_device):
        """Prepared-state jobs batched by suffix structure, vs one by one.

        Mixes two states, suffixes of one structure with different
        bindings, a second structure, no suffix, and specs that share
        both state and suffix objects (one simulated row).
        """
        prep = ExecutionEngine(SimulatorBackend(noisy_device, seed=7))
        states = [prep.prepare_state(ansatz(t)) for t in (0.3, -1.1)]
        prep.close()
        rotations = [PauliString(p).basis_rotation() for p in ("XYZ", "YXZ")]
        tilted = Circuit(3)
        tilted.ry(0.4, 1)
        tilted.rz(-0.2, 2)
        jobs = [
            (state, suffix, measured, best)
            for state in states
            for suffix in rotations + [tilted, None]
            for measured, best in (((0, 1, 2), False), ((1, 2), True))
        ]

        def run(plan_cache_size):
            engine = ExecutionEngine(
                SimulatorBackend(noisy_device, seed=7),
                EngineConfig(cache_size=0, plan_cache_size=plan_cache_size),
            )
            batch = engine.new_batch()
            handles = [
                batch.submit_state(
                    state, suffix, measured, 64, best, gate_load=(5, 2)
                )
                for state, suffix, measured, best in jobs
            ]
            batch.run()
            engine.close()
            return handles

        planned = run(64)
        scalar = run(0)
        for a, b in zip(planned, scalar):
            assert np.array_equal(a.pmf().probs, b.pmf().probs)
            assert a.result().data == b.result().data

    def test_pauli_label_specs_match_planless_path_bitwise(
        self, noisy_device
    ):
        """One product-basis pass, vs each label's rotation one by one.

        Mixes two states, X/Y/I/Z labels (including all-I/Z), global
        and subset measurements, and specs sharing a state and label.
        """
        prep = ExecutionEngine(SimulatorBackend(noisy_device, seed=7))
        states = [prep.prepare_state(ansatz(t)) for t in (0.3, -1.1)]
        prep.close()
        jobs = [
            (state, label, measured, best)
            for state in states
            for label in ("XYZ", "YXZ", "ZZZ", "IYI", "XXX", "YYY")
            for measured, best in (((0, 1, 2), False), ((1, 2), True))
        ]

        def run(plan_cache_size):
            engine = ExecutionEngine(
                SimulatorBackend(noisy_device, seed=7),
                EngineConfig(cache_size=0, plan_cache_size=plan_cache_size),
            )
            batch = engine.new_batch()
            handles = [
                batch.submit_state(
                    state, label, measured, 64, best, gate_load=(5, 2)
                )
                for state, label, measured, best in jobs
            ]
            batch.run()
            misses = engine.stats.plan_cache.misses
            engine.close()
            return handles, misses

        planned, compiled = run(64)
        scalar, _ = run(0)
        # The product pass compiles no plan at all.
        assert compiled == 0
        for a, b in zip(planned, scalar):
            assert np.array_equal(a.pmf().probs, b.pmf().probs)
            assert a.result().data == b.result().data

    def test_gc_suffix_spec_matches_pmf_from_state_bitwise(
        self, noisy_device
    ):
        """The suffix-plan route (entangling GC suffixes) stays exact."""
        from repro.pauli import diagonalized_groups

        terms = [PauliString(p) for p in ("XXI", "YYI", "ZZI", "IXX")]
        groups = diagonalized_groups(terms, 3)
        assert any(g.entangling_gates for g in groups)
        backend = SimulatorBackend(noisy_device, seed=7)
        engine = ExecutionEngine(backend, EngineConfig(cache_size=0))
        state = engine.prepare_state(ansatz(0.4))
        batch = engine.new_batch()
        handles = [
            batch.submit_state(
                state, g.circuit, (0, 1, 2), 64, gate_load=(5, 2)
            )
            for g in groups
        ]
        batch.run()
        for group, handle in zip(groups, handles):
            expected = backend.pmf_from_state(
                state, group.circuit, (0, 1, 2), gate_load=(5, 2)
            )
            assert np.array_equal(handle.pmf().probs, expected.probs)
        engine.close()

    def test_prepare_states_matches_prepare_state_bitwise(
        self, noisy_device
    ):
        circuits = [ansatz(t) for t in (0.3, 0.9, 0.3, -2.0)]
        batched_engine = ExecutionEngine(
            SimulatorBackend(noisy_device, seed=7), EngineConfig()
        )
        single_engine = ExecutionEngine(
            SimulatorBackend(noisy_device, seed=7), EngineConfig()
        )
        batched = batched_engine.prepare_states(circuits)
        singles = [single_engine.prepare_state(c) for c in circuits]
        for a, b in zip(batched, singles):
            assert np.array_equal(a, b)
        batched_engine.close()
        single_engine.close()


class TestCapabilityGating:
    def test_dense_backend_supports_plan_batching(self, backend):
        assert backend.supports_plan_batching()
        assert backend.supports_suffix_plans()

    @pytest.mark.parametrize("cls", [CliffordBackend, DensityBackend])
    def test_overriding_backends_are_excluded(self, cls, noisy_device):
        backend = cls(noisy_device, seed=7)
        assert not backend.supports_plan_batching()
        engine = ExecutionEngine(backend, EngineConfig())
        assert not engine._plan_batching

    def test_noise_pipeline_override_disables_batching(self, noisy_device):
        class CustomNoise(SimulatorBackend):
            def _pmf_from_probs(self, *args, **kwargs):
                return super()._pmf_from_probs(*args, **kwargs)

        backend = CustomNoise(noisy_device, seed=7)
        assert not backend.supports_plan_batching()
        assert not backend.supports_suffix_plans()


def reference_pmf(backend, probs, n, measured, map_to_best, gate_load):
    """The scalar noise pipeline, built from public PMF/readout primitives."""
    pmf = PMF(probs, tuple(range(n)))
    gn = backend.device.gate_noise
    e1 = min(1.0, gn.error_1q * gn.scale)
    e2 = min(1.0, gn.error_2q * gn.scale)
    lam = 1.0 - (1.0 - e1) ** gate_load[0] * (1.0 - e2) ** gate_load[1]
    if lam > 0:
        pmf = pmf.mix(PMF.uniform(n, pmf.qubits), lam)
    pmf = pmf.marginal(measured)
    mapping = backend.physical_mapping(list(measured), map_to_best)
    return backend.device.readout.apply(pmf, mapping)


class TestVectorizedFinisher:
    def rows(self):
        rng = np.random.default_rng(11)
        rows = []
        for _ in range(6):
            probs = rng.random(8)
            rows.append((probs, 3, (0, 2), False, (4, 2)))
        rows.append((rng.random(8), 3, (0, 1, 2), True, (0, 0)))
        rows.append((rng.random(8), 3, (1,), False, (3, 1)))
        rows.append((rng.random(8), 3, (1,), False, (5, 0)))
        return rows

    def test_batch_rows_match_scalar_pipeline_bitwise(self, backend):
        rows = self.rows()
        batch = backend.exact_pmfs_from_probs_batch(rows)
        for row, pmf in zip(rows, batch):
            expected = reference_pmf(backend, *row)
            assert pmf.qubits == expected.qubits
            assert np.array_equal(pmf.probs, expected.probs)

    def test_batch_of_one_matches_public_primitives_bitwise(self, backend):
        for row in self.rows():
            pmf = backend._pmf_from_probs(
                row[0], row[1], list(row[2]), row[3], row[4]
            )
            expected = reference_pmf(backend, *row)
            assert pmf.qubits == expected.qubits
            assert np.array_equal(pmf.probs, expected.probs)

    @pytest.mark.parametrize("measured", [(2, 0), (0, 0)])
    def test_bad_measured_labels_rejected(self, measured):
        backend = SimulatorBackend(
            seed=7, readout_enabled=False, gate_noise_enabled=False
        )
        probs = np.zeros(8)
        probs[0b100] = 1.0  # |q0 q1 q2> = |100>
        with pytest.raises(ValueError, match="sorted and distinct"):
            backend.exact_pmfs_from_probs_batch(
                [(probs, 3, measured, False, (0, 0))]
            )
        with pytest.raises(ValueError, match="sorted and distinct"):
            backend._pmf_from_probs(probs, 3, list(measured), False, (0, 0))
