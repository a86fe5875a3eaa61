"""Bit-identity: the Session/spec path vs direct constructors.

With a fixed seed, constructing through ``Session.estimator`` yields
*bit-identical* energies and cost ledgers to hand-wiring the estimator
class's constructor, for every registered kind.
"""

import numpy as np
import pytest

from repro.api import Session, make_spec
from repro.core import (
    CalibrationGate,
    CalibrationGatedVarSawEstimator,
    PhasePolicy,
    SelectiveVarSawEstimator,
    TermSelector,
    VarSawEstimator,
)
from repro.mitigation import JigSawEstimator, MatrixMitigator
from repro.noise import SimulatorBackend
from repro.vqe import (
    BaselineEstimator,
    GeneralCommutationEstimator,
    IdealEstimator,
)
from repro.workloads import make_workload

@pytest.fixture(scope="module")
def workload():
    return make_workload("H2-4", reps=1, entanglement="linear")


def _params(workload):
    return np.full(workload.ansatz.num_parameters, 0.1)


class TestSessionVsDirectConstructors:
    """The kinds the legacy factory never exposed, against the direct
    constructor calls the benchmarks used to hand-wire."""

    CASES = {
        "ideal": (IdealEstimator, {}, {}),
        "baseline": (BaselineEstimator, {"shots": 32}, {"shots": 32}),
        "jigsaw": (
            JigSawEstimator,
            {"shots": 32, "window": 3},
            {"shots": 32, "window": 3},
        ),
        "varsaw": (
            VarSawEstimator,
            {"shots": 32, "global_mode": "always"},
            {"shots": 32, "global_mode": "always"},
        ),
        "gc": (
            GeneralCommutationEstimator,
            {"shots": 32},
            {"shots": 32},
        ),
        "selective": (
            SelectiveVarSawEstimator,
            {
                "shots": 32,
                "global_mode": "always",
                "term_selector": TermSelector(0.8),
                "phase_policy": PhasePolicy(10, start_fraction=0.5),
            },
            {
                "shots": 32,
                "global_mode": "always",
                "mass_fraction": 0.8,
                "phase_evaluations": 10,
                "phase_start": 0.5,
            },
        ),
        "calibration_gated": (
            CalibrationGatedVarSawEstimator,
            {"shots": 32, "gate": CalibrationGate(error_threshold=0.02)},
            {"shots": 32, "error_threshold": 0.02},
        ),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_evaluations_bit_identical(self, kind, workload):
        cls, ctor_kwargs, spec_params = self.CASES[kind]
        params = _params(workload)

        backend = SimulatorBackend(workload.device, seed=5)
        legacy = cls(
            workload.hamiltonian, workload.ansatz, backend, **ctor_kwargs
        )
        legacy_energies = [legacy.evaluate(params) for _ in range(3)]

        session = Session(workload.device, seed=5)
        ours = session.estimator(kind, workload, **spec_params)
        assert type(ours) is cls
        energies = [ours.evaluate(params) for _ in range(3)]

        assert energies == legacy_energies
        assert session.backend.circuits_run == backend.circuits_run
        assert session.backend.shots_run == backend.shots_run


class TestMbmMaterialization:
    def test_mbm_flag_matches_hand_wired_mitigator(self, workload):
        params = _params(workload)
        backend = SimulatorBackend(workload.device, seed=2)
        mitigator = MatrixMitigator.from_device(
            SimulatorBackend(workload.device), range(workload.n_qubits)
        )
        legacy = VarSawEstimator(
            workload.hamiltonian,
            workload.ansatz,
            backend,
            shots=32,
            mbm=mitigator,
        )
        session = Session(workload.device, seed=2)
        ours = session.estimator("varsaw", workload, shots=32, mbm=True)
        assert ours.evaluate(params) == legacy.evaluate(params)

    def test_live_mbm_object_still_accepted_by_shim(self, workload):
        """A ready mitigator bypasses the spec as a build override."""
        session = Session(workload.device, seed=2)
        mitigator = MatrixMitigator.from_device(
            SimulatorBackend(workload.device), range(workload.n_qubits)
        )
        estimator = session.spec("varsaw", shots=32).build(
            workload, session.backend, engine=session.engine, mbm=mitigator
        )
        assert estimator.mbm is mitigator


class TestSpecDrivenPointParity:
    def test_inline_spec_point_matches_scheme_point(self, tmp_path):
        """A Point whose estimator payload carries the kind produces the
        same stored numbers as the classic scheme field."""
        from repro.sweeps import Point, ResultStore, run_sweep

        base = dict(
            workload={"key": "H2-4"},
            shots=16,
            max_iterations=2,
            seed=3,
        )
        classic = Point(scheme="varsaw", estimator={"window": 2}, **base)
        inline = Point(
            estimator={"kind": "varsaw", "window": 2}, **base
        )
        store = ResultStore(tmp_path / "parity.jsonl")
        report = run_sweep([classic, inline], store)
        records = list(report.records.values())
        assert len(records) == 2
        assert records[0]["result"] == records[1]["result"]

    def test_energy_task_honors_inline_kind_and_pinned_shots(
        self, tmp_path
    ):
        """Every estimator-building task decodes the payload through
        Point.estimator_args — inline kinds and payload-pinned shots
        must not crash the energy task (PR 4 review regression)."""
        from repro.sweeps import Point, ResultStore, run_sweep

        base = dict(
            workload={"key": "H2-4"},
            task="energy",
            shots=16,
            seed=3,
            options={"params_iterations": 40},
        )
        points = [
            Point(
                estimator={"kind": "gc", "shots": 32, "method": "color"},
                **base,
            ),
            Point(scheme="varsaw", estimator={"shots": 32}, **base),
        ]
        store = ResultStore(tmp_path / "energy.jsonl")
        report = run_sweep(points, store)
        for record in report.records.values():
            assert record["result"]["energy"] != 0.0
        # The pinned shot count actually drove the evaluation: the
        # classic-scheme point with the same payload-free spelling at
        # 32 shots matches the payload-pinned row bit for bit.
        classic = Point(
            scheme="varsaw", shots=32, task="energy", seed=3,
            workload={"key": "H2-4"},
            options={"params_iterations": 40},
        )
        report2 = run_sweep([classic], ResultStore(tmp_path / "c.jsonl"))
        [classic_record] = report2.records.values()
        pinned_record = store.get(points[1].fingerprint())
        assert classic_record["result"] == pinned_record["result"]

    def test_zne_task_honors_inline_kind(self, tmp_path):
        from repro.sweeps import Point, ResultStore, run_sweep

        point = Point(
            workload={"key": "H2-4"},
            task="zne",
            estimator={"kind": "gc"},
            shots=16,
            seed=3,
            options={"params_iterations": 40, "scales": [1.0, 2.0]},
        )
        store = ResultStore(tmp_path / "zne.jsonl")
        report = run_sweep([point], store)
        [record] = report.records.values()
        assert record["result"]["energy"] != 0.0
