"""Property tests for the product-basis pass.

Every VarSaw/JigSaw/baseline measurement basis is a qubit-wise Pauli
label, so the engine measures a whole batch of prepared states in one
:func:`repro.sim.plan.basis_probabilities` pass, whatever the labels.
Each row must be bit-identical to compiling that label's basis
rotation into its own plan, and each label must be charged exactly the
gate load that plan records.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pauli import PauliString
from repro.sim import probabilities
from repro.sim.plan import (
    basis_gate_load,
    basis_probabilities,
    compile_plan,
)


def plan_probabilities(state, label):
    """The per-label reference: a compiled suffix plan, then Born."""
    plan = compile_plan(PauliString(label).basis_rotation())
    return probabilities(plan.run([], initial_state=state))


def random_states(rng, batch, n_qubits):
    dim = 2**n_qubits
    states = rng.normal(size=(batch, dim)) + 1j * rng.normal(
        size=(batch, dim)
    )
    return states / np.linalg.norm(states, axis=1)[:, None]


@st.composite
def label_batches(draw):
    """1-6 qubit labels, some restricted to I/Z (no gate at all)."""
    n_qubits = draw(st.integers(1, 6))
    label = st.sampled_from(["IXYZ", "IZ"]).flatmap(
        lambda alphabet: st.text(
            alphabet=alphabet, min_size=n_qubits, max_size=n_qubits
        )
    )
    labels = draw(st.lists(label, min_size=1, max_size=8))
    seed = draw(st.integers(0, 2**32 - 1))
    return n_qubits, labels, seed


class TestProductPassBitIdentity:
    @given(label_batches())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_per_label_plans_bitwise(self, case):
        n_qubits, labels, seed = case
        states = random_states(
            np.random.default_rng(seed), len(labels), n_qubits
        )
        rows = basis_probabilities(states, labels)
        assert rows.shape == (len(labels), 2**n_qubits)
        for state, label, row in zip(states, labels, rows):
            assert np.array_equal(row, plan_probabilities(state, label))

    def test_every_three_qubit_label_in_one_batch(self):
        """All 64 labels mixed in one pass, two rows per state."""
        labels = ["".join(p) for p in itertools.product("IXYZ", repeat=3)]
        states = np.repeat(
            random_states(np.random.default_rng(3), 64, 3), 2, axis=0
        )
        labels = [label for label in labels for _ in range(2)]
        rows = basis_probabilities(states, labels)
        for state, label, row in zip(states, labels, rows):
            assert np.array_equal(row, plan_probabilities(state, label))

    def test_input_states_are_not_mutated(self):
        states = random_states(np.random.default_rng(5), 3, 2)
        before = states.copy()
        basis_probabilities(states, ["XY", "YX", "ZZ"])
        assert np.array_equal(states, before)

    def test_label_width_must_match_states(self):
        states = random_states(np.random.default_rng(5), 2, 2)
        with pytest.raises(ValueError):
            basis_probabilities(states, ["XY", "XYZ"])
        with pytest.raises(ValueError):
            basis_probabilities(states, ["XY"])


class TestProductPassGateLoad:
    def test_charged_load_equals_compiled_plan_load(self):
        """Every IXYZ label up to 6 qubits, against its suffix plan."""
        for n_qubits in range(1, 7):
            for chars in itertools.product("IXYZ", repeat=n_qubits):
                label = "".join(chars)
                plan = compile_plan(PauliString(label).basis_rotation())
                assert basis_gate_load(label) == plan.gate_load, label
