"""Property-based tests for Bayesian reconstruction invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.mitigation import (
    bayesian_reconstruct,
    bayesian_reconstruct_batch,
    subset_index_map,
)
from repro.sim import PMF

N = 3


def global_pmfs():
    return arrays(
        np.float64,
        shape=2**N,
        elements=st.floats(0.001, 1.0, allow_nan=False),
    ).map(PMF)


@st.composite
def local_pmfs(draw):
    qubits = tuple(
        draw(
            st.lists(
                st.integers(0, N - 1), min_size=1, max_size=2, unique=True
            )
        )
    )
    probs = draw(
        arrays(
            np.float64,
            shape=2 ** len(qubits),
            elements=st.floats(0.001, 1.0, allow_nan=False),
        )
    )
    return PMF(probs, qubits)


def reference_reconstruct(global_pmf, local_pmfs):
    """The per-local loop reconstruction ran before it was batched.

    Kept verbatim as the reference the batched pass must match bit for
    bit.
    """
    n = global_pmf.n_qubits
    probs = global_pmf.probs.copy()
    for local in local_pmfs:
        current = probs / probs.sum()
        index = subset_index_map(n, tuple(local.qubits))
        marginal = np.bincount(
            index, weights=current, minlength=local.probs.size
        )
        ratio = np.divide(
            local.probs,
            marginal,
            out=np.zeros_like(local.probs),
            where=marginal > 0,
        )
        updated = probs * ratio[index]
        total = updated.sum()
        if total <= 0:
            continue  # degenerate evidence; skip this local
        probs = updated
    total = probs.sum()
    if total <= 0:
        return global_pmf
    return PMF._normalized(probs, global_pmf.qubits)


_MASS = st.one_of(st.just(0.0), st.floats(0.001, 1.0, allow_nan=False))


def _pmf_or_zero_mass(probs, qubits):
    """A PMF, or (all-zero ``probs``) a zero-mass one the constructor
    would reject — the input that drives reconstruction's degenerate
    branches."""
    if probs.sum() == 0:
        return PMF._trusted(probs, qubits)
    return PMF(probs, qubits)


@st.composite
def reconstruction_batches(draw):
    """Groups with uneven local counts, mixed 1-/2-qubit locals, sparse
    and zero-mass globals, and point-mass and zero-mass locals."""
    n = draw(st.integers(2, 5))
    globals_, locals_per_group = [], []
    for _ in range(draw(st.integers(1, 6))):
        probs = draw(arrays(np.float64, shape=2**n, elements=_MASS))
        globals_.append(_pmf_or_zero_mass(probs, tuple(range(n))))
        locals_ = []
        for _ in range(draw(st.integers(0, 4))):
            qubits = tuple(
                draw(
                    st.lists(
                        st.integers(0, n - 1),
                        min_size=1,
                        max_size=2,
                        unique=True,
                    )
                )
            )
            size = 2 ** len(qubits)
            kind = draw(st.sampled_from(("dense", "point", "zero")))
            if kind == "dense":
                local = draw(arrays(np.float64, shape=size, elements=_MASS))
            else:
                local = np.zeros(size)
                if kind == "point":
                    local[draw(st.integers(0, size - 1))] = 1.0
            locals_.append(_pmf_or_zero_mass(local, qubits))
        locals_per_group.append(locals_)
    return globals_, locals_per_group


class TestBatchedReconstructionBitIdentity:
    @given(reconstruction_batches())
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_reference_loop_bitwise(self, batch):
        globals_, locals_per_group = batch
        with np.errstate(all="ignore"):
            out = bayesian_reconstruct_batch(globals_, locals_per_group)
            expected = [
                reference_reconstruct(g, locals_)
                for g, locals_ in zip(globals_, locals_per_group)
            ]
        assert len(out) == len(expected)
        for got, want in zip(out, expected):
            assert got.qubits == want.qubits
            assert np.array_equal(got.probs, want.probs)

    def test_degenerate_local_is_skipped_per_row(self):
        """A local with no overlap leaves its own row untouched only."""
        sparse = PMF([0.5, 0.5, 0.0, 0.0])
        dense = PMF([0.1, 0.2, 0.3, 0.4])
        disjoint = PMF([0.0, 1.0], qubits=(0,))
        out = bayesian_reconstruct_batch(
            [sparse, dense], [[disjoint], [disjoint]]
        )
        assert np.array_equal(out[0].probs, sparse.probs)
        assert np.allclose(out[1].probs, [0.0, 0.0, 3 / 7, 4 / 7])
        for got, g in zip(out, (sparse, dense)):
            want = reference_reconstruct(g, [disjoint])
            assert np.array_equal(got.probs, want.probs)

    def test_zero_mass_global_is_returned_unchanged(self):
        zero = PMF._trusted(np.zeros(4), (0, 1))
        dense = PMF([0.1, 0.2, 0.3, 0.4])
        local = PMF([0.5, 0.5], qubits=(1,))
        with np.errstate(all="ignore"):
            out = bayesian_reconstruct_batch([zero, dense], [[local], []])
        assert out[0] is zero
        assert np.array_equal(out[1].probs, dense.probs)

    def test_batch_of_one_is_bayesian_reconstruct(self):
        g = PMF([0.1, 0.2, 0.3, 0.4])
        locals_ = [PMF([0.7, 0.3], qubits=(1,)), PMF([0.2, 0.8], (0,))]
        assert np.array_equal(
            bayesian_reconstruct(g, iter(locals_)).probs,
            bayesian_reconstruct_batch([g], [locals_])[0].probs,
        )

    def test_mismatched_batch_rejected(self):
        g = PMF([0.5, 0.5])
        with pytest.raises(ValueError, match="local lists"):
            bayesian_reconstruct_batch([g, g], [[]])
        with pytest.raises(ValueError, match="full register"):
            bayesian_reconstruct_batch([g, PMF([0.25] * 4)], [[], []])
        with pytest.raises(ValueError, match="outside register"):
            bayesian_reconstruct_batch([g], [[PMF([0.5, 0.5], (3,))]])


class TestReconstructionInvariants:
    @given(global_pmfs(), st.lists(local_pmfs(), max_size=3))
    @settings(max_examples=80)
    def test_output_is_valid_pmf(self, g, locals_):
        out = bayesian_reconstruct(g, locals_)
        assert np.isclose(out.probs.sum(), 1.0)
        assert np.all(out.probs >= 0)
        assert out.qubits == g.qubits

    @given(global_pmfs(), local_pmfs())
    @settings(max_examples=80)
    def test_last_local_marginal_matched(self, g, local):
        """After updating with one local, the output marginal equals it."""
        out = bayesian_reconstruct(g, [local])
        assert np.allclose(
            out.marginal(local.qubits).probs, local.probs, atol=1e-9
        )

    @given(global_pmfs())
    def test_no_locals_identity(self, g):
        assert bayesian_reconstruct(g, []) == g

    @given(global_pmfs(), local_pmfs())
    @settings(max_examples=80)
    def test_update_with_own_marginal_is_identity(self, g, local):
        """Evidence equal to the current marginal changes nothing."""
        own = g.marginal(local.qubits)
        out = bayesian_reconstruct(g, [own])
        assert np.allclose(out.probs, g.probs, atol=1e-9)

    @given(global_pmfs(), local_pmfs())
    @settings(max_examples=80)
    def test_support_never_grows(self, g, local):
        """Zero-probability global outcomes stay zero (no invention)."""
        sparse = g.probs.copy()
        sparse[sparse < 0.3] = 0.0
        if sparse.sum() == 0:
            return
        g_sparse = PMF(sparse)
        out = bayesian_reconstruct(g_sparse, [local])
        assert np.all(out.probs[g_sparse.probs == 0] == 0)


class TestSubsetIndexProperties:
    @given(
        st.lists(st.integers(0, N - 1), min_size=1, max_size=N, unique=True)
    )
    def test_index_map_consistent_with_bit_extraction(self, qubits):
        qubits = tuple(qubits)
        index = subset_index_map(N, qubits)
        m = len(qubits)
        for x in range(2**N):
            bits = format(x, f"0{N}b")
            local = "".join(bits[q] for q in qubits)
            assert index[x] == int(local, 2), (x, qubits)

    @given(
        st.lists(st.integers(0, N - 1), min_size=1, max_size=N, unique=True)
    )
    def test_index_map_surjective(self, qubits):
        index = subset_index_map(N, tuple(qubits))
        assert set(index) == set(range(2 ** len(qubits)))
