"""Unit tests for VarSaw's spatial optimization."""

import pytest

from repro.core import (
    count_jigsaw_subsets,
    count_varsaw_subsets,
    reduce_assignments,
    varsaw_subset_plan,
)
from repro.hamiltonian import Hamiltonian, build_hamiltonian
from repro.pauli import PauliString


class TestReduceAssignments:
    def test_dedupes_repeats(self):
        reduced = reduce_assignments([{0: "Z"}, {0: "Z"}], max_support=2)
        assert len(reduced) == 1

    def test_absorbs_covered_singletons(self):
        reduced = reduce_assignments(
            [{0: "Z", 1: "Z"}, {1: "Z"}], max_support=2
        )
        assert reduced == [{0: "Z", 1: "Z"}]

    def test_conflicting_kept_separate(self):
        reduced = reduce_assignments([{0: "Z"}, {0: "X"}], max_support=2)
        assert len(reduced) == 2

    def test_extension_merges_disjoint_singletons(self):
        reduced = reduce_assignments(
            [{0: "Z"}, {1: "X"}], max_support=2, allow_extension=True
        )
        assert reduced == [{0: "Z", 1: "X"}]

    def test_extension_respects_support_cap(self):
        reduced = reduce_assignments(
            [{0: "Z", 1: "Z"}, {2: "X"}], max_support=2
        )
        assert len(reduced) == 2

    def test_no_extension_keeps_uncovered_apart(self):
        reduced = reduce_assignments(
            [{0: "Z"}, {1: "X"}], max_support=2, allow_extension=False
        )
        assert len(reduced) == 2

    def test_empty_assignments_dropped(self):
        assert reduce_assignments([{}, {0: "Z"}], max_support=2) == [{0: "Z"}]

    def test_deterministic_order(self):
        subsets = [{1: "X"}, {0: "Z", 1: "Z"}, {2: "Y"}, {0: "Z"}]
        assert reduce_assignments(subsets, 2) == reduce_assignments(
            list(reversed(subsets)), 2
        )


class TestFig6WorkedExample:
    """Section 3.2's end-to-end trace: 21 JigSaw subsets -> 9 VarSaw."""

    def test_varsaw_produces_exactly_eq4(self, fig6_paulis):
        plan = varsaw_subset_plan(fig6_paulis, window=2)
        assert plan.num_subsets == 9
        produced = {s.label for s in plan.as_strings()}
        # Eq. 4: ZZ--, --ZX, ZX--, -XX-, --XZ, XZ--, -XZ-, --ZZ, XX--.
        expected = {
            "ZZII", "IIZX", "ZXII", "IXXI", "IIXZ",
            "XZII", "IXZI", "IIZZ", "XXII",
        }
        assert produced == expected

    def test_reduction_ratio_2_3x(self, fig6_hamiltonian):
        jig = count_jigsaw_subsets(fig6_hamiltonian, window=2)
        var = count_varsaw_subsets(fig6_hamiltonian, window=2)
        assert jig == 21 and var == 9
        assert jig / var == pytest.approx(21 / 9)


class TestSubsetPlan:
    def test_supports_sorted(self, fig6_paulis):
        plan = varsaw_subset_plan(fig6_paulis, window=2)
        for i in range(plan.num_subsets):
            support = plan.support(i)
            assert list(support) == sorted(support)
            assert len(support) <= plan.window

    def test_basis_labels_match_assignment(self, fig6_paulis):
        plan = varsaw_subset_plan(fig6_paulis, window=2)
        for i, assignment in enumerate(plan.assignments):
            label = plan.basis_label(i)
            assert len(label) == plan.n_qubits
            assert PauliString(label).sparse() == assignment
            rotation = PauliString(label).basis_rotation()
            h_qubits = {
                ins.qubits[0]
                for ins in rotation.instructions
                if ins.name == "h"
            }
            x_or_y = {q for q, c in assignment.items() if c in "XY"}
            assert h_qubits == x_or_y

    def test_compatibility_with_group_basis(self, fig6_paulis):
        plan = varsaw_subset_plan(fig6_paulis, window=2)
        basis = PauliString("ZZZZ")
        for i in plan.compatible_with(basis):
            assert all(
                basis[q] == c for q, c in plan.assignments[i].items()
            )

    def test_every_group_has_compatible_subsets(self, fig6_hamiltonian):
        """Each measurement group finds at least one usable Local-PMF."""
        plan = varsaw_subset_plan(fig6_hamiltonian, window=2)
        for group in fig6_hamiltonian.measurement_groups():
            basis = group.basis_string()
            assert plan.compatible_with(basis)

    def test_hamiltonian_and_list_inputs_agree(self, fig6_hamiltonian, fig6_paulis):
        a = varsaw_subset_plan(fig6_hamiltonian, window=2)
        b = varsaw_subset_plan(fig6_paulis, window=2)
        assert a.assignments == b.assignments

    def test_identity_only_rejected(self):
        with pytest.raises(ValueError):
            varsaw_subset_plan([PauliString("II")], window=2)


class TestScaling:
    """Section 3.2: redundancy — and VarSaw's win — grows with size."""

    def test_reduction_ratio_grows_with_molecule_size(self):
        ratios = []
        for key in ["H2-4", "CH4-6", "CH4-8"]:
            ham = build_hamiltonian(key)
            ratios.append(
                count_jigsaw_subsets(ham) / count_varsaw_subsets(ham)
            )
        assert ratios[0] < ratios[1] < ratios[2]

    def test_varsaw_subsets_bounded_by_window_bases(self):
        """Reduced subsets can never exceed 9 bases per window pair plus
        leftover singletons — O(Q) for the sliding window."""
        ham = build_hamiltonian("CH4-8")
        n = ham.n_qubits
        assert count_varsaw_subsets(ham) <= 9 * (n * (n - 1) // 2)

    def test_subsets_below_baseline_terms_for_large_molecules(self):
        """Fig. 12: VarSaw subsets fall below the baseline Pauli count."""
        ham = build_hamiltonian("H6-10")
        assert count_varsaw_subsets(ham) < len(ham.measurement_groups())


class TestLargerWindows:
    @pytest.mark.parametrize("window", [2, 3, 4])
    def test_window_sizes_reduce(self, fig6_paulis, window):
        plan = varsaw_subset_plan(fig6_paulis, window=window)
        assert plan.num_subsets >= 1
        for assignment in plan.assignments:
            assert len(assignment) <= window

    def test_smaller_windows_give_fewer_subsets(self):
        """Appendix A: smaller subsets produce the fewest total circuits."""
        ham = build_hamiltonian("LiH-6")
        counts = [
            count_varsaw_subsets(ham, window=w) for w in (2, 3, 4, 5)
        ]
        assert counts[0] == min(counts)
