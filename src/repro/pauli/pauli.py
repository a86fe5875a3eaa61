"""Pauli strings.

A :class:`PauliString` is a word over ``{I, X, Y, Z}``; the leftmost
character acts on qubit 0 (the same reading order the paper uses, e.g.
'ZZIZ' in Fig. 6).  The class is immutable and hashable so strings can be
deduplicated in sets — the operation VarSaw's spatial reduction lives on.
"""

from __future__ import annotations

import numpy as np

from ..circuits import Circuit

__all__ = ["PauliString", "PAULI_CHARS", "PAULI_MATRICES"]

PAULI_CHARS = "IXYZ"

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


_PARITY_SIGNS: dict[tuple, np.ndarray] = {}


def _parity_signs(n: int, support: tuple[int, ...]) -> np.ndarray:
    """``(-1)^parity(outcome restricted to support)``, memoized.

    Every energy assembly re-reads each term's expectation off a group
    PMF; the sign vector depends only on ``(n, support)``, so it is
    built once and handed out read-only.
    """
    signs = _PARITY_SIGNS.get((n, support))
    if signs is None:
        signs = np.ones(2**n)
        indices = np.arange(2**n)
        for q in support:
            bit = (indices >> (n - 1 - q)) & 1
            signs = signs * (1 - 2 * bit)
        signs.setflags(write=False)
        _PARITY_SIGNS[(n, support)] = signs
    return signs


class PauliString:
    """An n-qubit Pauli operator written as a string, e.g. 'ZXIZ'."""

    __slots__ = ("label", "_support")

    def __init__(self, label: str):
        label = label.upper()
        if not label:
            raise ValueError("empty Pauli string")
        bad = set(label) - set(PAULI_CHARS)
        if bad:
            raise ValueError(f"invalid Pauli characters {sorted(bad)}")
        object.__setattr__(self, "label", label)
        # Energy assembly reads the support several times per term
        # (identity check, weight, parity signs); derive it once.
        support = tuple(i for i, c in enumerate(label) if c != "I")
        object.__setattr__(self, "_support", support)

    def __setattr__(self, name, value):
        raise AttributeError("PauliString is immutable")

    def __reduce__(self):
        # Slot-state restore would go through the guarding __setattr__;
        # rebuild from the label instead (pickle and copy both use this).
        return (PauliString, (self.label,))

    # ------------------------------------------------------------ constructors

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls("I" * n_qubits)

    @classmethod
    def from_sparse(
        cls, n_qubits: int, assignment: dict[int, str]
    ) -> "PauliString":
        """Build from a {qubit: char} map; unmentioned qubits get 'I'."""
        chars = ["I"] * n_qubits
        for q, c in assignment.items():
            if not 0 <= q < n_qubits:
                raise ValueError(f"qubit {q} out of range")
            if c not in PAULI_CHARS:
                raise ValueError(f"invalid Pauli char {c!r}")
            chars[q] = c
        return cls("".join(chars))

    # -------------------------------------------------------------- structure

    @property
    def n_qubits(self) -> int:
        return len(self.label)

    @property
    def support(self) -> tuple[int, ...]:
        """Positions with a non-identity Pauli."""
        return self._support

    @property
    def weight(self) -> int:
        """Number of non-identity positions."""
        return len(self._support)

    def is_identity(self) -> bool:
        return not self._support

    def __getitem__(self, index: int) -> str:
        return self.label[index]

    def sparse(self) -> dict[int, str]:
        """The {qubit: char} map of non-identity positions."""
        return {i: c for i, c in enumerate(self.label) if c != "I"}

    def restricted_to(self, positions) -> "PauliString":
        """Keep the given positions, setting all others to 'I'."""
        keep = set(int(p) for p in positions)
        chars = [
            c if i in keep else "I" for i, c in enumerate(self.label)
        ]
        return PauliString("".join(chars))

    # ----------------------------------------------------------- commutation

    def commutes_with(self, other: "PauliString") -> bool:
        """Full (operator) commutation: even number of anticommuting sites."""
        self._check_width(other)
        anti = 0
        for a, b in zip(self.label, other.label):
            if a != "I" and b != "I" and a != b:
                anti += 1
        return anti % 2 == 0

    def qubit_wise_commutes(self, other: "PauliString") -> bool:
        """Qubit-wise commutation: every site agrees or involves an 'I'.

        This is the 'trivial qubit commutation' the paper restricts itself
        to (Section 3.1) — QWC-compatible strings share one measurement
        circuit.
        """
        self._check_width(other)
        return all(
            a == "I" or b == "I" or a == b
            for a, b in zip(self.label, other.label)
        )

    def can_be_measured_by(self, basis: "PauliString") -> bool:
        """True if measuring in ``basis`` also yields this string's value.

        Requires ``basis`` to fix the same Pauli at every support position
        of ``self`` ('IZZ' can be measured by 'ZZZ' but not vice versa —
        the arrow direction of Fig. 7).
        """
        self._check_width(basis)
        return all(
            c == "I" or basis.label[i] == c
            for i, c in enumerate(self.label)
        )

    def _check_width(self, other: "PauliString") -> None:
        if other.n_qubits != self.n_qubits:
            raise ValueError(
                f"width mismatch: {self.n_qubits} vs {other.n_qubits}"
            )

    # -------------------------------------------------------------- measuring

    def basis_rotation(self, n_qubits: int | None = None) -> Circuit:
        """Circuit mapping this Pauli's eigenbasis to the computational basis.

        Append after the ansatz: X -> H, Y -> S† then H, Z/I -> nothing.
        """
        n = n_qubits if n_qubits is not None else self.n_qubits
        if n != self.n_qubits:
            raise ValueError("n_qubits must match the string width")
        qc = Circuit(n, name=f"meas_{self.label}")
        for q, c in enumerate(self.label):
            if c == "X":
                qc.h(q)
            elif c == "Y":
                qc.sdg(q)
                qc.h(q)
        return qc

    def expectation_from_probs(self, probs: np.ndarray) -> float:
        """<P> from computational-basis probabilities *after* basis rotation.

        ``probs`` must cover all ``n_qubits`` bits in this string's order.
        The value is the parity-weighted sum over the support positions.
        """
        n = self.n_qubits
        if probs.shape != (2**n,):
            raise ValueError("probability vector has wrong length")
        if self.is_identity():
            return 1.0
        return float(np.dot(_parity_signs(n, self._support), probs))

    # ----------------------------------------------------------------- matrix

    def to_matrix(self) -> np.ndarray:
        """Dense ``2^n x 2^n`` matrix (small n only — used by exact solvers)."""
        out = np.array([[1.0 + 0j]])
        for c in self.label:
            out = np.kron(out, PAULI_MATRICES[c])
        return out

    # -------------------------------------------------------------- plumbing

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PauliString):
            return self.label == other.label
        if isinstance(other, str):
            return self.label == other.upper()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.label)

    def __lt__(self, other: "PauliString") -> bool:
        return self.label < other.label

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"PauliString({self.label!r})"
