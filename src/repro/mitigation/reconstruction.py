"""Bayesian reconstruction (JigSaw step 3).

Given a low-fidelity *Global-PMF* over all qubits and several high-fidelity
*Local-PMFs* over measured subsets, rescale each global outcome's
probability by how much the locals disagree with the global's marginals:

    P'(x)  ∝  P_global(x) * Π_S  [ P_local_S(x|_S) / P_global_S(x|_S) ]

applied one local at a time (each update uses the current estimate's
marginal, mirroring Bayesian updating with each local as new evidence).
This preserves the global correlation structure while pulling the subset
marginals toward their high-fidelity measurements.

An estimator reconstructs every measurement group of an evaluation in
one :func:`bayesian_reconstruct_batch` call; :func:`bayesian_reconstruct`
is its batch of one.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..sim import PMF

__all__ = [
    "subset_index_map",
    "bayesian_reconstruct",
    "bayesian_reconstruct_batch",
]


def subset_index_map(n_qubits: int, qubits: tuple[int, ...]) -> np.ndarray:
    """For each full-register outcome, its index restricted to ``qubits``.

    Returns an int vector of length ``2**n_qubits``; entry ``x`` is the
    outcome of reading only ``qubits`` (in the given order) from ``x``.
    Uses the library-wide convention that qubit 0 is the most significant
    bit.
    """
    indices = np.arange(2**n_qubits)
    m = len(qubits)
    local = np.zeros(2**n_qubits, dtype=np.int64)
    for j, q in enumerate(qubits):
        bit = (indices >> (n_qubits - 1 - q)) & 1
        local |= bit << (m - 1 - j)
    return local


def _register_width(globals_, locals_per_group) -> int:
    """Check that every global covers one full register; return its width."""
    if len(globals_) != len(locals_per_group):
        raise ValueError(
            f"{len(globals_)} globals but {len(locals_per_group)} "
            "local lists"
        )
    n = globals_[0].n_qubits
    full = tuple(range(n))
    for global_pmf in globals_:
        if global_pmf.qubits != full:
            raise ValueError(
                "every global PMF must cover the same full register "
                "in order"
            )
    return n


@lru_cache(maxsize=256)
def _step_plan(n: int, layout: tuple[tuple[int, ...], ...]):
    """Gather indices for one reconstruction step (memoized).

    ``layout`` holds, per active row, the qubits of that row's local at
    this step.  Returns ``(index, bins)``: a ``(rows, 2**n)`` array
    whose row ``r`` is :func:`subset_index_map` of row ``r``'s local,
    shifted by the total size of the earlier rows' locals (so one
    ``np.bincount`` yields every row's marginal in its own bin range),
    and the total bin count.
    """
    for qubits in layout:
        for q in qubits:
            if not 0 <= q < n:
                raise ValueError(f"local qubit {q} outside register")
    offsets = np.cumsum([0] + [2 ** len(q) for q in layout])
    index = np.stack([
        subset_index_map(n, qubits) + offset
        for qubits, offset in zip(layout, offsets)
    ])
    index.setflags(write=False)
    return index, int(offsets[-1])


def bayesian_reconstruct_batch(globals_, locals_per_group) -> list[PMF]:
    """:func:`bayesian_reconstruct` over many groups in one pass.

    Row ``g`` refines ``globals_[g]`` with ``locals_per_group[g]``; the
    result is bit-identical to reconstructing each group alone.  The
    groups' PMFs stack into a ``(G, 2**n)`` array and the update steps
    over local rank ``k``, touching only the rows that have a ``k``-th
    local.  Each step's marginals come from one ``np.bincount`` over
    group-offset indices: every bin still sums its own row's outcomes
    in the same order, and the row-wise ``sum(axis=1)`` of a
    C-contiguous array is the same pairwise sum as the 1-D one.  The
    per-local "skip degenerate evidence" and the final "return the
    global unchanged" rules apply per row.
    """
    if not globals_:
        return []
    n = _register_width(globals_, locals_per_group)
    probs = np.stack([g.probs for g in globals_])
    depth = max((len(locals_) for locals_ in locals_per_group), default=0)
    for k in range(depth):
        rows = [
            g for g, locals_ in enumerate(locals_per_group)
            if len(locals_) > k
        ]
        evidence = [locals_per_group[g][k] for g in rows]
        index, bins = _step_plan(
            n, tuple(tuple(local.qubits) for local in evidence)
        )
        active = probs[rows]
        current = active / active.sum(axis=1)[:, None]
        # Current estimates' marginals on each row's local qubits.
        marginal = np.bincount(
            index.ravel(), weights=current.ravel(), minlength=bins
        )
        local_probs = np.concatenate([local.probs for local in evidence])
        ratio = np.divide(
            local_probs,
            marginal,
            out=np.zeros_like(local_probs),
            where=marginal > 0,
        )
        updated = active * ratio[index]
        # A row whose update sums to zero saw degenerate evidence: it
        # skips this local.  ``~(<= 0)`` rather than ``> 0`` keeps a
        # NaN sum, as the per-group rule ``if total <= 0`` does.
        keep = ~(updated.sum(axis=1) <= 0)
        probs[np.asarray(rows)[keep]] = updated[keep]
    totals = probs.sum(axis=1)
    out: list[PMF] = []
    for g, global_pmf in enumerate(globals_):
        if totals[g] <= 0:
            out.append(global_pmf)
        else:
            # probs is a product of nonnegative factors, so the
            # constructor's validation cannot fire; the division is the
            # constructor's normalization, bit for bit.
            out.append(PMF._trusted(probs[g] / totals[g], global_pmf.qubits))
    return out


def bayesian_reconstruct(global_pmf: PMF, local_pmfs) -> PMF:
    """Refine ``global_pmf`` with the evidence in ``local_pmfs``.

    ``global_pmf`` must cover the full register ``(0, ..., n-1)``; each
    local PMF covers a subset of those labels.  Outcomes whose current
    marginal probability is zero keep their (zero) probability.  If the
    update annihilates the whole distribution (pathological all-zero
    overlap), the global is returned unchanged.  A batch of one through
    :func:`bayesian_reconstruct_batch`.
    """
    return bayesian_reconstruct_batch([global_pmf], [list(local_pmfs)])[0]
