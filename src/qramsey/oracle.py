"""Brute-force dense-matrix verifier for the symplectic decision layer.

Nothing in this module consults check vectors: noise quotients are formed
with dense matrix products, code projectors with the product formula, and
dimensions with singular values of honest Gram matrices.  Agreement with
the bit-level routines is therefore evidence that both are right, which
is the whole point.  Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import PauliChannel
from .pauli import DENSE_QUBIT_LIMIT, CapacityError, PauliOperator
from .stabilizer import StabilizerGroup, projector

__all__ = [
    "RANK_TOLERANCE",
    "SCALAR_TOLERANCE",
    "GramRankResult",
    "dense_compressed_dimension",
    "kl_check",
    "private_witness_check",
    "dense_graph_dimension",
    "dense_maximal_check",
]

RANK_TOLERANCE = 1e-9
SCALAR_TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True)
class GramRankResult:
    """Rank plus the singular values it was read off from."""

    rank: int
    singular_values: tuple[float, ...]


@lru_cache(maxsize=4096)
def _dense(op: PauliOperator) -> np.ndarray:
    m = op.to_dense()
    m.flags.writeable = False
    return m


@lru_cache(maxsize=4096)
def _projector(group: StabilizerGroup) -> np.ndarray:
    p = projector(group)
    p.flags.writeable = False
    return p


def _quotient_stack(ch: PauliChannel, limit: int) -> np.ndarray:
    """All m^2 products E_i^+ E_j as an (m^2, dim, dim) array."""
    if ch.n > limit:
        raise CapacityError(f"dense oracle limited to {limit} qubits, got {ch.n}")
    ops = np.stack([_dense(op) for op in ch.operators])
    prods = np.einsum("iba,jbc->ijac", ops.conj(), ops)
    return prods.reshape(-1, *prods.shape[2:])


def _compress(p: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Every P Q P for Q in the stack, as batched matrix products."""
    return p @ stack @ p


def _gram_rank(stack: np.ndarray, tolerance: float) -> GramRankResult:
    flat = stack.reshape(stack.shape[0], -1)
    gram = flat.conj() @ flat.T
    values = np.linalg.svd(gram, compute_uv=False)
    top = values[0] if len(values) else 0.0
    rank = 0 if top <= 0 else int(np.count_nonzero(values > tolerance * top))
    return GramRankResult(rank, tuple(float(v) for v in values))


def dense_compressed_dimension(
    ch: PauliChannel,
    group: StabilizerGroup,
    limit: int = DENSE_QUBIT_LIMIT,
    tolerance: float = RANK_TOLERANCE,
) -> GramRankResult:
    """Rank of the Gram matrix of {P E_i^+ E_j P} under Tr(A^+ B)."""
    if ch.n != group.n:
        raise ValueError(f"channel acts on {ch.n} qubits, group on {group.n}")
    compressed = _compress(_projector(group), _quotient_stack(ch, limit))
    return _gram_rank(compressed, tolerance)


def dense_graph_dimension(
    ch: PauliChannel,
    limit: int = DENSE_QUBIT_LIMIT,
    tolerance: float = RANK_TOLERANCE,
) -> GramRankResult:
    """Uncompressed span dimension of {E_i^+ E_j}."""
    return _gram_rank(_quotient_stack(ch, limit), tolerance)


def kl_check(
    ch: PauliChannel,
    group: StabilizerGroup,
    limit: int = DENSE_QUBIT_LIMIT,
    tolerance: float = SCALAR_TOLERANCE,
) -> bool:
    """Error-correction condition: every P E_i^+ E_j P is a scalar times P.

    The scalar is read off as Tr(compression)/Tr(P); the residual is
    compared in Frobenius norm relative to the compression's own scale.
    """
    if ch.n != group.n:
        raise ValueError(f"channel acts on {ch.n} qubits, group on {group.n}")
    p = _projector(group)
    return _scalar_compressions(p, _compress(p, _quotient_stack(ch, limit)), tolerance)


def _scalar_compressions(
    p: np.ndarray, compressed: np.ndarray, tolerance: float
) -> bool:
    trace_p = np.trace(p).real
    for mat in compressed:
        c = np.trace(mat) / trace_p
        residual = np.linalg.norm(mat - c * p)
        if residual > tolerance * max(1.0, np.linalg.norm(mat)):
            return False
    return True


def dense_maximal_check(
    ch: PauliChannel,
    group: StabilizerGroup,
    limit: int = DENSE_QUBIT_LIMIT,
    tolerance: float = RANK_TOLERANCE,
) -> bool:
    """Whether the channel's noise algebra is that of ``group``, maximally.

    Requires group to be maximal (n generators).  Checks densely that the
    graph span has dimension 2^n and that every quotient compresses onto
    the code line with a nonzero scalar; together these pin the span of
    the quotients to the span of the group elements.
    """
    if ch.n != group.n:
        raise ValueError(f"channel acts on {ch.n} qubits, group on {group.n}")
    if group.num_generators != group.n:
        raise ValueError(
            f"group has {group.num_generators} generators, need {group.n} for maximal"
        )
    stack = _quotient_stack(ch, limit)
    if _gram_rank(stack, tolerance).rank != 1 << ch.n:
        return False
    p = _projector(group)
    compressed = _compress(p, stack)
    if not _scalar_compressions(p, compressed, SCALAR_TOLERANCE):
        return False
    trace_p = np.trace(p).real
    return all(abs(np.trace(mat) / trace_p) > SCALAR_TOLERANCE for mat in compressed)


def private_witness_check(
    ch: PauliChannel,
    group: StabilizerGroup,
    samples: int = 100,
    seed: int = 0,
    limit: int = DENSE_QUBIT_LIMIT,
    tolerance: float = SCALAR_TOLERANCE,
) -> bool:
    """Sampled privacy test: every orthogonal code pair sees some noise overlap.

    Draws ``samples`` random orthonormal pairs |a>, |b> in the code and
    requires some quotient with |<a|E_j^+ E_i|b>| above tolerance for each.
    Sampling can support or refute, never prove; callers treat the answer
    as evidence at this seed and sample count.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if ch.n != group.n:
        raise ValueError(f"channel acts on {ch.n} qubits, group on {group.n}")
    if group.k < 1:
        raise ValueError("code dimension is 1; privacy needs an orthogonal pair")
    quotients = _quotient_stack(ch, limit)
    values, vectors = np.linalg.eigh(_projector(group))
    code = vectors[:, values > 0.5]
    rng = np.random.default_rng(seed)
    dim = code.shape[1]
    for _ in range(samples):
        a = code @ _unit(rng, dim)
        while True:
            b = code @ _unit(rng, dim)
            b -= (a.conj() @ b) * a
            norm = np.linalg.norm(b)
            if norm > 1e-6:
                b /= norm
                break
        overlaps = np.einsum("a,qab,b->q", a.conj(), quotients, b)
        if not (np.abs(overlaps) > tolerance).any():
            return False
    return True


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)
