"""Brute-force dense-matrix verifier for the symplectic decision layer.

Nothing in this module consults check vectors: noise operators are the
dense matrices of ``to_dense``, the code comes from the product formula
for its projector, and dimensions from the spectra of honest Gram
matrices.  Agreement with the bit-level routines is therefore evidence
that both are right, which is the whole point.  Everything is
deterministic given the seed.  Operator matrices come from one read-only
memo, ``pauli.dense_matrix``, which ``stabilizer.projector`` reads too.

Every code predicate reads one compression, in code coordinates: with V
the orthonormal code basis from ``eigh`` of the projector P = V V^+, each
quotient Q becomes the 2^k x 2^k matrix V^+ Q V instead of the
2^n x 2^n matrix P Q P.  Nothing is lost.  Tr((PAP)^+ PBP) equals
Tr((V^+AV)^+ V^+BV), so both Gram matrices are one matrix; P Q P = cP
exactly when V^+ Q V = cI, with equal Frobenius residuals; and the scalar
Tr(PQP)/Tr(P) is Tr(V^+QV)/2^k.

Each dense quantity comes from the smallest exact problem that gives it;
no m^2 stack of 2^n x 2^n quotients is formed.

- Compressions come from factors: V^+ E_i^+ E_j V = B_i^+ B_j with
  B_i = E_i V.  One product forms the m blocks B_i, and one Gram matrix
  of the blocks side by side holds all m^2 compressions, for
  m 4^n 2^k + m^2 2^n 4^k operations instead of m^2 8^n.
- The graph rank reads 1 + m(m-1)/2 quotient lines, not m^2 quotients:
  every E_i^+ E_i is one matrix, and E_j^+ E_i = +-E_i^+ E_j for Pauli
  matrices, both checked exactly (see ``_quotient_lines``).  At m = 16
  and n = 4 its Gram matrix is 121 x 121, not 256 x 256.  The lines are
  real: each E_i is a phase in {+-1, +-i} times a real matrix R_i, also
  checked exactly, and a line of R_i^T R_j differs from the line of
  E_i^+ E_j by one such phase, which leaves the Gram spectrum alone.  So
  the lines, their Gram matrix and its eigenvalues are all real.
- Privacy sampling draws all pairs in one call, and reads every overlap
  from one product of the rows conj(a) (x) b with the flattened
  compressions.
- The scalar test reduces every compression at once over its matrix
  axes.

One ``qramsey verify`` report asks four questions of one (channel, code)
pair, and the acceptance battery asks about many codes of one channel in
a row.  So the operators of the last channel and the compression of the
last (code, channel) pair are kept, read-only, and every call of a report
after the first reuses them.  A rank is read from the eigenvalues of the
smaller of the two Hermitian Gram matrices conj(F) F^T and F^T conj(F)
of a flattened stack F, which share their nonzero spectrum: a compressed
stack of m^2 quotients has rank at most 4^k, so at k = 1 the matrix is
4 x 4, not m^2 x m^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import PauliChannel
from .pauli import DENSE_QUBIT_LIMIT, CapacityError, dense_matrix
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


# the one memo of operator matrices, shared with stabilizer.projector
_dense = dense_matrix


# _code_quotients keeps the compression of the last (code, channel) pair,
# so one report builds V once.  The battery's loops over the codes of each
# channel meet the same codes again for every channel; a small bound keeps
# a long-running verifier's memory flat.
@lru_cache(maxsize=256)
def _code_basis(group: StabilizerGroup) -> np.ndarray:
    """V, the (2^n, 2^k) orthonormal basis of the code, with V V^+ = P."""
    values, vectors = np.linalg.eigh(projector(group))
    v = vectors[:, values > 0.5]
    v.flags.writeable = False
    return v


# One entry each: a report, and the battery's loops over codes, reuse only
# the last channel and the last pair.
@lru_cache(maxsize=1)
def _operators(ch: PauliChannel) -> np.ndarray:
    """The noise operators E_i as a read-only (m, 2^n, 2^n) array."""
    if ch.n > DENSE_QUBIT_LIMIT:
        raise CapacityError(
            f"dense oracle limited to {DENSE_QUBIT_LIMIT} qubits, got {ch.n}"
        )
    ops = np.stack([_dense(op) for op in ch.operators])
    ops.flags.writeable = False
    return ops


@lru_cache(maxsize=1)
def _code_quotients(group: StabilizerGroup, ch: PauliChannel) -> np.ndarray:
    """Every V^+ E_i^+ E_j V, in (i, j) order, as a read-only (m^2, 2^k, 2^k) array.

    With B_i = E_i V, each compression is B_i^+ B_j: the blocks B_i are
    the columns of one (2^n, m 2^k) matrix X, and block (i, j) of X^+ X
    is B_i^+ B_j, so one product gives them all.
    """
    # the operators first, so that their capacity error precedes the projector's
    ops = _operators(ch)
    v = _code_basis(group)
    m, size, dim = len(ops), *v.shape
    blocks = (ops.reshape(m * size, size) @ v).reshape(m, size, dim)
    x = blocks.transpose(1, 0, 2).reshape(size, m * dim)
    gram = (x.conj().T @ x).reshape(m, dim, m, dim)
    reduced = gram.transpose(0, 2, 1, 3).reshape(m * m, dim, dim)
    reduced.flags.writeable = False
    return reduced


def _quotient_lines(ch: PauliChannel) -> np.ndarray:
    """The weighted real quotient lines, a (1 + m(m-1)/2, 2^n, 2^n) array.

    Every E_i is phi_i R_i with R_i real and phi_i in {+-1, +-i}: ``to_dense``
    is i^phase times a Kronecker product of real factors.  So E_i^+ E_j is
    conj(phi_i) phi_j R_i^T R_j, and the lines are real: line 0 is
    sqrt(m) R_0^T R_0 and the rest are sqrt(2) R_i^T R_j for i < j, ordered
    by j and then by i.  That each E_i is real or imaginary, that every
    R_i^T R_i equals R_0^T R_0, and that each R_i^T R_j is symmetric or
    antisymmetric (so E_j^+ E_i = (E_i^+ E_j)^+ is +-E_i^+ E_j) are checked
    exactly; so the m^2 quotients are F = D U with U the unweighted lines
    and one entry of modulus 1 in each row of D, m rows on line 0 and two on
    each other.  Then conj(F) F^T has the nonzero spectrum of
    U^T D^T conj(D) conj(U), and D^T conj(D) = diag(m, 2, ..., 2): the
    lines' own Gram shares it.
    """
    ops = _operators(ch)
    m, size = ops.shape[:2]
    real = ~ops.imag.any(axis=(1, 2))
    if not (real | ~ops.real.any(axis=(1, 2))).all():
        raise RuntimeError(
            "an E_i is not a phase times a real matrix; the lines are not real"
        )
    factors = np.where(real[:, None, None], ops.real, ops.imag)
    transposes = factors.transpose(0, 2, 1)
    squares = transposes @ factors
    if not (squares == squares[0]).all():
        raise RuntimeError("the E_i^+ E_i differ; the lines do not span the quotients")
    lines = np.empty((1 + m * (m - 1) // 2, size, size))
    lines[0] = squares[0]
    # the lines of one j are one product: R_0^T .. R_{j-1}^T stacked in
    # rows, times R_j
    rows = transposes.reshape(m * size, size)
    start = 1
    for j in range(1, m):
        out = lines[start : start + j].reshape(j * size, size)
        np.matmul(rows[: j * size], factors[j], out=out)
        start += j
    upper = lines[1:].reshape(len(lines) - 1, size * size)
    flipped = lines[1:].transpose(0, 2, 1).reshape(upper.shape)
    if not ((flipped == upper).all(axis=1) | (flipped == -upper).all(axis=1)).all():
        raise RuntimeError(
            "an E_i^+ E_j is neither Hermitian nor anti-Hermitian; "
            "the lines do not span the quotients"
        )
    lines[0] *= np.sqrt(m)
    lines[1:] *= np.sqrt(2)
    return lines


def _gram_rank(stack: np.ndarray, count: int | None = None) -> GramRankResult:
    """Rank and descending spectrum of the Gram matrix conj(F) F^T.

    F is the (rows, e) flattened stack, real or complex.  conj(F) F^T and
    F^T conj(F) are Hermitian positive semidefinite with one nonzero
    spectrum, so the smaller is formed; the values past its order are exact
    zeros.  A real F gives a real symmetric Gram matrix and a real
    ``eigvalsh``.  The spectrum is padded with zeros to ``count`` values
    (default: the row count), so a stack of lines that shares the nonzero
    spectrum of m^2 quotients reports m^2 values.  Rounding below zero is
    clipped, so the values are the singular values of conj(F) F^T.
    """
    flat = stack.reshape(stack.shape[0], -1)
    # conj() of a real array is that array, not a copy
    if flat.shape[0] <= flat.shape[1]:
        gram = flat.conj() @ flat.T
    else:
        gram = flat.T @ flat.conj()
    values = np.zeros(flat.shape[0] if count is None else count)
    values[: len(gram)] = np.maximum(np.linalg.eigvalsh(gram)[::-1], 0.0)
    top = values[0] if len(values) else 0.0
    rank = 0 if top <= 0 else int(np.count_nonzero(values > RANK_TOLERANCE * top))
    return GramRankResult(rank, tuple(values.tolist()))


def _graph_rank(ch: PauliChannel) -> GramRankResult:
    """The Gram rank of the m^2 quotients E_i^+ E_j, read off their lines."""
    return _gram_rank(_quotient_lines(ch), len(ch.operators) ** 2)


def _scalars(compressed: np.ndarray) -> np.ndarray | None:
    """The scalars c with V^+ Q V = c I for every Q, or None if one is not scalar.

    c is read off as the trace over 2^k; the residual is compared in
    Frobenius norm relative to the compression's own scale.
    """
    dim = compressed.shape[1]
    scalars = np.trace(compressed, axis1=1, axis2=2) / dim
    residuals = np.linalg.norm(
        compressed - scalars[:, None, None] * np.eye(dim), axis=(1, 2)
    )
    scales = np.maximum(1.0, np.linalg.norm(compressed, axis=(1, 2)))
    return None if (residuals > SCALAR_TOLERANCE * scales).any() else scalars


def dense_compressed_dimension(
    ch: PauliChannel, group: StabilizerGroup
) -> GramRankResult:
    """Rank of the Gram matrix of {P E_i^+ E_j P} under Tr(A^+ B)."""
    if ch.n != group.n:
        raise ValueError(f"channel acts on {ch.n} qubits, group on {group.n}")
    return _gram_rank(_code_quotients(group, ch))


def dense_graph_dimension(ch: PauliChannel) -> GramRankResult:
    """Uncompressed span dimension of {E_i^+ E_j}."""
    return _graph_rank(ch)


def kl_check(ch: PauliChannel, group: StabilizerGroup) -> bool:
    """Error-correction condition: every P E_i^+ E_j P is a scalar times P."""
    if ch.n != group.n:
        raise ValueError(f"channel acts on {ch.n} qubits, group on {group.n}")
    return _scalars(_code_quotients(group, ch)) is not None


def dense_maximal_check(ch: PauliChannel, group: StabilizerGroup) -> bool:
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
    if _graph_rank(ch).rank != 1 << ch.n:
        return False
    scalars = _scalars(_code_quotients(group, ch))
    return scalars is not None and bool((np.abs(scalars) > SCALAR_TOLERANCE).all())


def private_witness_check(
    ch: PauliChannel, group: StabilizerGroup, samples: int = 100, seed: int = 0
) -> bool:
    """Sampled privacy test: every orthogonal code pair sees some noise overlap.

    Draws ``samples`` random orthonormal pairs |a>, |b> in the code and
    requires some quotient with |<a|E_j^+ E_i|b>| above tolerance for each.
    Sampling can support or refute, never prove; callers treat the answer
    as evidence at this seed and sample count.

    All pairs come from one ``normal(size=(samples, 4, 2^k))`` draw, in
    code coordinates.  Every overlap <a|V^+ Q V|b> is the dot product of
    the row conj(a) (x) b with the flattened V^+ Q V, so one matrix product
    gives them all.
    A ``b`` whose component orthogonal to ``a`` has norm at most 1e-6 is
    drawn again from the same generator after the batch, in sample order,
    until none is left (see ``_code_pairs``).
    """
    if isinstance(samples, bool) or not isinstance(samples, int):
        raise ValueError(f"sample count must be an int, got {samples!r}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if ch.n != group.n:
        raise ValueError(f"channel acts on {ch.n} qubits, group on {group.n}")
    if group.k < 1:
        raise ValueError("code dimension is 1; privacy needs an orthogonal pair")
    reduced = _code_quotients(group, ch)
    a, b = _code_pairs(np.random.default_rng(seed), samples, reduced.shape[1])
    pairs = (a.conj()[:, :, None] * b[:, None, :]).reshape(samples, -1)
    overlaps = pairs @ reduced.reshape(len(reduced), -1).T
    return bool((np.abs(overlaps) > SCALAR_TOLERANCE).any(axis=1).all())


def _code_pairs(
    rng: np.random.Generator, samples: int, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """``samples`` orthonormal pairs (a, b) in C^dim, as two (samples, dim) arrays.

    Each sample takes four normal vectors from one draw: the real and
    imaginary parts of a, then of b; both are normalised and b is made
    orthogonal to a.  This is the order a sample-by-sample loop would
    draw them in.  A b left with norm at most 1e-6 is redrawn afterwards,
    all such samples together in sample order, until none is left; that
    redraw is the only point where the stream differs from such a loop.
    """
    draw = rng.normal(size=(samples, 4, dim))
    a = _unit_rows(draw[:, 0] + 1j * draw[:, 1])
    b = _orthogonal_part(a, _unit_rows(draw[:, 2] + 1j * draw[:, 3]))
    norms = np.linalg.norm(b, axis=1)
    bad = np.flatnonzero(norms <= 1e-6)
    while bad.size:
        fresh = rng.normal(size=(bad.size, 2, dim))
        b[bad] = _orthogonal_part(a[bad], _unit_rows(fresh[:, 0] + 1j * fresh[:, 1]))
        norms[bad] = np.linalg.norm(b[bad], axis=1)
        bad = bad[norms[bad] <= 1e-6]
    return a, b / norms[:, None]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _orthogonal_part(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row of b minus its projection on the unit row of a."""
    return b - np.einsum("sa,sa->s", a.conj(), b)[:, None] * a
