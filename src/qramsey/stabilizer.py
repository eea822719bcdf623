"""Stabilizer groups: validation, enumeration, projectors, completions.

A stabilizer group on n qubits is presented by m <= n generators that are
Hermitian, pairwise commuting, and independent at the check-vector level;
those three conditions already rule out -I as a product.  The canonical
generators are the products of generators, named by f2's tracked
reduction, whose check vectors are the reduced row echelon basis; sorted
by check vector, so equal groups compare equal.  Generators whose check
vectors already are that basis are their own canonical generators, so
:func:`validate` sorts them and reduces nothing; every check still runs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import f2
from .pauli import DENSE_QUBIT_LIMIT, CapacityError, PauliOperator, hermitian_rep, parse

__all__ = [
    "StabilizerGroup",
    "ELEMENT_LIMIT",
    "validate",
    "from_string",
    "to_string",
    "elements",
    "centralizer_image",
    "projector",
    "extend_to_maximal",
    "anticommuting_partners",
]

ELEMENT_LIMIT = 20


@dataclass(frozen=True, slots=True)
class StabilizerGroup:
    """Canonically presented stabilizer group; build via :func:`validate`.

    The hash is that of (n, generators), computed on the first ``hash``
    call and then kept in ``_hash``, so a memo lookup keyed by the group
    does not re-hash its generators.  That slot takes no part in
    ``__init__``, ``==`` or ``repr``.
    """

    n: int
    generators: tuple[PauliOperator, ...]
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n, self.generators)))
        return self._hash

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @property
    def k(self) -> int:
        """Logical qubit count of the stabilized code."""
        return self.n - len(self.generators)

    def check_basis(self) -> f2.F2Basis:
        """Canonical basis of the check-vector image L(S).

        The canonical generators' check vectors are already fully reduced,
        each with its lowest set bit as pivot, so ordered by pivot they are
        the basis ``f2.reduce`` would return.
        """
        rows = sorted((g.check_vector() for g in self.generators), key=lambda v: v & -v)
        return f2.F2Basis(self.n, tuple(rows))

    def __str__(self) -> str:
        return to_string(self)


def validate(generators: Sequence[PauliOperator], n: int | None = None) -> StabilizerGroup:
    """Check the stabilizer conditions and return the canonical group.

    Raises ValueError naming the offending generator (1-based) for
    non-Hermitian input, the offending pair for anticommuting input, and
    reports dependent check vectors.  An empty generator list needs an
    explicit ``n`` and stabilizes the full space.

    The qubit counts and Hermiticity are checked per generator, then
    commutation in one pass over the check vectors: the pair (i, j)
    anticommutes when swap_halves(v_i) & v_j has odd parity, and pairs are
    tried in the order (1,2), (1,3), ..., (2,3), ..., so the first one
    named is the same as pair by pair.  When the check vectors already
    form the fully reduced basis, with distinct lowest-bit pivots and no
    row holding another row's pivot, each reduced row is named by its own
    generator alone; the canonical generators are then the inputs, sorted
    by check vector, and the tracked reduction is skipped.  Any other
    input, dependent ones included, is reduced.
    """
    gens = list(generators)
    if not gens:
        if n is None:
            raise ValueError("qubit count required for an empty generator list")
        if n < 1:
            raise ValueError(f"qubit count must be positive, got {n}")
        return StabilizerGroup(n, ())
    if n is None:
        n = gens[0].n
    for i, g in enumerate(gens):
        if g.n != n:
            raise ValueError(
                f"generator {i + 1} ({g}) acts on {g.n} qubits, expected {n}"
            )
        if not g.is_hermitian():
            raise ValueError(f"generator {i + 1} ({g}) is not Hermitian")
    checks = [g.check_vector() for g in gens]
    low = (1 << n) - 1
    # the lowest bits of the rows, and every other bit they hold
    pivots = rest = 0
    for i, v in enumerate(checks):
        t = v >> n | (v & low) << n
        for j in range(i + 1, len(checks)):
            if (t & checks[j]).bit_count() & 1:
                raise ValueError(f"generators anticommute: ({i + 1},{j + 1})")
        pivots |= v & -v
        rest |= v & (v - 1)
    if pivots.bit_count() == len(checks) and not rest & pivots:
        return StabilizerGroup(n, tuple(g for _, g in sorted(zip(checks, gens))))
    return StabilizerGroup(n, _canonical(gens, n))


def _canonical(gens: list[PauliOperator], n: int) -> tuple[PauliOperator, ...]:
    # the product of the commuting generators a reduced row names has that
    # row as check vector and an exact sign; a row 0 names a product +-I
    out = []
    for v, names in f2._reduce_tracked([g.check_vector() for g in gens], n):
        if not v:
            raise ValueError("generator check vectors are dependent")
        op = None
        while names:
            i = names.bit_length() - 1
            op = gens[i] if op is None else op.multiply(gens[i])
            names ^= 1 << i
        out.append((v, op))
    return tuple(op for _, op in sorted(out))


def from_string(text: str, n: int | None = None) -> StabilizerGroup:
    """Parse a comma-separated generator list such as ``"ZZI,IZZ"``."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    return validate([parse(p) for p in parts], n=n)


def to_string(group: StabilizerGroup) -> str:
    return ",".join(str(g) for g in group.generators)


def elements(group: StabilizerGroup) -> list[PauliOperator]:
    """All 2^m group elements with exact phases, identity first."""
    m = len(group.generators)
    if m > ELEMENT_LIMIT:
        raise CapacityError(
            f"element enumeration limited to {ELEMENT_LIMIT} generators, got {m}"
        )
    out = [PauliOperator(group.n, 0, 0, 0)]
    for g in group.generators:
        out += [e.multiply(g) for e in out]
    return out


def centralizer_image(group: StabilizerGroup) -> f2.F2Basis:
    """Check-vector image of the centralizer: dimension n + k.

    Not memoized: each call reduces the generators' constraints afresh.
    The verifying count in ``ramsey`` keeps the last 256 groups' tables,
    each built from one call of this.
    """
    return f2.twisted_kernel(
        [g.check_vector() for g in group.generators], group.n
    )


def projector(group: StabilizerGroup) -> np.ndarray:
    """Dense projector onto the stabilized subspace, (1/2^m) * prod(I + g).

    Entries are exact dyadic rationals; the trace equals 2^k.
    """
    if group.n > DENSE_QUBIT_LIMIT:
        raise CapacityError(
            f"dense projector limited to {DENSE_QUBIT_LIMIT} qubits, got {group.n}"
        )
    dim = 1 << group.n
    eye = np.eye(dim, dtype=complex)
    p = eye.copy()
    for g in group.generators:
        p = p @ (eye + g.to_dense()) / 2
    return p


def extend_to_maximal(group: StabilizerGroup) -> list[PauliOperator]:
    """Complete the generators to n commuting independent Hermitian Paulis.

    The originals come first, signs untouched; each added operator is the
    plus-signed Hermitian representative of the smallest admissible check
    vector, so the completion is deterministic.  That vector is always
    x-only (see :func:`f2.complete_lagrangian`), so every added operator
    is X-type: a product of X's on some qubits.
    """
    rows = [g.check_vector() for g in group.generators]
    full = f2.complete_lagrangian(rows, group.n)
    added = [hermitian_rep(v, group.n) for v in full[len(rows):]]
    return list(group.generators) + added


def anticommuting_partners(ops: Sequence[PauliOperator]) -> list[PauliOperator]:
    """Partners g_1..g_n for a maximal commuting family h_1..h_n.

    Each g_i is Hermitian and plus-signed, the g's commute pairwise, g_i
    anticommutes with h_i and commutes with every other h_j, and the 2n
    check vectors together form a basis of F_2^{2n}.
    """
    if not ops:
        raise ValueError("expected a nonempty maximal commuting family")
    n = ops[0].n
    if len(ops) != n:
        raise ValueError(f"expected {n} operators, got {len(ops)}")
    for i, g in enumerate(ops):
        if g.n != n:
            raise ValueError(f"operator {i + 1} ({g}) acts on {g.n} qubits, expected {n}")
        if not g.is_hermitian():
            raise ValueError(f"operator {i + 1} ({g}) is not Hermitian")
    for i in range(n):
        for j in range(i + 1, n):
            if not ops[i].commutes(ops[j]):
                raise ValueError(f"operators anticommute: ({i + 1},{j + 1})")
    rows = [g.check_vector() for g in ops]
    partners = f2.symplectic_partners(rows, n)
    return [hermitian_rep(u, n) for u in partners]
