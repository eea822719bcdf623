"""Exact phased Pauli operators in i^k X(a) Z(b) normal form.

Every n-qubit Pauli is stored uniquely as a phase exponent k mod 4 and two
bit masks: x (the a vector, X factors) and z (the b vector, Z factors),
with qubit j at bit j and qubit 1 leftmost in string form.  All phase
arithmetic is integer-exact; nothing here touches floating point except
``to_dense``.

Conventions, pinned by the dense 2x2 matrices:

    X = [[0,1],[1,0]]   Z = [[1,0],[0,-1]]   Y = [[0,-i],[i,0]]

so XZ = -iY, ZX = iY, and the letter Y parses to i^1 * X(1)Z(1).  The
multiplication rule in normal form is

    (i^k1 X(a1)Z(b1)) (i^k2 X(a2)Z(b2))
        = i^(k1 + k2 + 2<b1,a2>) X(a1+a2) Z(b1+b2)

since moving Z(b1) past X(a2) costs (-1)^<b1,a2>.  The rule is validated
against dense matrix products before anything else in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PauliOperator",
    "CapacityError",
    "DENSE_QUBIT_LIMIT",
    "parse",
    "identity",
    "hermitian_rep",
]

DENSE_QUBIT_LIMIT = 4

_PHASES = (1, 1j, -1, -1j)
_SIGNS = ("", "i", "-", "-i")
_SIGN_EXPONENTS = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}
_LETTERS = "IXZY"  # indexed by x_bit | (z_bit << 1)

_SINGLE = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, 1], [1, 0]], dtype=complex)
    @ np.array([[1, 0], [0, -1]], dtype=complex),
}


class CapacityError(ValueError):
    """A dense or enumerative operation exceeded its configured bound."""


@dataclass(frozen=True, slots=True)
class PauliOperator:
    """i^phase * X(x) Z(z) on n qubits; immutable and hashable.

    Built only in normal form: n >= 1, x and z below 2^n, and the phase
    exponent in 0..3; anything else raises ValueError.
    """

    n: int
    phase: int
    x: int
    z: int

    def __post_init__(self) -> None:
        # a wider x would be read as z bits of the check vector; one test
        # passes every valid operator
        if self.n < 1 or (self.x | self.z) >> self.n or self.phase & ~3:
            if self.n < 1:
                raise ValueError(f"qubit count must be positive, got {self.n}")
            if self.phase & ~3:
                raise ValueError(f"phase exponent must be in 0..3, got {self.phase}")
            raise ValueError(
                f"x = {self.x:#x}, z = {self.z:#x} does not fit in F_2^{2 * self.n}: "
                f"each half holds {self.n} bits"
            )

    def check_vector(self) -> int:
        """Packed image in F_2^{2n}: x in the low n bits, z above."""
        return self.x | (self.z << self.n)

    def multiply(self, other: PauliOperator) -> PauliOperator:
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} vs {other.n}")
        phase = (self.phase + other.phase + 2 * (self.z & other.x).bit_count()) % 4
        return PauliOperator(self.n, phase, self.x ^ other.x, self.z ^ other.z)

    __mul__ = multiply

    def adjoint(self) -> PauliOperator:
        phase = (-self.phase + 2 * (self.x & self.z).bit_count()) % 4
        return PauliOperator(self.n, phase, self.x, self.z)

    def commutes(self, other: PauliOperator) -> bool:
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} vs {other.n}")
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

    def is_hermitian(self) -> bool:
        # g+ = g iff the phase exponent matches the XZ overlap parity
        return (self.phase + (self.x & self.z).bit_count()) % 2 == 0

    def is_scalar(self) -> bool:
        return self.x == 0 and self.z == 0

    def tensor(self, other: PauliOperator) -> PauliOperator:
        return PauliOperator(
            self.n + other.n,
            (self.phase + other.phase) % 4,
            self.x | (other.x << self.n),
            self.z | (other.z << self.n),
        )

    def to_dense(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix; entries are exact in {0, +-1, +-i}."""
        if self.n > DENSE_QUBIT_LIMIT:
            raise CapacityError(
                f"dense conversion limited to {DENSE_QUBIT_LIMIT} qubits, got {self.n}"
            )
        m = np.array([[_PHASES[self.phase % 4]]], dtype=complex)
        for j in range(self.n):
            # the Kronecker product m ⊗ s, formed without np.kron's overhead
            s = _SINGLE[(self.x >> j) & 1, (self.z >> j) & 1]
            size = 2 * len(m)
            m = (m[:, None, :, None] * s[None, :, None, :]).reshape(size, size)
        return m

    def __str__(self) -> str:
        letters = "".join(
            _LETTERS[((self.x >> j) & 1) | (((self.z >> j) & 1) << 1)]
            for j in range(self.n)
        )
        sign = (self.phase - (self.x & self.z).bit_count()) % 4
        return _SIGNS[sign] + letters

    def __repr__(self) -> str:
        return f"PauliOperator({str(self)!r})"


def identity(n: int) -> PauliOperator:
    return PauliOperator(n, 0, 0, 0)


def hermitian_rep(v: int, n: int) -> PauliOperator:
    """The plus-signed Hermitian Pauli with check vector ``v``.

    This is the operator whose string form carries no sign prefix; its
    phase exponent equals the number of Y letters mod 4.
    """
    if n < 1:
        raise ValueError(f"qubit count must be positive, got {n}")
    if v < 0 or v >> (2 * n):
        raise ValueError(f"vector {v:#x} does not fit in F_2^{2 * n}")
    x = v & ((1 << n) - 1)
    z = v >> n
    return PauliOperator(n, (x & z).bit_count() % 4, x, z)


def parse(s: str) -> PauliOperator:
    """Parse ``sign? letters`` with sign in {+, -, i, +i, -i}, letters IXYZ."""
    if not isinstance(s, str):
        raise ValueError(f"expected a Pauli string, got {type(s).__name__}")
    body = s.strip()
    sign = ""
    for prefix in ("-i", "+i", "i", "-", "+"):
        if body.startswith(prefix):
            sign, body = prefix, body[len(prefix):]
            break
    if not body:
        raise ValueError(f"no Pauli letters in {s!r}")
    x = z = phase = 0
    for j, c in enumerate(body):
        if c == "I":
            continue
        if c == "X":
            x |= 1 << j
        elif c == "Z":
            z |= 1 << j
        elif c == "Y":
            x |= 1 << j
            z |= 1 << j
            phase += 1  # Y = i * XZ
        else:
            raise ValueError(f"invalid Pauli letter {c!r} at position {j} in {s!r}")
    phase = (phase + _SIGN_EXPONENTS[sign]) % 4
    return PauliOperator(len(body), phase, x, z)
