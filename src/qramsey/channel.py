"""Pauli channels: weighted noise sets, difference sets, dense action.

The on-disk form is a strict JSON document::

    {"n": 2, "noise": [{"op": "XI", "weight": 0.5}, {"op": "IX", "weight": 0.5}]}

Entries may instead be bare strings ("XI"), but weights are all-or-none:
either every entry carries one (positive, summing to 1 within 1e-9) or
none does and the mixture is uniform.  Unknown fields are rejected and
every schema error names its JSON path.  Operators equal up to phase are
merged by summing weights, so the stored noise list is duplicate-free at
the check-vector level.

Weights never enter the symplectic decisions; they only matter to the
dense channel action.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .pauli import DENSE_QUBIT_LIMIT, CapacityError, PauliOperator, parse
from .stabilizer import StabilizerGroup, elements

__all__ = [
    "PauliChannel",
    "WEIGHT_TOLERANCE",
    "from_noise",
    "load",
    "loads",
    "load_path",
    "to_document",
    "difference_set",
    "graph_dimension",
    "apply_dense",
    "maximal_stabilizer_channel",
]

WEIGHT_TOLERANCE = 1e-9


@dataclass(frozen=True, slots=True)
class PauliChannel:
    """rho -> sum_i w_i E_i rho E_i^+ with Pauli noise operators."""

    n: int
    noise: tuple[tuple[PauliOperator, float], ...]

    def __post_init__(self) -> None:
        for i, (op, _) in enumerate(self.noise):
            if op.n != self.n:
                raise ValueError(
                    f"noise operator {i + 1} ({op}) acts on {op.n} qubits, "
                    f"expected {self.n}"
                )

    @property
    def operators(self) -> tuple[PauliOperator, ...]:
        return tuple(op for op, _ in self.noise)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.noise)


def from_noise(
    ops: Sequence[PauliOperator],
    weights: Sequence[float] | None = None,
    n: int | None = None,
) -> PauliChannel:
    """Build a channel, merging operators that agree up to phase."""
    if not ops:
        raise ValueError("a channel needs at least one noise operator")
    if n is None:
        n = ops[0].n
    if weights is None:
        weights = [1.0 / len(ops)] * len(ops)
    if len(weights) != len(ops):
        raise ValueError(
            f"{len(ops)} operators but {len(weights)} weights"
        )
    merged: dict[int, tuple[PauliOperator, float]] = {}
    for i, (op, w) in enumerate(zip(ops, weights)):
        if op.n != n:
            raise ValueError(
                f"noise operator {i + 1} ({op}) acts on {op.n} qubits, expected {n}"
            )
        if not w > 0:
            raise ValueError(f"weight {i + 1} must be positive, got {w}")
        key = op.check_vector()
        if key in merged:
            kept, total = merged[key]
            merged[key] = (kept, total + w)
        else:
            merged[key] = (op, float(w))
    total = sum(w for _, w in merged.values())
    if abs(total - 1.0) > WEIGHT_TOLERANCE:
        raise ValueError(f"weights sum to {total!r}, expected 1 within {WEIGHT_TOLERANCE}")
    return PauliChannel(n, tuple(merged.values()))


def _schema_error(path: str, message: str) -> ValueError:
    return ValueError(f"{path}: {message}")


def load(document: object) -> PauliChannel:
    """Build a channel from a parsed JSON document, rejecting unknown fields."""
    if not isinstance(document, dict):
        raise _schema_error("$", f"expected an object, got {type(document).__name__}")
    unknown = set(document) - {"n", "noise"}
    if unknown:
        raise _schema_error("$", f"unknown field {sorted(unknown)[0]!r}")
    if "n" not in document:
        raise _schema_error("$.n", "missing")
    n = document["n"]
    if type(n) is not int or n < 1:
        raise _schema_error("$.n", f"expected a positive integer, got {n!r}")
    if "noise" not in document:
        raise _schema_error("$.noise", "missing")
    entries = document["noise"]
    if not isinstance(entries, list) or not entries:
        raise _schema_error("$.noise", "expected a nonempty array")
    ops: list[PauliOperator] = []
    weights: list[float | None] = []
    for i, entry in enumerate(entries):
        path = f"$.noise[{i}]"
        if isinstance(entry, str):
            op_text, weight = entry, None
        elif isinstance(entry, dict):
            unknown = set(entry) - {"op", "weight"}
            if unknown:
                raise _schema_error(path, f"unknown field {sorted(unknown)[0]!r}")
            if "op" not in entry:
                raise _schema_error(f"{path}.op", "missing")
            op_text = entry["op"]
            if not isinstance(op_text, str):
                raise _schema_error(f"{path}.op", "expected a string")
            weight = entry.get("weight")
            if weight is not None:
                if type(weight) not in (int, float):
                    raise _schema_error(f"{path}.weight", "expected a number")
                if not weight > 0:
                    raise _schema_error(
                        f"{path}.weight", f"must be positive, got {weight}"
                    )
                weight = float(weight)
        else:
            raise _schema_error(path, "expected a string or an object")
        try:
            op = parse(op_text)
        except ValueError as exc:
            raise _schema_error(f"{path}.op", str(exc)) from None
        if op.n != n:
            raise _schema_error(
                f"{path}.op", f"expected {n} qubits, got {op.n}"
            )
        ops.append(op)
        weights.append(weight)
    given = [w for w in weights if w is not None]
    if given and len(given) != len(weights):
        raise _schema_error(
            "$.noise", "weight must be given for all entries or for none"
        )
    try:
        return from_noise(ops, given or None, n=n)
    except ValueError as exc:
        raise _schema_error("$.noise", str(exc)) from None


def loads(text: str) -> PauliChannel:
    return load(json.loads(text))


def load_path(path: str) -> PauliChannel:
    with open(path, "r", encoding="utf-8") as fh:
        return load(json.load(fh))


def to_document(channel: PauliChannel) -> dict:
    """JSON-serializable document; round-trips through :func:`load`."""
    return {
        "n": channel.n,
        "noise": [{"op": str(op), "weight": w} for op, w in channel.noise],
    }


def difference_set(channel: PauliChannel) -> frozenset[int]:
    """Check vectors of all pairwise quotients E_i^+ E_j; always holds 0."""
    checks = [op.check_vector() for op, _ in channel.noise]
    return frozenset(a ^ b for a in checks for b in checks)


def graph_dimension(channel: PauliChannel) -> int:
    """Dimension of the operator span of {E_i^+ E_j}.

    Distinct check vectors index trace-orthogonal Paulis, so the span's
    dimension is the difference set's size.
    """
    return len(difference_set(channel))


def apply_dense(channel: PauliChannel, rho: np.ndarray) -> np.ndarray:
    """The channel's action sum_i w_i E_i rho E_i^dag on a density matrix:
    the one reader of the weights, kept so that tests check the paper's
    physics on the channel object."""
    if channel.n > DENSE_QUBIT_LIMIT:
        raise CapacityError(
            f"dense application limited to {DENSE_QUBIT_LIMIT} qubits, got {channel.n}"
        )
    dim = 1 << channel.n
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} density matrix, got {rho.shape}")
    out = np.zeros_like(rho)
    for op, w in channel.noise:
        e = op.to_dense()
        out += w * (e @ rho @ e.conj().T)
    return out


def maximal_stabilizer_channel(
    group: StabilizerGroup, weights: Sequence[float] | None = None
) -> PauliChannel:
    """Mixture over all 2^n elements of a maximal stabilizer group.

    Weights default to uniform; if given they must be positive, one per
    element in enumeration order, and sum to 1 within tolerance.
    """
    if len(group.generators) != group.n:
        raise ValueError(
            f"group has {len(group.generators)} generators, need {group.n} for maximal"
        )
    ops = elements(group)
    if weights is not None and len(weights) != len(ops):
        raise ValueError(f"expected {len(ops)} weights, got {len(weights)}")
    return from_noise(ops, weights, n=group.n)
