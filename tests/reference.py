"""Reference routes: what each fast path in qramsey computes, by definition.

Each entry is the definitional or first-written form of the qramsey
function it is named after, kept slow and plain so that the tier-1 tests
and the deep suite (``deep/``) can hold the fast path to it.  Built on
qramsey and the standard library only.
"""

import itertools
from collections.abc import Iterable

from qramsey import channel, f2, ramsey, stabilizer


# -- the row reduction, kernel and greedy completion as first written, one
# step at a time

def _pivot(v: int) -> int:
    return (v & -v).bit_length() - 1


def reduce(vectors, n: int) -> f2.F2Basis:
    """f2.reduce: the reduced echelon basis of span(vectors), one vector at a time."""
    rows: list[int] = []
    for v in vectors:
        f2._check_vector(v, n)
        for r in rows:
            if (v >> _pivot(r)) & 1:
                v ^= r
        if v:
            p = _pivot(v)
            rows = [r ^ v if (r >> p) & 1 else r for r in rows]
            rows.append(v)
            rows.sort(key=_pivot)
    return f2.F2Basis(n, tuple(rows))


def reduce_mod(v: int, basis: f2.F2Basis) -> int:
    """The canonical representative of v modulo a canonical basis: v with
    every basis row at a set pivot bit XORed out."""
    f2._check_vector(v, basis.n)
    for r in basis.rows:
        if (v >> _pivot(r)) & 1:
            v ^= r
    return v


def echelon(rows) -> tuple[int, ...]:
    """f2.echelon: each row tested against the highest bit of every kept row, one at a time."""
    out: list[int] = []
    for v in rows:
        for r in out:
            if (v >> (r.bit_length() - 1)) & 1:
                v ^= r
        if v:
            top = 1 << (v.bit_length() - 1)
            out = [r ^ v if r & top else r for r in out]
            out.append(v)
    return tuple(sorted(out))


def twisted_kernel(generators, n: int) -> f2.F2Basis:
    """f2.twisted_kernel: the v with twisted dot 0 against every generator, by free columns."""
    constraints = reduce((f2.swap_halves(g, n) for g in generators), n)
    pivots = {_pivot(r) for r in constraints.rows}
    basis = []
    for f in range(2 * n):
        if f in pivots:
            continue
        v = 1 << f
        for r in constraints.rows:
            if (r >> f) & 1:
                v |= 1 << _pivot(r)
        basis.append(v)
    return reduce(basis, n)


def complete_lagrangian(rows, n: int) -> tuple[int, ...]:
    """f2.complete_lagrangian: add the first echelon kernel row outside the span, until n rows."""
    # one kernel rebuild, echelon pass and span reduction per added vector
    out = list(rows)
    base = reduce(out, n)
    if base.dim != len(out):
        raise ValueError("rows are dependent")
    for i, u in enumerate(out):
        for v in out[i:]:
            if f2.twisted_dot(u, v, n):
                raise ValueError("rows are not isotropic")
    while len(out) < n:
        kernel = twisted_kernel(out, n)
        v = next(r for r in f2.echelon(kernel.rows) if reduce_mod(r, base))
        out.append(v)
        base = reduce(out, n)
    return tuple(out)


def symplectic_partners(rows, n):
    """f2.symplectic_partners: the partners of a Lagrangian basis by column-tracking elimination.

    Row reduction of the pairs (swap_halves(h_i), e_i) with the
    right-hand sides kept in the bits above the coefficients, each pivot
    the lowest coefficient bit, then the commuting sweep; no input or
    output checks.
    """
    width = 2 * n
    coef_mask = (1 << width) - 1
    # RREF with right-hand-side tracking in the bits above the coefficients
    red: list[tuple[int, int]] = []  # (augmented row, pivot mask)
    for i, r in enumerate(rows):
        row = f2.swap_halves(r, n) | (1 << (width + i))
        for other, m in red:
            if row & m:
                row ^= other
        coef = row & coef_mask
        m = coef & -coef
        red = [(o ^ row if o & m else o, q) for o, q in red]
        red.append((row, m))
    partners = []
    for l in range(n):
        u = 0
        for row, m in red:
            if (row >> (width + l)) & 1:
                u |= m
        partners.append(u)
    for i in range(n):
        sw_i = f2.swap_halves(partners[i], n)
        for j in range(i + 1, n):
            if (partners[j] & sw_i).bit_count() & 1:
                partners[j] ^= rows[i]
    return tuple(partners)


def extend_basis(partial: f2.F2Basis, candidates: Iterable[int]) -> f2.F2Basis:
    """The partial rows, then each candidate in increasing order that enlarges their span.

    The result spans span(candidates); raises if that does not contain
    span(partial).  The anticlique construction's basis must equal the
    extension of (w,) by the Lagrangian's rows.
    """
    n = partial.n
    cand = sorted({c for c in candidates})
    for c in cand:
        f2._check_vector(c, n)
    if f2.reduce(partial.rows, n).dim != len(partial.rows):
        raise ValueError("partial basis is dependent")
    target = f2.reduce(cand, n)
    for row in partial.rows:
        if not f2.in_span(row, target):
            raise ValueError(
                f"candidates do not suffice: {f2.format_vector(row, n)} is outside "
                "their span"
            )
    rows = list(partial.rows)
    work = f2.reduce(rows, n)
    for c in cand:
        if len(rows) == target.dim:
            break
        if reduce_mod(c, work):
            rows.append(c)
            work = f2.reduce(rows, n)
    return f2.F2Basis(n, tuple(rows))


# -- isotropic subspaces

def is_isotropic(rows: tuple[int, ...], n: int) -> bool:
    """Whether every pair of rows has twisted dot 0."""
    return all(f2.twisted_dot(u, v, n) == 0 for u in rows for v in rows)


def brute_subspaces(n: int, d: int) -> set[tuple[int, ...]]:
    """Every d-dimensional subspace of F_2^{2n} as reduced rows, from all d-subsets."""
    universe = range(1, 1 << (2 * n))
    found = set()
    for combo in itertools.combinations(universe, d):
        basis = f2.reduce(combo, n)
        if basis.dim == d:
            found.add(basis.rows)
    if d == 0:
        found = {()}
    return found


def isotropic_count(n: int, d: int) -> int:
    """The count of isotropic d-spaces of F_2^{2n}: prod_{i<d} (4^(n-i) - 1) / (2^(i+1) - 1)."""
    num = den = 1
    for i in range(d):
        num *= 4 ** (n - i) - 1
        den *= 2 ** (i + 1) - 1
    return num // den


def enumerate_isotropic(n: int, d: int) -> list[tuple[int, ...]]:
    """f2.enumerate_isotropic: each isotropic d-space, grown a vector a level, sorted.

    Extends every (d-1)-space by every nonzero vector of its twisted
    kernel that is clear at the parent's pivots, re-reduces the child,
    removes duplicates in a set and sorts the row tuples.
    """
    current: set[tuple[int, ...]] = {()}
    for _ in range(d):
        nxt: set[tuple[int, ...]] = set()
        for rows in current:
            pivot_mask = 0
            for r in rows:
                pivot_mask |= r & -r
            for v in f2.twisted_kernel(rows, n).span():
                if v and not (v & pivot_mask):
                    nxt.add(f2.reduce((*rows, v), n).rows)
        current = nxt
    return sorted(current)


# -- stabilizer groups

def validate(generators, n=None) -> stabilizer.StabilizerGroup:
    """stabilizer.validate by the reduction route, on every input.

    The checks one generator at a time, then ``PauliOperator.commutes``
    on each pair in order, then ``stabilizer._canonical``'s tracked
    reduction; the fast path skips that reduction for a basis that is
    already fully reduced, and must give the same group, generators and
    errors.
    """
    gens = list(generators)
    if not gens:
        return stabilizer.validate(gens, n=n)
    if n is None:
        n = gens[0].n
    for i, g in enumerate(gens):
        if g.n != n:
            raise ValueError(f"generator {i + 1} ({g}) acts on {g.n} qubits, expected {n}")
        if not g.is_hermitian():
            raise ValueError(f"generator {i + 1} ({g}) is not Hermitian")
    for (i, a), (j, b) in itertools.combinations(enumerate(gens, 1), 2):
        if not a.commutes(b):
            raise ValueError(f"generators anticommute: ({i},{j})")
    return stabilizer.StabilizerGroup(n, stabilizer._canonical(gens, n))


# -- classify and the compressed dimension

def shifted_checks(ch):
    """classify's check vectors, shifted by the smallest so that 0 is one."""
    checks = sorted({op.check_vector() for op in ch.operators})
    return sorted(v ^ checks[0] for v in checks)


def first_anticommuting_pair(checks, n):
    """The first pair of checks, in combinations order, with twisted dot 1, or None."""
    return next(
        ((a, b) for a, b in itertools.combinations(checks, 2) if f2.twisted_dot(a, b, n)),
        None,
    )


def clique_candidate(h, g, n):
    """ramsey._noncommuting_clique_candidate, repaired by the dot with all of g.

    The group of the rows after h of h's Lagrangian completion, each plus
    h where its twisted dot with g is 1.  The builder is passed g's z half
    only and, from classify, the key ``ramsey._clique_key(h, g >> n, n)``
    that stands for every pair building the same candidate; it must build
    this group from (h, g >> n, n) and from that key.
    """
    rows = tuple(
        v ^ h if f2.twisted_dot(v, g, n) else v
        for v in f2.complete_lagrangian((h,), n)[1:]
    )
    return ramsey._group_from_rows(rows, n)


def count_table(group):
    """ramsey._count_table: each row of L(Z(R)) by its pivot, beside the row reduced modulo L(R).

    Returns (rows, pivots, basis): the map pivot -> (row, image), the OR
    of the pivots, and L(R)'s canonical basis, from the per-step kernel
    and reduction above.
    """
    basis = reduce([g.check_vector() for g in group.generators], group.n)
    centralizer = twisted_kernel([g.check_vector() for g in group.generators], group.n)
    rows = {r & -r: (r, reduce_mod(r, basis)) for r in centralizer.rows}
    pivots = 0
    for p in rows:
        pivots |= p
    return rows, pivots, basis


def compressed_dimension(ch, group) -> int:
    """ramsey.compressed_dimension: the L(R) cosets hit by the differences that lie in L(Z(R)).

    Built over all of the difference set W; the fast path counts from the
    channel's checks without building W.
    """
    centralizer = stabilizer.centralizer_image(group)
    basis = group.check_basis()
    return len(
        {
            reduce_mod(v, basis)
            for v in channel.difference_set(ch)
            if reduce_mod(v, centralizer) == 0
        }
    )
