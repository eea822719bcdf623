"""Linear algebra over GF(2) on packed symplectic bit vectors.

A vector in F_2^{2n} is a plain Python int: bit j (0 <= j < n) holds the
x-part coordinate for qubit j, bit n+j the z-part coordinate.  Integer
comparison therefore orders vectors x-part first; that order is the tie
breaker behind every deterministic choice below ("smallest admissible
vector" always means smallest as an int).

The twisted dot product u * v = <a,d> + <b,c> (mod 2), for u = a|b and
v = c|d, vanishes exactly when the Pauli operators with check vectors u
and v commute.  The routines on single vectors and bases are pure and
allocation-light, since they sit on every classify and verify call.
Each public function checks the vectors it is given where they enter;
the private :func:`_rref` and :func:`_reduce_mod` skip that check, for
vectors a caller has checked already or built in range.  A kernel is
read straight off one reduction of its constraints, in whichever echelon
form its caller needs (see :func:`_kernel_rows`): the twisted kernel at
width 2n, and the x-only vectors of a Lagrangian completion at width n.
Lowest-bit row reduction is written out once, in :func:`_rref`, which
:func:`_reduce_tracked` runs on inputs carrying their index bit,
``v_i | 1 << (2n + i)``: each row holds above bit 2n the inputs whose XOR
is its part below, 0 once per dependent input.  No F2Basis holds such a row.
:func:`_rref` keeps the OR of its rows' pivots and reduces each input by
the rows whose pivots the input holds, one row operation per held pivot,
rather than testing every row: no row holds another row's pivot, so
XORing in a row clears its pivot and sets no other.  Only the clearing
of a new pivot from the rows kept so far (back-substitution) passes over
all of them.  :func:`echelon` reduces by highest bits the same way.
:func:`enumerate_isotropic` alone works on numpy arrays: it builds each
level of its orderly generation as one uint64 array in chunked passes,
and yields plain-int bases from it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "F2Basis",
    "twisted_dot",
    "swap_halves",
    "format_vector",
    "reduce",
    "in_span",
    "echelon",
    "ascending_span",
    "twisted_kernel",
    "coset_count",
    "enumerate_isotropic",
    "complete_lagrangian",
    "symplectic_partners",
]


def _check_qubits(n: int) -> None:
    if n < 1:
        raise ValueError(f"qubit count must be positive, got {n}")


def _check_vector(v: int, n: int) -> None:
    if n < 1 or v < 0 or v >> (2 * n):
        _check_qubits(n)
        raise ValueError(f"vector {v:#x} does not fit in F_2^{2 * n}")


def swap_halves(v: int, n: int) -> int:
    """Exchange the x and z halves of ``v``.

    ``twisted_dot(u, v, n)`` equals the parity of ``u & swap_halves(v, n)``,
    which is the form the search loops actually evaluate.
    """
    m = (1 << n) - 1
    return ((v >> n) & m) | ((v & m) << n)


def twisted_dot(u: int, v: int, n: int) -> int:
    """Twisted dot product of u = a|b and v = c|d: <a,d> + <b,c> mod 2."""
    _check_vector(u, n)
    _check_vector(v, n)
    return ((u & (v >> n)).bit_count() + ((u >> n) & v).bit_count()) & 1


def format_vector(v: int, n: int) -> str:
    """Render v as ``(x_1..x_n|z_1..z_n)`` with qubit 1 leftmost."""
    _check_vector(v, n)
    xs = "".join("1" if (v >> j) & 1 else "0" for j in range(n))
    zs = "".join("1" if (v >> (n + j)) & 1 else "0" for j in range(n))
    return f"({xs}|{zs})"


@dataclass(frozen=True, slots=True)
class F2Basis:
    """Independent vectors spanning a subspace of F_2^{2n}.

    Every basis this module returns is canonical: reduced row echelon form
    with strictly increasing pivot columns, so two such bases compare equal
    iff they span the same subspace.
    """

    n: int
    rows: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[int]:
        return iter(self.rows)

    def span(self) -> list[int]:
        """Every vector of the span; 2^dim entries, small dims only."""
        vecs = [0]
        for r in self.rows:
            vecs += [v ^ r for v in vecs]
        return vecs


def reduce(vectors: Iterable[int], n: int) -> F2Basis:
    """Canonical (RREF, increasing pivots) basis of the span of ``vectors``."""
    _check_qubits(n)
    vectors = list(vectors)
    for v in vectors:
        _check_vector(v, n)
    return F2Basis(n, tuple(_rref(vectors)))


def _rref(vectors: Iterable[int]) -> list[int]:
    """Fully reduced rows spanning ``vectors``, ascending in their pivots."""
    # pivot mask (lowest set bit, held by no other row) -> row; ``pivots``
    # is their OR.  Only the pivots v holds are visited, in any order: the
    # row of one clears it and sets no other pivot
    rows: dict[int, int] = {}
    pivots = 0
    for v in vectors:
        held = v & pivots
        while held:
            v ^= rows[held & -held]
            held &= held - 1
        if v:
            m = v & -v
            for k, r in rows.items():
                if r & m:
                    rows[k] = r ^ v
            rows[m] = v
            pivots |= m
    return [rows[m] for m in sorted(rows)]


def _reduce_tracked(vectors: Sequence[int], n: int) -> list[tuple[int, int]]:
    """(row, names) per row of the tracked reduction of ``vectors``.

    ``row`` is the XOR of the inputs named by the set bits of ``names``.
    The canonical basis of the span comes first, then one row 0 per
    dependent input, naming a relation among the inputs.
    """
    width = 2 * n
    coords = (1 << width) - 1
    rows = _rref([v | 1 << (width + i) for i, v in enumerate(vectors)])
    return [(r & coords, r >> width) for r in rows]


def _reduce_mod(v: int, basis: F2Basis) -> int:
    """Canonical coset representative of ``v + span(basis)``.

    Requires a canonical basis (reduce() output): the pivot coordinates of
    v are cleared, which picks one representative per coset.  ``v`` is not
    range-checked; callers pass vectors known to lie in F_2^{2n}.
    """
    for r in basis.rows:
        if v & r & -r:
            v ^= r
    return v


def in_span(v: int, basis: F2Basis) -> bool:
    """Whether ``v`` lies in the span; safe for non-canonical bases.

    The rows must be independent, as every F2Basis's are, so ``basis.dim``
    is the rank that adding ``v`` would raise.
    """
    return reduce((*basis.rows, v), basis.n).dim == basis.dim


def echelon(rows: Iterable[int]) -> tuple[int, ...]:
    """Fully reduced top-bit echelon basis of span(rows), ascending.

    Highest set bits are distinct and no row contains another row's highest
    bit.  For such rows b_0 < ... < b_{m-1}, the map c -> XOR of the b_i
    selected by the binary digits of c is increasing, so the span in
    ascending order is the image of 0, 1, 2, ..., and the smallest vector
    of the span outside a subspace of it is the first b_t outside that
    subspace.

    Each row is reduced by the rows whose highest bits it holds, and by no
    other: a row clears its own highest bit and sets no other row's.  So
    a row costs one row operation per highest bit it holds, plus one pass
    over the rows kept so far, to clear its highest bit from them: O(m^2)
    for m rows in all, and less the sparser they are.
    """
    # highest bit -> row; ``tops`` is their OR
    out: dict[int, int] = {}
    tops = 0
    for v in rows:
        held = v & tops
        while held:
            v ^= out[held & -held]
            held &= held - 1
        if v:
            top = 1 << (v.bit_length() - 1)
            for k, r in out.items():
                if r & top:
                    out[k] = r ^ v
            out[top] = v
            tops |= top
    return tuple(sorted(out.values()))


def ascending_span(rows: Iterable[int]) -> Iterator[int]:
    """Lazily yield span(rows) in increasing order; see :func:`echelon`.

    Stepping from c - 1 to c flips bits 0..t, t the lowest set bit of c, so
    each vector is the previous one XOR a precomputed prefix b_0 ^ ... ^ b_t:
    O(1) per vector, and taking the first j vectors costs O(m^2 + j).
    """
    basis = echelon(rows)
    prefix: list[int] = []
    acc = 0
    for b in basis:
        acc ^= b
        prefix.append(acc)
    v = 0
    yield v
    for c in range(1, 1 << len(basis)):
        v ^= prefix[(c ^ (c - 1)).bit_length() - 1]
        yield v


def _kernel_rows(constraints: Sequence[int], pivots: Sequence[int], width: int) -> list[int]:
    """The kernel {v < 2^width : <v, r> = 0 for every constraint r}, one
    row per free bit.

    ``constraints`` are fully reduced rows with distinct pivot bits
    ``pivots`` (as masks), no row holding another row's pivot.  For each
    free bit f, that is each bit below ``width`` that is no pivot, the row
    is e_f plus the pivot of every constraint that holds f: its dot with a
    constraint r is r's bit f plus r's bit f again.  No row holds another
    row's free bit, so the rows, ascending in f, are a fully reduced basis
    with f as the distinguished bit of each.  Pivots at the lowest bits
    make every f the highest bit of its row, and pivots at the highest
    bits make it the lowest.  The rows are built by walking the set bits
    of each constraint, every one of them free but its pivot: O(width)
    plus the constraints' total weight.
    """
    rows = [1 << f for f in range(width)]
    for m, r in zip(pivots, constraints):
        # clear the pivot's entry, which no other constraint's walk reaches
        rows[m.bit_length() - 1] = 0
        rest = r ^ m
        while rest:
            bit = rest & -rest
            rows[bit.bit_length() - 1] |= m
            rest ^= bit
    return [v for v in rows if v]


def twisted_kernel(generators: Sequence[int], n: int) -> F2Basis:
    """Canonical basis of {v : twisted_dot(v, g) = 0 for all g}.

    With independent generators the kernel has dimension 2n - len(generators);
    dependent input still yields the correct kernel (rank is what counts).
    The constraints swap_halves(g) are brought to top-bit form by
    :func:`echelon`, and :func:`_kernel_rows` reads the kernel off them
    with each row's lowest bit distinct and in no other row: that is the
    canonical basis itself, with no second reduction.
    """
    _check_qubits(n)
    for g in generators:
        _check_vector(g, n)
    constraints = echelon(swap_halves(g, n) for g in generators)
    tops = [1 << (r.bit_length() - 1) for r in constraints]
    return F2Basis(n, tuple(_kernel_rows(constraints, tops, 2 * n)))


def coset_count(hits: Iterable[int], sub: F2Basis) -> int:
    """Number of distinct cosets of span(sub) represented among ``hits``.

    ``sub`` must be canonical (reduce() output), so that :func:`_reduce_mod`
    picks one representative per coset.  The hits are range-checked once,
    by their least and greatest, and a hit is reduced only if it holds a
    pivot of ``sub``: one clear of every pivot is its own representative.
    So h hits cost O(h) set and mask operations plus O(dim) for each hit
    that holds a pivot; already reduced hits cost O(1) each.
    """
    hits = set(hits)
    if hits:
        least = min(hits)
        _check_vector(least if least < 0 else max(hits), sub.n)
    pivots = 0
    for r in sub.rows:
        pivots |= r & -r
    held = [h for h in hits if h & pivots]
    if held:
        hits.difference_update(held)
        hits.update(_reduce_mod(h, sub) for h in held)
    return len(hits)


# elements per chunk of a pass over a level's array, here and in ramsey's
# quotient walk; bounds the pass's temporaries
_CHUNK_ELEMENTS = 1 << 16


def _lowest_bits(a: np.ndarray) -> np.ndarray:
    """The lowest set bit of each entry of an unsigned array, in its dtype."""
    return a & (~a + a.dtype.type(1))


def _isotropic_children(parents: np.ndarray, n: int) -> np.ndarray:
    """Every child (*P, v) of the parent rows P, lexicographically sorted.

    ``parents`` holds one canonical isotropic basis per row, sorted.  A
    child's v is nonzero, has its pivot above P's last pivot q and clear
    in every row of P, and is twisted-orthogonal to every row of P.

    Parents are grouped by q, whose candidates are the nonzero multiples of
    2^(q+1) below 2^(2n); each chunk of a group masks its candidates in one
    pass.
    """
    count, d = parents.shape
    if d:
        last = _lowest_bits(parents[:, -1]) - np.uint64(1)
        last_pivot = np.bitwise_count(last).astype(np.int64)
    else:
        last_pivot = np.full(count, -1, dtype=np.int64)
    union = np.bitwise_or.reduce(parents, axis=1)
    swaps = swap_halves(parents, n)
    parent_index: list[np.ndarray] = []
    new_rows: list[np.ndarray] = []
    for q in range(-1, 2 * n - 1):
        group = np.flatnonzero(last_pivot == q)
        if not group.size:
            continue
        cands = np.arange(1, 1 << (2 * n - q - 1), dtype=np.uint64) << np.uint64(q + 1)
        low = _lowest_bits(cands)
        step = max(1, _CHUNK_ELEMENTS // cands.size)
        for lo in range(0, group.size, step):
            idx = group[lo : lo + step]
            ok = (union[idx, None] & low) == 0
            for s in swaps[idx].T:
                ok &= (np.bitwise_count(s[:, None] & cands) & 1) == 0
            i, j = np.nonzero(ok)
            parent_index.append(idx[i])
            new_rows.append(cands[j])
    pi = np.concatenate(parent_index)
    v = np.concatenate(new_rows)
    # parents are sorted, so (parent index, v) orders the children as tuples
    order = np.lexsort((v, pi))
    return np.column_stack((parents[pi[order]], v[order]))


def enumerate_isotropic(n: int, d: int) -> Iterator[F2Basis]:
    """All d-dimensional totally isotropic subspaces of F_2^{2n}.

    Each subspace is emitted exactly once, as its canonical basis, in
    sorted order.  The generation is orderly: the canonical parent of a
    d-space is the span of the first d-1 rows of its canonical basis, and
    each level is built only from the edges parent -> child that respect
    that rule.  Appending v to a canonical basis P gives a canonical basis
    exactly when v is nonzero, its pivot lies above P's last pivot and
    every row of P has that pivot bit clear (v is then already clear at
    P's pivots, having no bits below its own); it stays isotropic exactly
    when v is twisted-orthogonal to every row of P.  A d-space thus
    appears once, from its one canonical parent, and no set is needed.
    Levels are held as sorted uint64 arrays of shape (count, d), so the
    children of a parent follow the parent's order and, within one
    parent, v's order; that is the order of the sorted row tuples.
    """
    _check_qubits(n)
    if d < 0 or d > n:
        raise ValueError(f"isotropic dimension must be in 0..{n}, got {d}")
    level = np.zeros((1, 0), dtype=np.uint64)
    for _ in range(d):
        level = _isotropic_children(level, n)
    step = max(1, _CHUNK_ELEMENTS // max(d, 1))
    for lo in range(0, len(level), step):
        for rows in level[lo : lo + step].tolist():
            yield F2Basis(n, tuple(rows))


def complete_lagrangian(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """Extend independent, mutually twisted-orthogonal vectors to a
    Lagrangian (dimension-n isotropic) basis.

    The input rows come first.  Each added vector is the smallest nonzero
    vector (as an int) that is twisted-orthogonal to every row so far and
    outside their span, so the completion is deterministic.  Every added
    vector is x-only (below 2^n), and all of them are read off at once.

    Lemma.  Let S = span(rows), of dimension d, let Z hold the z halves of
    S, S_0 the x-only vectors of S, and X the x-only vectors commuting with
    S: the c < 2^n with parity(c & z) = 0 for every z in Z.  The added
    vectors are the rows of X's top-bit echelon basis (see :func:`echelon`)
    whose highest bit is the highest bit of no vector of S_0.

    Proof.  Taking z halves maps S onto Z with kernel S_0, so
    dim S_0 = d - dim Z, and dim X = n - dim Z.  X commutes with S and
    x-only vectors commute pairwise, so S + X is isotropic; S_0 lies in X,
    as S is isotropic, so S ∩ X = S_0 and S + X has dimension
    d + (n - dim Z) - (d - dim Z) = n: it is Lagrangian.  Say the span so
    far is T = S + Y with Y in X, as at the start.  While dim T < n, X is
    not inside T, so some x-only vector commutes with T and lies outside
    it; every x-only vector sorts before every vector with a z bit, so the
    pick is x-only.  An x-only vector commuting with T lies in X, and X
    commutes with T, so the pick is the smallest vector of X outside
    T ∩ X = S_0 + Y, and T keeps its form.  With X's echelon rows
    b_0 < b_1 < ..., the ordering fact in :func:`echelon` makes each pick
    the first b_t outside S_0 + Y.  So, by induction on t, S_0 + Y is
    S_0 + span(b_0, ..., b_{t-1}) when the walk reaches b_t, and it takes
    b_t exactly when b_t lies outside that span.  A vector of X has the
    highest bit of the last b it sums, so b_t lies inside exactly when
    some vector of S_0 has b_t's highest bit.

    The highest bits of S_0's vectors are those of the rows of
    ``echelon(rows)`` below 2^n, since a vector of S below 2^n sums only
    such rows.  X's echelon rows are :func:`_kernel_rows` of the z halves
    reduced with pivots at their lowest bits, at width n: each row's free
    bit is its highest bit and in no other row, which is the form
    :func:`echelon` returns.  For one row h = a | b << n this gives: if
    b = 0, then Z = 0, X's rows are e_0 .. e_{n-1} and S_0 = span(h), so
    the added vectors are e_j for every j other than the highest bit of a;
    otherwise S_0 = 0 and the pivot of b is t, its lowest bit, so they are
    e_j, plus e_t when b holds bit j, for every j other than t.  Beyond
    the O(d^2) entry checks, the completion costs O(d^2 + n*d): two
    reductions of d rows, and the kernel rows.
    """
    out = list(rows)
    base = reduce(out, n)
    if base.dim != len(out):
        raise ValueError("rows are dependent")
    for i, u in enumerate(out):
        for v in out[i:]:
            if twisted_dot(u, v, n):
                raise ValueError(
                    f"rows are not isotropic: {format_vector(u, n)} and "
                    f"{format_vector(v, n)} anticommute"
                )
    taken = {r.bit_length() for r in echelon(out) if not r >> n}
    z_halves = _rref(v >> n for v in out)
    x_rows = _kernel_rows(z_halves, [r & -r for r in z_halves], n)
    out += [v for v in x_rows if v.bit_length() not in taken]
    return tuple(out)


def symplectic_partners(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """Dual partners of a Lagrangian basis under the twisted form.

    Given a basis h_1..h_n of a Lagrangian subspace, returns u_1..u_n with
    twisted_dot(u_i, h_j) = delta_ij and twisted_dot(u_i, u_j) = 0, so the
    union of the two families is a basis of F_2^{2n}.  The construction is
    deterministic: solve each dual system with free coordinates at zero,
    then sweep pairs (i < j), replacing u_j by u_j + h_i whenever u_j and
    u_i fail to commute.  A fix at step i cannot disturb earlier steps
    because h_i pairs to zero with every u_m, m != i.  The dual systems
    share one tracked reduction of the swap_halves(h_j): as no reduced row
    holds another's pivot, u_l is the OR of the pivots of the rows naming h_l.
    """
    _check_qubits(n)
    if len(rows) != n:
        raise ValueError(f"expected {n} rows for a Lagrangian basis, got {len(rows)}")
    for v in rows:
        _check_vector(v, n)
    reduced = _reduce_tracked([swap_halves(h, n) for h in rows], n)
    if not reduced[-1][0]:
        raise ValueError("rows are dependent")
    # rows are in range: the twisted dot is the parity of u & swap_halves(v)
    for i, u in enumerate(rows):
        su = swap_halves(u, n)
        if any((v & su).bit_count() & 1 for v in rows[i + 1 :]):
            raise ValueError("rows are not isotropic")
    # the pivots are distinct bits, so their sum is their OR
    partners = [sum(c & -c for c, names in reduced if names >> l & 1) for l in range(n)]
    for i in range(n):
        sw_i = swap_halves(partners[i], n)
        for j in range(i + 1, n):
            if (partners[j] & sw_i).bit_count() & 1:
                partners[j] ^= rows[i]
    # postconditions; a violation here is a finding, not something to patch
    for i, u in enumerate(partners):
        su = swap_halves(u, n)
        for j, h in enumerate(rows):
            if (h & su).bit_count() & 1 != (i == j):
                raise RuntimeError(
                    f"partner construction failed the duality pattern at ({i}, {j})"
                )
        if any((v & su).bit_count() & 1 for v in partners[i + 1 :]):
            raise RuntimeError("partner construction left an anticommuting pair")
    if len(_rref((*rows, *partners))) != 2 * n:
        raise RuntimeError("partner construction did not complete a basis")
    return tuple(partners)
