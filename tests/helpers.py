"""Seeded inputs and reference procedures shared by the test modules.

The seeded helpers draw from the caller's RNG in a fixed order, so a test
that passes the same seed gets the same channels and groups.
"""

import functools
import itertools
from collections.abc import Iterable

from qramsey import channel, f2, ramsey, selftest, stabilizer
from qramsey.pauli import hermitian_rep, parse


# the memos on classify's path: its two candidate builders and the
# verifying count's per-group table
CLASSIFY_MEMOS = (
    ramsey._commuting_anticlique_candidate,
    ramsey._noncommuting_clique_candidate,
    ramsey._count_table,
)


def clear_classify_memos() -> None:
    for memo in CLASSIFY_MEMOS:
        memo.cache_clear()


def make_channel(*ops, n=None):
    return channel.from_noise([parse(s) for s in ops], n=n)


@functools.cache
def low_weight_vectors(n):
    """Check vectors of every weight-1 and weight-2 Pauli on n qubits.

    Weight 1 first, then weight 2; qubits in combinations order, and on
    each qubit X, Z, Y.
    """
    out = []
    for w in (1, 2):
        for qubits in itertools.combinations(range(n), w):
            for letters in itertools.product(((1, 0), (0, 1), (1, 1)), repeat=w):
                v = 0
                for q, (x, z) in zip(qubits, letters):
                    v |= (x << q) | (z << (q + n))
                out.append(v)
    return tuple(out)


def low_weight_channel(rng, n):
    """The identity plus 2n distinct weight-1 and weight-2 Paulis."""
    noise = [0, *rng.sample(low_weight_vectors(n), 2 * n)]
    return channel.from_noise([hermitian_rep(v, n) for v in noise], n=n)


def random_channel(rng, n, max_ops=5):
    ops = [
        hermitian_rep(rng.randrange(1 << (2 * n)), n)
        for _ in range(rng.randrange(1, max_ops))
    ]
    return channel.from_noise(ops, n=n)


# selftest's seeded group generator, unsigned: it draws the same vectors
# with the same acceptance test as every seeded group the tests have used
random_group = functools.partial(selftest._random_group, signs=False)


def random_isotropic_rows(rng, n, d):
    """d independent, pairwise commuting check vectors on n qubits.

    Unit x-vectors moved by 3n random symplectic transvections
    v -> v + <v, u> u, which keep every twisted dot; no rejection
    sampling, so large n and d stay cheap.
    """
    rows = [1 << j for j in rng.sample(range(n), d)]
    for _ in range(3 * n):
        u = rng.randrange(1, 1 << (2 * n))
        su = f2.swap_halves(u, n)
        rows = [v ^ u if (v & su).bit_count() & 1 else v for v in rows]
    return rows


def column_tracking_partners(rows, n):
    """Symplectic partners of a Lagrangian basis by the former elimination.

    Row reduction of the pairs (swap_halves(h_i), e_i) with the
    right-hand sides kept in the bits above the coefficients, each pivot
    the lowest coefficient bit, then the commuting sweep; no input or
    output checks.  The reference that ``f2.symplectic_partners``, which
    reads the same partners off ``f2._reduce_tracked``, must match.
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


def twisted_dot_clique_candidate(h, g, n):
    """The clique candidate built from all of g, as first written.

    Completes h to a Lagrangian and adds h to each later row whose twisted
    dot with g is 1.  The reference for
    ``ramsey._noncommuting_clique_candidate``, which is passed g's z half
    only and, from classify, the key ``ramsey._clique_key(h, g >> n, n)``
    that stands for every pair building the same candidate; it must build
    the same group from (h, g >> n, n) and from that key.
    """
    rows = tuple(
        v ^ h if f2.twisted_dot(v, g, n) else v
        for v in f2.complete_lagrangian((h,), n)[1:]
    )
    return ramsey._group_from_rows(rows, n)


def anticommuting_partner(rng, h, n):
    """A random g whose twisted dot with the nonzero h is 1.

    A uniform draw, with swap_halves of h's lowest bit added when it
    commutes with h: that vector anticommutes with h, so g is uniform
    over the vectors anticommuting with h.
    """
    g = rng.randrange(1 << (2 * n))
    if not f2.twisted_dot(h, g, n):
        g ^= f2.swap_halves(h & -h, n)
    return g


def extend_basis(partial: f2.F2Basis, candidates: Iterable[int]) -> f2.F2Basis:
    """Extend ``partial`` to a basis of span(candidates), greedily.

    Candidates are tried in increasing order; the result keeps the partial
    rows first, then the chosen extensions.  Raises if span(candidates)
    does not contain span(partial).  The reference for the basis of the
    anticlique construction, which must equal the extension of (w,) by
    the Lagrangian's rows.
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
        if f2.reduce_mod(c, work):
            rows.append(c)
            work = f2.reduce(rows, n)
    return f2.F2Basis(n, tuple(rows))


def definitional_compressed_dimension(ch, group) -> int:
    """Compressed dimension straight from its definition, over all of W.

    The L(R) cosets hit by the differences that lie in L(Z(R)); the
    reference for ``ramsey.compressed_dimension``, which counts them from
    the channel's checks without building W.
    """
    centralizer = stabilizer.centralizer_image(group)
    basis = group.check_basis()
    return len(
        {
            f2.reduce_mod(v, basis)
            for v in channel.difference_set(ch)
            if f2.reduce_mod(v, centralizer) == 0
        }
    )
