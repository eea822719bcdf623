"""Seeded inputs, and classify's memo handles, for tier-1 and the deep suite.

The generators draw from the caller's RNG in a fixed order, so a test
that passes the same seed gets the same channels, groups and vectors.
The reference routes they are checked against are in ``reference``.
"""

import functools
import itertools
import operator

from qramsey import channel, f2, ramsey, selftest
from qramsey.pauli import parse


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


# selftest's seeded Pauli with a random phase, its channel of 1 to
# max_ops random check vectors (repeats merged), and the channel of the
# plus-signed Paulis of some check vectors
random_pauli = selftest._random_pauli
random_channel = selftest._random_channel
vector_channel = selftest._subset_channel


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


def sparse_vectors(rng, n):
    """2n vectors of F_2^{2n}, each of one to three random bits."""
    width = 2 * n
    return [
        functools.reduce(operator.xor, (1 << b for b in rng.sample(range(width), w)), 0)
        for w in (rng.randrange(1, min(3, width) + 1) for _ in range(width))
    ]


def low_weight_channel(rng, n):
    """The identity plus 2n distinct weight-1 and weight-2 Paulis."""
    return vector_channel([0, *rng.sample(low_weight_vectors(n), 2 * n)], n)


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


def one_row_starts(rng, n):
    """Edge cases of a one-row start h for complete_lagrangian, n >= 2.

    By its lemma the added vectors are e_j for every j but the top bit of
    an x-only h, and otherwise e_j, plus e_t where h's z half holds bit j,
    for every j but t, the z half's lowest bit.  The cases: x-only h with
    its top bit at qubit 0 and at qubit n - 1, Z on qubit n - 1, z halves
    with their lowest bit at qubit 0 and at qubit n - 1, then two random h.
    """
    low = (1 << n) - 1
    return [
        1,
        1 << (n - 1) | rng.randrange(1 << (n - 1)),
        1 << (2 * n - 1),
        (rng.randrange(low + 1) | 1) << n | rng.randrange(low + 1),
        1 << (2 * n - 1) | rng.randrange(1, low + 1),
        rng.randrange(1, 1 << (2 * n)),
        rng.randrange(1, 1 << (2 * n)),
    ]


def x_only_pairs(rng, n):
    """50 anticommuting pairs (a, g), x-only a: 5 a for each of 10 random z halves gz.

    Each a has odd parity against gz, and g is gz over a random x half;
    ``ramsey._clique_key`` maps the 5 pairs of one gz to one key.
    """
    pairs = []
    for _ in range(10):
        gz = rng.randrange(1, 1 << n)
        for _ in range(5):
            a = rng.randrange(1, 1 << n)
            if not (a & gz).bit_count() & 1:
                a ^= gz & -gz
            pairs.append((a, gz << n | rng.randrange(1 << n)))
    return pairs
