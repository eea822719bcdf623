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


def random_symplectic_map(rng, n, count):
    """The map v -> T(v), T the product of count random transvections
    v -> v + <v, u> u, u nonzero; each keeps every twisted dot."""
    us = [rng.randrange(1, 1 << (2 * n)) for _ in range(count)]
    us = [(u, f2.swap_halves(u, n)) for u in us]

    def apply(v):
        for u, su in us:
            if (v & su).bit_count() & 1:
                v ^= u
        return v

    return apply


def random_isotropic_rows(rng, n, d):
    """d independent, pairwise commuting check vectors on n qubits.

    Unit x-vectors moved by 3n random symplectic transvections; no
    rejection sampling, so large n and d stay cheap.
    """
    rows = [1 << j for j in rng.sample(range(n), d)]
    return list(map(random_symplectic_map(rng, n, 3 * n), rows))


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


# -- golden corpora: seeded inputs whose outputs tests/golden_digests.json pins


def isotropic_subset_channel(rng, n):
    """Up to 12 vectors of the span of 1 to n random commuting rows, each
    shifted by one random vector: the checks commute after classify's shift."""
    rows = random_isotropic_rows(rng, n, rng.randrange(1, n + 1))
    span = f2.F2Basis(n, tuple(rows)).span()
    c = rng.randrange(1 << (2 * n))
    picked = rng.sample(span, rng.randrange(1, min(len(span), 12) + 1))
    return vector_channel([c ^ v for v in picked], n)


def maximal_channel(rng, n):
    """A seeded Lagrangian shifted by a random vector: 2^n checks."""
    span = f2.F2Basis(n, tuple(random_isotropic_rows(rng, n, n))).span()
    c = rng.randrange(1 << (2 * n))
    return vector_channel([c ^ v for v in span], n)


def dimension_pair(rng, n):
    """A (channel, code) pair: random or commuting noise, and a code of 0 to n
    generators."""
    if rng.random() < 0.5:
        ch = random_channel(rng, n, 2 * n + 4)
    else:
        ch = isotropic_subset_channel(rng, n)
    return ch, random_group(rng, n, rng.randrange(n + 1))


def search_case(rng, n):
    """A channel of 4 to 16 random operators at n = 3 or 4, and a search mode."""
    vectors = rng.sample(range(1 << (2 * n)), rng.randrange(4, 17))
    return vector_channel(vectors, n), rng.choice(("anticlique", "clique", "both"))
