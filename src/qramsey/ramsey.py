"""Clique/anticlique decisions for stabilizer codes against Pauli noise.

The objects here live entirely on the symplectic side: a channel is
reduced to its difference set W (check vectors of the noise quotients),
a candidate code to the subspace L(R), and every verdict is a statement
about how W meets the centralizer L(Z(R)) coset-by-coset:

    compressed dimension = #{ cosets of L(R) hit by W inside L(Z(R)) }

A code is an anticlique when that count is 1 (all surviving noise acts
as scalars, so errors are correctable) and a clique when the count is
the maximum 2^{2k} (the noise algebra fills the compressed picture).

`classify` realizes the trichotomy: either W is exactly the check-vector
set of a maximal stabilizer group, or a nontrivial anticlique or clique
witness exists.  One pass of the constructive proof, which is complete
and polynomial in n, decides all three: the maximal case is met where the
anticlique construction finds nothing of its Lagrangian missing from W.
A witness it builds is verified rather than trusted.  An `Inconsistent`
answer therefore means a constructed candidate failed its verification,
which would be a counterexample worth reporting, not a bug to hide.

A clique candidate is verified on the three-operator sub-channel of the
channel's checks c0, c0 ^ h and c0 ^ g, whatever the channel's size:
- W(sub) = {0, h, g, h ^ g} is a subset of W(ch);
- the count is monotone in W;
- and it never exceeds 4^k.
So a count of 4^k on the sub-channel is 4^k on the channel.  The
construction's proof reads only h, g and h ^ g, so the check is complete
as well.  An anticlique candidate is counted against the whole channel,
since its verdict needs all of W.

The constructions read nothing of the channel beyond a check h and the
z half of its partner g, or a Lagrangian and one vector, so the two
candidate builders keep their last 256 results in a `functools.lru_cache`
keyed by those, and so does the verifying count's per-group table.  The
clique key is first mapped to one representative per candidate (see
`_clique_key`), so pairs that build the same group share one entry.  The
count itself is not kept: it runs on every call, on a kept candidate as
on a new one.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from . import f2
from .channel import PauliChannel, difference_set
from .pauli import CapacityError, hermitian_rep
from .stabilizer import StabilizerGroup, centralizer_image, validate

__all__ = [
    "SEARCH_QUBIT_LIMIT",
    "ClassificationResult",
    "SearchWitness",
    "SearchReport",
    "compressed_dimension",
    "is_anticlique",
    "is_clique",
    "gottesman_correctable",
    "search",
    "classify",
]

SEARCH_QUBIT_LIMIT = 4


@dataclass(frozen=True, slots=True)
class ClassificationResult:
    """Trichotomy verdict with a verified witness (or a diagnostic)."""

    tag: str
    witness: StabilizerGroup | None
    dim_pgp: int | None
    examined: int
    diagnostic: str | None = None

    def to_json_dict(self) -> dict:
        doc: dict = {"verdict": self.tag, "examined": self.examined}
        if self.witness is not None:
            doc["witness_generators"] = [str(g) for g in self.witness.generators]
        if self.dim_pgp is not None:
            doc["dim_PGP"] = self.dim_pgp
        if self.diagnostic is not None:
            doc["diagnostic"] = self.diagnostic
        return doc


@dataclass(frozen=True, slots=True)
class SearchWitness:
    k: int
    kind: str
    group: StabilizerGroup
    dim_pgp: int

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "kind": self.kind,
            "witness_generators": [str(g) for g in self.group.generators],
            "dim_PGP": self.dim_pgp,
        }


@dataclass(frozen=True, slots=True)
class SearchReport:
    """Exhaustive per-k witness listing for one channel."""

    n: int
    noise: tuple[str, ...]
    mode: str
    k_values: tuple[int, ...]
    examined: tuple[tuple[int, int], ...]
    witnesses: tuple[SearchWitness, ...]

    @property
    def total_examined(self) -> int:
        return sum(count for _, count in self.examined)

    def to_json_dict(self) -> dict:
        return {
            "channel": {"n": self.n, "noise": list(self.noise)},
            "mode": self.mode,
            "k_range": list(self.k_values),
            "examined": {str(k): count for k, count in self.examined},
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }


# the smallest class that compressed_dimension tests for an affine subspace
_AFFINE_MIN = 16


@lru_cache(maxsize=256)
def _count_table(
    group: StabilizerGroup,
) -> tuple[dict[int, tuple[int, int]], int, f2.F2Basis]:
    """The verifying count's rows for ``group``, their pivots, and L(R).

    The rows map each pivot mask of L(Z(R))'s canonical basis to its row r
    and r's representative modulo L(R); the pivots are the OR of those
    masks.  An image is r reduced by the rows of L(R)'s canonical basis
    whose pivots r holds, and by no other, as in ``compressed_dimension``.
    A pure function of the frozen group, so the last 256 groups' tables
    are kept (``_count_table.cache_clear()`` drops them); equal groups
    share one entry.
    """
    basis = group.check_basis()
    stab = {r & -r: r for r in basis.rows}
    # the pivots are distinct bits, so their sum is their OR
    stab_pivots = sum(stab)
    rows: dict[int, tuple[int, int]] = {}
    pivots = 0
    for r in centralizer_image(group).rows:
        image = r
        held = r & stab_pivots
        while held:
            image ^= stab[held & -held]
            held &= held - 1
        pivot = r & -r
        rows[pivot] = (r, image)
        pivots |= pivot
    return rows, pivots, basis


def compressed_dimension(ch: PauliChannel, group: StabilizerGroup) -> int:
    """Number of L(R) cosets inside L(Z(R)) hit by the difference set.

    This is the dimension of the compressed operator span P G P for the
    code of ``group``; it always lands in [1, 2^{2k}].

    The count is taken from the m check vectors, not from the up to m^2
    differences, and each check is reduced once, against L(Z(R)) only.
    Reduction modulo a canonical basis is linear: it XORs in the rows
    whose pivots are set in its argument, and no row holds another row's
    pivot.  So a check c is its class key, the canonical representative
    modulo L(Z(R)), plus the rows its reduction picks, and a difference
    a ^ b lies in L(Z(R)) exactly when a and b share their key.  It is
    then the XOR of the rows that a and b picked, so its L(R) coset is
    represented by rep_a ^ rep_b, rep_c being the XOR of the L(R)
    representatives of the rows c picked; ``_count_table`` holds each
    row's beside it.  rep_c differs from c's own L(R) representative by
    that of c's key, one constant per class, which no XOR within a class
    sees.  One walk gives both the key and rep_c.  It visits only the
    pivots of L(Z(R)) that c holds, in any order, since XORing in a row
    clears that row's pivot and sets no other: popcount(c & pivots) row
    operations, where testing each of the n + k rows would take n + k.
    The reps are grouped by key, and the XORs within each group are the
    hit cosets.  A group holds at most 4^k distinct values, one per coset
    of L(R) in L(Z(R)), so the cost is O(m (n + k) + m min(m, 4^k)) at
    worst, and O(m w + m min(m, 4^k)) when no check holds more than w
    pivots of L(Z(R)).

    A group S that is an affine subspace s0 + V is not paired out: its
    XORs are exactly V = S ^ s0.  S is one when |S| is a power of two and
    S ^ s0 is its own span, which is grown from S ^ s0 by doubling and
    given up once it outgrows S: O(|S|) set operations.  Only groups of
    at least 16 values take that test, since below 16 the |S|(|S| - 1)/2
    XORs cost less.  That is the measured crossover: on seeded affine
    groups at n = 2, 4 and 8 (CPython 3.11, 2-vCPU Xeon), the test took
    1.0 to 1.6 times the pairs' time at |S| = 8 and 0.5 to 0.65 times at
    |S| = 16, and a group that fails the test pays for both.  For a
    maximal channel every group is such a coset, and its 2^k values cost
    O(2^k) rather than 4^k/2 XORs.

    The checks are not range-checked here.  Each operator's constructor
    holds its x and z halves below 2^n, and the channel's holds every
    operator on the channel's n qubits, so each check is below 4^n.
    """
    if ch.n != group.n:
        raise ValueError(f"channel acts on {ch.n} qubits, group on {group.n}")
    n = ch.n
    rows, pivots, basis = _count_table(group)
    classes: dict[int, set[int]] = {}
    for op, _ in ch.noise:
        c = op.x | op.z << n
        rep = 0
        held = c & pivots
        while held:
            r, image = rows[held & -held]
            c ^= r
            rep ^= image
            held &= held - 1
        classes.setdefault(c, set()).add(rep)
    # 0 = a ^ a, and a ^ b = b ^ a: each unordered pair is XORed once.
    # The XORs are reduced already, so they are clear of L(R)'s pivots and
    # coset_count reduces none of them; the set holds one per hit coset
    hits = {0}
    for reps in classes.values():
        size = len(reps)
        if size >= _AFFINE_MIN and not size & (size - 1):
            s0 = next(iter(reps))
            shifted = {s ^ s0 for s in reps}
            span = {0}
            for v in shifted:
                if v not in span:
                    span |= {v ^ u for u in span}
                    if len(span) > size:
                        break
            if span == shifted:
                hits |= shifted
                continue
        hits.update(a ^ b for a, b in combinations(reps, 2))
    return f2.coset_count(hits, basis)


def is_anticlique(ch: PauliChannel, group: StabilizerGroup) -> bool:
    """Whether the code of ``group`` compresses the noise algebra to scalars."""
    return compressed_dimension(ch, group) == 1


def is_clique(ch: PauliChannel, group: StabilizerGroup) -> bool:
    """Whether the compressed noise algebra has full dimension 2^{2k}."""
    return compressed_dimension(ch, group) == 1 << (2 * group.k)


def gottesman_correctable(ch: PauliChannel, group: StabilizerGroup) -> bool:
    """Error-correction test: no difference lands in L(Z(S)) outside L(S).

    Deliberately implemented straight from that statement rather than via
    compressed_dimension; the equivalence of the two criteria is a theorem
    exercised by the test suite, not a shared code path.
    """
    if ch.n != group.n:
        raise ValueError(f"channel acts on {ch.n} qubits, group on {group.n}")
    n = ch.n
    swaps = [f2.swap_halves(g.check_vector(), n) for g in group.generators]
    basis = group.check_basis()
    for v in difference_set(ch):
        in_centralizer = all((v & s).bit_count() & 1 == 0 for s in swaps)
        if in_centralizer and f2._reduce_mod(v, basis) != 0:
            return False
    return True


# -- quotient walk for the exhaustive search ----------------------------------
#
# search counts, for every isotropic subspace R, the cosets of R in R^⊥ that
# the difference set W hits.  f2.enumerate_isotropic generates the
# candidates of one (n, d) once each, in canonical order, and each
# candidate R' = R + v has exactly one canonical parent R one level up.
# Every level is stored once per (n, d), and only as arrays.  The
# canonical coset representatives of R'^⊥/R' are the vectors of R'^⊥ clear
# at the pivots of R', in ascending order ("reps"), kept only until the
# child level is built; they are exactly the parent's representatives x
# that commute with v and are clear at v's pivot.  Those form a subspace
# whose ascending order is linear in the position (see f2.echelon), so if
# x sits at position c among them, x ⊕ v sits at c ^ o, o being v's
# position.
# As x + R' is the union of x + R and x ⊕ v + R, the cosets of R' that W
# hits follow from the parent's by two gathers and an OR, whatever |W| is:
# a search marks W in one boolean row of width 4^n and walks down the
# levels, each candidate's count being its row's sum.  The two gathers'
# flat positions in the parent level's rows ("gather") depend only on
# (n, d), so each level computes them once, as it is built, in chunks of
# f2._CHUNK_ELEMENTS elements, as is its walk step.  A witness record is
# fixed by (n, d, candidate, kind), so each candidate keeps the
# SearchWitness built on its first hit as each kind, and later searches
# gather them with one fancy index.  A candidate's two records share one
# group, built once per process from its array row by _group_from_rows,
# as classify builds its witnesses.  hermitian_rep's memo holds all 4^n
# operators at every n that search allows, so the groups share them.  The
# rows are canonical bases already, so validate checks their operators
# and sorts them, but reduces nothing.

# record columns of _Candidates, indexed by kind
_KINDS = ("anticlique", "clique")


@dataclass(eq=False, slots=True)
class _Candidates:
    n: int
    rows: np.ndarray  # (count, d): canonical basis rows, in reps' dtype
    reps: np.ndarray | None  # (count, 4^k) coset reps; None once the child is built
    # uint32 (2, count, 4^k): flat positions of x and x ⊕ v in the parent
    # level's (count, 4^(k+1)) array of rows, x running over reps; level 0
    # has none, as the walk starts from the marked row of W
    gather: np.ndarray
    # the memo: (0, 2) until the level's first hit, then (count, 2), so a
    # process whose searches hit no candidate here holds no memo for it
    records: np.ndarray  # object: SearchWitness per kind
    built: np.ndarray  # bool: which records exist

    def __len__(self) -> int:
        return len(self.rows)

    def witnesses(self, hits: np.ndarray, kinds: np.ndarray) -> list[SearchWitness]:
        """Records of candidates ``hits`` as ``kinds``, built on first use."""
        if hits.size and not len(self.built):
            self.records = np.empty((len(self), 2), dtype=object)
            self.built = np.zeros((len(self), 2), dtype=bool)
        missing = ~self.built[hits, kinds]
        new = hits[missing]
        for i, kind, row in zip(
            new.tolist(), kinds[missing].tolist(), self.rows[new].tolist()
        ):
            if self.built[i, 1 - kind]:
                group = self.records[i, 1 - kind].group
            else:
                group = _group_from_rows(row, self.n)
            dim_pgp = 1 << (2 * group.k) if kind else 1
            self.records[i, kind] = SearchWitness(group.k, _KINDS[kind], group, dim_pgp)
            self.built[i, kind] = True
        return self.records[hits, kinds].tolist()


_SUBSPACE_CACHE: dict[tuple[int, int], _Candidates] = {}


def _packed(rows: np.ndarray, n: int) -> np.ndarray:
    """One uint64 key per row tuple, ordered as the tuples; 2n bits a row.

    Parents have at most n - 2 rows, so the keys fit for n <= 6.  The rows
    may be stored narrower; each column is widened here.
    """
    key = np.zeros(len(rows), dtype=np.uint64)
    for column in rows.T:
        key = (key << np.uint64(2 * n)) | column.astype(np.uint64)
    return key


def _candidates(n: int, d: int) -> _Candidates:
    """Level d of the walk, built from level d - 1 on first use.

    Level 0 is the zero subspace, whose representatives are all of
    F_2^{2n}.  Each later level keeps the flat positions its walk step
    gathers from the parent level's rows, so a search repeats none of
    that index arithmetic, and drops the parent level's reps.
    """
    key = (n, d)
    if key in _SUBSPACE_CACHE:
        return _SUBSPACE_CACHE[key]
    if 2 * n * max(d - 1, 0) > 64:
        raise CapacityError(f"parent keys of level {d} at n={n} exceed 64 bits")
    if d:
        up = _candidates(n, d - 1)
        width = up.reps.shape[1]
        if len(up) * width > 1 << 32:
            raise CapacityError(f"gather positions of level {d} at n={n} exceed 32 bits")
    # every basis row straight into one array, with no list of tuples between;
    # rows and reps hold 2n-bit vectors, so both take the narrowest dtype
    dtype = np.min_scalar_type((1 << (2 * n)) - 1)
    flat = np.fromiter(chain.from_iterable(f2.enumerate_isotropic(n, d)), dtype)
    rows = flat.reshape(-1, d) if d else np.zeros((1, 0), dtype=dtype)
    count = len(rows)
    if d == 0:
        reps = np.arange(1 << (2 * n), dtype=dtype)[None]
        gather = np.zeros((2, 1, 0), dtype=np.uint32)
    else:
        parents = np.searchsorted(_packed(up.rows, n), _packed(rows[:, :-1], n))
        reps = np.empty((count, width // 4), dtype=dtype)
        gather = np.empty((2, count, width // 4), dtype=np.uint32)
        v = rows[:, -1]
        swapped = f2.swap_halves(v, n)
        pivot = f2._lowest_bits(v)
        step = max(1, f2._CHUNK_ELEMENTS // width)
        for lo in range(0, count, step):
            part = slice(lo, lo + step)
            x = up.reps[parents[part]]
            keep = (np.bitwise_count(x & swapped[part, None]) & 1) == 0
            keep &= (x & pivot[part, None]) == 0
            reps[part] = x[keep].reshape(-1, width // 4)
            # positions within the chunk's rows, rebased onto the parents' rows
            at = np.flatnonzero(keep).reshape(-1, width // 4) & (width - 1)
            at |= parents[part, None] * width
            gather[0, part] = at
            at ^= np.argmax(x == v[part, None], axis=1)[:, None]
            gather[1, part] = at
        up.reps = None
    level = _Candidates(
        n,
        rows,
        reps,
        gather,
        np.empty((0, 2), dtype=object),
        np.zeros((0, 2), dtype=bool),
    )
    _SUBSPACE_CACHE[key] = level
    return level


def _coset_counts(diffs: np.ndarray, n: int, depth: int) -> list[np.ndarray]:
    """compressed_dimension of every candidate at d = 0..depth, in order.

    ``diffs`` holds the difference set's vectors.  ``hit`` has one boolean
    row per candidate of a level, over its representatives: whether W
    meets that coset.  Level 0's one row marks W; each later level's rows
    are its two ``gather`` takes from the parent level's rows, ORed.  A
    row's count is the bit count of its bytes read as 32-bit words.
    """
    hit = np.zeros((1, 1 << (2 * n)), dtype=bool)
    hit[0, diffs] = True
    counts = []
    for d in range(depth + 1):
        if d:
            gather = _candidates(n, d).gather
            flat = hit.ravel()
            hit = np.empty(gather.shape[1:], dtype=bool)
            step = max(1, f2._CHUNK_ELEMENTS // hit.shape[1])
            for lo in range(0, len(hit), step):
                part = slice(lo, lo + step)
                np.take(flat, gather[0, part], out=hit[part])
                hit[part] |= np.take(flat, gather[1, part])
        words = np.bitwise_count(hit.view(np.uint32))  # 4^k bytes, k >= 1
        counts.append(np.einsum("ij->i", words, dtype=np.intp))
    return counts


def _group_from_rows(rows: Iterable[int], n: int) -> StabilizerGroup:
    return validate([hermitian_rep(v, n) for v in rows], n=n)


# -- constructive procedures -------------------------------------------------


@lru_cache(maxsize=256)
def _commuting_anticlique_candidate(
    lag: tuple[int, ...], w: int, n: int
) -> StabilizerGroup:
    """Anticlique candidate for check vectors that commute pairwise.

    ``lag`` is a Lagrangian L containing every difference and w the
    smallest vector (as an int) in L missing from the difference set, both
    found by ``classify``.  The candidate is generated by the symplectic
    partners of a basis of L that has w last: L's rows in ascending order,
    less the first row whose prefix spans w, then w.  Every difference
    vector then either anticommutes with some partner or is zero, so the
    candidate compresses the noise to scalars.  That row is the last that
    w's relation to the rows names besides w (input n) itself.
    """
    rows = sorted(lag)
    names = f2._reduce_tracked((*rows, w), n)[-1][1]
    j = (names ^ (1 << n)).bit_length() - 1
    partners = f2.symplectic_partners((*rows[:j], *rows[j + 1 :], w), n)
    return _group_from_rows(partners[:-1], n)


@lru_cache(maxsize=256)
def _noncommuting_clique_candidate(h: int, gz: int, n: int) -> StabilizerGroup:
    """Clique candidate for noise with the anticommuting check pair (h, g).

    Completes h to a Lagrangian with :func:`f2.complete_lagrangian`, whose
    lemma gives one row in O(n): e_j for every j but the highest bit of h
    when h is x-only, else e_j plus e_t where h's z half holds bit j, for
    every j but t, the lowest bit of that z half.  It then repairs each
    later basis vector that anticommutes with g by adding h; the repaired
    rows generate the candidate.  The candidate is guaranteed when h and g
    themselves lie in the difference set, which holds when the checks
    contain 0: then h = h ^ 0 and g = g ^ 0 are differences.
    ``classify`` shifts the checks so that they do, and passes their first
    anticommuting pair.

    Only gz = g >> n, the z half of g, is passed, and it is all the
    construction reads of g.  Proof: by the same lemma every vector v the
    completion adds is x-only, v < 2^n, so v & swap_halves(g), whose
    parity is the twisted dot of v and g, is v & (g >> n); g's x half
    lands in bits n and up, where v has none.  So the repaired rows, the
    candidate and its generators' signs are a function of (h, gz, n).

    Many such keys still build one candidate.  Write h = a | b << n;
    twisted_dot(h, g) = 1 reads parity(a & gz) ^ parity(b & (g & low)),
    with low = 2^n - 1.
    - If b = 0 (h is x-only), parity(a & gz) = 1, and the completion adds
      e_j for every j but top(a).  Each repaired row e_j ^ gz_j a has
      parity gz_j ^ gz_j = 0 against gz.  The n - 1 rows are independent:
      a sum over a nonempty set J of them is e_J plus a multiple of a, and
      e_J is neither 0 nor a, as a holds top(a) and J does not.  So they
      span all of Y = {y < 2^n : parity(y & gz) = 0}, which has dimension
      n - 1 as gz != 0.  Every row is X-type, so every product of rows is
      plus-signed, and the canonical group depends on Y alone, that is on
      (gz, n).  Any x-only h' with parity(h' & gz) = 1 builds it;
      ``_clique_key`` takes h' = gz & -gz.
    - If b != 0, with t = low(b), every added vector v = e_j ^ b_j e_t
      (j != t) has parity(v & b) = b_j ^ b_j b_t = 0.  So gz and gz ^ b
      repair the same rows, and ``_clique_key`` clears bit t of gz by
      adding b when it is set.
    The memo is keyed by that representative.
    """
    rows = tuple(
        v ^ h if (v & gz).bit_count() & 1 else v
        for v in f2.complete_lagrangian((h,), n)[1:]
    )
    return _group_from_rows(rows, n)


def _first_anticommuting_pair(shifted: list[int], n: int) -> tuple[int, int] | None:
    """The first pair of ``shifted`` in combinations order with twisted dot 1.

    ``shifted`` is classify's ascending shifted checks, so ``shifted[0]``
    is 0, which commutes with every check: the scan starts after it.
    twisted_dot(a, b) is the parity of swap_halves(a) & b, so only the
    outer check a is swapped, once.  An operator holds n bits per half,
    so a >> n is the z half of a check a.
    """
    low = (1 << n) - 1
    for i in range(1, len(shifted) - 1):
        a = shifted[i]
        t = a >> n | (a & low) << n
        for b in shifted[i + 1 :]:
            if (t & b).bit_count() & 1:
                return a, b
    return None


def _clique_key(h: int, gz: int, n: int) -> tuple[int, int, int]:
    """The memo key of the clique candidate of (h, gz): one per candidate.

    (gz & -gz, gz, n) when h is x-only, else (h, gz with bit low(h >> n)
    cleared by adding h >> n, n); both build the candidate of (h, gz, n),
    as proved in ``_noncommuting_clique_candidate``.
    """
    b = h >> n
    if not b:
        return gz & -gz, gz, n
    if gz & b & -b:
        gz ^= b
    return h, gz, n


# -- exhaustive search and the trichotomy ------------------------------------


def search(
    ch: PauliChannel,
    mode: str = "both",
    k_range: list[int] | None = None,
    limit: int = SEARCH_QUBIT_LIMIT,
) -> SearchReport:
    """Enumerate every nontrivial stabilizer code and record all witnesses.

    One quotient walk counts the compressed dimension of every isotropic
    subspace down to the deepest requested dimension n - k, and the
    witnesses are reported in canonical subspace order with the
    plus-signed group.
    Witness records are memoized per candidate and kind: each is built on
    the candidate's first hit as that kind and returned again, as the same
    object, by later searches in the same process; a candidate's
    anticlique and clique records share one validated group, built from
    the candidate's rows as classify builds its witnesses.  Exhaustive
    and deterministic; signs never matter to the verdicts.  Every k in
    ``k_range`` must be an int in 1..n.
    """
    if mode not in ("anticlique", "clique", "both"):
        raise ValueError(f"mode must be anticlique, clique or both, got {mode!r}")
    n = ch.n
    if n > limit:
        raise CapacityError(f"search limited to {limit} qubits, got {n}")
    if k_range is None:
        ks = list(range(1, n + 1))
    else:
        requested = list(k_range)
        wrong = [k for k in requested if isinstance(k, bool) or not isinstance(k, int)]
        if wrong:
            raise ValueError(f"k must be an int, got {wrong[0]!r}")
        ks = sorted(set(requested))
        if not ks:
            raise ValueError("k_range must be nonempty")
        bad = [k for k in ks if k < 1 or k > n]
        if bad:
            raise ValueError(f"k must lie in 1..{n}, got {bad[0]}")
    diffs = np.fromiter(difference_set(ch), dtype=np.intp)
    all_counts = _coset_counts(diffs, n, n - ks[0])
    witnesses: list[SearchWitness] = []
    examined: list[tuple[int, int]] = []
    for k in ks:
        cands = _candidates(n, n - k)
        examined.append((k, len(cands)))
        full = 1 << (2 * k)
        counts = all_counts[n - k]
        wanted = np.zeros(len(cands), dtype=bool)
        if mode != "clique":
            wanted |= counts == 1
        if mode != "anticlique":
            wanted |= counts == full
        hits = np.flatnonzero(wanted)
        witnesses += cands.witnesses(hits, (counts[hits] != 1).astype(np.intp))
    return SearchReport(
        n,
        tuple(str(op) for op in ch.operators),
        mode,
        tuple(ks),
        tuple(examined),
        tuple(witnesses),
    )


def classify(ch: PauliChannel, limit: int | None = None) -> ClassificationResult:
    """Trichotomy: maximal stabilizer channel, anticlique, or clique.

    One pass follows the constructive proof.  Every check vector is
    shifted by the smallest one, c0: c -> c ^ c0, a pass skipped when c0
    is 0, as it is whenever the identity is noise.  The difference set
    W is unchanged, and the shifted checks contain 0, so each of them is
    itself a difference.  If two shifted checks anticommute, the first
    such pair lies in W and the clique construction applies.  If they all
    commute, their span holds W and extends to a Lagrangian L.  When every
    vector of L is in W, W is the Lagrangian L and the channel's noise
    algebra is that of a maximal stabilizer mixture, whose witness is L's
    canonical basis and whose compressed dimension is 1 (k = 0).
    Otherwise the smallest vector of L outside W drives the anticlique
    construction.  W is built in that commuting branch only; the clique
    branch never reads it.  A constructed candidate is verified; one that
    fails is answered with Inconsistent and a diagnostic naming the whole
    channel's noise, since it would contradict the theorem.  An anticlique
    candidate is counted against the whole channel.  A clique candidate
    is counted against the sub-channel of the operators whose checks are
    c0, c0 ^ h and c0 ^ g, for the pair (h, g), found by their positions
    among the checks: three walks of the count's table, whatever the
    number of operators.  W(sub) = {0, h, g, h ^ g} lies in W, the count
    is monotone in W, and it never exceeds 4^k, so 4^k on the sub-channel
    is 4^k on the channel.  Each candidate builder keeps its last 256
    candidates (a bounded ``lru_cache``, keyed by (L, w, n) or by
    ``_clique_key(h, g >> n, n)``: the clique construction reads only g's
    z half, and keys that build the same candidate are mapped to one),
    and the verifying count keeps its last 256 groups' tables; the count
    itself runs on every call, so a kept candidate is verified against
    each channel it is returned for.  Every step is polynomial in n and
    the number of noise operators, so ``limit`` (a qubit cap that raises
    CapacityError) is off by default.
    """
    n = ch.n
    if limit is not None and n > limit:
        raise CapacityError(f"classification limited to {limit} qubits, got {n}")
    checks = [op.x | op.z << n for op, _ in ch.noise]
    c0 = min(checks)
    shifted = sorted(c ^ c0 for c in checks) if c0 else sorted(checks)
    pair = _first_anticommuting_pair(shifted, n)
    if pair is None:
        # L walked in ascending order without being built: w is found in
        # at most |W| + 1 steps, not the 2^n of the whole Lagrangian
        lag = f2.complete_lagrangian(f2.reduce(shifted, n).rows, n)
        diffs = difference_set(ch)
        w = next((v for v in f2.ascending_span(lag) if v not in diffs), None)
        if w is None:
            # L = W, so the shifted checks span W and complete_lagrangian
            # returned their reduced basis, which is W's canonical basis
            return ClassificationResult(
                "MaximalStabilizerChannel", _group_from_rows(lag, n), 1, 0
            )
        candidate = _commuting_anticlique_candidate(lag, w, n)
        if is_anticlique(ch, candidate):
            return ClassificationResult("Anticlique", candidate, 1, 0)
        kind = "anticlique"
    else:
        h, g = pair
        candidate = _noncommuting_clique_candidate(*_clique_key(h, g >> n, n))
        # the operators of the checks c0, c0 ^ h and c0 ^ g, distinct as
        # h, g and h ^ g are nonzero: W(sub) = {0, h, g, h ^ g}
        noise, at = ch.noise, checks.index
        sub = PauliChannel(
            n,
            (
                (noise[at(c0)][0], 1 / 3),
                (noise[at(c0 ^ h)][0], 1 / 3),
                (noise[at(c0 ^ g)][0], 1 / 3),
            ),
        )
        if is_clique(sub, candidate):
            return ClassificationResult(
                "Clique", candidate, 1 << (2 * candidate.k), 0
            )
        kind = "clique"
    return ClassificationResult(
        "Inconsistent",
        None,
        None,
        0,
        diagnostic=(
            "constructed %s candidate %s failed verification for noise {%s}; "
            "this contradicts the trichotomy and is a reportable finding"
            % (kind, candidate, ", ".join(str(op) for op in ch.operators))
        ),
    )
