"""GF(2) core: packed vectors, twisted form, subspace machinery."""

from __future__ import annotations

import functools
import random
from operator import xor

import pytest
from hypothesis import given, settings, strategies as st

from qramsey import channel, f2, ramsey, selftest, stabilizer
from qramsey.pauli import PauliOperator

import reference
from helpers import (
    clear_classify_memos,
    low_weight_channel,
    one_row_starts,
    random_isotropic_rows,
    sparse_vectors,
)


def vec(xs: str, zs: str) -> int:
    """Build a packed vector from display strings, qubit 1 leftmost."""
    n = len(xs)
    assert len(zs) == n
    v = 0
    for j, c in enumerate(xs):
        v |= int(c) << j
    for j, c in enumerate(zs):
        v |= int(c) << (n + j)
    return v


class TestTwistedDot:
    def test_anticommuting_x_z(self):
        # n=1: X against Z
        assert f2.twisted_dot(vec("1", "0"), vec("0", "1"), 1) == 1

    def test_self_pairing_vanishes(self):
        # the form is alternating: v * v = <a,b> + <b,a> = 0
        for v in range(16):
            assert f2.twisted_dot(v, v, 2) == 0

    def test_xx_vs_zz_commute(self):
        assert f2.twisted_dot(vec("11", "00"), vec("00", "11"), 2) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            f2.twisted_dot(1 << 2, 0, 1)

    @given(st.integers(1, 4), st.data())
    @settings(deadline=None)
    def test_bilinear_and_symmetric(self, n, data):
        top = (1 << (2 * n)) - 1
        u = data.draw(st.integers(0, top))
        v = data.draw(st.integers(0, top))
        w = data.draw(st.integers(0, top))
        assert f2.twisted_dot(u, v, n) == f2.twisted_dot(v, u, n)
        assert (
            f2.twisted_dot(u ^ v, w, n)
            == (f2.twisted_dot(u, w, n) + f2.twisted_dot(v, w, n)) % 2
        )

    def test_swap_halves_realizes_form(self):
        for u in range(16):
            for v in range(16):
                expected = f2.twisted_dot(u, v, 2)
                assert ((u & f2.swap_halves(v, 2)).bit_count() & 1) == expected


class TestReduce:
    def test_empty(self):
        assert f2.reduce([], 2).rows == ()

    def test_dependent_rows_collapse(self):
        b = f2.reduce([3, 5, 6], 2)  # 6 = 3 ^ 5
        assert b.dim == 2

    def test_canonical_form_is_span_invariant(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randrange(1, 4)
            vecs = [rng.randrange(1 << (2 * n)) for _ in range(rng.randrange(1, 5))]
            a = f2.reduce(vecs, n)
            shuffled = vecs[:]
            rng.shuffle(shuffled)
            mixed = shuffled + [shuffled[0] ^ v for v in shuffled]
            assert f2.reduce(mixed, n) == a

    def test_pivots_strictly_increase(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randrange(1, 4)
            vecs = [rng.randrange(1 << (2 * n)) for _ in range(4)]
            rows = f2.reduce(vecs, n).rows
            pivots = [(r & -r).bit_length() - 1 for r in rows]
            assert pivots == sorted(set(pivots))
            # reduced: no row contains another row's pivot
            for i, r in enumerate(rows):
                for j, p in enumerate(pivots):
                    if i != j:
                        assert not (r >> p) & 1

    @given(st.integers(1, 3), st.lists(st.integers(0, 63), max_size=6))
    @settings(deadline=None)
    def test_membership_agrees_with_closure(self, n, vecs):
        top = (1 << (2 * n)) - 1
        vecs = [v & top for v in vecs]
        basis = f2.reduce(vecs, n)
        span = set(basis.span())
        assert len(span) == 1 << basis.dim
        for v in span:
            assert f2.in_span(v, basis)
            assert f2.reduce_mod(v, basis) == 0


class TestTwistedKernel:
    def test_out_of_range_generator_rejected(self):
        # bit 9 lies outside F_2^4; swapping halves would silently drop it
        with pytest.raises(ValueError, match="does not fit"):
            f2.twisted_kernel([1 << 9], 2)
        with pytest.raises(ValueError, match="does not fit"):
            f2.twisted_kernel([1, -1], 2)

    def test_single_z_generator(self):
        # n=1, generator (0|1): kernel is {0, (0|1)}
        k = f2.twisted_kernel([vec("0", "1")], 1)
        assert k.dim == 1
        assert set(k.span()) == {0, vec("0", "1")}

    def test_empty_generators_full_space(self):
        assert f2.twisted_kernel([], 2).dim == 4

    def test_rank_nullity(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randrange(1, 5)
            gens = [rng.randrange(1 << (2 * n)) for _ in range(rng.randrange(0, n + 1))]
            rank = f2.reduce(gens, n).dim
            kernel = f2.twisted_kernel(gens, n)
            assert kernel.dim == 2 * n - rank
            for v in kernel.span():
                assert all(f2.twisted_dot(v, g, n) == 0 for g in gens)

    def test_matches_brute_force_orthogonal_complement(self):
        # against the definition: the canonical basis of every vector of
        # F_2^{2n} that commutes with each generator, over empty,
        # dependent and repeated generator sets
        rng = random.Random(83)
        for n in range(1, 5):
            sets = [[]]
            for _ in range(30):
                gens = [rng.randrange(1 << (2 * n)) for _ in range(rng.randrange(1, 2 * n + 2))]
                if len(gens) > 1 and rng.getrandbits(1):
                    gens.append(gens[0] ^ gens[-1])
                if rng.getrandbits(1):
                    gens.append(rng.choice(gens))
                sets.append(gens)
            for gens in sets:
                orthogonal = [
                    v
                    for v in range(1 << (2 * n))
                    if all(f2.twisted_dot(v, g, n) == 0 for g in gens)
                ]
                assert f2.twisted_kernel(gens, n).rows == f2.reduce(orthogonal, n).rows, (
                    n,
                    gens,
                )


class TestExtendBasis:
    """The reference greedy extension that the anticlique basis is checked against."""

    def test_partial_preserved_and_completed(self):
        partial = f2.F2Basis(2, (vec("10", "00"),))
        result = reference.extend_basis(partial, range(16))
        assert result.rows[0] == vec("10", "00")
        assert result.dim == 4
        assert f2.reduce(result.rows, 2).dim == 4

    def test_empty_partial(self):
        out = reference.extend_basis(f2.F2Basis(1, ()), [vec("1", "1")])
        assert out.rows == (vec("1", "1"),)

    def test_full_partial_unchanged(self):
        partial = f2.reduce([1, 2, 4, 8], 2)
        assert reference.extend_basis(partial, range(16)).rows == partial.rows

    def test_insufficient_candidates_rejected(self):
        partial = f2.F2Basis(2, (vec("10", "00"),))
        with pytest.raises(ValueError, match="do not suffice"):
            reference.extend_basis(partial, [vec("01", "00")])

    def test_greedy_is_smallest_admissible(self):
        rng = random.Random(19)
        for _ in range(100):
            n = rng.randrange(1, 4)
            cand = [rng.randrange(1 << (2 * n)) for _ in range(6)]
            out = reference.extend_basis(f2.F2Basis(n, ()), cand)
            # each chosen row is the smallest candidate outside the span so far
            chosen = list(out.rows)
            for i, row in enumerate(chosen):
                prefix = f2.reduce(chosen[:i], n)
                smaller = [
                    c for c in sorted(set(cand)) if c < row and not f2.in_span(c, prefix)
                ]
                assert not smaller


class TestCosets:
    def test_example_two_cosets(self):
        sub = f2.reduce([vec("00", "11")], 2)
        assert f2.coset_count([0, vec("11", "00")], sub) == 2

    def test_same_coset_merges(self):
        sub = f2.reduce([vec("00", "11")], 2)
        hits = [vec("11", "00"), vec("11", "00") ^ vec("00", "11")]
        assert f2.coset_count(hits, sub) == 1

    def test_count_matches_brute_force_partition(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randrange(1, 4)
            d = rng.randrange(0, n + 1)
            candidates = list(f2.enumerate_isotropic(n, d))
            sub = rng.choice(candidates)
            pool = f2.twisted_kernel(sub.rows, n).span()
            hits = [rng.choice(pool) for _ in range(rng.randrange(1, 8))]
            sub_span = set(sub.span())
            classes = {frozenset(h ^ s for s in sub_span) for h in hits}
            # as drawn, reduced first (so clear of every pivot of sub), and
            # as generators, which coset_count reads once
            reduced = [f2.reduce_mod(h, sub) for h in hits]
            for given in (hits, reduced, iter(hits), (h for h in hits + reduced)):
                assert f2.coset_count(given, sub) == len(classes)


class TestEnumerateIsotropic:
    def test_counts_against_brute_force_n2(self):
        for d in range(3):
            ours = {b.rows for b in f2.enumerate_isotropic(2, d)}
            oracle = {
                rows for rows in reference.brute_subspaces(2, d) if reference.is_isotropic(rows, 2)
            }
            assert ours == oracle

    def test_frozen_counts(self):
        # brute-force-oracle values, frozen: 15 lines and 15 Lagrangian planes
        assert sum(1 for _ in f2.enumerate_isotropic(2, 1)) == 15
        assert sum(1 for _ in f2.enumerate_isotropic(2, 2)) == 15
        # n=3 layer sizes from the ordered-tuple counting formula
        assert sum(1 for _ in f2.enumerate_isotropic(3, 2)) == 315
        assert sum(1 for _ in f2.enumerate_isotropic(3, 3)) == 135

    def test_zero_dimension(self):
        assert [b.rows for b in f2.enumerate_isotropic(1, 0)] == [()]

    def test_counts_match_closed_form(self):
        cases = [(n, d) for n in range(1, 5) for d in range(n + 1)]
        cases += [(5, d) for d in range(3)]
        for n, d in cases:
            count = sum(1 for _ in f2.enumerate_isotropic(n, d))
            assert count == reference.isotropic_count(n, d), (n, d)

    def test_sequence_matches_reference(self):
        # search reports witnesses in this order, so the order is pinned
        for n in range(1, 4):
            for d in range(n + 1):
                ours = [b.rows for b in f2.enumerate_isotropic(n, d)]
                assert ours == reference.enumerate_isotropic(n, d), (n, d)

    def test_chunk_boundaries(self, monkeypatch):
        # small chunks put chunk boundaries inside every parent group and
        # inside the output pass, down to one parent per chunk
        expected = {
            (n, d): reference.enumerate_isotropic(n, d)
            for n in range(1, 4)
            for d in range(n + 1)
        }
        expected[4, 2] = [b.rows for b in f2.enumerate_isotropic(4, 2)]
        for chunk in (1, 37):
            monkeypatch.setattr(f2, "_CHUNK_ELEMENTS", chunk)
            for (n, d), rows in expected.items():
                ours = [b.rows for b in f2.enumerate_isotropic(n, d)]
                assert ours == rows, (chunk, n, d)

    def test_all_emitted_isotropic_and_canonical(self):
        for n in (3, 4):
            for d in range(n + 1):
                for b in f2.enumerate_isotropic(n, d):
                    assert b.dim == d
                    assert reference.is_isotropic(b.rows, n)
                    assert f2.reduce(b.rows, n).rows == b.rows

    def test_deterministic_order(self):
        first = [b.rows for b in f2.enumerate_isotropic(3, 2)]
        second = [b.rows for b in f2.enumerate_isotropic(3, 2)]
        assert first == second == sorted(first)

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            list(f2.enumerate_isotropic(2, 3))
        with pytest.raises(ValueError):
            list(f2.enumerate_isotropic(2, -1))


class TestLagrangianCompletion:
    def test_keeps_input_prefix(self):
        rows = f2.complete_lagrangian([vec("00", "11")], 2)
        assert rows[0] == vec("00", "11")
        assert len(rows) == 2
        assert reference.is_isotropic(rows, 2)
        assert f2.reduce(rows, 2).dim == 2

    def test_from_scratch_picks_x_first(self):
        assert f2.complete_lagrangian([], 1) == (vec("1", "0"),)

    def test_random_inputs(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randrange(1, 5)
            d = rng.randrange(0, n + 1)
            start = selftest._random_isotropic_rows(rng, n, d)
            rows = f2.complete_lagrangian(start, n)
            assert rows[: len(start)] == tuple(start)
            assert len(rows) == n
            assert reference.is_isotropic(rows, n)
            assert f2.reduce(rows, n).dim == n

    def test_anticommuting_input_rejected(self):
        with pytest.raises(ValueError, match="not isotropic"):
            f2.complete_lagrangian([vec("1", "0"), vec("0", "1")], 1)

    def test_matches_smallest_admissible_by_brute_force(self):
        # the definition, step by step: the smallest nonzero kernel vector
        # outside the span so far, found by scanning the whole kernel span;
        # seeded starts of every size, and every one-row start at n <= 3
        rng = random.Random(41)
        starts = [
            (n, selftest._random_isotropic_rows(rng, n, d))
            for n in range(1, 6)
            for d in range(n + 1)
            for _ in range(4)
        ]
        starts += [(n, [h]) for n in range(1, 4) for h in range(1, 1 << (2 * n))]
        for n, start in starts:
            expected = list(start)
            while len(expected) < n:
                kernel = f2.twisted_kernel(expected, n)
                base = f2.reduce(expected, n)
                expected.append(
                    min(c for c in kernel.span() if c and not f2.in_span(c, base))
                )
            assert f2.complete_lagrangian(start, n) == tuple(expected), (n, start)


class TestEchelon:
    def test_top_bit_form(self):
        rng = random.Random(43)
        for _ in range(200):
            n = rng.randrange(1, 5)
            vecs = [rng.randrange(1 << (2 * n)) for _ in range(rng.randrange(0, 7))]
            rows = f2.echelon(vecs)
            tops = [r.bit_length() - 1 for r in rows]
            assert list(rows) == sorted(rows) and 0 not in rows
            assert tops == sorted(set(tops))
            for i, r in enumerate(rows):
                for j, t in enumerate(tops):
                    if i != j:
                        assert not (r >> t) & 1
            assert f2.reduce(rows, n) == f2.reduce(vecs, n)

    def test_ascending_span_matches_sorted_span(self):
        rng = random.Random(47)
        for n in range(1, 6):
            for d in range(n + 1):
                for _ in range(4):
                    rows = selftest._random_isotropic_rows(rng, n, d)
                    expected = sorted(f2.F2Basis(n, tuple(rows)).span())
                    assert list(f2.ascending_span(rows)) == expected

    def test_ascending_span_of_dependent_rows(self):
        assert list(f2.ascending_span([3, 5, 6])) == [0, 3, 5, 6]
        assert list(f2.ascending_span([])) == [0]


class TestSymplecticPartners:
    def test_z_gets_x(self):
        assert f2.symplectic_partners([vec("0", "1")], 1) == (vec("1", "0"),)

    def test_zi_iz_get_xi_ix(self):
        rows = [vec("00", "10"), vec("00", "01")]
        assert f2.symplectic_partners(rows, 2) == (vec("10", "00"), vec("01", "00"))

    def test_duality_pattern_random(self):
        rng = random.Random(37)
        for _ in range(100):
            n = rng.randrange(1, 5)
            rows = selftest._random_isotropic_rows(rng, n, n)
            partners = f2.symplectic_partners(rows, n)
            for i, u in enumerate(partners):
                for j, h in enumerate(rows):
                    assert f2.twisted_dot(u, h, n) == (1 if i == j else 0)
                for v in partners[i + 1:]:
                    assert f2.twisted_dot(u, v, n) == 0
            assert f2.reduce((*rows, *partners), n).dim == 2 * n

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            f2.symplectic_partners([vec("00", "10")], 2)

    def test_matches_column_tracking_reference(self):
        # the partners read off the tracked reduction are the former
        # elimination's: on every Lagrangian basis at n <= 3, in both
        # orders, and on seeded completions up to n = 64
        checked = 0
        for n in range(1, 4):
            for basis in f2.enumerate_isotropic(n, n):
                for rows in (basis.rows, basis.rows[::-1]):
                    assert f2.symplectic_partners(rows, n) == reference.symplectic_partners(
                        rows, n
                    ), (n, rows)
                    checked += 1
        rng = random.Random(89)
        for n in range(4, 65):
            start = random_isotropic_rows(rng, n, rng.randrange(n + 1))
            rows = f2.complete_lagrangian(start, n)
            assert f2.symplectic_partners(rows, n) == reference.symplectic_partners(rows, n), n
            checked += 1
        assert checked == 2 * (3 + 15 + 135) + 61

    def test_rejections_in_order(self):
        # range, then dependence, then isotropy
        with pytest.raises(ValueError, match="does not fit"):
            f2.symplectic_partners((1, 1, 1 << 6), 3)
        with pytest.raises(ValueError, match="dependent"):
            f2.symplectic_partners((1, 2, 3), 3)
        with pytest.raises(ValueError, match="dependent"):
            f2.symplectic_partners((1, 8, 1), 3)
        with pytest.raises(ValueError, match="not isotropic"):
            f2.symplectic_partners((1, 4), 2)


class TestReduceTracked:
    def test_rows_are_reduced_and_name_their_inputs(self):
        # every row is the XOR of the inputs it names; the nonzero rows are
        # the canonical basis, and each dependent input leaves one row 0
        # after them, naming a relation
        rng = random.Random(97)
        relations = 0
        for c in range(500):
            n = 1 + c % 12
            vecs = _random_vectors(rng, n)
            if vecs and rng.random() < 0.5:
                # sums of earlier inputs, so the relations span several inputs
                picks = rng.sample(vecs, rng.randrange(1, len(vecs) + 1))
                vecs.insert(rng.randrange(len(vecs) + 1), functools.reduce(xor, picks))
            tracked = f2._reduce_tracked(vecs, n)
            assert len(tracked) == len(vecs)
            for row, names in tracked:
                assert 0 <= row < 1 << (2 * n)
                assert 0 < names < 1 << len(vecs)
                named = [v for i, v in enumerate(vecs) if (names >> i) & 1]
                assert functools.reduce(xor, named, 0) == row
            nonzero = tuple(row for row, _ in tracked if row)
            assert nonzero == f2.reduce(vecs, n).rows
            assert tuple(row for row, _ in tracked[: len(nonzero)]) == nonzero
            pivots = [row & -row for row in nonzero]
            assert pivots == sorted(set(pivots))
            assert not any(
                row & p for i, row in enumerate(nonzero) for j, p in enumerate(pivots) if i != j
            )
            relations += len(vecs) - len(nonzero)
            # the names are independent: no input set is named twice
            assert len(f2.echelon(names for _, names in tracked)) == len(vecs)
        assert relations > 300


class TestQubitCount:
    """Every entry point rejects n < 1, also when it has no vector to check."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: f2.reduce([], 0),
            lambda: f2.twisted_kernel([], 0),
            lambda: f2.complete_lagrangian([], 0),
            lambda: f2.complete_lagrangian([], -3),
            lambda: f2.symplectic_partners((), 0),
            lambda: f2.symplectic_partners((), -1),
        ],
        ids=[
            "reduce",
            "twisted_kernel",
            "complete_lagrangian_0",
            "complete_lagrangian_negative",
            "symplectic_partners_0",
            "symplectic_partners_negative",
        ],
    )
    def test_nonpositive_rejected(self, call):
        with pytest.raises(ValueError, match="qubit count must be positive"):
            call()


def _channel_of(v: int, n: int) -> channel.PauliChannel:
    # built by hand: the parser and from_noise never make an out-of-range x
    return channel.PauliChannel(n, ((PauliOperator(n, 0, v, 0), 1.0),))


class TestVectorRange:
    """Every public entry rejects a vector outside F_2^{2n}, checked where it enters."""

    @pytest.mark.parametrize("v", [-1, 1 << 4], ids=["negative", "too_wide"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda v: f2.reduce([1, v], 2),
            lambda v: f2.reduce_mod(v, f2.reduce([1], 2)),
            lambda v: f2.in_span(v, f2.reduce([1], 2)),
            lambda v: f2.twisted_dot(1, v, 2),
            lambda v: f2.twisted_dot(v, 1, 2),
            lambda v: f2.twisted_kernel([1, v], 2),
            lambda v: f2.complete_lagrangian([v], 2),
            lambda v: f2.symplectic_partners((1, v), 2),
            lambda v: f2.coset_count([0, v], f2.reduce([1], 2)),
            lambda v: f2.coset_count(iter([2, v, 0]), f2.F2Basis(2, ())),
            lambda v: f2.format_vector(v, 2),
            lambda v: ramsey.compressed_dimension(
                _channel_of(v, 2), stabilizer.from_string("ZI")
            ),
        ],
        ids=[
            "reduce",
            "reduce_mod",
            "in_span",
            "twisted_dot_left",
            "twisted_dot_right",
            "twisted_kernel",
            "complete_lagrangian",
            "symplectic_partners",
            "coset_count",
            "coset_count_no_pivots",
            "format_vector",
            "compressed_dimension",
        ],
    )
    def test_out_of_range_rejected(self, call, v):
        with pytest.raises(ValueError, match=r"does not fit in F_2\^4"):
            call(v)

    @pytest.mark.parametrize("x", [4, 8])
    def test_operator_bits_past_qubit_n_rejected(self, x):
        # the check vector x | z << 2 of x = 8 would fit in F_2^4, read as Z
        # on qubit 2: the operator is refused where it is built
        with pytest.raises(ValueError, match=r"does not fit in F_2\^4"):
            _channel_of(x, 2)

    def test_mixed_qubit_counts_rejected(self):
        ops = (PauliOperator(2, 0, 0, 0), PauliOperator(3, 0, 1, 0))
        with pytest.raises(ValueError, match=r"operator 2 \(XII\) acts on 3 qubits, expected 2"):
            channel.PauliChannel(2, tuple((op, 0.5) for op in ops))


def _random_vectors(rng: random.Random, n: int) -> list[int]:
    # zero, repeats and dependent sums come up often at this size
    return [rng.randrange(1 << (2 * n)) for _ in range(rng.randrange(0, 2 * n + 3))]


class TestPinnedToPerStepCode:
    """f2 against its first-written, one-step-at-a-time forms in ``reference``."""

    def test_complete_lagrangian_on_isotropic_starts(self):
        # seeded starts of every size, every one-row start at n <= 5, the
        # one-row edge cases up to n = 32, and every canonical isotropic
        # basis at n <= 3 in given and reversed order; every added vector
        # is x-only, which is the lemma in complete_lagrangian
        rng = random.Random(53)
        starts = [
            (n, selftest._random_isotropic_rows(rng, n, d))
            for n in range(1, 13)
            for d in range(n + 1)
            for _ in range(3)
        ]
        starts += [(n, [h]) for n in range(1, 6) for h in range(1, 1 << (2 * n))]
        starts += [
            (n, [h])
            for n in (*range(6, 13), 16, 20, 24, 28, 32)
            for h in one_row_starts(rng, n)
        ]
        starts += [
            (n, order(basis.rows))
            for n in range(1, 4)
            for d in range(n + 1)
            for basis in f2.enumerate_isotropic(n, d)
            for order in (list, lambda rows: rows[::-1])
        ]
        for n, start in starts:
            full = f2.complete_lagrangian(start, n)
            assert full == reference.complete_lagrangian(start, n), (n, start)
            assert all(v < 1 << n for v in full[len(start) :]), (n, start)

    def test_complete_lagrangian_on_low_weight_starts(self):
        # sparse starts often hold x-only rows, so the added vectors skip
        # the highest bits of a nonzero S_0
        rng = random.Random(59)
        for n in range(2, 13):
            for _ in range(4):
                start: list[int] = []
                for _ in range(rng.randrange(0, n + 1)):
                    q = rng.randrange(n)
                    v = (1 << q) << (n * rng.randrange(2))
                    if f2.reduce((*start, v), n).dim > len(start) and all(
                        f2.twisted_dot(v, r, n) == 0 for r in start
                    ):
                        start.append(v)
                assert f2.complete_lagrangian(start, n) == reference.complete_lagrangian(
                    start, n
                ), (n, start)

    def test_reduce_kernel_and_reduce_mod_on_random_sets(self):
        rng = random.Random(61)
        for _ in range(600):
            n = rng.randrange(1, 13)
            vecs = _random_vectors(rng, n)
            basis = f2.reduce(vecs, n)
            assert basis == reference.reduce(vecs, n)
            gens = vecs[: rng.randrange(0, 2 * n + 1)]
            assert f2.twisted_kernel(gens, n) == reference.twisted_kernel(gens, n)
            for v in [*vecs, rng.randrange(1 << (2 * n))]:
                assert f2.reduce_mod(v, basis) == reference.reduce_mod(v, basis)

    def test_reduce_and_echelon_on_dense_and_sparse_rows(self):
        # the held-pivot reductions of _rref and echelon against the
        # row-at-a-time forms: dense random rows, sparse rows of one to
        # three bits, unit rows in shuffled order (full rank, each row
        # holding no pivot yet), and half the unit rows, then the all-ones
        # row, which holds every pivot so far, and its sums with dense rows
        rng = random.Random(71)
        for n in range(1, 9):
            width = 2 * n
            units = [1 << b for b in range(width)]
            for _ in range(20):
                dense = _random_vectors(rng, n)
                sparse = sparse_vectors(rng, n)
                shuffled = rng.sample(units, width)
                ones = (1 << width) - 1
                piled = [*rng.sample(units, n), ones, *(ones ^ v for v in dense)]
                for vecs in (dense, sparse, shuffled, piled, dense + sparse):
                    assert f2.reduce(vecs, n) == reference.reduce(vecs, n), (n, vecs)
                    assert f2.echelon(vecs) == reference.echelon(vecs), (n, vecs)
                    tracked = f2._reduce_tracked(vecs, n)
                    for row, names in tracked:
                        picked = (v for i, v in enumerate(vecs) if names >> i & 1)
                        assert functools.reduce(xor, picked, 0) == row, (n, vecs)
                    assert tuple(r for r, _ in tracked if r) == reference.reduce(vecs, n).rows

    def test_classify_json_matches_per_step_completion(self, monkeypatch):
        rng = random.Random(67)
        channels = []
        for n in range(6, 17):
            for _ in range(2):
                channels.append(low_weight_channel(rng, n))
        new = [ramsey.classify(ch).to_json_dict() for ch in channels]
        # each channel completes one Lagrangian: in the commuting branch, or
        # in the clique candidate, which a warm memo would not rebuild
        completions = []

        def per_step_completion(rows, n):
            completions.append(n)
            return reference.complete_lagrangian(rows, n)

        monkeypatch.setattr(f2, "complete_lagrangian", per_step_completion)
        old = []
        for ch in channels:
            clear_classify_memos()
            old.append(ramsey.classify(ch).to_json_dict())
        assert completions == [ch.n for ch in channels]
        assert new == old
        assert {d["verdict"] for d in new} <= {"Clique", "Anticlique"}

    def test_clique_classify_reads_two_kernels(self, monkeypatch):
        # a cold clique classify reads exactly two kernels: X at width n,
        # for the completion of h in the clique candidate, then the count
        # table's L(Z(R)) at width 2n
        widths = []
        inner = f2._kernel_rows

        def counted(constraints, pivots, width):
            widths.append(width)
            return inner(constraints, pivots, width)

        monkeypatch.setattr(f2, "_kernel_rows", counted)
        rng = random.Random(73)
        for n in (16, 64):
            for _ in range(2):
                ch = low_weight_channel(rng, n)
                clear_classify_memos()
                widths.clear()
                assert ramsey.classify(ch).tag == "Clique"
                assert widths == [n, 2 * n], n
