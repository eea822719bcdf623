"""Decision procedures: compressed dimension, witnesses, search, trichotomy.

The dense oracle module is used freely as the ground truth; exhaustive
agreement over the whole n=2 landscape lives in the acceptance suite,
so here the focus is the contracts and the worked examples.
"""

import functools
import random
from itertools import combinations
from operator import xor

import numpy as np
import pytest

from qramsey import channel, f2, oracle, ramsey, selftest, stabilizer
from qramsey.pauli import CapacityError, PauliOperator, hermitian_rep, identity, parse

import reference
from helpers import (
    CLASSIFY_MEMOS,
    anticommuting_partner,
    clear_classify_memos,
    dimension_pair,
    low_weight_channel,
    low_weight_vectors,
    make_channel,
    random_channel,
    random_group,
    random_isotropic_rows,
    random_symplectic_map,
    sparse_vectors,
    vector_channel,
    x_only_pairs,
)


def is_maximal_by_definition(diffs, n):
    """Whether the difference set is exactly a Lagrangian, by the definition."""
    basis = f2.reduce(diffs, n)
    return (
        len(diffs) == 1 << n
        and set(basis.span()) == diffs
        and not any(f2.twisted_dot(a, b, n) for a, b in combinations(basis.rows, 2))
    )


def lagrangian_and_w(ch):
    """The Lagrangian L and the w of L outside W that classify builds."""
    n = ch.n
    diffs = channel.difference_set(ch)
    lag = f2.complete_lagrangian(f2.reduce(reference.shifted_checks(ch), n).rows, n)
    return lag, next(v for v in f2.ascending_span(lag) if v not in diffs)


MAXIMAL_X = channel.maximal_stabilizer_channel(stabilizer.from_string("XI,IX"))
FULL_P2 = vector_channel(range(16), 2)


class TestCompressedDimension:
    def test_maximal_channel_against_zz(self):
        assert ramsey.compressed_dimension(MAXIMAL_X, stabilizer.from_string("ZZ")) == 2

    def test_identity_channel_is_always_one(self):
        ident = make_channel("II")
        for text in ("ZZ", "ZI", "ZI,IZ", "XX,ZZ"):
            assert ramsey.compressed_dimension(ident, stabilizer.from_string(text)) == 1

    def test_full_pauli_channel_saturates(self):
        assert ramsey.compressed_dimension(FULL_P2, stabilizer.from_string("ZI")) == 4

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="qubits"):
            ramsey.compressed_dimension(make_channel("X"), stabilizer.from_string("ZI"))

    def test_monotone_bounds(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randrange(1, 4)
            ch = random_channel(rng, n, 4)
            group = random_group(rng, n)
            dim = ramsey.compressed_dimension(ch, group)
            assert 1 <= dim <= min(
                len(channel.difference_set(ch)), 1 << (2 * group.k)
            )

    def test_agrees_with_dense_oracle(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(1, 4)
            ch = random_channel(rng, n, 4)
            group = random_group(rng, n)
            assert (
                ramsey.compressed_dimension(ch, group)
                == oracle.dense_compressed_dimension(ch, group).rank
            )


    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_maximal_channels_hit_two_to_the_k_cosets(self, n):
        # the paper's negative result in closed form: a maximal channel's
        # difference set is a Lagrangian L, whose hits on a code R are
        # L ∩ R^⊥ (dimension n - d + j, j = dim(L ∩ R)) modulo L ∩ R, so
        # every count is 2^k.  Random codes mostly have j = 0, codes cut
        # from L's generators have j = d.
        rng = random.Random(n)
        group = random_group(rng, n, n)
        ch = channel.maximal_stabilizer_channel(group)
        for k in range(n + 1):
            codes = [
                random_group(rng, n, n - k),
                stabilizer.validate(group.generators[: n - k], n=n),
            ]
            for code in codes:
                assert ramsey.compressed_dimension(ch, code) == 2**k, (n, k, str(code))

    def test_matches_definition_on_every_n1_pair(self):
        codes = [
            ramsey._group_from_rows(basis.rows, 1)
            for d in (0, 1)
            for basis in f2.enumerate_isotropic(1, d)
        ]
        for size in range(1, 5):
            for vectors in combinations(range(4), size):
                ch = vector_channel(vectors, 1)
                for code in codes:
                    assert ramsey.compressed_dimension(
                        ch, code
                    ) == reference.compressed_dimension(ch, code), (vectors, str(code))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_definition_on_seeded_pairs(self, n):
        rng = random.Random(100 + n)
        pairs = [(random_channel(rng, n, 11), random_group(rng, n)) for _ in range(30)]
        # noise drawn from a few cosets of L(Z(R)), so that the checks
        # sharing a representative modulo L(Z(R)) fall in several L(R)
        # cosets
        for _ in range(30):
            group = random_group(rng, n)
            rows = stabilizer.centralizer_image(group).rows
            offsets = [rng.randrange(1 << (2 * n)) for _ in range(rng.randrange(1, 4))]
            vectors = set()
            for _ in range(rng.randrange(2, 16)):
                v = rng.choice(offsets)
                for r in rows:
                    if rng.getrandbits(1):
                        v ^= r
                vectors.add(v)
            pairs.append((vector_channel(sorted(vectors), n), group))
        # classify's witnesses, whose counts are 1 or 4^k
        for _ in range(10):
            ch = random_channel(rng, n, 2 * n + 1)
            pairs.append((ch, ramsey.classify(ch).witness))
        counts = []
        for ch, group in pairs:
            counts.append(ramsey.compressed_dimension(ch, group))
            assert counts[-1] == reference.compressed_dimension(ch, group), (
                [str(op) for op in ch.operators],
                str(group),
            )
        assert any(c > 2 for c in counts[30:60])

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_matches_definition_on_affine_boundary_classes(self, n, monkeypatch):
        # one class of 4, 8, 16 or 32 L(R) representatives that is a coset
        # s0 + V, then that class less one vector, with one vector moved
        # off the coset inside L(Z(R)), and with one moved to another
        # class; k = 3, so L(Z(R)) holds 64 cosets of L(R).  Of these, only
        # the whole classes of 16 and 32 are counted without pairs
        rng = random.Random(200 + n)
        calls = self._count_work(monkeypatch)
        for j in (2, 3, 4, 5):
            for _ in range(3):
                group = random_group(rng, n, n - 3)
                stabilizers = group.check_basis().rows
                centralizer = stabilizer.centralizer_image(group)

                def member():
                    # a random vector of L(Z(R))
                    return functools.reduce(
                        xor, (r for r in centralizer.rows if rng.getrandbits(1)), 0
                    )

                def outside(vectors):
                    # a vector of L(Z(R)) outside span(vectors) + L(R)
                    while True:
                        v = member()
                        rows = (*vectors, v, *stabilizers)
                        if f2.reduce(rows, n).dim == len(rows):
                            return v

                gens = []
                while len(gens) < j:
                    gens.append(outside(gens))
                c0 = rng.randrange(1 << (2 * n))
                coset = [c0 ^ v for v in f2.reduce(gens, n).span()]
                away = next(
                    v
                    for v in iter(lambda: rng.randrange(1 << (2 * n)), None)
                    if reference.reduce_mod(v, centralizer)
                )
                variants = [
                    coset,
                    coset[1:],
                    [c0 ^ outside(gens), *coset[1:]],
                    [c0 ^ away, *coset[1:]],
                ]
                for i, vectors in enumerate(variants):
                    ch = vector_channel(vectors, n)
                    calls["pairs"] = 0
                    count = ramsey.compressed_dimension(ch, group)
                    assert count == reference.compressed_dimension(ch, group), (j, i)
                    if i == 0:
                        assert count == 1 << j
                        assert (calls["pairs"] == 0) == (j >= 4), j

    def test_counts_on_every_call_with_the_table_kept(self, monkeypatch):
        # equal groups presented differently share one table; with it kept,
        # every call still walks it once per check and counts afresh
        memo = ramsey._count_table
        memo.cache_clear()
        first = stabilizer.from_string("ZZI,IZZ")
        second = stabilizer.from_string("ZIZ,IZZ")
        assert first == second and first is not second
        channels = [
            make_channel("III", "XII"),
            make_channel("III", "XII", "IXI", "IIX", "XXX"),
            make_channel("ZII", "IYI", "XXZ"),
        ]
        calls = self._count_work(monkeypatch)
        for ch in channels:
            for group in (first, second):
                expected = reference.compressed_dimension(ch, group)
                calls["reductions"] = 0
                assert ramsey.compressed_dimension(ch, group) == expected
                m = len(ch.noise)
                assert m <= calls["reductions"] <= m + 4**group.k
        info = memo.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2 * len(channels) - 1, 1)

    @staticmethod
    def _count_work(monkeypatch):
        """Spies on the reductions, the pairs XORed and the difference set.

        compressed_dimension reduces a check by one walk of its group's
        table (``ramsey._count_table``): it reads the pivot mask once, as
        ``c & pivots``, then looks up the row of each pivot held.  The spy
        hands it tables whose pivot mask counts its reads, one reduction
        per walk, and whose rows count their lookups: ``walks`` holds
        [c & pivots, rows looked up] per walk.  Each ``f2._reduce_mod``
        call counts once.  The reductions that build a table are made once
        per group, not per check, and are not counted.  Pairs are the ones
        drawn from ``ramsey.combinations``.
        """
        calls = {"reductions": 0, "pairs": 0, "difference_set": 0, "walks": []}
        uncounted = [False]  # inside a table build
        real_private = f2._reduce_mod
        real_table = ramsey._count_table
        real_combinations = ramsey.combinations
        real_difference_set = channel.difference_set

        class CountedPivots(int):
            def __rand__(self, c):
                calls["reductions"] += 1
                held = int.__and__(c, self)
                calls["walks"].append([held, 0])
                return held

            __and__ = __rand__

        class CountedRows(dict):
            def __getitem__(self, pivot):
                calls["walks"][-1][1] += 1
                return super().__getitem__(pivot)

        def counting_table(group):
            uncounted[0] = True
            try:
                rows, pivots, basis = real_table(group)
            finally:
                uncounted[0] = False
            return CountedRows(rows), CountedPivots(pivots), basis

        def counting_private(v, basis):
            calls["reductions"] += not uncounted[0]
            return real_private(v, basis)

        def counting_combinations(items, r):
            for pair in real_combinations(items, r):
                calls["pairs"] += 1
                yield pair

        def counting_difference_set(channel_):
            calls["difference_set"] += 1
            return real_difference_set(channel_)

        monkeypatch.setattr(ramsey, "_count_table", counting_table)
        monkeypatch.setattr(f2, "_reduce_mod", counting_private)
        monkeypatch.setattr(ramsey, "combinations", counting_combinations)
        monkeypatch.setattr(channel, "difference_set", counting_difference_set)
        monkeypatch.setattr(ramsey, "difference_set", counting_difference_set)
        return calls

    def test_counts_from_the_checks_not_the_differences(self, monkeypatch):
        # a maximal n=10 channel has m = 1,024 checks and 1,024 distinct
        # differences out of m^2 pairs; each check is reduced once, by one
        # walk of the table of L(Z(R)), each hit coset once more, and W is
        # never built
        n = 10
        rng = random.Random(10)
        ch = channel.maximal_stabilizer_channel(random_group(rng, n, n))
        m = len(ch.operators)
        assert m == 1 << n
        calls = self._count_work(monkeypatch)
        for k in (1, 2):
            calls["reductions"] = 0
            code = random_group(rng, n, n - k)
            assert ramsey.compressed_dimension(ch, code) == 2**k
            assert m <= calls["reductions"] <= m + 4**k, k
        assert calls["difference_set"] == 0

    def test_affine_classes_cost_two_to_the_k(self, monkeypatch):
        # a code cut from a maximal channel's Lagrangian L puts all m = 2^n
        # checks in one class, whose L(R) representatives are a coset of a
        # 2^k-element subspace: its hits are that subspace, found without
        # the 4^k / 2 pairs.  At k = 1 the class of two is still paired,
        # which shows that the pair spy sees the pair loop.
        n = 12
        rng = random.Random(12)
        group = random_group(rng, n, n)
        ch = channel.maximal_stabilizer_channel(group)
        m = len(ch.operators)
        calls = self._count_work(monkeypatch)
        for k in (1, 10, 12):
            calls["reductions"] = calls["pairs"] = 0
            code = stabilizer.validate(group.generators[: n - k], n=n)
            assert ramsey.compressed_dimension(ch, code) == 2**k
            if k == 1:
                assert calls["pairs"] > 0
            else:
                assert calls["reductions"] + calls["pairs"] <= m + 2**k, k


class TestHeldPivotWalk:
    """The count's table, and its walk that visits only the pivots a check holds."""

    @staticmethod
    def _cases():
        """(channel, group) at n = 1..8 with k = 0, k = n and one k between.

        Per group: dense random checks, sparse checks of one to three bits,
        and checks that hold every pivot of L(Z(R)), the identity always
        among them.
        """
        rng = random.Random(31)
        cases = []
        for n in range(1, 9):
            for k in sorted({0, n, rng.randrange(n + 1)}):
                for _ in range(3):
                    group = random_group(rng, n, n - k)
                    _, pivots, _ = reference.count_table(group)
                    dense = [
                        rng.randrange(1 << (2 * n)) for _ in range(rng.randrange(1, 2 * n + 3))
                    ]
                    sparse = sparse_vectors(rng, n)
                    full = [pivots | rng.randrange(1 << (2 * n)) for _ in range(3)]
                    for checks in (dense, sparse, [pivots, *full], dense + sparse + full):
                        cases.append((vector_channel([0, *checks], n), group))
        return cases

    def test_table_matches_definition(self):
        build = ramsey._count_table.__wrapped__
        for _, group in self._cases():
            rows, pivots, basis = build(group)
            expected_rows, expected_pivots, expected_basis = reference.count_table(group)
            assert rows == expected_rows, str(group)
            assert pivots == expected_pivots and basis == expected_basis, str(group)
            assert pivots.bit_count() == group.n + group.k

    def test_count_matches_definition(self):
        for ch, group in self._cases():
            assert ramsey.compressed_dimension(ch, group) == reference.compressed_dimension(
                ch, group
            ), ([str(op) for op in ch.operators], str(group))

    def test_each_check_takes_one_row_per_held_pivot(self, monkeypatch):
        # one walk per check, in the channel's order, each looking up the
        # row of every pivot of L(Z(R)) that the check holds, once
        calls = TestCompressedDimension._count_work(monkeypatch)
        for ch, group in self._cases():
            _, pivots, _ = reference.count_table(group)
            calls["walks"] = []
            ramsey.compressed_dimension(ch, group)
            held = [op.check_vector() & pivots for op in ch.operators]
            assert calls["walks"] == [[h, h.bit_count()] for h in held], str(group)


class TestCliqueAnticliquePredicates:
    def test_dephasing_pair_is_anticlique_on_zi(self):
        ch = make_channel("XI", "ZI")
        assert ramsey.is_anticlique(ch, stabilizer.from_string("ZI"))
        assert not ramsey.is_clique(ch, stabilizer.from_string("ZI"))

    def test_clique_example(self):
        ch = make_channel("II", "XI", "ZI")
        assert ramsey.is_clique(ch, stabilizer.from_string("IX"))

    def test_maximal_channel_has_no_nontrivial_witnesses(self):
        for d in (1, 2):
            for basis in f2.enumerate_isotropic(2, d):
                group = ramsey._group_from_rows(basis.rows, 2)
                if group.k == 0:
                    continue
                assert not ramsey.is_anticlique(MAXIMAL_X, group)
                assert not ramsey.is_clique(MAXIMAL_X, group)

    def test_weights_are_irrelevant(self):
        ops = [parse("II"), parse("XI"), parse("ZI")]
        skew = channel.from_noise(ops, [0.90, 0.05, 0.05])
        group = stabilizer.from_string("IX")
        assert ramsey.is_clique(skew, group)
        assert ramsey.compressed_dimension(skew, group) == 4


class TestGottesmanCorrectable:
    def test_repetition_code_corrects_bit_flips(self):
        noise = make_channel("III", "XII", "IXI", "IIX")
        assert ramsey.gottesman_correctable(noise, stabilizer.from_string("ZZI,IZZ"))

    def test_undetected_logical_noise(self):
        noise = make_channel("III", "ZII")
        assert not ramsey.gottesman_correctable(noise, stabilizer.from_string("ZZI,IZZ"))

    def test_identity_channel(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randrange(1, 4)
            assert ramsey.gottesman_correctable(
                channel.from_noise([identity(n)]), random_group(rng, n)
            )

    def test_matches_anticlique_on_random_cases(self):
        rng = random.Random(11)
        for _ in range(80):
            n = rng.randrange(1, 3)
            ch = random_channel(rng, n, 4)
            group = random_group(rng, n)
            assert ramsey.gottesman_correctable(ch, group) == ramsey.is_anticlique(
                ch, group
            )


class TestSearch:
    def test_maximal_channel_yields_no_witnesses(self):
        report = ramsey.search(MAXIMAL_X, "both")
        assert report.witnesses == ()
        assert report.examined == ((1, 15), (2, 1))
        assert report.total_examined == 16

    def test_examined_counts_match_enumeration(self):
        report = ramsey.search(make_channel("III"), "anticlique")
        for k, count in report.examined:
            assert count == sum(1 for _ in f2.enumerate_isotropic(3, 3 - k))

    def test_identity_channel_every_code_is_an_anticlique(self):
        report = ramsey.search(make_channel("II"), "anticlique", [1])
        assert len(report.witnesses) == 15
        assert all(w.kind == "anticlique" and w.dim_pgp == 1 for w in report.witnesses)

    def test_full_pauli_channel_every_code_is_a_clique(self):
        report = ramsey.search(FULL_P2, "clique")
        assert len(report.witnesses) == 16
        assert {w.k for w in report.witnesses} == {1, 2}

    def test_witnesses_verified_by_public_predicates(self):
        ch = make_channel("II", "XI", "ZI")
        report = ramsey.search(ch, "both")
        assert report.witnesses
        for w in report.witnesses:
            if w.kind == "anticlique":
                assert ramsey.is_anticlique(ch, w.group)
            else:
                assert ramsey.is_clique(ch, w.group)
            assert ramsey.compressed_dimension(ch, w.group) == w.dim_pgp

    def test_deterministic(self):
        ch = make_channel("II", "XI", "ZI")
        assert ramsey.search(ch, "both") == ramsey.search(ch, "both")

    def test_mode_filtering(self):
        ch = make_channel("II", "XI", "ZI")
        both = ramsey.search(ch, "both")
        anti = ramsey.search(ch, "anticlique")
        cliq = ramsey.search(ch, "clique")
        assert {w for w in both.witnesses if w.kind == "anticlique"} == set(anti.witnesses)
        assert {w for w in both.witnesses if w.kind == "clique"} == set(cliq.witnesses)

    def test_k_range_validation(self):
        ch = make_channel("II")
        with pytest.raises(ValueError, match="nonempty"):
            ramsey.search(ch, "both", [])
        with pytest.raises(ValueError, match="1..2"):
            ramsey.search(ch, "both", [3])
        with pytest.raises(ValueError, match="mode"):
            ramsey.search(ch, "sideways")

    def test_k_range_rejects_non_int(self):
        # True would pass for 1 in a set and in the JSON; 1.5 would reach
        # the candidate cache as a float
        ch = make_channel("II")
        with pytest.raises(ValueError, match="k must be an int, got True"):
            ramsey.search(ch, "both", [True])
        with pytest.raises(ValueError, match="k must be an int, got 1.5"):
            ramsey.search(ch, "both", [1, 1.5])

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            ramsey.search(channel.from_noise([identity(5)]), "both")

    def test_level_keys_must_fit_in_64_bits(self):
        # parents are found by 2n bits per row; at n = 7 level 6's parents
        # would need 70, and the level is refused before it is enumerated
        with pytest.raises(CapacityError, match="64 bits"):
            ramsey._candidates(7, 6)

    def test_json_shape(self):
        doc = ramsey.search(make_channel("XI", "ZI"), "both", [1]).to_json_dict()
        assert doc["channel"] == {"n": 2, "noise": ["XI", "ZI"]}
        assert doc["mode"] == "both"
        assert doc["examined"] == {"1": 15}
        for w in doc["witnesses"]:
            assert set(w) == {"k", "kind", "witness_generators", "dim_PGP"}


class TestClassify:
    def test_maximal_stabilizer_channel(self):
        result = ramsey.classify(MAXIMAL_X)
        assert result.tag == "MaximalStabilizerChannel"
        assert str(result.witness) == "XI,IX"
        assert result.examined == 0
        # the witness reconstructs the channel's difference set exactly
        span = set(result.witness.check_basis().span())
        assert span == channel.difference_set(MAXIMAL_X)

    def test_single_qubit_conjugate_noise_is_maximal(self):
        result = ramsey.classify(make_channel("X", "Z"))
        assert result.tag == "MaximalStabilizerChannel"
        assert str(result.witness) == "Y"

    def test_clique_from_the_constructive_path(self):
        result = ramsey.classify(make_channel("II", "XI", "ZI"))
        assert result.tag == "Clique"
        assert str(result.witness) == "IX"
        assert result.dim_pgp == 4
        assert result.examined == 0

    def test_anticlique_without_identity_is_constructive(self):
        # XI and ZI anticommute, but shifted by XI the checks are {II, YI},
        # which commute, so the anticlique construction applies directly
        ch = make_channel("XI", "ZI")
        result = ramsey.classify(ch)
        assert result.tag == "Anticlique"
        assert result.examined == 0
        assert ramsey.is_anticlique(ch, result.witness)
        assert oracle.dense_compressed_dimension(ch, result.witness).rank == 1

    def test_commuting_noise_constructive_anticlique(self):
        ch = make_channel("II", "ZI")
        result = ramsey.classify(ch)
        assert result.tag == "Anticlique"
        assert result.examined == 0
        assert ramsey.is_anticlique(ch, result.witness)

    def test_pure_noise_channel_full_space_witness(self):
        result = ramsey.classify(make_channel("X"))
        assert result.tag == "Anticlique"
        assert result.witness.num_generators == 0
        assert result.witness.k == 1

    def test_construction_wins_even_when_anticlique_exists(self):
        # both witness kinds exist for this channel; the noncommuting
        # construction is tried first and returns the clique
        ch = make_channel("III", "XII", "ZII")
        result = ramsey.classify(ch)
        assert result.tag == "Clique"
        assert result.examined == 0
        anti = ramsey.search(ch, "anticlique", [1])
        assert anti.witnesses

    def test_random_channels_never_inconsistent(self):
        rng = random.Random(13)
        for _ in range(120):
            n = rng.randrange(1, 4)
            ch = random_channel(rng, n, 4)
            result = ramsey.classify(ch)
            assert result.tag != "Inconsistent"
            if result.tag == "Anticlique":
                assert ramsey.is_anticlique(ch, result.witness)
            elif result.tag == "Clique":
                assert ramsey.is_clique(ch, result.witness)

    def test_witness_groups_are_canonical(self):
        result = ramsey.classify(make_channel("XI", "ZI"))
        rebuilt = stabilizer.validate(result.witness.generators, n=2)
        assert rebuilt == result.witness

    def test_capacity_limit(self):
        ch = channel.from_noise([identity(5)])
        assert ramsey.classify(ch).tag == "Anticlique"
        with pytest.raises(CapacityError):
            ramsey.classify(ch, limit=4)

    def test_noncommuting_noise_without_identity_at_n6(self):
        # no identity in the noise, and the clique candidate built from the
        # unshifted checks fails: only the shifted construction succeeds
        n = 6
        vectors = random.Random(2).sample(range(1, 1 << (2 * n)), 4)
        checks = sorted(vectors)
        pair = reference.first_anticommuting_pair(checks, n)
        assert pair is not None
        ch = vector_channel(vectors, n)
        h, g = pair
        unshifted = ramsey._noncommuting_clique_candidate(h, g >> n, n)
        assert not ramsey.is_clique(ch, unshifted)
        result = ramsey.classify(ch)
        assert result.tag == "Clique"
        assert result.examined == 0
        assert result.witness.k >= 1
        assert ramsey.is_clique(ch, result.witness)

    def test_failed_candidate_is_inconsistent(self, monkeypatch):
        monkeypatch.setattr(ramsey, "is_clique", lambda ch, group: False)
        result = ramsey.classify(make_channel("II", "XI", "ZI"))
        assert result.tag == "Inconsistent"
        assert result.witness is None
        assert result.examined == 0
        assert "clique candidate IX" in result.diagnostic
        assert "{II, XI, ZI}" in result.diagnostic

    def test_kept_candidates_are_verified_on_every_call(self, monkeypatch):
        # the second classify of each channel takes its candidate from the
        # memo, and a failed verification still answers Inconsistent
        for noise, kind, memo in (
            (("II", "XI", "ZI"), "clique", ramsey._noncommuting_clique_candidate),
            (("II", "ZI"), "anticlique", ramsey._commuting_anticlique_candidate),
        ):
            ch = make_channel(*noise)
            witness = ramsey.classify(ch).witness
            hits = memo.cache_info().hits
            with monkeypatch.context() as m:
                m.setattr(ramsey, f"is_{kind}", lambda ch, group: False)
                result = ramsey.classify(ch)
            assert memo.cache_info().hits == hits + 1
            assert result.tag == "Inconsistent"
            assert result.witness is None
            assert result.diagnostic == (
                f"constructed {kind} candidate {witness} failed verification "
                f"for noise {{{', '.join(noise)}}}; this contradicts the "
                "trichotomy and is a reportable finding"
            )

    def test_difference_set_is_built_in_the_commuting_branch_only(self, monkeypatch):
        n = 16
        low = [1 << q for q in range(2 * n)] + [(1 << q) | (1 << (q + n)) for q in range(n)]
        noise = [0, *random.Random(16).sample(low, 2 * n)]
        noncommuting = vector_channel(noise, n)
        # the identity and Z on each qubit
        commuting = vector_channel([0, *(1 << (q + n) for q in range(n))], n)
        calls = TestCompressedDimension._count_work(monkeypatch)
        assert ramsey.classify(noncommuting).tag == "Clique"
        assert calls["difference_set"] == 0
        assert ramsey.classify(commuting).tag == "Anticlique"
        assert calls["difference_set"] == 1

    @pytest.mark.parametrize("n", range(2, 11))
    def test_memos_leave_the_json_unchanged(self, n):
        # maximal channels, commuting subsets of a Lagrangian's coset, the
        # identity with low-weight noise, and random noise; classified twice
        # with the memos kept, then once each with every memo cleared first
        rng = random.Random(900 + n)
        low = [1 << q for q in range(2 * n)] + [(1 << q) | (1 << (q + n)) for q in range(n)]
        noises = []
        for _ in range(2):
            span = random_group(rng, n, n).check_basis().span()
            c = rng.randrange(1 << (2 * n))
            noises.append([c ^ v for v in span])
            # at most n of its 2^n vectors: too few for W to fill L
            noises.append([c ^ v for v in rng.sample(span, rng.randrange(1, n + 1))])
            noises.append([0, *rng.sample(low, rng.randrange(1, len(low)))])
            noises.append(rng.sample(range(1 << (2 * n)), rng.randrange(2, 2 * n + 3)))
        # one h = X on qubit 0 against several g: candidates that share h
        for _ in range(3):
            noises.append([0, 1, 1 << n | rng.randrange(1 << n) & ~1])
        channels = [vector_channel(noise, n) for noise in noises]
        hits = [memo.cache_info().hits for memo in CLASSIFY_MEMOS]
        kept = [[ramsey.classify(ch).to_json_dict() for ch in channels] for _ in range(2)]
        assert all(
            memo.cache_info().hits > before for memo, before in zip(CLASSIFY_MEMOS, hits)
        )
        cleared = []
        for ch in channels:
            clear_classify_memos()
            cleared.append(ramsey.classify(ch).to_json_dict())
        assert kept[0] == kept[1] == cleared
        assert {doc["verdict"] for doc in cleared} >= {
            "MaximalStabilizerChannel", "Anticlique", "Clique"
        }

    def test_large_n_noncommuting_noise_constructive_clique(self):
        # identity plus 32 weight-1/2 Paulis on 16 qubits; the identity
        # guarantees the constructive clique, so nothing is enumerated
        n = 16
        ch = low_weight_channel(random.Random(53), n)
        result = ramsey.classify(ch, limit=n)
        assert result.tag == "Clique"
        assert result.examined == 0
        assert ramsey.is_clique(ch, result.witness)

    def test_large_n_commuting_noise_constructive_anticlique(self):
        # identity plus Z on each qubit, on 16 qubits
        n = 16
        ops = [identity(n)] + [
            parse("I" * q + "Z" + "I" * (n - q - 1)) for q in range(n)
        ]
        ch = channel.from_noise(ops, n=n)
        result = ramsey.classify(ch, limit=n)
        assert result.tag == "Anticlique"
        assert result.examined == 0
        assert result.witness.k >= 1
        assert ramsey.gottesman_correctable(ch, result.witness)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_json_ignores_operator_order_phase_and_repeats(self, n):
        # classify reads the sorted, shifted checks only, so its JSON must
        # not move when the operators are permuted, given other phases or
        # some of them repeated: random noise, low-weight noise, commuting
        # subsets of a Lagrangian's coset and a maximal channel
        rng = random.Random(700 + n)
        lag = f2.reduce(random_isotropic_rows(rng, n, n), n).span()
        c = rng.randrange(1 << (2 * n))
        channels = [random_channel(rng, n, 8) for _ in range(4)]
        channels += [low_weight_channel(rng, n) for _ in range(4)]
        channels += [
            vector_channel([c ^ v for v in rng.sample(lag, rng.randrange(1, n + 2))], n)
            for _ in range(2)
        ]
        channels.append(vector_channel([c ^ v for v in lag], n))
        verdicts = set()
        for ch in channels:
            doc = ramsey.classify(ch).to_json_dict()
            verdicts.add(doc["verdict"])
            ops = list(ch.operators)
            for _ in range(3):
                moved = [
                    PauliOperator(n, rng.randrange(4), op.x, op.z) for op in ops
                ]
                moved += rng.choices(moved, k=rng.randrange(1, 4))
                rng.shuffle(moved)
                assert ramsey.classify(channel.from_noise(moved, n=n)).to_json_dict() == doc
        assert {"MaximalStabilizerChannel", "Anticlique", "Clique"} <= verdicts

    def test_clique_witness_comes_from_the_first_anticommuting_pair(self):
        # the pair is the first in combinations order over the shifted
        # checks; another anticommuting pair can give another witness
        def from_first_pair(ch):
            n = ch.n
            result = ramsey.classify(ch)
            if result.tag != "Clique":
                return False
            h, g = reference.first_anticommuting_pair(reference.shifted_checks(ch), n)
            assert result.witness == ramsey._noncommuting_clique_candidate(h, g >> n, n)
            return True

        rng = random.Random(31)
        channels = [random_channel(rng, 1 + c % 6, 9) for c in range(200)]
        assert sum(map(from_first_pair, channels)) > 100
        # low-weight noise without the identity, so the smallest check is
        # not 0; and the scan's worst case, the x-only Lagrangian plus Z on
        # the top qubit, whose early checks commute with every later one,
        # as given and shifted
        cliques = [
            vector_channel(rng.sample(low_weight_vectors(n), 2 * n), n)
            for n in range(2, 7)
            for _ in range(4)
        ]
        for n in range(1, 7):
            worst = [*range(1 << n), 1 << (2 * n - 1)]
            c = rng.randrange(1 << (2 * n))
            cliques += [vector_channel(worst, n), vector_channel([c ^ v for v in worst], n)]
        assert all(map(from_first_pair, cliques))

    def test_clique_verdicts_pass_the_full_count(self):
        # classify counts a clique candidate on three of the channel's
        # operators; recounted over all of them it must still hit 4^k
        # cosets: a seeded slice of the n=2 channels, then random,
        # low-weight and dense channels at n = 3..16
        rng = random.Random(47)
        channels = [
            selftest._mask_channel(mask, 2)
            for mask in rng.sample(range(1, 1 << 16), 4096)
        ]
        for n in range(3, 17):
            channels += [random_channel(rng, n, 11) for _ in range(4)]
            channels += [low_weight_channel(rng, n) for _ in range(4)]
            m = min(1 << (2 * n - 1), 300)
            channels += [
                vector_channel(rng.sample(range(1 << (2 * n)), m), n) for _ in range(2)
            ]
        cliques = {2: 0, 3: 0}
        for ch in channels:
            result = ramsey.classify(ch)
            assert result.tag != "Inconsistent"
            if result.tag == "Clique":
                assert ramsey.is_clique(ch, result.witness), ch
                cliques[min(ch.n, 3)] += 1
        assert cliques[2] > 4000 and cliques[3] > 100, cliques

    def test_clique_is_counted_on_three_of_the_channels_operators(self, monkeypatch):
        # one count, on the operators of the checks c0, c0 ^ h and c0 ^ g,
        # c0 the smallest check and (h, g) the first anticommuting pair of
        # the shifted checks, whatever the channel's size
        rng = random.Random(53)
        real = ramsey.compressed_dimension
        for n, m in ((4, 100), (8, 150), (16, 400)):
            ch = vector_channel(rng.sample(range(1 << (2 * n)), m), n)
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(
                    ramsey,
                    "compressed_dimension",
                    lambda sub, group: calls.append(sub) or real(sub, group),
                )
                result = ramsey.classify(ch)
            assert result.tag == "Clique"
            [sub] = calls
            c0 = min(op.check_vector() for op in ch.operators)
            h, g = reference.first_anticommuting_pair(reference.shifted_checks(ch), n)
            assert sub.n == n
            assert [op.check_vector() for op in sub.operators] == [c0, c0 ^ h, c0 ^ g]
            own = {id(op) for op in ch.operators}
            assert all(id(op) in own for op in sub.operators)

    def test_warm_clique_classify_hashes_no_operator(self, monkeypatch):
        # the candidate keeps its hash, so with the memos warm the count
        # table's lookup hashes none of the candidate's generators; a group
        # built apart, the spy's control, hashes each of them once
        rng = random.Random(59)
        real = PauliOperator.__hash__
        for n in (8, 16):
            ch = low_weight_channel(rng, n)
            first = ramsey.classify(ch)
            assert first.tag == "Clique"
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(
                    PauliOperator, "__hash__", lambda op: calls.append(op) or real(op)
                )
                assert ramsey.classify(ch) == first
                assert calls == []
                apart = stabilizer.validate(first.witness.generators, n=n)
                assert hash(apart) == hash(first.witness)
            assert len(calls) == n - first.witness.k

    @staticmethod
    def assert_maximal(ch):
        n = ch.n
        diffs = channel.difference_set(ch)
        assert is_maximal_by_definition(diffs, n)
        result = ramsey.classify(ch)
        assert result.tag == "MaximalStabilizerChannel"
        assert result.examined == 0
        rows = f2.reduce(diffs, n).rows
        assert result.witness == stabilizer.validate(
            [hermitian_rep(v, n) for v in rows], n=n
        )
        assert result.dim_pgp == ramsey.compressed_dimension(ch, result.witness) == 1

    def test_every_maximal_two_qubit_channel(self):
        # noise whose difference set is a Lagrangian L lies in one coset of
        # L; at n = 2 it is any 3 of the coset's 4 vectors or all of them,
        # so there are 15 Lagrangians x 4 cosets x 5 subsets = 300 channels
        n = 2
        seen = set()
        for basis in f2.enumerate_isotropic(n, n):
            span = basis.span()
            cosets = {tuple(sorted(c ^ v for v in span)) for c in range(16)}
            assert len(cosets) == 4
            for coset in cosets:
                for noise in [*combinations(coset, 3), coset]:
                    seen.add(noise)
                    self.assert_maximal(vector_channel(noise, n))
        assert len(seen) == 300

    @pytest.mark.parametrize("n", range(3, 11))
    def test_full_cosets_of_lagrangians_are_maximal(self, n):
        rng = random.Random(600 + n)
        for _ in range(2):
            span = random_group(rng, n, n).check_basis().span()
            c = rng.randrange(1 << (2 * n))
            self.assert_maximal(vector_channel([c ^ v for v in span], n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_isotropic_spans_below_n_are_anticliques(self, n):
        # a coset of an isotropic subspace of dimension d < n commutes after
        # the shift and fills no Lagrangian
        rng = random.Random(700 + n)
        for d in range(n):
            span = random_group(rng, n, d).check_basis().span()
            c = rng.randrange(1 << (2 * n))
            ch = vector_channel([c ^ v for v in span], n)
            result = ramsey.classify(ch)
            assert result.tag == "Anticlique", (n, d)
            assert ramsey.is_anticlique(ch, result.witness)

    def test_json_shape(self):
        doc = ramsey.classify(make_channel("II", "XI", "ZI")).to_json_dict()
        assert doc == {
            "verdict": "Clique",
            "witness_generators": ["IX"],
            "dim_PGP": 4,
            "examined": 0,
        }


def _built_levels(ns, depth=None):
    """Levels 0..depth (n - 1 by default) of each n, built in order from
    an empty cache, each with its reps as built; a level's child drops its
    reps, which only the returned pair keeps."""
    levels = {}
    for n in ns:
        for d in range(n if depth is None else depth + 1):
            level = ramsey._candidates(n, d)
            levels[n, d] = (level, level.reps)
    return levels


@pytest.fixture
def validate_calls(monkeypatch):
    """Empty candidate cache; the list of ramsey's validate calls."""
    monkeypatch.setattr(ramsey, "_SUBSPACE_CACHE", {})
    calls = []
    real_validate = ramsey.validate

    def counting_validate(*args, **kwargs):
        calls.append(args)
        return real_validate(*args, **kwargs)

    monkeypatch.setattr(ramsey, "validate", counting_validate)
    return calls


class TestConstructionInternals:
    """The two proof procedures, checked on their own postconditions."""

    def test_batched_coset_counts_match_compressed_dimension(self, monkeypatch):
        # search walks the counts of all candidates down the levels; every
        # count at every d must agree with compressed_dimension, not only
        # the witnesses it reports.  The levels are rebuilt with small
        # chunks, which put chunk boundaries inside the level builds and
        # the walk steps, and must give the same arrays.
        rng = random.Random(29)
        paulis = [hermitian_rep(v, 1) for v in range(4)]
        cases = [
            (1, channel.from_noise(list(ops)))
            for size in range(1, 5)
            for ops in combinations(paulis, size)
        ]
        cases += [(2, FULL_P2), (2, MAXIMAL_X)]
        cases += [(2, random_channel(rng, 2, 7)) for _ in range(40)]
        cases += [(3, random_channel(rng, 3, 7)) for _ in range(5)]
        monkeypatch.setattr(ramsey, "_SUBSPACE_CACHE", {})
        built = _built_levels(range(1, 4))
        expected = {}
        for c, (n, ch) in enumerate(cases):
            for d in range(n):
                expected[c, d] = [
                    ramsey.compressed_dimension(
                        ch, ramsey._group_from_rows(tuple(rows), n)
                    )
                    for rows in ramsey._candidates(n, d).rows.tolist()
                ]
        for chunk in (f2._CHUNK_ELEMENTS, 1, 37):
            monkeypatch.setattr(f2, "_CHUNK_ELEMENTS", chunk)
            monkeypatch.setattr(ramsey, "_SUBSPACE_CACHE", {})
            for key, (level, reps) in _built_levels(range(1, 4)).items():
                want, want_reps = built[key]
                assert np.array_equal(level.rows, want.rows), (chunk, key)
                assert np.array_equal(reps, want_reps), (chunk, key)
                assert np.array_equal(level.gather, want.gather), (chunk, key)
            for c, (n, ch) in enumerate(cases):
                diffs = np.fromiter(channel.difference_set(ch), dtype=np.intp)
                counts = ramsey._coset_counts(diffs, n, n - 1)
                assert len(counts) == n
                for d in range(n):
                    assert counts[d].tolist() == expected[c, d], (chunk, n, d)

    def test_walk_counts_match_the_definition_at_four_qubits(self):
        # sampled candidates at every d against the count over all of W
        rng = random.Random(43)
        n = 4
        chs = [
            vector_channel([rng.randrange(1 << (2 * n)) for _ in range(m)], n)
            for m in (1, 3, 6, 12, 16)
        ]
        for ch in chs:
            diffs = np.fromiter(channel.difference_set(ch), dtype=np.intp)
            counts = ramsey._coset_counts(diffs, n, n - 1)
            for d in range(n):
                level = ramsey._candidates(n, d)
                for i in rng.sample(range(len(level)), min(12, len(level))):
                    group = ramsey._group_from_rows(tuple(level.rows[i].tolist()), n)
                    assert counts[d][i] == reference.compressed_dimension(ch, group), (
                        d,
                        str(group),
                    )

    def test_gather_positions_must_fit_in_32_bits(self, monkeypatch):
        # a parent level of 2^24 + 1 rows 256 wide has positions past
        # 2^32 - 1, the largest uint32; the child level is refused before it
        # is enumerated (broadcast views stand in for the parent's arrays)
        count, width = (1 << 24) + 1, 256
        up = ramsey._Candidates(
            5,
            np.broadcast_to(np.zeros(1, dtype=np.uint64), (count, 1)),
            np.broadcast_to(np.zeros(1, dtype=np.uint16), (count, width)),
            np.broadcast_to(np.zeros(1, dtype=np.uint32), (2, count, width)),
            np.empty((0, 2), dtype=object),
            np.zeros((0, 2), dtype=bool),
        )
        monkeypatch.setattr(ramsey, "_SUBSPACE_CACHE", {(5, 1): up})

        def no_enumeration(*args):
            raise AssertionError("level enumerated before its capacity check")

        monkeypatch.setattr(f2, "enumerate_isotropic", no_enumeration)
        with pytest.raises(CapacityError, match="32 bits"):
            ramsey._candidates(5, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_walk_counts_closed_forms(self, n):
        # the identity channel hits one coset of every code, the full Pauli
        # channel all 4^k of them
        identity_counts = ramsey._coset_counts(np.array([0]), n, n - 1)
        full_counts = ramsey._coset_counts(np.arange(1 << (2 * n)), n, n - 1)
        for d in range(n):
            size = len(ramsey._candidates(n, d))
            assert identity_counts[d].tolist() == [1] * size
            assert full_counts[d].tolist() == [4 ** (n - d)] * size

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_walk_counts_on_maximal_channels_are_two_to_the_k(self, n):
        # the difference set of a maximal channel is a Lagrangian L, which
        # meets every code R's centralizer R^⊥ in n - d + j dimensions,
        # j = dim(L ∩ R), and L ∩ R lies in R: so every count is 2^k,
        # neither 1 nor 4^k
        rng = random.Random(100 + n)
        for _ in range(3):
            ch = channel.maximal_stabilizer_channel(random_group(rng, n, n))
            diffs = np.fromiter(channel.difference_set(ch), dtype=np.intp)
            counts = ramsey._coset_counts(diffs, n, n - 1)
            for d in range(n):
                assert set(counts[d].tolist()) == {2 ** (n - d)}, (n, d)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gathers_pick_x_and_x_plus_v(self, n, monkeypatch):
        # the representatives of R' = R + v are the parent's that commute
        # with v and are clear at v's pivot; gather[0] finds each such x
        # among the parent level's flat representatives, within its
        # parent's row, and gather[1] finds x ⊕ v in the same row
        monkeypatch.setattr(ramsey, "_SUBSPACE_CACHE", {})
        levels = _built_levels([n])
        assert levels[n, 0][0].gather.size == 0
        for d in range(1, n):
            level, reps = levels[n, d]
            up, up_reps = levels[n, d - 1]
            width = up_reps.shape[1]
            # the canonical parent of each row, read off its gathers
            parents = level.gather[0, :, 0] // width
            assert np.array_equal(up.rows[parents], level.rows[:, :-1])
            assert level.gather.dtype == np.uint32
            assert level.gather.shape == (2, *reps.shape)
            flat_reps = up_reps.ravel()
            v = level.rows[:, -1].astype(reps.dtype)
            assert np.array_equal(flat_reps[level.gather[0]], reps)
            assert np.array_equal(flat_reps[level.gather[1]], reps ^ v[:, None])
            for gather in level.gather:
                assert np.array_equal(
                    gather // width, np.broadcast_to(parents[:, None], gather.shape)
                )
            assert (np.diff(level.gather[0].astype(np.int64), axis=1) > 0).all()
            # the representatives are exactly R^⊥ cleared at R's pivots
            for i in random.Random(d).sample(range(len(level)), min(20, len(level))):
                basis = f2.reduce(level.rows[i].tolist(), n)
                kernel = f2.twisted_kernel(list(basis.rows), n)
                want = sorted({reference.reduce_mod(u, basis) for u in kernel.span()})
                assert reps[i].tolist() == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_are_stored_in_the_reps_dtype(self, n, monkeypatch):
        # 2n-bit rows fit the reps' dtype; _packed widens them to uint64
        # itself, so its keys are those of the rows as uint64
        monkeypatch.setattr(ramsey, "_SUBSPACE_CACHE", {})
        for (_, d), (level, reps) in _built_levels([n], n).items():
            assert level.rows.dtype == reps.dtype == np.uint8
            wide = level.rows.astype(np.uint64)
            assert np.array_equal(ramsey._packed(level.rows, n), ramsey._packed(wide, n))

    def test_subcodes_inherit_counts_and_witness_kinds(self, monkeypatch):
        # R ⊂ R' isotropic: each coset of R' in R'^⊥ is the union of two
        # cosets of R, so count(R') <= count(R), an anticlique's subcode is
        # an anticlique and a clique's a clique.  Checked on every
        # canonical parent-child pair of the walk's levels (k >= 1), the
        # parent read off the child's rows, on seeded channels at n = 2..4
        monkeypatch.setattr(ramsey, "_SUBSPACE_CACHE", {})
        rng = random.Random(97)
        cases = [
            (n, ch)
            for n in (2, 3, 4)
            for ch in (
                *(random_channel(rng, n, m) for m in (2, 5, 11, 23)),
                low_weight_channel(rng, n),
            )
        ]
        parents = {}
        for n in (2, 3, 4):
            for d in range(1, n):
                up = ramsey._candidates(n, d - 1).rows.tolist()
                index = {tuple(rows): i for i, rows in enumerate(up)}
                parents[n, d] = np.array(
                    [index[tuple(rows[:-1])] for rows in ramsey._candidates(n, d).rows.tolist()]
                )
        pairs = anticlique = clique = fell = 0
        for n, ch in cases:
            diffs = np.fromiter(channel.difference_set(ch), dtype=np.intp)
            counts = ramsey._coset_counts(diffs, n, n - 1)
            for d in range(1, n):
                up = counts[d - 1][parents[n, d]]
                child = counts[d]
                assert (child <= up).all(), (n, d)
                assert (child[up == 1] == 1).all(), (n, d)
                full = 1 << (2 * (n - d))
                assert (child[up == 4 * full] == full).all(), (n, d)
                pairs += len(child)
                anticlique += int((up == 1).sum())
                clique += int((up == 4 * full).sum())
                fell += int((child < up).sum())
        assert pairs == 5 * (15 + 378 + 17085)
        assert min(anticlique, clique, fell) > 1000

    def test_only_the_deepest_built_level_keeps_its_reps(self, monkeypatch):
        # a level's representatives are read only to build its child level,
        # which drops them; searches on the remaining arrays, and on levels
        # built again after the cache is cleared, give the same JSON
        monkeypatch.setattr(ramsey, "_SUBSPACE_CACHE", {})
        n = 4
        rng = random.Random(83)
        chs = [random_channel(rng, n, m) for m in (2, 8, 16)]
        chs.append(channel.maximal_stabilizer_channel(random_group(rng, n, n)))
        shallow = ramsey.search(chs[0], "both", [3]).to_json_dict()
        held = [ramsey._candidates(n, d).reps is not None for d in range(2)]
        assert held == [False, True]
        docs = [ramsey.search(ch, "both").to_json_dict() for ch in chs]
        levels = [ramsey._candidates(n, d) for d in range(n)]
        assert [level.reps is not None for level in levels] == [False, False, False, True]
        assert levels[-1].reps.shape == (len(levels[-1]), 4)
        ramsey._SUBSPACE_CACHE.clear()
        assert [ramsey.search(ch, "both").to_json_dict() for ch in chs] == docs
        assert ramsey.search(chs[0], "both", [3]).to_json_dict() == shallow

    def test_witness_groups_are_validated_once(self, validate_calls):
        ch = make_channel("III", "XII", "ZII", "IYI", "IIZ")
        first = ramsey.search(ch, mode="both")
        built = len(validate_calls)
        assert built > 0
        second = ramsey.search(ch, mode="both")
        assert len(validate_calls) == built
        assert second == first
        assert first.witnesses
        assert all(a is b for a, b in zip(first.witnesses, second.witnesses))
        n = 3
        memoized = 0
        for d in range(n):
            cands = ramsey._candidates(n, d)
            for i in np.flatnonzero(cands.built.any(axis=1)).tolist():
                records = cands.records[i][cands.built[i]].tolist()
                group = records[0].group
                assert all(r.group is group for r in records)
                ops = [hermitian_rep(v, n) for v in cands.rows[i].tolist()]
                assert group == stabilizer.validate(ops, n=n)
                memoized += 1
        assert memoized == built

    @pytest.mark.parametrize("n", [3, 4])
    def test_record_groups_share_the_tables_operators(self, n, validate_calls, monkeypatch):
        # every code is an anticlique of the identity channel, so one cold
        # search builds the group of every candidate; its generators are the
        # operators of hermitian_rep's memo, which holds all 4^n of them, and
        # those are all that search builds
        hermitian_rep.cache_clear()
        ch = make_channel("I" * n)
        constructed = []
        real_post_init = PauliOperator.__post_init__

        def counting_post_init(op):
            constructed.append(op)
            real_post_init(op)

        with monkeypatch.context() as spy:
            spy.setattr(PauliOperator, "__post_init__", counting_post_init)
            report = ramsey.search(ch, mode="both")
        assert len(constructed) <= 4**n
        codes = sum(count for _, count in report.examined)
        assert len(report.witnesses) == len(validate_calls) == codes
        for w in report.witnesses:
            assert all(g is hermitian_rep(g.check_vector(), n) for g in w.group.generators)

    def test_anticlique_and_clique_records_share_one_group(self, validate_calls):
        # every k=1 code is an anticlique of the identity channel and a
        # clique of the full Pauli channel
        anti = ramsey.search(make_channel("II"), "both", [1]).witnesses
        clique = ramsey.search(FULL_P2, "both", [1]).witnesses
        cands = ramsey._candidates(2, 1)
        assert len(anti) == len(clique) == len(cands) == len(validate_calls)
        assert cands.built.all()
        for i, (a, c) in enumerate(zip(anti, clique)):
            assert (a.kind, a.dim_pgp) == ("anticlique", 1)
            assert (c.kind, c.dim_pgp) == ("clique", 4)
            assert a is cands.records[i, 0] and c is cands.records[i, 1]
            assert a.group is c.group

    def test_memo_is_allocated_on_a_levels_first_hit(self, validate_calls):
        # a maximal channel hits 2^k cosets of every code, neither 1 nor
        # 4^k, so its search records no witness and allocates no memo
        n = 3
        maximal = channel.maximal_stabilizer_channel(
            random_group(random.Random(71), n, n)
        )
        assert ramsey.search(maximal, "both").witnesses == ()
        levels = [ramsey._candidates(n, d) for d in range(n)]
        assert all(len(level.records) == len(level.built) == 0 for level in levels)
        assert validate_calls == []
        # a later search allocates on its hits and returns the records a
        # search on fresh levels returns, and the same objects again after
        ch = make_channel("III", "XII", "ZII", "IYI", "IIZ")
        first = ramsey.search(ch, "both")
        assert first.witnesses
        assert any(len(level.built) == len(level) for level in levels)
        second = ramsey.search(ch, "both")
        assert second == first
        assert all(a is b for a, b in zip(second.witnesses, first.witnesses))
        ramsey._SUBSPACE_CACHE.clear()
        assert ramsey.search(ch, "both") == first

    def test_commuting_candidates_verify(self):
        rng = random.Random(17)
        built = 0
        for _ in range(200):
            n = rng.randrange(1, 4)
            rows = random_group(rng, n, rng.randrange(0, n + 1)).generators
            ops = [identity(n), *rows]
            ch = channel.from_noise(ops, n=n)
            if is_maximal_by_definition(channel.difference_set(ch), n):
                continue
            cand = ramsey._commuting_anticlique_candidate(*lagrangian_and_w(ch), n)
            assert cand.num_generators == n - 1
            assert ramsey.is_anticlique(ch, cand)
            built += 1
        assert built > 100

    def test_commuting_candidate_basis_matches_greedy_extension(self):
        # the construction's Lagrangian basis, w last, must be the one the
        # greedy extension of (w,) by L's rows gives, on noise drawn from
        # isotropic spans at n = 1..24.  The w that classify finds is
        # mostly one of L's rows, so each case also builds from a random
        # nonzero w of L, a sum of several rows as a rule
        rng = random.Random(41)
        build = ramsey._commuting_anticlique_candidate.__wrapped__
        built = sums = 0
        for c in range(480):
            n = 1 + c % 24
            rows = random_isotropic_rows(rng, n, rng.randrange(1, n + 1))
            noise = [
                functools.reduce(xor, rng.sample(rows, rng.randrange(len(rows) + 1)), 0)
                for _ in range(rng.randrange(1, 9))
            ]
            ch = vector_channel(noise, n)
            if is_maximal_by_definition(channel.difference_set(ch), n):
                continue
            lag, w = lagrangian_and_w(ch)
            anywhere = functools.reduce(xor, rng.sample(lag, rng.randrange(1, n + 1)))
            for v in (w, anywhere):
                ordered = reference.extend_basis(f2.reduce([v], n), lag).rows
                partners = f2.symplectic_partners((*ordered[1:], v), n)
                expected = ramsey._group_from_rows(partners[:-1], n)
                assert build(lag, v, n) == expected, (n, v, [str(op) for op in ch.operators])
            assert ramsey._commuting_anticlique_candidate(lag, w, n) == build(lag, w, n)
            # a sum of two or more rows, whose first and last rows differ
            sums += anywhere not in lag
            built += 1
        assert built > 400
        assert sums > 300

    def test_noncommuting_candidate_shape(self):
        ch = make_channel("II", "XI", "ZI")
        checks = sorted({op.check_vector() for op in ch.operators})
        h, partner = reference.first_anticommuting_pair(checks, 2)
        cand = ramsey._noncommuting_clique_candidate(h, partner >> 2, 2)
        assert cand.num_generators == 1
        # candidate generators commute with the first anticommuting check
        for g in cand.generators:
            assert f2.twisted_dot(g.check_vector(), checks[1], 2) == 0

    def test_clique_candidate_reads_only_the_z_half_of_g(self):
        # the builder, passed g >> n, against the reference that repairs by
        # the twisted dot with all of g: every anticommuting (h, g) at
        # n <= 3, then seeded pairs at n = 16 and 64, half of them with an
        # x-only h (the other case of the completion lemma)
        build = ramsey._noncommuting_clique_candidate.__wrapped__
        pairs = [
            (h, g, n)
            for n in range(1, 4)
            for h in range(1, 1 << (2 * n))
            for g in range(1 << (2 * n))
            if f2.twisted_dot(h, g, n)
        ]
        rng = random.Random(79)
        for n in (16, 64):
            for c in range(100):
                h = rng.randrange(1, 1 << (n if c % 2 else 2 * n))
                pairs.append((h, anticommuting_partner(rng, h, n), n))
        assert len(pairs) == 2142 + 200
        for h, g, n in pairs:
            assert build(h, g >> n, n) == reference.clique_candidate(h, g, n), (h, g, n)

    def test_normalized_clique_key_builds_the_same_candidate(self):
        # the builder, passed _clique_key of (h, g >> n), against the
        # reference that repairs by the twisted dot with all of the raw g:
        # every anticommuting (h, g) at n <= 3, then seeded pairs at n = 16
        # and 64 with a general h, and x-only h = a, several a per z half
        # gz, each against a g of that z half and a random x half
        build = ramsey._noncommuting_clique_candidate.__wrapped__
        pairs = [
            (h, g, n)
            for n in range(1, 4)
            for h in range(1, 1 << (2 * n))
            for g in range(1 << (2 * n))
            if f2.twisted_dot(h, g, n)
        ]
        rng = random.Random(89)
        for n in (16, 64):
            for _ in range(50):
                h = rng.randrange(1 << n, 1 << (2 * n))
                pairs.append((h, anticommuting_partner(rng, h, n), n))
            pairs += [(a, g, n) for a, g in x_only_pairs(rng, n)]
        assert len(pairs) == 2142 + 2 * (50 + 50)
        keys = set()
        for h, g, n in pairs:
            key = ramsey._clique_key(h, g >> n, n)
            assert build(*key) == reference.clique_candidate(h, g, n), (h, g, n)
            keys.add(key)
        # an x-only h keys by (gz & -gz, gz, n), so the 5 a drawn per gz
        # share one key
        assert sum(1 for h, _, n in keys if not h >> n and n > 3) == 2 * 10

    def test_clique_memo_misses_once_per_normalized_key(self):
        # a classify_large_n-shaped stream: identity plus 2n weight-1/2
        # Paulis at n = 6, 8, 10.  The clique memo misses exactly once per
        # distinct _clique_key(h, g >> n, n) and evicts nothing, which is
        # fewer misses than the distinct (h, g >> n, n) it is handed
        rng = random.Random(83)
        channels = [low_weight_channel(rng, n) for _ in range(30) for n in (6, 8, 10)]
        clear_classify_memos()
        raw = set()
        for ch in channels:
            n = ch.n
            ramsey.classify(ch)
            pair = reference.first_anticommuting_pair(reference.shifted_checks(ch), n)
            if pair is not None:
                h, g = pair
                raw.add((h, g >> n, n))
        keys = {ramsey._clique_key(*key) for key in raw}
        info = ramsey._noncommuting_clique_candidate.cache_info()
        assert info.misses == info.currsize == len(keys)
        assert len(keys) < len(raw)


class TestSymplecticInvariance:
    def test_transvections_keep_counts_and_verdicts(self):
        # a product of transvections v -> v + <v, u> u keeps every twisted
        # dot, so applied to the checks and to the code it keeps the
        # compressed dimension, Gottesman's test and the classify verdict
        rng = random.Random(81)
        seen = set()
        for case in range(400):
            n = 2 + case % 6
            ch, group = dimension_pair(rng, n)
            t = random_symplectic_map(rng, n, 2 * n)
            moved_ch = vector_channel([t(op.check_vector()) for op in ch.operators], n)
            moved = ramsey._group_from_rows([t(g.check_vector()) for g in group.generators], n)
            dim = ramsey.compressed_dimension(ch, group)
            assert ramsey.compressed_dimension(moved_ch, moved) == dim, case
            correctable = ramsey.gottesman_correctable(ch, group)
            assert ramsey.gottesman_correctable(moved_ch, moved) == correctable, case
            verdict = ramsey.classify(ch)
            after = ramsey.classify(moved_ch)
            assert (after.tag, after.dim_pgp) == (verdict.tag, verdict.dim_pgp), case
            seen.add((verdict.tag, dim > 1, correctable))
        # every verdict, and counts of 1 and above, correctable or not
        assert {tag for tag, _, _ in seen} == {
            "MaximalStabilizerChannel", "Anticlique", "Clique"
        }
        assert {(big, ok) for _, big, ok in seen} == {(False, True), (True, False)}
