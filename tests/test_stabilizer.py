"""Stabilizer group layer: validation, canonical form, projectors.

Dense matrices act as the oracle throughout: group elements are checked
against explicit matrix products and the projector lemmas against real
spectral facts, not against the symplectic code under test.
"""

import collections
import functools
import random
from itertools import combinations

import numpy as np
import pytest

from qramsey import f2, ramsey, selftest, stabilizer
from qramsey.pauli import CapacityError, PauliOperator, hermitian_rep, parse

import reference
from helpers import random_isotropic_rows, random_pauli


class TestValidate:
    def test_two_generator_group(self):
        group = stabilizer.from_string("ZZI,IZZ")
        assert group.n == 3
        assert group.num_generators == 2
        assert group.k == 1

    def test_empty_group_stabilizes_everything(self):
        group = stabilizer.validate([], n=2)
        assert group.k == 2
        assert group.generators == ()

    def test_empty_group_needs_qubit_count(self):
        with pytest.raises(ValueError, match="qubit count"):
            stabilizer.validate([])

    def test_non_hermitian_generator(self):
        with pytest.raises(ValueError, match=r"generator 2 \(iX\) is not Hermitian"):
            stabilizer.validate([parse("Z"), parse("iX")])

    def test_anticommuting_pair_reported(self):
        with pytest.raises(ValueError, match=r"generators anticommute: \(1,3\)"):
            stabilizer.validate([parse("XI"), parse("IZ"), parse("ZI")])

    def test_dependent_check_vectors(self):
        # XX * ZZ = -YY, so the three together are dependent
        with pytest.raises(ValueError, match="dependent"):
            stabilizer.from_string("XX,ZZ,-YY")

    def test_mismatched_qubit_counts(self):
        with pytest.raises(ValueError, match="generator 2"):
            stabilizer.validate([parse("ZZ"), parse("Z")])

    def test_more_than_n_generators_impossible(self):
        # a fourth commuting independent generator cannot exist on 2 qubits,
        # so overfull presentations always trip one of the checks
        with pytest.raises(ValueError):
            stabilizer.from_string("ZI,IZ,ZZ")


class TestCanonicalForm:
    def test_presentation_independence(self):
        a = stabilizer.from_string("ZZ,ZI")
        b = stabilizer.from_string("ZI,IZ")
        c = stabilizer.from_string("IZ,ZZ")
        assert a == b == c
        assert str(a) == "ZI,IZ"

    def test_hash_is_kept_out_of_repr_and_equality(self):
        a = stabilizer.from_string("ZZ,ZI")
        b = stabilizer.from_string("ZI,IZ")
        # b's hash is computed and kept, a's not yet
        assert hash(b) == hash((2, b.generators))
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert repr(a) == repr(b) == "StabilizerGroup(n=2, generators=%r)" % (b.generators,)
        assert {a: 1}[b] == 1

    def test_signs_tracked_through_reduction(self):
        group = stabilizer.from_string("-ZZ,ZI")
        assert str(group) == "ZI,-IZ"

    def test_canonicalization_preserves_group(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randrange(1, 4)
            group = selftest._random_group(rng, n)
            raw = [PauliOperator(n, 0, 0, 0)]
            for g in group.generators:
                raw += [e.multiply(g) for e in raw]
            # rebuild from a shuffled presentation and compare element sets
            shuffled = list(group.generators)
            rng.shuffle(shuffled)
            again = stabilizer.validate(shuffled, n=n)
            assert again == group
            regen = [PauliOperator(n, 0, 0, 0)]
            for g in again.generators:
                regen += [e.multiply(g) for e in regen]
            key = lambda p: (p.phase, p.x, p.z)
            assert sorted(map(key, raw)) == sorted(map(key, regen))

    def test_check_basis_is_the_reduced_check_vectors(self):
        # check_basis reads the canonical generators' check vectors instead
        # of reducing them again; the result must be f2.reduce's basis
        rng = random.Random(17)
        for n in range(1, 12):
            for _ in range(10):
                group = selftest._random_group(rng, n)
                checks = [g.check_vector() for g in group.generators]
                assert group.check_basis() == f2.reduce(checks, n), str(group)
            empty = stabilizer.validate([], n=n)
            assert empty.check_basis() == f2.reduce([], n) == f2.F2Basis(n, ())

    def test_string_round_trip(self):
        group = stabilizer.from_string("ZZI,IZZ")
        assert str(group) == "ZIZ,IZZ"
        assert stabilizer.from_string(str(group)) == group


def _column_sweep_canonical(gens, n):
    """The former canonical form: an f2.reduce independence pass, then a
    group-level row reduction sweeping the columns in order."""
    if f2.reduce((g.check_vector() for g in gens), n).dim != len(gens):
        raise ValueError("generator check vectors are dependent")
    ops = list(gens)
    row = 0
    for col in range(2 * n):
        src = next(
            (i for i in range(row, len(ops)) if (ops[i].check_vector() >> col) & 1),
            None,
        )
        if src is None:
            continue
        ops[row], ops[src] = ops[src], ops[row]
        for j in range(len(ops)):
            if j != row and (ops[j].check_vector() >> col) & 1:
                ops[j] = ops[j].multiply(ops[row])
        row += 1
    return tuple(sorted(ops, key=lambda g: g.check_vector()))


def _outcome(build, gens):
    try:
        return build(gens)
    except ValueError as err:
        return str(err)


def _signed(rng, g):
    """g or -g, at random."""
    return PauliOperator(g.n, (g.phase + 2 * rng.randrange(2)) % 4, g.x, g.z)


def _scrambled_presentation(rng, rows, n):
    """Generators of the group on ``rows`` with random signs, replaced by
    random products of each other, sometimes with a signed product of some
    of them (or +-I) appended, and shuffled."""
    gens = [_signed(rng, hermitian_rep(v, n)) for v in rows]
    if len(gens) > 1:
        for _ in range(rng.randrange(2 * len(gens))):
            i, j = rng.sample(range(len(gens)), 2)
            gens[i] = gens[i].multiply(gens[j])
    if rng.random() < 0.4:
        extra = PauliOperator(n, 2 * rng.randrange(2), 0, 0)
        for g in rng.sample(gens, rng.randrange(len(gens) + 1)):
            extra = extra.multiply(g)
        gens.append(extra)
    rng.shuffle(gens)
    return gens


class TestOnePassCanonical:
    def test_matches_column_sweep_on_every_small_subspace(self):
        rng = random.Random(41)
        errors = 0
        for n in range(1, 4):
            for d in range(n + 1):
                for basis in f2.enumerate_isotropic(n, d):
                    for _ in range(3):
                        gens = _scrambled_presentation(rng, basis.rows, n)
                        want = _outcome(lambda g: _column_sweep_canonical(g, n), gens)
                        assert _outcome(lambda g: stabilizer._canonical(g, n), gens) == want
                        assert _outcome(
                            lambda g: stabilizer.validate(g, n=n).generators, gens
                        ) == want
                        errors += isinstance(want, str)
        assert errors > 200

    def test_matches_column_sweep_on_seeded_subspaces(self):
        # larger groups, whose canonical generators are products of many
        # given ones, at n = 4..12
        rng = random.Random(43)
        errors = 0
        for c in range(270):
            n = 4 + c % 9
            rows = random_isotropic_rows(rng, n, rng.randrange(n + 1))
            gens = _scrambled_presentation(rng, rows, n)
            want = _outcome(lambda g: _column_sweep_canonical(g, n), gens)
            assert _outcome(lambda g: stabilizer._canonical(g, n), gens) == want
            assert _outcome(lambda g: stabilizer.validate(g, n=n).generators, gens) == want
            errors += isinstance(want, str)
        assert 40 < errors < 200


class TestReducedFastPath:
    """validate skips the tracked reduction for a fully reduced basis."""

    @staticmethod
    @functools.cache
    def presentations():
        """Every isotropic basis at n <= 4 (19,930), as its plus-signed
        operators in order, then shuffled with random signs."""
        rng = random.Random(29)
        out = []
        for n in range(1, 5):
            plus = [hermitian_rep(v, n) for v in range(1 << (2 * n))]
            for d in range(n + 1):
                for basis in f2.enumerate_isotropic(n, d):
                    ops = [plus[v] for v in basis.rows]
                    shuffled = [_signed(rng, g) for g in ops]
                    rng.shuffle(shuffled)
                    out.append((n, ops, shuffled))
        assert len(out) == 19930
        return out

    def test_reduced_bases_match_the_reduction_route(self, monkeypatch):
        cases = self.presentations()
        want = [
            (reference.validate(ops, n=n), reference.validate(shuffled, n=n))
            for n, ops, shuffled in cases
        ]

        def no_reduction(gens, n):
            raise AssertionError("a reduced basis was reduced again")

        monkeypatch.setattr(stabilizer, "_canonical", no_reduction)
        signed = 0
        for (n, ops, shuffled), (plain, mixed) in zip(cases, want):
            group = stabilizer.validate(ops, n=n)
            assert group.generators == plain.generators, [str(g) for g in ops]
            # the inputs themselves, no products
            assert all(any(g is h for h in ops) for g in group.generators)
            again = stabilizer.validate(shuffled, n=n)
            assert again.generators == mixed.generators, [str(g) for g in shuffled]
            signed += again != group
        assert signed > 15000

    def test_other_presentations_match_the_reduction_route(self):
        # products of the generators, random signs, sometimes a dependent
        # extra: the reduction route, its errors included
        rng = random.Random(31)
        reduced = errors = 0
        for n, ops, _ in self.presentations()[::3]:
            gens = _scrambled_presentation(rng, [g.check_vector() for g in ops], n)
            want = _outcome(lambda g: reference.validate(g, n=n).generators, gens)
            assert _outcome(lambda g: stabilizer.validate(g, n=n).generators, gens) == want
            checks = [g.check_vector() for g in gens]
            reduced += f2.reduce(checks, n).rows == tuple(sorted(checks, key=lambda v: v & -v))
            errors += isinstance(want, str)
        # both routes are taken: some presentations are still reduced
        assert errors > 1000 and 0 < reduced < 2000

    def test_random_lists_fail_as_the_reduction_route_does(self):
        # random phases and check vectors: the first offending generator or
        # pair, and dependence, are reported as pair by pair
        rng = random.Random(37)
        outcomes = collections.Counter()
        kinds = ("Hermitian", "anticommute", "dependent")
        for _ in range(4000):
            n = rng.randrange(1, 4)
            gens = [random_pauli(rng, n) for _ in range(rng.randrange(1, n + 2))]
            want = _outcome(lambda g: reference.validate(g, n=n), gens)
            assert _outcome(lambda g: stabilizer.validate(g, n=n), gens) == want
            if isinstance(want, str):
                outcomes[next(k for k in kinds if k in want)] += 1
            else:
                outcomes["group"] += 1
        assert set(outcomes) == {"group", *kinds}

    @pytest.mark.parametrize(
        "gens, n, message",
        [
            (["XI", "iIZ"], None, "generator 2 (iIZ) is not Hermitian"),
            (["-iXI", "IZ"], None, "generator 1 (-iXI) is not Hermitian"),
            (["XI", "IX", "ZI"], None, "generators anticommute: (1,3)"),
            (["XI", "ZI", "IX", "IZ"], None, "generators anticommute: (1,2)"),
            (["IX", "XI", "IZ"], None, "generators anticommute: (1,3)"),
            (["ZI", "II"], None, "generator check vectors are dependent"),
            (["II"], None, "generator check vectors are dependent"),
            (["ZI", "ZI"], None, "generator check vectors are dependent"),
            (["ZI", "-ZI"], None, "generator check vectors are dependent"),
            (["ZI", "Z"], None, "generator 2 (Z) acts on 1 qubits, expected 2"),
            (["ZI", "IZ"], 3, "generator 1 (ZI) acts on 2 qubits, expected 3"),
        ],
    )
    def test_reduced_shaped_input_is_still_rejected(self, gens, n, message):
        ops = [parse(s) for s in gens]
        for route in (stabilizer.validate, reference.validate):
            with pytest.raises(ValueError) as err:
                route(ops, n=n)
            assert str(err.value) == message


class TestElements:
    def test_bell_group_elements(self):
        group = stabilizer.from_string("XX,ZZ")
        got = {str(e) for e in stabilizer.elements(group)}
        assert got == {"II", "XX", "ZZ", "-YY"}

    def test_elements_against_dense_products(self):
        group = stabilizer.from_string("XX,ZZ")
        for e in stabilizer.elements(group):
            assert e.is_hermitian()
        minus_yy = [e for e in stabilizer.elements(group) if str(e) == "-YY"]
        xx, zz = parse("XX").to_dense(), parse("ZZ").to_dense()
        assert np.array_equal(minus_yy[0].to_dense(), xx @ zz)

    def test_identity_first_and_count(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randrange(1, 4)
            group = selftest._random_group(rng, n)
            elems = stabilizer.elements(group)
            assert elems[0] == PauliOperator(n, 0, 0, 0)
            assert len(elems) == 1 << group.num_generators
            assert len({e.check_vector() for e in elems}) == len(elems)

    def test_closure_under_multiplication(self):
        group = stabilizer.from_string("ZZI,IZZ,XXX")
        elems = stabilizer.elements(group)
        table = {(e.phase, e.x, e.z) for e in elems}
        for a in elems:
            for b in elems:
                c = a.multiply(b)
                assert (c.phase, c.x, c.z) in table

    def test_capacity_limit(self, monkeypatch):
        n = stabilizer.ELEMENT_LIMIT + 1
        group = stabilizer.validate([PauliOperator(n, 0, 0, 1 << j) for j in range(n)])

        def multiply(self, other):
            raise AssertionError("elements enumerated past its limit")

        # the bound is checked before the first product
        monkeypatch.setattr(PauliOperator, "multiply", multiply)
        with pytest.raises(
            CapacityError, match="element enumeration limited to 20 generators, got 21"
        ):
            stabilizer.elements(group)


class TestCentralizerImage:
    def test_dimension_is_n_plus_k(self):
        for n in (1, 2, 3):
            for d in range(0, n + 1):
                rng = random.Random(100 * n + d)
                group = selftest._random_group(rng, n, d)
                image = stabilizer.centralizer_image(group)
                assert image.dim == group.n + group.k

    def test_single_z_centralizer(self):
        group = stabilizer.from_string("Z")
        image = stabilizer.centralizer_image(group)
        assert image.dim == 1
        assert f2.in_span(parse("Z").check_vector(), image)
        assert not f2.in_span(parse("X").check_vector(), image)

    def test_membership_matches_commutation(self):
        # reduce_mod tests membership only on a canonical basis, so this also
        # pins centralizer_image (twisted_kernel) as canonical
        for n in (1, 2, 3):
            ops = [hermitian_rep(v, n) for v in range(1 << (2 * n))]
            for d in range(n + 1):
                for basis in f2.enumerate_isotropic(n, d):
                    group = ramsey._group_from_rows(basis.rows, n)
                    image = stabilizer.centralizer_image(group)
                    for v, p in enumerate(ops):
                        commutes = all(p.commutes(g) for g in group.generators)
                        assert (f2.reduce_mod(v, image) == 0) == commutes


class TestProjector:
    def test_single_z(self):
        p = stabilizer.projector(stabilizer.from_string("Z"))
        assert np.array_equal(p, np.diag([1.0, 0.0]).astype(complex))

    def test_single_minus_z(self):
        p = stabilizer.projector(stabilizer.from_string("-Z"))
        assert np.array_equal(p, np.diag([0.0, 1.0]).astype(complex))

    def test_bell_projector_is_rank_one(self):
        p = stabilizer.projector(stabilizer.from_string("XX,ZZ"))
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        assert np.allclose(p, np.outer(bell, bell.conj()))

    def test_projector_properties(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randrange(1, 4)
            group = selftest._random_group(rng, n)
            p = stabilizer.projector(group)
            assert np.allclose(p @ p, p)
            assert np.allclose(p, p.conj().T)
            assert np.isclose(np.trace(p).real, 1 << group.k)
            for g in group.generators:
                assert np.allclose(g.to_dense() @ p, p)

    def test_product_form_matches_element_sum(self):
        rng = random.Random(29)
        for _ in range(25):
            n = rng.randrange(1, 4)
            group = selftest._random_group(rng, n)
            p = stabilizer.projector(group)
            total = sum(e.to_dense() for e in stabilizer.elements(group))
            assert np.allclose(p, total / (1 << group.num_generators))

    def test_capacity_limit(self):
        group = stabilizer.validate([], n=5)
        with pytest.raises(CapacityError):
            stabilizer.projector(group)


class TestZeroCompression:
    """P g P vanishes exactly when g anticommutes with some stabilizer."""

    def test_exhaustive_small(self):
        for n in (1, 2):
            for d in range(0, n + 1):
                for basis in f2.enumerate_isotropic(n, d):
                    group = ramsey._group_from_rows(basis.rows, n)
                    p = stabilizer.projector(group)
                    image = stabilizer.centralizer_image(group)
                    for v in range(1 << (2 * n)):
                        g = hermitian_rep(v, n).to_dense()
                        squeezed = p @ g @ p
                        if f2.in_span(v, image):
                            assert np.allclose(squeezed, g @ p)
                            assert not np.allclose(squeezed, 0)
                        else:
                            assert np.allclose(squeezed, 0)

    def test_signs_do_not_matter(self):
        plus = stabilizer.from_string("XX,ZZ")
        minus = stabilizer.from_string("-XX,-ZZ")
        for v in range(16):
            g = hermitian_rep(v, 2).to_dense()
            inside = f2.in_span(v, stabilizer.centralizer_image(plus))
            for group in (plus, minus):
                p = stabilizer.projector(group)
                assert np.allclose(p @ g @ p, 0) == (not inside)


class TestTraceOrthogonality:
    """For g, h in the centralizer, tr(P g^+ h) = 0 unless g^+ h lands in L(S)."""

    def test_random_centralizer_pairs(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randrange(1, 4)
            group = selftest._random_group(rng, n)
            p = stabilizer.projector(group)
            image = stabilizer.centralizer_image(group)
            span = list(image.span())
            check = group.check_basis()
            g = hermitian_rep(rng.choice(span), n)
            h = hermitian_rep(rng.choice(span), n)
            value = np.trace(p @ g.adjoint().to_dense() @ h.to_dense())
            if f2.in_span(g.check_vector() ^ h.check_vector(), check):
                assert np.isclose(abs(value), 1 << group.k)
            else:
                assert np.isclose(value, 0)


class TestExtendToMaximal:
    def test_zz_extends_with_xx(self):
        group = stabilizer.from_string("ZZ")
        assert [str(g) for g in stabilizer.extend_to_maximal(group)] == ["ZZ", "XX"]

    def test_prefix_and_signs_preserved(self):
        group = stabilizer.from_string("-ZZ")
        full = stabilizer.extend_to_maximal(group)
        assert full[0] == group.generators[0]
        assert str(full[0]) == "-ZZ"

    def test_already_maximal_unchanged(self):
        group = stabilizer.from_string("ZI,IZ")
        assert tuple(stabilizer.extend_to_maximal(group)) == group.generators

    def test_empty_group_at_24_qubits_is_x_on_each_qubit(self):
        n = 24
        full = stabilizer.extend_to_maximal(stabilizer.validate([], n=n))
        assert [str(g) for g in full] == [
            "I" * q + "X" + "I" * (n - q - 1) for q in range(n)
        ]

    def test_postconditions(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randrange(1, 5)
            group = selftest._random_group(rng, n)
            full = stabilizer.extend_to_maximal(group)
            assert len(full) == n
            assert tuple(full[: group.num_generators]) == group.generators
            assert stabilizer.validate(full, n=n).num_generators == n
            for g in full[group.num_generators :]:
                assert not str(g).startswith("-")
            assert stabilizer.extend_to_maximal(group) == full


class TestAnticommutingPartners:
    def test_single_z_partner_is_x(self):
        assert [str(g) for g in stabilizer.anticommuting_partners([parse("Z")])] == ["X"]

    def test_computational_basis_partners(self):
        got = stabilizer.anticommuting_partners([parse("ZI"), parse("IZ")])
        assert [str(g) for g in got] == ["XI", "IX"]

    def test_duality_pattern(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randrange(1, 5)
            ops = [hermitian_rep(v, n) for v in selftest._random_isotropic_rows(rng, n, n)]
            partners = stabilizer.anticommuting_partners(ops)
            assert len(partners) == n
            for i, g in enumerate(partners):
                assert g.is_hermitian()
                assert not str(g).startswith("-")
                for j, h in enumerate(ops):
                    assert g.commutes(h) == (i != j)
            for a, b in combinations(partners, 2):
                assert a.commutes(b)
            rows = [g.check_vector() for g in ops] + [g.check_vector() for g in partners]
            assert f2.reduce(rows, n).dim == 2 * n

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="expected 2 operators, got 1"):
            stabilizer.anticommuting_partners([parse("ZI")])

    def test_anticommuting_family_rejected(self):
        with pytest.raises(ValueError, match=r"operators anticommute: \(1,2\)"):
            stabilizer.anticommuting_partners([parse("XI"), parse("ZI")])
