"""Phased Pauli algebra, cross-checked against dense matrices.

The dense-product check comes first: every other layer trusts the normal
form multiplication rule, so it is validated against numpy matrix
products before anything else.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qramsey import pauli
from qramsey.pauli import PauliOperator, hermitian_rep, identity, parse

from helpers import random_pauli

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


class TestDenseMultiplicativity:
    """The normal-form product rule must reproduce dense matrix products."""

    def test_product_rule_random(self):
        rng = random.Random(0)
        for n in (1, 2, 3):
            for _ in range(200):
                g, h = random_pauli(rng, n), random_pauli(rng, n)
                assert np.array_equal(
                    g.multiply(h).to_dense(), g.to_dense() @ h.to_dense()
                )

    def test_x_times_z(self):
        got = parse("X") * parse("Z")
        assert (got.phase, got.x, got.z) == (0, 1, 1)
        assert np.array_equal(got.to_dense(), X @ Z)

    def test_z_times_x(self):
        got = parse("Z") * parse("X")
        assert (got.phase, got.x, got.z) == (2, 1, 1)
        assert np.array_equal(got.to_dense(), Z @ X)

    def test_y_squared_is_identity(self):
        got = parse("Y") * parse("Y")
        assert (got.phase, got.x, got.z) == (0, 0, 0)

    def test_check_vectors_add(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randrange(1, 4)
            g, h = random_pauli(rng, n), random_pauli(rng, n)
            assert g.multiply(h).check_vector() == g.check_vector() ^ h.check_vector()

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            parse("X").multiply(parse("XX"))


class TestDenseConvention:
    """Dense matrices pin the sign conventions."""

    def test_single_qubit_letters(self):
        assert np.array_equal(parse("X").to_dense(), X)
        assert np.array_equal(parse("Y").to_dense(), Y)
        assert np.array_equal(parse("Z").to_dense(), Z)
        assert np.array_equal(parse("I").to_dense(), I2)

    def test_y_is_i_times_xz(self):
        # the letter Y carries phase exponent 1 on top of X(1)Z(1)
        y = parse("Y")
        assert (y.phase, y.x, y.z) == (1, 1, 1)
        assert np.array_equal(Y, 1j * (X @ Z))

    def test_ix_ordering(self):
        # qubit 1 is the leftmost letter and the leftmost Kronecker factor
        assert np.array_equal(parse("IX").to_dense(), np.kron(I2, X))
        assert np.array_equal(parse("XI").to_dense(), np.kron(X, I2))

    def test_phase_prefix(self):
        assert np.array_equal(parse("-iZZ").to_dense(), -1j * np.kron(Z, Z))

    @staticmethod
    def _kron_chain(p):
        # the product to_dense forms, taken with np.kron one factor at a time
        m = np.array([[(1, 1j, -1, -1j)[p.phase]]], dtype=complex)
        for j in range(p.n):
            m = np.kron(m, [[I2, Z], [X, X @ Z]][(p.x >> j) & 1][(p.z >> j) & 1])
        return m

    def _assert_bit_equal_to_kron(self, p):
        dense, kron = p.to_dense(), self._kron_chain(p)
        assert dense.dtype == kron.dtype and dense.shape == kron.shape
        assert dense.tobytes() == kron.tobytes(), p

    def test_to_dense_is_the_kron_chain_up_to_three_qubits(self):
        for n in (1, 2, 3):
            for x in range(1 << n):
                for z in range(1 << n):
                    for phase in range(4):
                        self._assert_bit_equal_to_kron(PauliOperator(n, phase, x, z))

    def test_to_dense_is_the_kron_chain_at_four_qubits(self):
        rng = random.Random(44)
        for _ in range(100):
            self._assert_bit_equal_to_kron(random_pauli(rng, 4))

    def test_capacity_bound(self):
        assert identity(4).to_dense().shape == (16, 16)
        with pytest.raises(
            pauli.CapacityError, match="dense conversion limited to 4 qubits, got 5"
        ):
            identity(5).to_dense()


class TestConstruction:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 0, 0, 0), "qubit count must be positive, got 0"),
            ((2, 4, 0, 0), r"phase exponent must be in 0\.\.3, got 4"),
            ((2, -1, 0, 0), r"phase exponent must be in 0\.\.3, got -1"),
            ((2, 0, 4, 0), r"x = 0x4, z = 0x0 does not fit in F_2\^4"),
            ((2, 0, 0, 8), r"x = 0x0, z = 0x8 does not fit in F_2\^4"),
            ((2, 0, -1, 0), r"x = -0x1, z = 0x0 does not fit in F_2\^4"),
        ],
    )
    def test_out_of_range_fields_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            PauliOperator(*args)


class TestParseFormat:
    def test_parse_examples(self):
        op = parse("-iZZ")
        assert (op.n, op.phase, op.x, op.z) == (2, 3, 0, 0b11)
        op = parse("XIZ")
        assert (op.n, op.phase, op.x, op.z) == (3, 0, 0b001, 0b100)

    def test_format_negative_z(self):
        assert str(PauliOperator(1, 2, 0, 1)) == "-Z"

    def test_format_minus_y(self):
        # phase 3 on X(1)Z(1) is -i * XZ = -Y
        op = PauliOperator(1, 3, 1, 1)
        assert str(op) == "-Y"
        assert np.array_equal(op.to_dense(), -Y)

    def test_round_trip_all_n2(self):
        for phase in range(4):
            for x in range(4):
                for z in range(4):
                    op = PauliOperator(2, phase, x, z)
                    assert parse(str(op)) == op

    def test_round_trip_strings(self):
        for s in ("Y", "-Y", "iY", "-iY", "+X", "IZXY", "-iIIII"):
            assert str(parse(s)) == s.lstrip("+")

    def test_bad_letter_reports_position(self):
        with pytest.raises(ValueError, match="position 2"):
            parse("XIQZ")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse("")
        with pytest.raises(ValueError):
            parse("-i")


class TestAlgebra:
    def test_adjoint_matches_dense(self):
        rng = random.Random(2)
        for _ in range(300):
            n = rng.randrange(1, 4)
            g = random_pauli(rng, n)
            assert np.array_equal(g.adjoint().to_dense(), g.to_dense().conj().T)

    def test_adjoint_preserves_check_vector(self):
        g = parse("iXY")
        assert g.adjoint().check_vector() == g.check_vector()

    def test_commutes_matches_dense(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randrange(1, 3)
            g, h = random_pauli(rng, n), random_pauli(rng, n)
            gd, hd = g.to_dense(), h.to_dense()
            assert g.commutes(h) == np.array_equal(gd @ hd, hd @ gd)

    def test_hermitian_matches_dense(self):
        for phase in range(4):
            for x in range(4):
                for z in range(4):
                    g = PauliOperator(2, phase, x, z)
                    gd = g.to_dense()
                    assert g.is_hermitian() == np.array_equal(gd, gd.conj().T)

    def test_scalars_and_trace(self):
        # nonzero trace exactly for scalar multiples of the identity
        for phase in range(4):
            for x in range(4):
                for z in range(4):
                    g = PauliOperator(2, phase, x, z)
                    tr = np.trace(g.to_dense())
                    assert g.is_scalar() == (abs(tr) > 0.5)

    def test_trace_detects_equality_mod_phase(self):
        # Tr(g h) != 0 iff g and h share a check vector
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randrange(1, 3)
            g, h = random_pauli(rng, n), random_pauli(rng, n)
            tr = np.trace((g.multiply(h)).to_dense())
            assert (abs(tr) > 0.5) == (g.check_vector() == h.check_vector())

    def test_tensor_matches_kron(self):
        rng = random.Random(5)
        for _ in range(200):
            n1 = rng.randrange(1, 3)
            n2 = rng.randrange(1, 3)
            g, h = random_pauli(rng, n1), random_pauli(rng, n2)
            assert np.array_equal(
                g.tensor(h).to_dense(), np.kron(g.to_dense(), h.to_dense())
            )

    def test_tensor_example(self):
        got = parse("iX").tensor(parse("iZ"))
        assert (got.n, got.phase, got.x, got.z) == (2, 2, 0b01, 0b10)

    @given(st.data())
    @settings(deadline=None)
    def test_multiply_associative(self, data):
        n = data.draw(st.integers(1, 4))
        ops = [
            PauliOperator(
                n,
                data.draw(st.integers(0, 3)),
                data.draw(st.integers(0, (1 << n) - 1)),
                data.draw(st.integers(0, (1 << n) - 1)),
            )
            for _ in range(3)
        ]
        g, h, k = ops
        assert g.multiply(h).multiply(k) == g.multiply(h.multiply(k))

    @given(st.data())
    @settings(deadline=None)
    def test_adjoint_involution_and_antihomomorphism(self, data):
        n = data.draw(st.integers(1, 4))
        g = PauliOperator(
            n,
            data.draw(st.integers(0, 3)),
            data.draw(st.integers(0, (1 << n) - 1)),
            data.draw(st.integers(0, (1 << n) - 1)),
        )
        h = PauliOperator(
            n,
            data.draw(st.integers(0, 3)),
            data.draw(st.integers(0, (1 << n) - 1)),
            data.draw(st.integers(0, (1 << n) - 1)),
        )
        assert g.adjoint().adjoint() == g
        assert g.multiply(h).adjoint() == h.adjoint().multiply(g.adjoint())


class TestHermitianRep:
    def test_plus_signed(self):
        for v in range(16):
            op = hermitian_rep(v, 2)
            assert op.is_hermitian()
            assert op.check_vector() == v
            assert not str(op).startswith(("-", "i"))

    def test_yy_gets_phase_two(self):
        op = hermitian_rep(0b1111, 2)
        assert str(op) == "YY"
        assert np.array_equal(op.to_dense(), np.kron(Y, Y))

    def test_squares_to_identity(self):
        for v in range(64):
            op = hermitian_rep(v, 3)
            assert op.multiply(op) == identity(3)

    @pytest.mark.parametrize("n", [0, -2])
    def test_nonpositive_qubit_count_rejected(self, n):
        # as identity(n) does; v = 0 fits any width, so only n can fail
        with pytest.raises(ValueError, match="qubit count must be positive"):
            hermitian_rep(0, n)
