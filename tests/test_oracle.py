"""Dense verifier: Gram ranks, the error-correction scalar test, privacy.

These tests lean on hand-computable dense facts; the oracle must stand on
its own because the rest of the suite uses it as ground truth.
"""

import random

import numpy as np
import pytest

from qramsey import channel, f2, oracle, ramsey, stabilizer
from qramsey.pauli import CapacityError, hermitian_rep, identity, parse


def make_channel(*ops, n=None):
    return channel.from_noise([parse(s) for s in ops], n=n)


def random_channel(rng, n, max_ops=5):
    ops = [
        hermitian_rep(rng.randrange(1 << (2 * n)), n)
        for _ in range(rng.randrange(1, max_ops))
    ]
    return channel.from_noise(ops, n=n)


def random_group(rng, n, d=None):
    if d is None:
        d = rng.randrange(0, n + 1)
    rows = []
    while len(rows) < d:
        v = rng.randrange(1, 1 << (2 * n))
        if all(f2.twisted_dot(v, r, n) == 0 for r in rows) and not f2.in_span(
            v, f2.reduce(rows, n)
        ):
            rows.append(v)
    return stabilizer.validate([hermitian_rep(v, n) for v in rows], n=n)


MAXIMAL_X = channel.maximal_stabilizer_channel(stabilizer.from_string("XI,IX"))


class TestDenseCompressedDimension:
    def test_identity_channel(self):
        result = oracle.dense_compressed_dimension(
            make_channel("I"), stabilizer.from_string("Z")
        )
        assert result.rank == 1

    def test_maximal_channel_against_zz(self):
        result = oracle.dense_compressed_dimension(
            MAXIMAL_X, stabilizer.from_string("ZZ")
        )
        assert result.rank == 2

    def test_full_pauli_channel(self):
        full = channel.from_noise([hermitian_rep(v, 2) for v in range(16)])
        assert (
            oracle.dense_compressed_dimension(full, stabilizer.from_string("ZI")).rank
            == 4
        )

    def test_singular_values_justify_the_rank(self):
        result = oracle.dense_compressed_dimension(
            make_channel("II", "XI", "ZI"), stabilizer.from_string("IX")
        )
        values = np.array(result.singular_values)
        assert np.all(np.diff(values) <= 1e-9)
        assert result.rank == np.count_nonzero(
            values > oracle.RANK_TOLERANCE * values[0]
        )

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="qubits"):
            oracle.dense_compressed_dimension(
                make_channel("X"), stabilizer.from_string("ZI")
            )

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            oracle.dense_compressed_dimension(
                channel.from_noise([identity(5)]), stabilizer.validate([], n=5)
            )

    def test_agrees_with_symplectic_route(self):
        rng = random.Random(19)
        for _ in range(50):
            n = rng.randrange(1, 4)
            ch = random_channel(rng, n)
            group = random_group(rng, n)
            assert (
                oracle.dense_compressed_dimension(ch, group).rank
                == ramsey.compressed_dimension(ch, group)
            )


class TestDenseGraphDimension:
    def test_matches_difference_set_size(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randrange(1, 3)
            ch = random_channel(rng, n)
            assert oracle.dense_graph_dimension(ch).rank == channel.graph_dimension(ch)


class TestKlCheck:
    def test_repetition_code_bit_flips(self):
        noise = make_channel("III", "XII", "IXI", "IIX")
        assert oracle.kl_check(noise, stabilizer.from_string("ZZI,IZZ"))

    def test_identity_channel_always_passes(self):
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randrange(1, 4)
            assert oracle.kl_check(channel.from_noise([identity(n)]), random_group(rng, n))

    def test_dephasing_on_plus_state_code(self):
        assert oracle.kl_check(make_channel("I", "Z"), stabilizer.from_string("X"))

    def test_logical_noise_fails(self):
        # ZI centralizes <IZ> without being in it, so compression is not scalar
        assert not oracle.kl_check(make_channel("II", "ZI"), stabilizer.from_string("IZ"))

    def test_equivalent_to_rank_one_and_gottesman(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randrange(1, 3)
            ch = random_channel(rng, n)
            group = random_group(rng, n)
            kl = oracle.kl_check(ch, group)
            assert kl == (oracle.dense_compressed_dimension(ch, group).rank == 1)
            assert kl == ramsey.gottesman_correctable(ch, group)


class TestDenseMaximalCheck:
    def test_accepts_the_generating_group(self):
        group = stabilizer.from_string("XI,IX")
        assert oracle.dense_maximal_check(MAXIMAL_X, group)

    def test_signs_do_not_matter(self):
        group = stabilizer.from_string("-XI,IX")
        ch = channel.maximal_stabilizer_channel(group)
        assert oracle.dense_maximal_check(ch, stabilizer.from_string("XI,IX"))
        assert oracle.dense_maximal_check(ch, group)

    def test_rejects_the_wrong_group(self):
        assert not oracle.dense_maximal_check(MAXIMAL_X, stabilizer.from_string("ZI,IZ"))

    def test_rejects_non_maximal_channels(self):
        assert not oracle.dense_maximal_check(
            make_channel("II"), stabilizer.from_string("XI,IX")
        )
        assert not oracle.dense_maximal_check(
            make_channel("II", "XI", "ZI"), stabilizer.from_string("XI,IX")
        )

    def test_requires_maximal_group(self):
        with pytest.raises(ValueError, match="maximal"):
            oracle.dense_maximal_check(MAXIMAL_X, stabilizer.from_string("XI"))


class TestPrivateWitnessCheck:
    def test_clique_witness_passes(self):
        ch = make_channel("II", "XI", "ZI")
        witness = ramsey.classify(ch).witness
        assert oracle.private_witness_check(ch, witness, samples=100, seed=0)

    def test_identity_channel_fails_immediately(self):
        assert not oracle.private_witness_check(
            make_channel("II"), stabilizer.from_string("ZI"), samples=3, seed=0
        )

    def test_one_dimensional_code_rejected(self):
        with pytest.raises(ValueError, match="code dimension"):
            oracle.private_witness_check(
                make_channel("II"), stabilizer.from_string("ZI,IZ"), samples=1
            )

    def test_sample_count_validated(self):
        with pytest.raises(ValueError, match="sample"):
            oracle.private_witness_check(
                make_channel("II"), stabilizer.from_string("ZI"), samples=0
            )

    @pytest.mark.parametrize("samples", [True, 2.5])
    def test_sample_count_must_be_an_int(self, samples):
        with pytest.raises(ValueError, match="sample count must be an int"):
            oracle.private_witness_check(
                make_channel("II"), stabilizer.from_string("ZI"), samples=samples
            )

    def test_deterministic_for_a_seed(self):
        ch = make_channel("II", "XI", "ZI")
        witness = ramsey.classify(ch).witness
        runs = {
            oracle.private_witness_check(ch, witness, samples=20, seed=7)
            for _ in range(3)
        }
        assert runs == {True}


# -- sequential references ------------------------------------------------------
#
# The oracle's hot paths are batched numpy passes.  These are the per-matrix
# and per-sample loops they replaced, kept as the reference the batched code
# must agree with.


def loop_quotient_stack(ch):
    ops = np.stack([op.to_dense() for op in ch.operators])
    prods = np.einsum("iba,jbc->ijac", ops.conj(), ops)
    return prods.reshape(-1, *prods.shape[2:])


def loop_scalars(ch, group):
    """Per-matrix scalar test: the scalars, or None if a compression is not scalar."""
    p = stabilizer.projector(group)
    trace_p = np.trace(p).real
    scalars = []
    for mat in p @ loop_quotient_stack(ch) @ p:
        c = np.trace(mat) / trace_p
        if np.linalg.norm(mat - c * p) > oracle.SCALAR_TOLERANCE * max(
            1.0, np.linalg.norm(mat)
        ):
            return None
        scalars.append(c)
    return scalars


def loop_maximal_check(ch, group):
    if oracle.dense_graph_dimension(ch).rank != 1 << ch.n:
        return False
    scalars = loop_scalars(ch, group)
    return scalars is not None and all(
        abs(c) > oracle.SCALAR_TOLERANCE for c in scalars
    )


def loop_unit(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def loop_pairs(rng, samples, dim):
    """One (a, b) pair at a time, in code coordinates."""
    pairs = []
    for _ in range(samples):
        a = loop_unit(rng, dim)
        while True:
            b = loop_unit(rng, dim)
            b -= (a.conj() @ b) * a
            norm = np.linalg.norm(b)
            if norm > 1e-6:
                pairs.append((a, b / norm))
                break
    return pairs


def loop_private_witness_check(ch, group, samples, seed):
    quotients = loop_quotient_stack(ch)
    values, vectors = np.linalg.eigh(stabilizer.projector(group))
    code = vectors[:, values > 0.5]
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        a = code @ loop_unit(rng, code.shape[1])
        while True:
            b = code @ loop_unit(rng, code.shape[1])
            b -= (a.conj() @ b) * a
            norm = np.linalg.norm(b)
            if norm > 1e-6:
                b /= norm
                break
        overlaps = np.einsum("a,qab,b->q", a.conj(), quotients, b)
        if not (np.abs(overlaps) > oracle.SCALAR_TOLERANCE).any():
            return False
    return True


def random_pairs(seed, count, max_n=4):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, max_n + 1)
        yield random_channel(rng, n, max_ops=9), random_group(rng, n)


class TestBatchedAgainstLoops:
    def test_quotient_stack_is_exact(self):
        for ch, _ in random_pairs(37, 30):
            batched = oracle._quotient_stack(ch, ch.n)
            assert batched.shape == (len(ch.operators) ** 2, 1 << ch.n, 1 << ch.n)
            assert np.array_equal(batched, loop_quotient_stack(ch))

    def test_kl_check_matches_the_loop(self):
        verdicts = []
        for ch, group in random_pairs(41, 60):
            verdicts.append(oracle.kl_check(ch, group))
            assert verdicts[-1] == (loop_scalars(ch, group) is not None)
        assert set(verdicts) == {True, False}

    def test_maximal_check_matches_the_loop(self):
        rng = random.Random(43)
        verdicts = []
        for _ in range(20):
            n = rng.randrange(1, 4)
            group = random_group(rng, n, d=n)
            # another group's maximal channel has full graph rank, so its
            # verdict rests on the scalar test
            candidates = [
                channel.maximal_stabilizer_channel(group),
                channel.maximal_stabilizer_channel(random_group(rng, n, d=n)),
                random_channel(rng, n),
            ]
            for ch in candidates:
                verdicts.append(oracle.dense_maximal_check(ch, group))
                assert verdicts[-1] == loop_maximal_check(ch, group)
        assert set(verdicts) == {True, False}

    def test_privacy_matches_the_sequential_loop(self):
        rng = random.Random(47)
        verdicts = []
        for seed, (ch, group) in enumerate(random_pairs(53, 120)):
            if group.k < 1:
                continue
            samples = rng.choice([1, 2, 5, 40])
            verdicts.append(
                oracle.private_witness_check(ch, group, samples=samples, seed=seed)
            )
            assert verdicts[-1] == loop_private_witness_check(ch, group, samples, seed)
        assert verdicts.count(True) >= 5 and verdicts.count(False) >= 5

    def test_one_draw_gives_the_sequential_stream(self):
        for dim, samples in [(2, 1), (2, 30), (4, 7), (8, 3)]:
            a, b = oracle._code_pairs(np.random.default_rng(dim), samples, dim)
            expected = loop_pairs(np.random.default_rng(dim), samples, dim)
            assert a.shape == b.shape == (samples, dim)
            np.testing.assert_allclose(a, [x for x, _ in expected], atol=1e-12)
            np.testing.assert_allclose(b, [y for _, y in expected], atol=1e-12)


class DegenerateOnce:
    """A generator whose first draw makes sample ``index``'s b parallel to its a."""

    def __init__(self, seed, index):
        # default_rng's own generator, built without default_rng so that a
        # test may patch default_rng to return this stub
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.index = index
        self.sizes = []

    def normal(self, size):
        self.sizes.append(size)
        draw = self.rng.normal(size=size)
        if len(self.sizes) == 1:
            draw[self.index, 2:] = 3 * draw[self.index, :2]
        return draw


class TestDegenerateRedraw:
    def test_redraw_replaces_only_the_degenerate_sample(self):
        stub = DegenerateOnce(seed=5, index=1)
        a, b = oracle._code_pairs(stub, 3, 2)
        assert stub.sizes == [(3, 4, 2), (1, 2, 2)]
        np.testing.assert_allclose(np.einsum("sa,sa->s", a.conj(), b), 0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1)
        np.testing.assert_allclose(np.linalg.norm(b, axis=1), 1)
        # the other samples keep the pairs a sequential loop draws for them
        expected = loop_pairs(np.random.default_rng(5), 3, 2)
        for s in (0, 2):
            np.testing.assert_allclose(a[s], expected[s][0], atol=1e-12)
            np.testing.assert_allclose(b[s], expected[s][1], atol=1e-12)
        # the redrawn b comes from the generator's next numbers
        rest = np.random.default_rng(5)
        rest.normal(size=(3, 4, 2))
        fresh = rest.normal(size=(1, 2, 2))[0]
        unit = fresh[0] + 1j * fresh[1]
        unit /= np.linalg.norm(unit)
        orthogonal = unit - (a[1].conj() @ unit) * a[1]
        expected_b = orthogonal / np.linalg.norm(orthogonal)
        np.testing.assert_allclose(b[1], expected_b, atol=1e-12)

    @pytest.mark.parametrize(
        "noise, private", [(("II", "XI", "ZI"), True), (("II",), False)]
    )
    def test_verdict_with_a_redraw(self, monkeypatch, noise, private):
        ch = make_channel(*noise)
        group = ramsey.classify(ch).witness if private else stabilizer.from_string("IZ")
        stubs = []

        def default_rng(seed):
            stubs.append(DegenerateOnce(seed, index=2))
            return stubs[-1]

        monkeypatch.setattr(oracle.np.random, "default_rng", default_rng)
        runs = [
            oracle.private_witness_check(ch, group, samples=4, seed=3) for _ in range(2)
        ]
        assert runs == [private, private]
        assert all(len(stub.sizes) == 2 for stub in stubs)
