"""Dense verifier: Gram ranks, the error-correction scalar test, privacy.

These tests lean on hand-computable dense facts; the oracle must stand on
its own because the rest of the suite uses it as ground truth.
"""

import ast
import random
from pathlib import Path

import numpy as np
import pytest

from qramsey import channel, cli, oracle, ramsey, stabilizer
from qramsey.pauli import CapacityError, PauliOperator, identity

from helpers import make_channel, random_channel, random_group, vector_channel


MAXIMAL_X = channel.maximal_stabilizer_channel(stabilizer.from_string("XI,IX"))
LIMIT_MESSAGE = "dense oracle limited to 4 qubits, got 5"


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
        full = vector_channel(range(16), 2)
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
        with pytest.raises(CapacityError, match=LIMIT_MESSAGE):
            oracle.dense_compressed_dimension(
                channel.from_noise([identity(5)]), stabilizer.validate([], n=5)
            )

    def test_agrees_with_symplectic_route(self):
        rng = random.Random(19)
        for _ in range(50):
            n = rng.randrange(1, 4)
            ch = random_channel(rng, n, 4)
            group = random_group(rng, n)
            assert (
                oracle.dense_compressed_dimension(ch, group).rank
                == ramsey.compressed_dimension(ch, group)
            )


def z_group(n, d):
    """The group generated by Z on each of the first d of n qubits."""
    return stabilizer.from_string(
        ",".join("I" * i + "Z" + "I" * (n - i - 1) for i in range(d))
    )


CODE_FUNCTIONS = pytest.mark.parametrize(
    "name, maximal",
    [
        ("dense_compressed_dimension", False),
        ("kl_check", False),
        ("dense_maximal_check", True),
        ("private_witness_check", False),
    ],
)


class TestEntryChecks:
    """Every dense function keeps its qubit limit and its size check."""

    @CODE_FUNCTIONS
    def test_capacity_limit(self, name, maximal):
        group = z_group(5, 5 if maximal else 1)
        with pytest.raises(CapacityError, match=LIMIT_MESSAGE):
            getattr(oracle, name)(channel.from_noise([identity(5)]), group)

    def test_graph_dimension_capacity_limit(self):
        with pytest.raises(CapacityError, match=LIMIT_MESSAGE):
            oracle.dense_graph_dimension(channel.from_noise([identity(5)]))

    @CODE_FUNCTIONS
    def test_size_mismatch(self, name, maximal):
        group = z_group(3, 3 if maximal else 1)
        with pytest.raises(ValueError, match="qubits"):
            getattr(oracle, name)(make_channel("II", "XI"), group)


class TestDenseGraphDimension:
    def test_matches_difference_set_size(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randrange(1, 3)
            ch = random_channel(rng, n, 4)
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
            ch = random_channel(rng, n, 4)
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


def loop_gram_rank(ch, group):
    """Rank and singular values of the Gram matrix of the 2^n x 2^n P Q P."""
    p = stabilizer.projector(group)
    flat = np.array([(p @ q @ p).ravel() for q in loop_quotient_stack(ch)])
    values = np.linalg.svd(flat.conj() @ flat.T, compute_uv=False)
    return int(np.count_nonzero(values > oracle.RANK_TOLERANCE * values[0])), values


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


def random_pairs(seed, count, max_n=4, phased=False):
    """Seeded (channel, code) pairs; ``phased`` gives each noise operator a
    random phase, so that some dense matrices are imaginary."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, max_n + 1)
        ch = random_channel(rng, n, max_ops=8)
        if phased:
            ch = channel.from_noise(
                [PauliOperator(n, rng.randrange(4), op.x, op.z) for op in ch.operators]
            )
        yield ch, random_group(rng, n)


class TestBatchedAgainstLoops:
    def test_quotient_lines_are_exact(self):
        # line 0 is sqrt(m) R_0^T R_0, then sqrt(2) R_i^T R_j for i < j by
        # j and then i, with E_i = phi_i R_i; so each line is exactly the
        # loop's quotient E_i^+ E_j = conj(phi_i) phi_j R_i^T R_j times its
        # weight and conj(conj(phi_i) phi_j), a product by +-1 or +-i
        sizes = set()
        phases = set()
        for ch, _ in random_pairs(37, 30, phased=True):
            m = len(ch.operators)
            sizes.add(m)
            stack = loop_quotient_stack(ch)
            phi = [1j if op.to_dense().imag.any() else 1 for op in ch.operators]
            phases.update(phi)
            expected = [np.sqrt(m) * stack[0]] + [
                np.sqrt(2) * stack[i * m + j] * np.conj(np.conj(phi[i]) * phi[j])
                for j in range(m)
                for i in range(j)
            ]
            lines = oracle._quotient_lines(ch)
            assert lines.dtype == np.float64
            assert lines.shape == (1 + m * (m - 1) // 2, 1 << ch.n, 1 << ch.n)
            assert np.array_equal(lines, expected)
        assert min(sizes) == 1 and max(sizes) >= 6
        assert phases == {1, 1j}

    def test_code_quotients_match_the_loop(self):
        # every V^+ E_i^+ E_j V from the factors E_i V, in (i, j) order
        pairs = list(random_pairs(71, 60))
        rng = random.Random(73)
        for n in range(1, 5):
            for d in (n, 0):
                ch = random_channel(rng, n, max_ops=8)
                pairs.append((ch, random_group(rng, n, d)))
        for ch, group in pairs:
            v = oracle._code_basis(group)
            expected = v.conj().T @ loop_quotient_stack(ch) @ v
            reduced = oracle._code_quotients(group, ch)
            assert reduced.shape == expected.shape
            np.testing.assert_allclose(reduced, expected, rtol=0, atol=1e-12)

    def test_code_basis_spans_the_code(self):
        for _, group in random_pairs(57, 40):
            v = oracle._code_basis(group)
            assert v.shape == (1 << group.n, 1 << group.k)
            assert not v.flags.writeable
            eye = np.eye(1 << group.k)
            np.testing.assert_allclose(v.conj().T @ v, eye, atol=1e-12)
            np.testing.assert_allclose(
                v @ v.conj().T, stabilizer.projector(group), atol=1e-12
            )

    def test_gram_rank_matches_projector_coordinates(self):
        pairs = list(random_pairs(59, 80))
        # the k = 0 and the full-space code at every n, beside the random codes
        rng = random.Random(61)
        for n in range(1, 5):
            for d in (n, 0):
                ch = random_channel(rng, n, max_ops=8)
                pairs.append((ch, random_group(rng, n, d)))
        ranks = set()
        for ch, group in pairs:
            result = oracle.dense_compressed_dimension(ch, group)
            rank, values = loop_gram_rank(ch, group)
            assert result.rank == rank
            ranks.add(rank)
            np.testing.assert_allclose(
                result.singular_values, values, rtol=0,
                atol=oracle.RANK_TOLERANCE * values[0],
            )
        assert len(ranks) > 3

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
                random_channel(rng, n, 4),
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


def distinct_channel(rng, n, m):
    """A channel of m distinct noise operators on n qubits."""
    return vector_channel(rng.sample(range(1 << (2 * n)), m), n)


class TestGramSides:
    def test_either_side_matches_the_full_gram(self):
        # the oracle forms the smaller of the m^2 x m^2 Gram and its
        # 4^k x 4^k twin; rank and every one of the m^2 values must match
        # an SVD of the m^2 x m^2 Gram, whichever side was formed
        rng = random.Random(67)
        pairs = []
        for n in range(1, 5):
            for d in range(n + 1):
                k = n - d
                for m in sorted({1, 1 << k, (1 << k) + 1, 16}):
                    if m <= 4**n:
                        ch = distinct_channel(rng, n, m)
                        pairs.append((ch, random_group(rng, n, d)))
        sides = set()
        ranks = set()
        for ch, group in pairs:
            count = len(ch.operators) ** 2
            sides.add((count > 4**group.k) - (count < 4**group.k))
            result = oracle.dense_compressed_dimension(ch, group)
            rank, values = loop_gram_rank(ch, group)
            assert len(result.singular_values) == count
            assert result.rank == rank
            ranks.add(rank)
            np.testing.assert_allclose(
                result.singular_values, values, rtol=0,
                atol=oracle.RANK_TOLERANCE * values[0],
            )
            flat = loop_quotient_stack(ch).reshape(count, -1)
            values = np.linalg.svd(flat.conj() @ flat.T, compute_uv=False)
            graph = oracle.dense_graph_dimension(ch)
            assert graph.rank == channel.graph_dimension(ch)
            np.testing.assert_allclose(
                graph.singular_values, values, rtol=0,
                atol=oracle.RANK_TOLERANCE * values[0],
            )
        assert sides == {-1, 0, 1}
        assert len(ranks) > 5
        # m = 1 with the full-space code, and m = 16 with k = 1, are among them
        assert any(len(ch.operators) == 1 and g.k == g.n for ch, g in pairs)
        assert any(len(ch.operators) == 16 and g.k == 1 for ch, g in pairs)


def clique_pair():
    ch = make_channel("II", "XI", "ZI")
    return ch, ramsey.classify(ch).witness


class TestPerReportReuse:
    """One verify report builds the operators and the compression once."""

    @pytest.fixture(autouse=True)
    def empty_caches(self):
        oracle._operators.cache_clear()
        oracle._code_quotients.cache_clear()

    def test_one_report_builds_each_once(self):
        ch, group = clique_pair()
        doc, failures = cli._verify_report(ch, group, 0)
        assert not failures and "privacy" in doc
        # a builder runs on a miss only; the three code calls read one
        # compression, which read the operators the graph lines read
        operators = oracle._operators.cache_info()
        compression = oracle._code_quotients.cache_info()
        assert (operators.misses, operators.hits) == (1, 1)
        assert (compression.misses, compression.hits) == (1, 2)

    def test_caches_keep_only_the_last_channel(self):
        ch, group = clique_pair()
        other = make_channel("II", "XI", "ZI", "IZ")
        for c in (ch, other):
            assert not cli._verify_report(c, group, 0)[1]
        for cached in (oracle._operators, oracle._code_quotients):
            info = cached.cache_info()
            assert (info.currsize, info.misses) == (1, 2)
        assert np.array_equal(
            oracle._operators(other), [op.to_dense() for op in other.operators]
        )
        assert oracle._operators.cache_info().misses == 2

    def test_cached_arrays_are_read_only(self):
        ch, group = clique_pair()
        for array in (oracle._operators(ch), oracle._code_quotients(group, ch)):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0, 0] = 1


class TestQuotientLines:
    """The graph rank reads 1 + m(m-1)/2 lines in place of m^2 quotients."""

    @pytest.fixture(autouse=True)
    def empty_caches(self):
        oracle._operators.cache_clear()
        yield
        oracle._operators.cache_clear()

    def test_spectrum_of_a_maximal_channel_matches_the_full_gram(self):
        # m = 16 at n = 4: 256 quotients, 121 lines, rank 16
        group = random_group(random.Random(79), 4, d=4)
        ch = channel.maximal_stabilizer_channel(group)
        assert len(ch.operators) == 16
        assert len(oracle._quotient_lines(ch)) == 121
        flat = loop_quotient_stack(ch).reshape(256, -1)
        values = np.linalg.svd(flat.conj() @ flat.T, compute_uv=False)
        graph = oracle.dense_graph_dimension(ch)
        assert graph.rank == 16 == np.count_nonzero(
            values > oracle.RANK_TOLERANCE * values[0]
        )
        assert len(graph.singular_values) == 256
        np.testing.assert_allclose(
            graph.singular_values, values, rtol=0,
            atol=oracle.RANK_TOLERANCE * values[0],
        )

    @staticmethod
    def patch_x(monkeypatch, matrix):
        """Make every operator but the identity dense as ``matrix``."""
        monkeypatch.setattr(
            oracle, "_dense", lambda op: matrix if op.x | op.z else op.to_dense()
        )

    def test_an_operator_not_a_phase_times_a_real_matrix_raises(self, monkeypatch):
        # S = diag(1, i) is unitary, so S^+ S = I^+ I, but S is neither
        # real nor imaginary
        self.patch_x(monkeypatch, np.diag([1, 1j]))
        with pytest.raises(RuntimeError, match="not a phase times a real matrix"):
            oracle.dense_graph_dimension(make_channel("I", "X"))

    def test_a_quotient_neither_hermitian_nor_anti_hermitian_raises(self, monkeypatch):
        # the cyclic shift C of four basis states is real and orthogonal, so
        # C^T C = I^T I, but the quotient I^T C = C has C^T = C^3, which is
        # neither C nor -C
        self.patch_x(monkeypatch, np.roll(np.eye(4), 1, axis=0).astype(complex))
        with pytest.raises(RuntimeError, match="neither Hermitian nor anti-Hermitian"):
            oracle.dense_graph_dimension(make_channel("II", "XI"))

    def test_unequal_squares_raise(self, monkeypatch):
        self.patch_x(monkeypatch, 2 * make_channel("X").operators[0].to_dense())
        with pytest.raises(RuntimeError, match="E_i\\^\\+ E_i differ"):
            oracle.dense_maximal_check(
                make_channel("I", "X"), stabilizer.from_string("Z")
            )


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


class TestIndependence:
    """The oracle reads no check vector, so that it stays a second route."""

    def test_reads_no_check_vector_and_imports_no_symplectic_module(self):
        tree = ast.parse(Path(oracle.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").rpartition(".")[2])
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name.rpartition(".")[2] for alias in node.names)
        assert not imported & {"f2", "ramsey"}
        attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert not attributes & {"x", "z", "phase", "check_vector"}
        # the walk sees the attributes the oracle does read
        assert {"operators", "imag", "real"} <= attributes
