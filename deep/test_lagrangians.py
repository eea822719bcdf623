"""f2 past tier-1's sizes: kernels and Lagrangian completions at n = 16..128,
the completion lemma against the per-step walk, criterion 8 to n = 8 and
the isotropic subspace counts at n = 5."""

import random
import time

import pytest

from qramsey import f2, selftest

import reference
from helpers import one_row_starts, random_isotropic_rows


@pytest.mark.parametrize("n", [16, 64, 128])
def test_kernels_and_completions(n):
    rng = random.Random(n)
    start = time.perf_counter()
    for _ in range(5):
        # random generators, some dependent on the others
        gens = [rng.randrange(1 << (2 * n)) for _ in range(rng.randrange(0, 2 * n))]
        gens += [a ^ b for a, b in zip(gens[::2], gens[1::2])][: rng.randrange(3)]
        kernel = f2.twisted_kernel(gens, n)
        assert f2.reduce(kernel.rows, n) == kernel, "not canonical"
        assert kernel.dim == 2 * n - f2.reduce(gens, n).dim, "wrong dimension"
        swaps = [f2.swap_halves(g, n) for g in gens]
        assert not any((v & s).bit_count() & 1 for v in kernel.rows for s in swaps)
    for d in (0, 1, n // 2, n - 1, n):
        rows = random_isotropic_rows(rng, n, d)
        full = f2.complete_lagrangian(rows, n)
        assert len(full) == n and full[:d] == tuple(rows), d
        assert f2.reduce(full, n).dim == n, (d, "dependent")
        assert reference.is_isotropic(full, n), d
    print(f"kernels at n={n}: {(time.perf_counter() - start) * 1e3:.0f} ms")


def _compare(label, starts):
    start = time.perf_counter()
    new = [f2.complete_lagrangian(rows, n) for n, rows in starts]
    new_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    old = [reference.complete_lagrangian(rows, n) for n, rows in starts]
    old_ms = (time.perf_counter() - start) * 1e3
    assert new == old, label
    print(f"{label}, {len(starts)} starts: lemma {new_ms:.1f} ms, per-step walk {old_ms:.0f} ms")


@pytest.mark.parametrize("n", [16, 64])
def test_completion_lemma_on_seeded_starts(n):
    # the one-row edge cases, then transvection starts of d = 0, 1, 2 and
    # n - 1 rows
    rng = random.Random(n)
    _compare(f"one-row starts at n={n}", [(n, (h,)) for h in one_row_starts(rng, n)])
    _compare(
        f"transvection starts at n={n}",
        [(n, random_isotropic_rows(rng, n, d)) for d in (0, 1, 2, n - 1)],
    )


def test_completion_lemma_on_every_canonical_isotropic_basis():
    _compare(
        "canonical isotropic bases at n <= 4, in given and reversed order",
        [
            (n, rows)
            for n in range(1, 5)
            for d in range(n + 1)
            for basis in f2.enumerate_isotropic(n, d)
            for rows in (basis.rows, basis.rows[::-1])
        ],
    )


def test_criterion_8_to_n8():
    # past the n <= 4 of selftest; n stays at 8, since its random groups
    # are rejection-sampled at about 2^d draws a row
    start = time.perf_counter()
    result = selftest.check_completion_lemmas(cases=200, max_n=8)
    assert result.passed, result.detail
    print(f"{result.detail}: {time.perf_counter() - start:.2f} s")


@pytest.mark.parametrize("d", range(6))
def test_isotropic_counts_at_n5(d):
    count = sum(1 for _ in f2.enumerate_isotropic(5, d))
    assert count == reference.isotropic_count(5, d)
    print(f"n=5 d={d}: {count} isotropic subspaces")
