"""Full-strength acceptance battery.

One test per verification criterion, each at the parameters the package
must sustain (the CLI selftest runs reduced versions of the same
functions).  Every test prints a single pass/fail line; run with -s to
see them live.  Budgets are asserted where a criterion pins one.
"""

import time

from qramsey import selftest


def _report(number: int, result: selftest.CheckResult, elapsed: float,
            budget: float | None = None) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number}: {status} ({elapsed:.1f}s) - {result.detail}")
    assert result.passed, f"criterion {number}: {result.detail}"
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
        )


def test_criterion_1_pauli_algebra_matches_dense():
    start = time.time()
    result = selftest.check_pauli_algebra(pairs=500, seed=0, max_n=3)
    _report(1, result, time.time() - start, budget=10)


def test_criterion_2_centralizer_dimension_exhaustive():
    start = time.time()
    result = selftest.check_centralizer_dimension(max_n=3)
    _report(2, result, time.time() - start, budget=30)


def test_criterion_3_compressed_dimension_oracle_equivalence():
    start = time.time()
    result = selftest.check_oracle_equivalence(
        seed=0, max_subset_size=4, n3_cases=200
    )
    _report(3, result, time.time() - start, budget=300)


def test_criterion_4_maximal_channels_have_no_witnesses():
    start = time.time()
    result = selftest.check_main_theorem(seed=0, n3_cases=10)
    _report(4, result, time.time() - start, budget=120)


def test_criterion_5_trichotomy_over_every_two_qubit_channel():
    start = time.time()
    result = selftest.check_trichotomy(seed=0, subsample=0.01)
    _report(5, result, time.time() - start, budget=600)
    # 300 = 15 Lagrangians x 4 cosets x 5 subsets of a coset
    assert result.detail.startswith(
        "65535 channels classified: 136 anticliques, 65099 cliques, 300 maximal;"
    )


def test_criterion_6_correctability_criteria_agree():
    start = time.time()
    result = selftest.check_correctability_equivalence(max_subset_size=4)
    _report(6, result, time.time() - start)


def test_criterion_7_generator_signs_never_move_the_rank():
    start = time.time()
    result = selftest.check_sign_invariance(cases=50, seed=0)
    _report(7, result, time.time() - start)


def test_criterion_8_completion_lemmas_hold():
    start = time.time()
    result = selftest.check_completion_lemmas(cases=100, seed=0)
    _report(8, result, time.time() - start, budget=30)


def test_criterion_9_sampled_cliques_are_private_codes():
    start = time.time()
    result = selftest.check_private_codes(samples=100, seed=0, subsample=0.01)
    _report(9, result, time.time() - start)
