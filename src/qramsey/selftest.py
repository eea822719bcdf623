"""Self-verification battery: nine cross-route checks, CLI- and test-shared.

Each check returns a CheckResult and never raises on a mathematical
failure; the detail string carries enough to reproduce one.  Parameter
defaults are the full-strength versions used by the acceptance suite;
the CLI passes reduced values unless asked to be exhaustive.

The checks deliberately pit independent routes against each other:
bit-level decisions against dense linear algebra, constructive witnesses
against exhaustive search, and theorem statements against enumeration.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from . import channel, f2, oracle, ramsey, stabilizer
from .channel import PauliChannel
from .pauli import PauliOperator, hermitian_rep

__all__ = ["CheckResult", "CRITERIA", "dense_verdict_check", "run"]


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, failures: list[str], detail: str) -> CheckResult:
    if failures:
        return CheckResult(name, False, f"{len(failures)} failure(s); first: {failures[0]}")
    return CheckResult(name, True, detail)


def _random_pauli(rng: random.Random, n: int) -> PauliOperator:
    return PauliOperator(
        n, rng.randrange(4), rng.randrange(1 << n), rng.randrange(1 << n)
    )


def _random_isotropic_rows(rng: random.Random, n: int, d: int) -> list[int]:
    rows: list[int] = []
    while len(rows) < d:
        v = rng.randrange(1, 1 << (2 * n))
        if all(f2.twisted_dot(v, r, n) == 0 for r in rows) and not f2.in_span(
            v, f2.reduce(rows, n)
        ):
            rows.append(v)
    return rows


def _random_group(
    rng: random.Random, n: int, d: int | None = None, signs: bool = True
) -> stabilizer.StabilizerGroup:
    if d is None:
        d = rng.randrange(0, n + 1)
    gens = []
    for v in _random_isotropic_rows(rng, n, d):
        g = hermitian_rep(v, n)
        if signs and rng.random() < 0.5:
            g = PauliOperator(n, (g.phase + 2) % 4, g.x, g.z)
        gens.append(g)
    return stabilizer.validate(gens, n=n)


def _random_channel(rng: random.Random, n: int, max_ops: int) -> PauliChannel:
    count = rng.randrange(1, max_ops + 1)
    return _subset_channel([rng.randrange(1 << (2 * n)) for _ in range(count)], n)


def _subset_channel(vectors: Iterable[int], n: int) -> PauliChannel:
    return channel.from_noise([hermitian_rep(v, n) for v in vectors], n=n)


def _mask_channel(mask: int, n: int) -> PauliChannel:
    return _subset_channel((v for v in range(1 << (2 * n)) if (mask >> v) & 1), n)


def _masks(rng: random.Random, n: int, mask_sample: int | None) -> range | list[int]:
    """Every nonempty subset mask of the 4^n Paulis, or mask_sample of them, sorted."""
    masks = range(1, 1 << (1 << (2 * n)))
    if mask_sample is None:
        return masks
    return sorted(rng.sample(masks, min(mask_sample, len(masks))))


def _capped(n: int) -> str:
    """Detail suffix naming the qubit count a capped run covered.

    Criteria whose full-strength detail does not name n run on n = 2; a
    run capped below that says so, and full strength keeps its detail.
    """
    return "" if n >= 2 else f"; capped at n={n}"


def _exhaustive_cases(n: int, max_subset_size: int):
    """Every channel of 1 to max_subset_size n-qubit Paulis, against every
    nontrivial code (isotropic subspaces with k >= 1)."""
    codes = [
        ramsey._group_from_rows(basis.rows, n)
        for d in range(0, n)
        for basis in f2.enumerate_isotropic(n, d)
    ]
    for size in range(1, max_subset_size + 1):
        for subset in combinations(range(1 << (2 * n)), size):
            ch = _subset_channel(subset, n)
            for group in codes:
                yield ch, group


def check_pauli_algebra(pairs: int = 500, seed: int = 0, max_n: int = 3) -> CheckResult:
    """Dense ground truth for the whole operator algebra."""
    failures: list[str] = []
    total = 0
    for n in range(1, max_n + 1):
        rng = random.Random((seed << 8) | n)
        for _ in range(pairs):
            g, h = _random_pauli(rng, n), _random_pauli(rng, n)
            gd, hd = g.to_dense(), h.to_dense()
            total += 1
            if not np.array_equal(g.multiply(h).to_dense(), gd @ hd):
                failures.append(f"multiply: {g!r} * {h!r}")
                continue
            if not np.array_equal(g.adjoint().to_dense(), gd.conj().T):
                failures.append(f"adjoint: {g!r}")
            if g.commutes(h) != bool(np.array_equal(gd @ hd, hd @ gd)):
                failures.append(f"commutes: {g!r} vs {h!r}")
            if g.is_hermitian() != bool(np.array_equal(gd, gd.conj().T)):
                failures.append(f"is_hermitian: {g!r}")
            eye = np.eye(1 << n)
            if g.is_scalar() != bool(np.array_equal(gd, gd[0, 0] * eye)):
                failures.append(f"is_scalar: {g!r}")
            partner = _random_pauli(rng, 1)
            if not np.array_equal(
                g.tensor(partner).to_dense(), np.kron(gd, partner.to_dense())
            ):
                failures.append(f"tensor: {g!r} (x) {partner!r}")
    return _result(
        "pauli algebra vs dense matrices",
        failures,
        f"{total} random pairs across n=1..{max_n}: multiply, adjoint, tensor, "
        "commutes, is_hermitian, is_scalar all agree exactly",
    )


def check_centralizer_dimension(max_n: int = 3) -> CheckResult:
    """dim L(Z(S)) = n + k for every isotropic subspace, exhaustively."""
    failures: list[str] = []
    total = 0
    for n in range(1, max_n + 1):
        for d in range(0, n + 1):
            for basis in f2.enumerate_isotropic(n, d):
                group = ramsey._group_from_rows(basis.rows, n)
                total += 1
                got = stabilizer.centralizer_image(group).dim
                if got != n + group.k:
                    failures.append(
                        f"n={n} group {group}: dim {got} != {n + group.k}"
                    )
    return _result(
        "centralizer dimension n+k",
        failures,
        f"{total} stabilizer groups over all isotropic subspaces, n<={max_n}, exact",
    )


def check_oracle_equivalence(
    seed: int = 0, max_subset_size: int = 4, n3_cases: int = 200, n: int = 2
) -> CheckResult:
    """compressed_dimension == dense Gram rank, exhaustive at n + sampled n=3."""
    failures: list[str] = []
    rng = random.Random(seed)
    sampled = [(_random_channel(rng, 3, 6), _random_group(rng, 3)) for _ in range(n3_cases)]
    cases = 0
    for ch, group in chain(_exhaustive_cases(n, max_subset_size), sampled):
        cases += 1
        fast = ramsey.compressed_dimension(ch, group)
        dense = oracle.dense_compressed_dimension(ch, group).rank
        if fast != dense:
            failures.append(
                f"n={ch.n} noise {[str(o) for o in ch.operators]} vs {group}: "
                f"{fast} != {dense}"
            )
    also = f" and {n3_cases} random n=3 cases" if n3_cases else ""
    return _result(
        "compressed dimension vs dense Gram rank",
        failures,
        f"{cases - n3_cases} exhaustive n={n} cases{also}, exact",
    )


def check_main_theorem(seed: int = 0, n3_cases: int = 10, n: int = 2) -> CheckResult:
    """Maximal stabilizer channels admit no nontrivial witness, any k.

    Beyond the empty witness list, every code's count on the search walk
    must be the closed form 2^k that README proves for maximal channels.
    """
    failures: list[str] = []
    examined = 0
    groups = [ramsey._group_from_rows(basis.rows, n) for basis in f2.enumerate_isotropic(n, n)]
    lagrangians = len(groups)
    rng = random.Random(seed)
    for _ in range(n3_cases):
        groups.append(_random_group(rng, 3, 3))
    for group in groups:
        ch = channel.maximal_stabilizer_channel(group)
        report = ramsey.search(ch, "both")
        examined += report.total_examined
        if report.witnesses:
            failures.append(
                f"{group} channel has witness "
                f"{report.witnesses[0].to_json_dict()}"
            )
        diffs = np.fromiter(channel.difference_set(ch), dtype=np.intp)
        for d, counts in enumerate(ramsey._coset_counts(diffs, ch.n, ch.n - 1)):
            k = ch.n - d
            wrong = np.flatnonzero(counts != 1 << k)
            if wrong.size:
                failures.append(
                    f"{group} channel hits {counts[wrong[0]]} cosets, not 2^{k}, "
                    f"of the k={k} code at position {wrong[0]} of the walk"
                )
    sampled = f" plus {n3_cases} random maximal stabilizers at n=3" if n3_cases else ""
    return _result(
        "maximal stabilizer channels have no witnesses",
        failures,
        f"all {lagrangians} Lagrangians at n={n}{sampled}; "
        f"{examined} candidate codes examined, zero witnesses",
    )


def check_trichotomy(
    seed: int = 0,
    subsample: float = 0.01,
    mask_sample: int | None = None,
    n: int = 2,
) -> CheckResult:
    """classify never answers Inconsistent over every n-qubit channel.

    At n = 2 those are 65,535 channels.  A seeded fraction of the verdicts
    is re-verified densely.  With mask_sample set, only that many randomly
    chosen channels are run (the CLI's quick mode).
    """
    failures: list[str] = []
    rng = random.Random(seed)
    masks = _masks(rng, n, mask_sample)
    tags = {"Anticlique": 0, "Clique": 0, "MaximalStabilizerChannel": 0}
    reverified = 0
    for mask in masks:
        ch = _mask_channel(mask, n)
        result = ramsey.classify(ch)
        if result.tag == "Inconsistent":
            failures.append(
                f"mask {mask:#06x} noise {[str(o) for o in ch.operators]}: "
                f"{result.diagnostic}"
            )
            continue
        tags[result.tag] += 1
        if rng.random() < subsample:
            reverified += 1
            ok = dense_verdict_check(ch, result)
            if not ok:
                failures.append(
                    f"mask {mask:#06x}: dense oracle rejects {result.tag} witness "
                    f"{result.witness}"
                )
    detail = (
        f"{len(masks)} channels classified: {tags['Anticlique']} anticliques, "
        f"{tags['Clique']} cliques, {tags['MaximalStabilizerChannel']} maximal; "
        f"{reverified} verdicts re-verified densely"
    )
    return _result(f"trichotomy over every n={n} channel", failures, detail)


def dense_verdict_check(ch: PauliChannel, result: ramsey.ClassificationResult) -> bool:
    if result.tag == "Anticlique":
        return oracle.dense_compressed_dimension(ch, result.witness).rank == 1
    if result.tag == "Clique":
        want = 1 << (2 * result.witness.k)
        return oracle.dense_compressed_dimension(ch, result.witness).rank == want
    if result.tag == "MaximalStabilizerChannel":
        return oracle.dense_maximal_check(ch, result.witness)
    return False


def check_correctability_equivalence(
    max_subset_size: int = 4, n: int = 2
) -> CheckResult:
    """gottesman_correctable == is_anticlique == kl_check, exhaustively at n."""
    failures: list[str] = []
    total = 0
    for ch, group in _exhaustive_cases(n, max_subset_size):
        total += 1
        gottesman = ramsey.gottesman_correctable(ch, group)
        anti = ramsey.is_anticlique(ch, group)
        kl = oracle.kl_check(ch, group)
        if not (gottesman == anti == kl):
            failures.append(
                f"noise {[str(o) for o in ch.operators]} vs {group}: "
                f"gottesman={gottesman} anticlique={anti} kl={kl}"
            )
    return _result(
        "correctability criteria agree",
        failures,
        f"{total} (channel, code) cases: gottesman == anticlique == KL throughout"
        + _capped(n),
    )


def check_sign_invariance(
    cases: int = 50, seed: int = 0, max_n: int = 2
) -> CheckResult:
    """Generator signs move the projector but never the compressed rank."""
    failures: list[str] = []
    rng = random.Random(seed)
    checked = 0
    for _ in range(cases):
        n = rng.randrange(1, max_n + 1)
        ch = _random_channel(rng, n, 5)
        group = _random_group(rng, n, rng.randrange(1, n + 1), signs=False)
        base = oracle.dense_compressed_dimension(ch, group).rank
        for i, g in enumerate(group.generators):
            flipped_gens = list(group.generators)
            flipped_gens[i] = PauliOperator(n, (g.phase + 2) % 4, g.x, g.z)
            flipped = stabilizer.validate(flipped_gens, n=n)
            checked += 1
            if np.array_equal(
                stabilizer.projector(group), stabilizer.projector(flipped)
            ):
                failures.append(f"{group}: flipping generator {i + 1} kept P fixed")
                continue
            got = oracle.dense_compressed_dimension(ch, flipped).rank
            if got != base:
                failures.append(
                    f"noise {[str(o) for o in ch.operators]} vs {group}: "
                    f"rank {base} became {got} after flipping generator {i + 1}"
                )
    return _result(
        "sign invariance of the compressed rank",
        failures,
        f"{checked} single-sign flips over {cases} random (channel, code) cases; "
        "projector always changed, dense rank never did" + _capped(max_n),
    )


def check_completion_lemmas(
    cases: int = 100, seed: int = 0, max_n: int = 4
) -> CheckResult:
    """extend_to_maximal and anticommuting_partners meet their postconditions."""
    failures: list[str] = []
    rng = random.Random(seed)
    for case in range(cases):
        n = rng.randrange(1, max_n + 1)
        group = _random_group(rng, n)
        full = stabilizer.extend_to_maximal(group)
        if tuple(full[: group.num_generators]) != group.generators:
            failures.append(f"case {case}: completion disturbed the prefix")
            continue
        try:
            stabilizer.validate(full, n=n)
        except ValueError as exc:
            failures.append(f"case {case}: completion invalid: {exc}")
            continue
        if len(full) != n:
            failures.append(f"case {case}: completion has {len(full)} generators")
            continue
        partners = stabilizer.anticommuting_partners(full)
        for i, g in enumerate(partners):
            for j, h in enumerate(full):
                if g.commutes(h) != (i != j):
                    failures.append(
                        f"case {case}: partner {i + 1} breaks the delta pattern"
                    )
        for i in range(n):
            for j in range(i + 1, n):
                if not partners[i].commutes(partners[j]):
                    failures.append(f"case {case}: partners {i + 1},{j + 1} anticommute")
        rows = [g.check_vector() for g in full] + [g.check_vector() for g in partners]
        if f2.reduce(rows, n).dim != 2 * n:
            failures.append(f"case {case}: combined check vectors do not span")
    return _result(
        "completion lemmas",
        failures,
        f"{cases} random completions at n<={max_n}: prefixes kept, delta commutation "
        "pattern exact, combined rank 2n",
    )


def check_private_codes(
    samples: int = 100,
    seed: int = 0,
    subsample: float = 0.01,
    mask_sample: int | None = None,
    n: int = 2,
) -> CheckResult:
    """Every sampled clique witness is a private code at the sampled pairs."""
    failures: list[str] = []
    rng = random.Random(seed)
    selected = [m for m in _masks(rng, n, mask_sample) if rng.random() < subsample]
    cliques = 0
    for mask in selected:
        ch = _mask_channel(mask, n)
        result = ramsey.classify(ch)
        if result.tag != "Clique":
            continue
        cliques += 1
        if not oracle.private_witness_check(
            ch, result.witness, samples=samples, seed=seed
        ):
            failures.append(
                f"mask {mask:#06x}: clique witness {result.witness} failed "
                f"privacy sampling"
            )
    return _result(
        "clique witnesses are private codes",
        failures,
        f"{cliques} clique witnesses from {len(selected)} sampled channels, "
        f"{samples} orthogonal pairs each, all pairs saw noise overlap" + _capped(n),
    )


CRITERIA: tuple[tuple[int, Callable[..., CheckResult]], ...] = (
    (1, check_pauli_algebra),
    (2, check_centralizer_dimension),
    (3, check_oracle_equivalence),
    (4, check_main_theorem),
    (5, check_trichotomy),
    (6, check_correctability_equivalence),
    (7, check_sign_invariance),
    (8, check_completion_lemmas),
    (9, check_private_codes),
)


def _plan(exhaustive: bool, seed: int, cap: int) -> dict[Callable, dict]:
    """Keyword arguments per criterion: acceptance strength or quick.

    ``cap`` bounds every qubit count a criterion touches; the exhaustive
    two-qubit criteria run at n = 1 when it is below 2.
    """
    n2 = min(2, cap)
    if exhaustive:
        plan = {
            check_pauli_algebra: dict(seed=seed, max_n=min(3, cap)),
            check_centralizer_dimension: dict(max_n=min(3, cap)),
            check_oracle_equivalence: dict(
                seed=seed, n3_cases=200 if cap >= 3 else 0, n=n2
            ),
            check_main_theorem: dict(seed=seed, n3_cases=10 if cap >= 3 else 0, n=n2),
            check_trichotomy: dict(seed=seed, n=n2),
            check_correctability_equivalence: dict(n=n2),
            check_sign_invariance: dict(seed=seed, max_n=n2),
            check_completion_lemmas: dict(seed=seed, max_n=min(4, cap)),
            check_private_codes: dict(seed=seed, n=n2),
        }
    else:
        plan = {
            check_pauli_algebra: dict(pairs=100, seed=seed, max_n=min(3, cap)),
            check_centralizer_dimension: dict(max_n=min(3, cap)),
            check_oracle_equivalence: dict(
                seed=seed, max_subset_size=2, n3_cases=20 if cap >= 3 else 0, n=n2
            ),
            check_main_theorem: dict(seed=seed, n3_cases=3 if cap >= 3 else 0, n=n2),
            check_trichotomy: dict(seed=seed, mask_sample=1500, n=n2),
            check_correctability_equivalence: dict(max_subset_size=2, n=n2),
            check_sign_invariance: dict(cases=15, seed=seed, max_n=n2),
            check_completion_lemmas: dict(cases=25, seed=seed, max_n=min(4, cap)),
            check_private_codes: dict(
                samples=25, seed=seed, subsample=0.05, mask_sample=1500, n=n2
            ),
        }
    if cap < 2:
        # there are only 15 one-qubit channels: re-verify and sample them all
        plan[check_trichotomy]["subsample"] = 1.0
        plan[check_private_codes]["subsample"] = 1.0
    return plan


def run(
    exhaustive: bool = False, seed: int = 0, max_n: int | None = None
) -> list[tuple[int, CheckResult]]:
    """Run all criteria; quick parameters unless ``exhaustive``."""
    plan = _plan(exhaustive, seed, max_n if max_n is not None else 4)
    return [(number, check(**plan[check])) for number, check in CRITERIA]
