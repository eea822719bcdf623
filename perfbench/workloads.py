"""The benchmark's workloads: seeded inputs, the timed op, and its output check.

Every workload is a closed loop with one caller.  Inputs come in cycles:
a cycle is a fixed mix of input kinds, drawn fresh from the seeded stream,
and a run always measures whole cycles, so every run sees the same mix.
The op is one public qramsey call (or, for verify, the calls that
``qramsey verify`` makes); the check re-derives the answer by another
route and runs outside the timed region.

Importing this module imports qramsey, so the child process imports it
only after it has started its set-up clock.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from qramsey import channel, f2, oracle, ramsey, selftest, stabilizer
from qramsey.cli import PRIVACY_SAMPLES
from qramsey.pauli import hermitian_rep

# share of n <= 4 classify verdicts re-checked by the dense oracle
DENSE_SHARE = 0.02
# search witnesses per op re-checked by the dense oracle
DENSE_WITNESSES = 2


@dataclass(frozen=True)
class Workload:
    name: str
    # (rng) -> (warm-up input, endless iterator of input cycles)
    stream: Callable[[random.Random], tuple[object, Iterator[list]]]
    op: Callable[[object], object]
    # (rng, input, output) -> failure message, or None when the output is right
    check: Callable[[random.Random, object, object], str | None]
    # fixed per workload so that runs of different speed stay comparable;
    # chosen to leave at least 10 samples beyond it at the seed's sample count
    tail_percentile: float
    # cycles in the traced pass per second of --seconds
    trace_cycles_per_s: float
    # traced functions that must record calls on this workload
    layers: tuple[str, ...]


def rng_for(name: str, seed: int, part: str) -> random.Random:
    """Independent, reproducible stream for one use of one workload's seed."""
    return random.Random(f"{name}:{seed}:{part}")


# -- input generators ---------------------------------------------------------


def _noise_channel(vectors, n: int) -> channel.PauliChannel:
    return channel.from_noise([hermitian_rep(v, n) for v in vectors], n=n)


def _random_group(rng: random.Random, n: int, d: int) -> stabilizer.StabilizerGroup:
    rows: list[int] = []
    while len(rows) < d:
        v = rng.randrange(1, 1 << (2 * n))
        if all(f2.twisted_dot(v, r, n) == 0 for r in rows) and not f2.in_span(
            v, f2.reduce(rows, n)
        ):
            rows.append(v)
    return stabilizer.validate([hermitian_rep(v, n) for v in rows], n=n)


def _random_channel(rng: random.Random, n: int, m: int) -> channel.PauliChannel:
    return _noise_channel(rng.sample(range(1 << (2 * n)), m), n)


def _low_weight_paulis(n: int) -> list[int]:
    """Check vectors of every weight-1 and weight-2 Pauli on n qubits."""
    letters = ((1, 0), (0, 1), (1, 1))  # X, Z, Y as (x bit, z bit)
    out = []
    for q in range(n):
        for x, z in letters:
            out.append((x << q) | (z << (q + n)))
    for q in range(n):
        for r in range(q + 1, n):
            for xq, zq in letters:
                for xr, zr in letters:
                    x = (xq << q) | (xr << r)
                    z = (zq << q) | (zr << r)
                    out.append(x | (z << n))
    return out


def _classify_n2_stream(rng):
    masks = list(range(1, 1 << 16))
    rng.shuffle(masks)
    warmup = masks.pop()

    def cycles():
        while True:
            rng.shuffle(masks)
            for i in range(0, len(masks) - 255, 256):
                yield [
                    _noise_channel([v for v in range(16) if (mask >> v) & 1], 2)
                    for mask in masks[i : i + 256]
                ]

    return _noise_channel([v for v in range(16) if (warmup >> v) & 1], 2), cycles()


# one cycle's qubit counts: the median falls in the middle of the n=8 ops
# and the p80 tail inside the n=10 ops, away from the jumps between sizes
LARGE_N_CYCLE = (6, 6, 8, 8, 10, 10)


def _large_n_channel(rng: random.Random, n: int) -> channel.PauliChannel:
    # the identity ("no error") plus 2n distinct weight-1 and weight-2 errors
    return _noise_channel([0, *rng.sample(_low_weight_paulis(n), 2 * n)], n)


def _classify_large_n_stream(rng):
    def cycles():
        while True:
            yield [_large_n_channel(rng, n) for n in LARGE_N_CYCLE]

    return _large_n_channel(rng, LARGE_N_CYCLE[0]), cycles()


# one cycle's noise-operator counts; None is a maximal stabilizer channel.
# By cost the maximal channel comes first, then 4 and 8 operators (close
# to each other), then 16 operators (over 10,000 witnesses, about twice
# the cost), so the median falls among the 4- and 8-operator channels and
# the p75 tail among the 16-operator ones, even when the host slows down.
SEARCH_CYCLE = (None, 4, 8, 16, 16)


def _search_input(rng: random.Random, m: int | None):
    if m is None:
        return channel.maximal_stabilizer_channel(_random_group(rng, 4, 4)), True
    return _random_channel(rng, 4, m), False


def _search_stream(rng):
    def cycles():
        while True:
            yield [_search_input(rng, m) for m in SEARCH_CYCLE]

    return _search_input(rng, 4), cycles()


# one cycle's qubit counts and code sources.  A "witness" code is classify's
# witness for a random channel (anticlique, clique or maximal); a "clique"
# code is the witness for a channel holding the identity and an
# anticommuting pair, which is always a clique, so every cycle runs privacy
# sampling; a "random" code is a random stabilizer code with k >= 1, which
# is mostly neither.
VERIFY_CYCLE = (
    (3, "witness"),
    (3, "random"),
    (4, "clique"),
    (4, "random"),
    (4, "witness"),
    (4, "random"),
    (4, "witness"),
    (4, "random"),
)


def _anticommuting(vectors, n: int) -> bool:
    return any(f2.twisted_dot(a, b, n) for a in vectors for b in vectors)


def _verify_input(rng: random.Random, n: int, source: str, m: int):
    if source == "clique":
        vectors = [0]
        while not _anticommuting(vectors, n):
            vectors = [0, *rng.sample(range(1, 1 << (2 * n)), m + 1)]
        ch = _noise_channel(vectors, n)
    else:
        ch = _random_channel(rng, n, m)
    if source == "random":
        group = _random_group(rng, n, rng.randrange(0, n))
    else:
        group = ramsey.classify(ch).witness
    return ch, group, rng.randrange(1 << 31)


def _verify_stream(rng):
    def cycles():
        # noise sizes 1 to 8 take turns at each place in the cycle, so that
        # every run of whole cycles sees nearly the same mix of sizes
        for c in itertools.count():
            yield [
                _verify_input(rng, n, source, m=1 + (c + j) % 8)
                for j, (n, source) in enumerate(VERIFY_CYCLE)
            ]

    # a fixed-size warm-up, so that set-up time does not depend on the seed
    return _verify_input(rng, 4, "clique", m=2), cycles()


# -- ops ------------------------------------------------------------------------


def _classify(ch):
    return ramsey.classify(ch)


def _classify_large(ch):
    return ramsey.classify(ch, limit=ch.n)


def _search(item):
    ch, _ = item
    return ramsey.search(ch, mode="both")


def _verify(item):
    """The public calls ``qramsey verify`` makes, in its order."""
    ch, group, seed = item
    out = {
        "dim": ramsey.compressed_dimension(ch, group),
        "dense_dim": oracle.dense_compressed_dimension(ch, group).rank,
        "graph": channel.graph_dimension(ch),
        "dense_graph": oracle.dense_graph_dimension(ch).rank,
        "anticlique": ramsey.is_anticlique(ch, group),
        "clique": ramsey.is_clique(ch, group),
        "gottesman": ramsey.gottesman_correctable(ch, group),
        "kl": oracle.kl_check(ch, group),
    }
    if out["clique"] and group.k >= 1:
        out["private"] = oracle.private_witness_check(
            ch, group, samples=PRIVACY_SAMPLES, seed=seed
        )
    return out


# -- output checks ----------------------------------------------------------------


def isotropic_count(n: int, d: int) -> int:
    """Closed form for the number of d-dimensional isotropic subspaces of F_2^{2n}."""
    num = den = 1
    for i in range(d):
        num *= 4 ** (n - i) - 1
        den *= 2 ** (i + 1) - 1
    return num // den


def _noise_text(ch) -> str:
    return "{" + ", ".join(str(op) for op in ch.operators) + "}"


def check_classification(rng: random.Random, ch, result) -> str | None:
    """Re-check a verdict by the ramsey predicates, and a share of them densely."""
    where = f"n={ch.n} noise {_noise_text(ch)}"
    w = result.witness
    if result.tag == "Inconsistent" or w is None:
        return f"{where}: verdict {result.tag}"
    if result.tag == "MaximalStabilizerChannel":
        if w.num_generators != ch.n:
            return f"{where}: maximal witness {w} has {w.num_generators} generators"
        if set(w.check_basis().span()) != channel.difference_set(ch):
            return f"{where}: difference set is not the span of {w}"
        if ramsey.compressed_dimension(ch, w) != result.dim_pgp:
            return f"{where}: dim_PGP {result.dim_pgp} disagrees for {w}"
    elif result.tag == "Anticlique":
        if w.k < 1 or result.dim_pgp != 1:
            return f"{where}: trivial anticlique {w}"
        if not ramsey.is_anticlique(ch, w) or not ramsey.gottesman_correctable(ch, w):
            return f"{where}: anticlique witness {w} fails is_anticlique/gottesman"
    elif result.tag == "Clique":
        if w.k < 1 or result.dim_pgp != 1 << (2 * w.k):
            return f"{where}: trivial clique {w}"
        if not ramsey.is_clique(ch, w):
            return f"{where}: clique witness {w} fails is_clique"
    else:
        return f"{where}: unknown verdict {result.tag}"
    if ch.n <= 4 and rng.random() < DENSE_SHARE:
        if not selftest.dense_verdict_check(ch, result):
            return f"{where}: dense oracle rejects {result.tag} witness {w}"
    return None


def check_search(rng: random.Random, item, report) -> str | None:
    """Closed-form candidate counts, no witness for maximal channels, dense spot checks."""
    ch, maximal = item
    n = ch.n
    where = f"n={n} noise {_noise_text(ch)}"
    want = tuple((k, isotropic_count(n, n - k)) for k in range(1, n + 1))
    if report.examined != want:
        return f"{where}: examined {report.examined}, closed form {want}"
    if maximal and report.witnesses:
        return f"{where}: maximal channel has {len(report.witnesses)} witnesses"
    for w in report.witnesses:
        full = 1 << (2 * w.k)
        if w.dim_pgp != (1 if w.kind == "anticlique" else full):
            return f"{where}: {w.kind} witness {w.group} has dim_PGP {w.dim_pgp}"
    picks = rng.sample(report.witnesses, min(DENSE_WITNESSES, len(report.witnesses)))
    for w in picks:
        dense = oracle.dense_compressed_dimension(ch, w.group).rank
        if dense != w.dim_pgp:
            return f"{where}: {w.kind} witness {w.group} dense rank {dense} != {w.dim_pgp}"
    return None


def check_verify(rng: random.Random, item, out) -> str | None:
    """The symplectic and dense routes agree (the checks ``qramsey verify`` makes)."""
    ch, group, _ = item
    where = f"n={ch.n} noise {_noise_text(ch)} code {group}"
    dense_anticlique = out["dense_dim"] == 1
    dense_clique = out["dense_dim"] == 1 << (2 * group.k)
    problems = [
        label
        for label, ok in (
            ("dim_PGP", out["dim"] == out["dense_dim"]),
            ("graph_dim", out["graph"] == out["dense_graph"]),
            ("is_anticlique", out["anticlique"] == dense_anticlique),
            ("is_clique", out["clique"] == dense_clique),
            ("gottesman", out["gottesman"] == out["anticlique"]),
            ("kl_check", out["kl"] == out["anticlique"]),
            ("privacy", out.get("private", True)),
        )
        if not ok
    ]
    if problems:
        return f"{where}: routes disagree on {', '.join(problems)}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "classify_n2", _classify_n2_stream, _classify, check_classification,
            tail_percentile=98.0, trace_cycles_per_s=1.0,
            layers=(
                "pauli.hermitian_rep", "f2.reduce", "f2.twisted_dot",
                "f2.coset_count", "channel.difference_set", "stabilizer.validate",
                "ramsey.classify", "ramsey.compressed_dimension",
            ),
        ),
        Workload(
            "search_n4", _search_stream, _search, check_search,
            tail_percentile=75.0, trace_cycles_per_s=0.08,
            layers=("f2.enumerate_isotropic", "stabilizer.validate", "ramsey.search"),
        ),
        Workload(
            "verify_n4", _verify_stream, _verify, check_verify,
            tail_percentile=95.0, trace_cycles_per_s=1.0,
            layers=(
                "f2.coset_count", "channel.graph_dimension",
                "stabilizer.centralizer_image", "stabilizer.projector",
                "ramsey.compressed_dimension", "ramsey.is_anticlique",
                "ramsey.is_clique", "ramsey.gottesman_correctable",
                "oracle.dense_compressed_dimension", "oracle.dense_graph_dimension",
                "oracle.kl_check", "oracle.private_witness_check",
            ),
        ),
        Workload(
            "classify_large_n", _classify_large_n_stream, _classify_large,
            check_classification, tail_percentile=80.0, trace_cycles_per_s=0.12,
            layers=(
                "f2.twisted_kernel", "f2.complete_lagrangian", "f2.coset_count",
                "ramsey.classify", "ramsey.compressed_dimension",
            ),
        ),
    )
}
