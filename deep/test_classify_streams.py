"""classify past tier-1's sizes: cold classify of low-weight channels to
n = 512 (timings printed, not bounded), classify's memos against
clearing them before every call over all 65,535 n=2 channels and a
low-weight stream, the normalized clique key against the reference
candidate at n = 16..128, and clique verdicts, counted by classify on
three operators, recounted on the whole channel."""

import json
import random
import statistics
import time

import pytest

from qramsey import channel, ramsey, selftest

import reference
from helpers import (
    CLASSIFY_MEMOS,
    anticommuting_partner,
    clear_classify_memos,
    low_weight_channel,
    one_row_starts,
    vector_channel,
    x_only_pairs,
)


@pytest.fixture(scope="module")
def low_weight_stream():
    # the identity plus 2n weight-1/2 Paulis, 200 each at n = 6, 8 and 10
    rng = random.Random(11)
    return [low_weight_channel(rng, n) for _ in range(200) for n in (6, 8, 10)]


def test_cold_classify_at_large_n(tmp_path):
    # each channel is read back from its JSON document, and classify runs
    # with its memos cleared, the only state it keeps between calls
    rng = random.Random(5)
    for n in (12, 16, 64, 128, 256, 512):
        path = tmp_path / f"lc{n}.json"
        path.write_text(json.dumps(channel.to_document(low_weight_channel(rng, n))))
        start = time.perf_counter()
        ch = channel.load_path(str(path))
        load_s = time.perf_counter() - start
        clear_classify_memos()
        start = time.perf_counter()
        result = ramsey.classify(ch)
        classify_s = time.perf_counter() - start
        print(f"n={n}: load {load_s * 1e3:.1f} ms, classify {classify_s * 1e3:.1f} ms")
        assert result.to_json_dict()["verdict"] in ("Clique", "Anticlique"), n


def _check_memos(label, channels):
    clear_classify_memos()
    start = time.perf_counter()
    kept = [ramsey.classify(ch).to_json_dict() for ch in channels]
    kept_s = time.perf_counter() - start
    info = [(memo.__name__, memo.cache_info()) for memo in CLASSIFY_MEMOS]
    cleared = []
    start = time.perf_counter()
    for ch in channels:
        clear_classify_memos()
        cleared.append(ramsey.classify(ch).to_json_dict())
    cleared_s = time.perf_counter() - start
    print(
        f"{label}: {kept_s:.2f} s with the memos kept, "
        f"{cleared_s:.2f} s with every memo cleared before each call"
    )
    for name, stats in info:
        print(f"  {name}: {stats}")
    assert kept == cleared


def test_memos_keep_the_n2_output():
    channels = [selftest._mask_channel(mask, 2) for mask in range(1, 1 << 16)]
    _check_memos("all 65,535 n=2 channels", channels)


def test_memos_keep_the_low_weight_output(low_weight_stream):
    _check_memos("600 low-weight channels at n = 6, 8, 10", low_weight_stream)


def test_normalized_clique_keys_are_fewer(low_weight_stream):
    # the low-weight stream's clique keys, raw and normalized, and the
    # clique memo's misses over it from a cleared memo
    raw = set()
    for ch in low_weight_stream:
        pair = reference.first_anticommuting_pair(reference.shifted_checks(ch), ch.n)
        if pair is not None:
            raw.add((pair[0], pair[1] >> ch.n, ch.n))
    keys = {ramsey._clique_key(*key) for key in raw}
    ramsey._noncommuting_clique_candidate.cache_clear()
    for ch in low_weight_stream:
        ramsey.classify(ch)
    misses = ramsey._noncommuting_clique_candidate.cache_info().misses
    print(
        f"low-weight clique keys: {len(raw)} raw (h, g >> n, n), "
        f"{len(keys)} normalized; clique memo misses: {misses}"
    )
    assert len(keys) < len(raw)


@pytest.mark.parametrize("n", [16, 64, 128])
def test_clique_key_builds_the_reference_candidate(n):
    # the builder on _clique_key of each pair against the reference that
    # repairs by the twisted dot with all of the raw g: the one-row edge
    # cases and 20 random h, each against 5 random g, then x-only pairs
    build = ramsey._noncommuting_clique_candidate.__wrapped__
    rng = random.Random(n)
    hs = one_row_starts(rng, n) + [rng.randrange(1, 1 << (2 * n)) for _ in range(20)]
    pairs = [(h, anticommuting_partner(rng, h, n)) for h in hs for _ in range(5)]
    pairs += x_only_pairs(rng, n)
    start = time.perf_counter()
    for h, g in pairs:
        key = ramsey._clique_key(h, g >> n, n)
        assert build(*key) == reference.clique_candidate(h, g, n), (h, g)
    print(f"clique key at n={n}, {len(pairs)} pairs: {(time.perf_counter() - start) * 1e3:.0f} ms")


def _recount_cliques(channels):
    """Recount each Clique verdict on the whole channel.

    classify counts a clique candidate on three of the channel's
    operators.  Returns the number of Clique verdicts and the time of
    each classify call.
    """
    cliques, times = 0, []
    for ch in channels:
        start = time.perf_counter()
        result = ramsey.classify(ch)
        times.append(time.perf_counter() - start)
        assert result.tag != "Inconsistent", result.diagnostic
        if result.tag == "Clique":
            assert ramsey.is_clique(ch, result.witness), [str(op) for op in ch.operators]
            cliques += 1
    return cliques, times


def test_low_weight_cliques_pass_the_full_count(low_weight_stream):
    cliques, _ = _recount_cliques(low_weight_stream)
    print(f"low-weight stream: {cliques} of {len(low_weight_stream)} clique verdicts recounted")
    assert cliques


def test_dense_n16_cliques_pass_the_full_count():
    # 60 seeded channels of 840 distinct random checks on 16 qubits,
    # classified as a stream, the memos kept between calls
    rng = random.Random(16)
    channels = [vector_channel(rng.sample(range(1 << 32), 840), 16) for _ in range(60)]
    cliques, times = _recount_cliques(channels)
    print(
        f"60 random n=16 channels, m=840: {cliques} clique verdicts recounted; "
        f"classify median {statistics.median(times) * 1e3:.2f} ms per op"
    )
    assert cliques
