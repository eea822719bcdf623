"""The golden corpora of seeded inputs, and the digests of their output.

A classify corpus is digested over its classify JSON, one ``sort_keys``
line per channel in corpus order, each ending in a newline; a search
corpus over its search JSON and a dimension corpus over its compressed
dimensions, one line per input in the same form.  ``golden_digests.json``
holds the digests; ``tests/test_golden.py`` checks the tier-1 corpora and
``deep/test_golden_corpora.py`` the rest.  The seeded generators are in
``helpers``.
"""

import hashlib
import json
import random
from pathlib import Path

from qramsey import ramsey, selftest

from helpers import (
    dimension_pair,
    isotropic_subset_channel,
    low_weight_channel,
    maximal_channel,
    random_channel,
    search_case,
)

GOLDEN = Path(__file__).with_name("golden_digests.json")


def _n2_slice():
    # 8,192 of the 65,535 n=2 channels, one per nonempty subset mask of
    # the 16 Paulis, in a seeded order
    masks = random.Random(2).sample(range(1, 1 << 16), 8192)
    return [selftest._mask_channel(mask, 2) for mask in masks]


def _low_weight():
    # the classify_large_n shape: the identity plus 2n weight-1/2 Paulis
    rng = random.Random(11)
    return [low_weight_channel(rng, n) for _ in range(200) for n in (6, 8, 10)]


def _seeded(seed, ns, count, draw):
    # count draws at each n, from one stream
    rng = random.Random(seed)
    return [draw(rng, n) for n in ns for _ in range(count)]


def _random(rng, n):
    return random_channel(rng, n, 2 * n + 4)


# classify corpora: name -> channels
CORPORA = {
    "classify_n2_slice": _n2_slice,
    "classify_low_weight_n6_8_10": _low_weight,
    "classify_random_n3_10": lambda: _seeded(31, range(3, 11), 40, _random),
    "classify_isotropic_subsets_n2_10": lambda: _seeded(
        32, range(2, 11), 30, isotropic_subset_channel
    ),
    "classify_maximal_n2_8": lambda: _seeded(33, range(2, 9), 3, maximal_channel),
    "classify_low_weight_n32_64": lambda: _seeded(34, (32, 64), 10, low_weight_channel),
}

# other outputs: name -> one JSON value per input
OUTPUT_CORPORA = {
    "search_n3_4": lambda: [
        ramsey.search(ch, mode).to_json_dict()
        for ch, mode in _seeded(35, (3, 4), 20, search_case)
    ],
    "compressed_dimension_n1_6": lambda: [
        ramsey.compressed_dimension(ch, group)
        for ch, group in _seeded(36, range(1, 7), 50, dimension_pair)
    ],
}

# classify corpora too slow for tier-1: checked by the deep suite,
# deep/test_golden_corpora.py
DEEP_CORPORA = {
    "classify_random_n11_16": lambda: _seeded(41, range(11, 17), 40, _random),
    "classify_maximal_n10": lambda: _seeded(42, (10,), 3, maximal_channel),
    "classify_low_weight_n128": lambda: _seeded(43, (128,), 10, low_weight_channel),
    # every one of the 65,535 nonempty subsets of the 16 Paulis
    "classify_n2_all": lambda: (selftest._mask_channel(m, 2) for m in range(1, 1 << 16)),
}


def line_digest(values) -> str:
    digest = hashlib.sha256()
    for value in values:
        digest.update(json.dumps(value, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def classify_digest(channels) -> str:
    return line_digest(ramsey.classify(ch).to_json_dict() for ch in channels)
