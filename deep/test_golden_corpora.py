"""The classify corpora too slow for tier-1: random channels at n = 11..16,
maximal channels at n = 10, the low-weight shape at n = 128 and every
n = 2 channel.  Their digests are in ``tests/golden_digests.json``, in the
classify corpus form that ``tests/golden.py`` describes.
"""

import json
import time

import pytest

from golden import DEEP_CORPORA, GOLDEN, classify_digest


@pytest.mark.parametrize("name", sorted(DEEP_CORPORA))
def test_deep_classify_digest_is_unchanged(name):
    start = time.perf_counter()
    digest = classify_digest(DEEP_CORPORA[name]())
    print(f"{name}: {time.perf_counter() - start:.1f} s")
    assert digest == json.loads(GOLDEN.read_text())[name]
