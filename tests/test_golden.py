"""Golden classify digests: default output pinned across changes, not only
against the parent.

``golden_digests.json`` holds one SHA-256 per corpus, taken over the
corpus's classify JSON, one ``sort_keys`` line per channel in corpus
order, each ending in a newline.  A digest changes only with a change
that means to change classify's output; that change records the corpus,
the old and new digest and the reason.  ``python tests/test_golden.py``
prints the current digests in the file's form.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from qramsey import ramsey, selftest

from helpers import low_weight_channel

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


CORPORA = {
    "classify_n2_slice": _n2_slice,
    "classify_low_weight_n6_8_10": _low_weight,
}


def classify_digest(channels) -> str:
    digest = hashlib.sha256()
    for ch in channels:
        line = json.dumps(ramsey.classify(ch).to_json_dict(), sort_keys=True)
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_classify_digest_is_unchanged(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert classify_digest(CORPORA[name]()) == expected


def test_every_corpus_has_a_digest():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CORPORA)


if __name__ == "__main__":
    print(json.dumps({name: classify_digest(make()) for name, make in CORPORA.items()}, indent=2))
