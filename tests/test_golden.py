"""Golden digests: default output pinned across changes, not only against
the parent.

``golden_digests.json`` holds one SHA-256 per corpus.  A classify corpus
is digested over its classify JSON, one ``sort_keys`` line per channel in
corpus order, each ending in a newline.  A CLI corpus is a script of
commands run in-process through ``cli.main``, digested over one line per
command: ``json.dumps([exit_code, stdout])`` and a newline.  A digest
changes only with a change that means to change that output; that change
records the corpus, the old and new digest and the reason.
``python tests/test_golden.py`` prints every digest in the file's form.
"""

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

from qramsey import cli, ramsey, selftest

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


def _cli_smoke(run, tmp):
    # the CI workflow's "CLI smoke" step, command for command
    m6, m10, m4, two4 = (str(tmp / name) for name in ("m6.json", "m10.json", "m4.json", "two4.json"))
    run("construct-maximal", "--n", "6", "-o", m6)
    run("classify", "--channel", m6)
    run("construct-maximal", "--n", "10", "-o", m10)
    run("classify", "--channel", m10)
    run("dim", "--channel", m10, "--stabilizer",
        "ZIIIIIIIII,IZIIIIIIII,IIZIIIIIII,IIIZIIIIII,IIIIZIIIII,IIIIIZIIII,IIIIIIZIII,IIIIIIIZII,IIIIIIIIZI")
    run("selftest")
    run("construct-maximal", "--n", "4", "-o", m4)
    run("verify", "--channel", m4, "--stabilizer", "ZZII")
    run("classify", "--channel", m4, "--oracle")
    run("verify", "--channel", m4, "--stabilizer", "XIII,IXII,IIXI,IIIX")
    Path(two4).write_text('{"n": 4, "noise": ["IIII", "XXII"]}\n')
    run("verify", "--channel", two4, "--stabilizer", "ZZZZ")
    run("search", "--channel", m4, "--mode", "both")


def _privacy_sampling(run, tmp):
    # the CI workflow's "Privacy sampling on a clique witness" step
    p16 = tmp / "p16.json"
    p16.write_text(
        '{"n": 4, "noise": ["XZYX", "XIIY", "YZZX", "ZZIY", "IYIX", "IIXY", "ZZII", "YIXI", '
        '"XZXZ", "XYIY", "ZZIZ", "ZIYZ", "XIZX", "XZXY", "ZIXZ", "IIXZ"]}\n'
    )
    witness = json.loads(run("classify", "--channel", str(p16)))["witness_generators"]
    run("verify", "--channel", str(p16), "--stabilizer", ",".join(witness))


def _selftest(*flags):
    return lambda run, tmp: run("selftest", *flags)


CLI_CORPORA = {
    "cli_smoke": _cli_smoke,
    "cli_privacy_sampling": _privacy_sampling,
    "selftest_n1": _selftest("--n", "1"),
    "selftest_n2": _selftest("--n", "2"),
    "selftest_n3": _selftest("--n", "3"),
    "selftest_default": _selftest(),
}

# about 7 s: checked by the deep suite, deep/test_selftest_exhaustive.py
DEEP_CLI_CORPORA = {"selftest_exhaustive": _selftest("--exhaustive")}


def cli_digest(script, tmp: Path) -> str:
    digest = hashlib.sha256()

    def run(*argv: str) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        digest.update(json.dumps([code, out.getvalue()]).encode() + b"\n")
        return out.getvalue()

    script(run, tmp)
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_classify_digest_is_unchanged(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert classify_digest(CORPORA[name]()) == expected


@pytest.mark.parametrize("name", sorted(CLI_CORPORA))
def test_cli_digest_is_unchanged(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert cli_digest(CLI_CORPORA[name], tmp_path) == expected


def test_every_corpus_has_a_digest():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(
        [*CORPORA, *CLI_CORPORA, *DEEP_CLI_CORPORA]
    )


if __name__ == "__main__":
    digests = {name: classify_digest(make()) for name, make in CORPORA.items()}
    with tempfile.TemporaryDirectory() as tmp:
        for name, script in {**CLI_CORPORA, **DEEP_CLI_CORPORA}.items():
            digests[name] = cli_digest(script, Path(tmp))
    print(json.dumps(digests, indent=2, sort_keys=True))
