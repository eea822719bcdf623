"""Golden digests: default output pinned across changes, not only against
the parent.

``golden_digests.json`` holds one SHA-256 per corpus.  The classify,
search and dimension corpora, and their digest form, are in ``golden``.
A CLI corpus is a script of commands run in-process through
``cli.main``, digested over one line per command:
``json.dumps([exit_code, stdout])`` and a newline.  A digest changes
only with a change that means to change that output; that change
records the corpus, the old and new digest and the reason.
``python tests/test_golden.py`` prints every digest in the file's form.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from qramsey import cli

from golden import (
    CORPORA,
    DEEP_CORPORA,
    GOLDEN,
    OUTPUT_CORPORA,
    classify_digest,
    line_digest,
)


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


@pytest.mark.parametrize("name", sorted(OUTPUT_CORPORA))
def test_output_digest_is_unchanged(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert line_digest(OUTPUT_CORPORA[name]()) == expected


@pytest.mark.parametrize("name", sorted(CLI_CORPORA))
def test_cli_digest_is_unchanged(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert cli_digest(CLI_CORPORA[name], tmp_path) == expected


def test_every_corpus_has_a_digest():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(
        [*CORPORA, *OUTPUT_CORPORA, *DEEP_CORPORA, *CLI_CORPORA, *DEEP_CLI_CORPORA]
    )


if __name__ == "__main__":
    digests = {
        name: classify_digest(make()) for name, make in {**CORPORA, **DEEP_CORPORA}.items()
    }
    digests.update((name, line_digest(make())) for name, make in OUTPUT_CORPORA.items())
    with tempfile.TemporaryDirectory() as tmp:
        for name, script in {**CLI_CORPORA, **DEEP_CLI_CORPORA}.items():
            digests[name] = cli_digest(script, Path(tmp))
    print(json.dumps(digests, indent=2, sort_keys=True))
