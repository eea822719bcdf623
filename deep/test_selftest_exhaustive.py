"""``qramsey selftest --exhaustive``: the nine criteria at acceptance
strength, too slow for tier-1.  Its exit code and JSON are pinned by the
``selftest_exhaustive`` digest in ``tests/golden_digests.json``, in the
CLI corpus form that ``tests/test_golden.py`` describes.
"""

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

from qramsey import cli

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden_digests.json"


def test_exhaustive_selftest_digest_is_unchanged():
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["selftest", "--exhaustive"])
    print(f"selftest --exhaustive: {time.perf_counter() - start:.1f} s")
    line = json.dumps([code, out.getvalue()]) + "\n"
    expected = json.loads(GOLDEN.read_text())["selftest_exhaustive"]
    assert hashlib.sha256(line.encode()).hexdigest() == expected
