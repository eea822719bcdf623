"""The CI workflow runs checks; their Python lives in ``deep/``, built on
``helpers`` and ``reference``.  Read as text: CI installs no YAML parser.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
TEST_MODULE_IMPORT = re.compile(r"^\s*(from\s+test_\w+\s+import|import\s+test_\w+)")


def test_workflow_holds_no_python_heredoc():
    assert "<<'PY'" not in WORKFLOW.read_text()


def test_nothing_imports_from_a_test_module():
    paths = [WORKFLOW, *sorted((ROOT / "deep").glob("*.py"))]
    offending = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if TEST_MODULE_IMPORT.match(line)
    ]
    assert offending == []
