"""The deep suite: cross-checks too slow for tier-1, which does not collect
them.  ``PYTHONPATH=src python -m pytest deep -q -s`` runs it with each
check's timing line; it shares tier-1's ``helpers`` and ``reference``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
