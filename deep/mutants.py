"""A catalog of hand-made mutants of ``src/qramsey``, each of which its
test selection must fail.

    python deep/mutants.py [NAME ...]

A mutant names a file under the repository root, an exact old text that
occurs there exactly once, the text that replaces it, and the pytest
arguments that select the tests meant to catch it.  The runner copies
``src``, ``tests`` and ``pyproject.toml`` to a temporary directory, runs
every selection there on the unmutated copy, which must pass, and then
each mutant alone, with the copy's ``src`` first on the path and no
bytecode written.  A mutant is caught when pytest exits 1 (tests
failed); any other exit is an error of the catalog.  One line per
mutant gives its failed-test count and time, and the exit code is 1 if
any mutant survives or any run errs.  Standard library only.

``tests/test_mutants.py`` checks in tier-1 that every old text occurs
exactly once and that every selected test exists.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    selection: tuple[str, ...]  # pytest arguments


RAMSEY = "src/qramsey/ramsey.py"
F2 = "src/qramsey/f2.py"

MUTANTS = (
    # the verifying count's walk
    Mutant(
        "rep_without_image", RAMSEY,
        "            rep ^= image\n", "",
        ("tests/test_ramsey.py::TestCompressedDimension",),
    ),
    Mutant(
        "table_images_unreduced", RAMSEY,
        "            image ^= stab[held & -held]\n", "",
        ("tests/test_ramsey.py::TestCompressedDimension",
         "tests/test_ramsey.py::TestHeldPivotWalk"),
    ),
    Mutant(
        "walk_mask_from_stabilizer_pivots", RAMSEY,
        "    return rows, pivots, basis\n", "    return rows, stab_pivots, basis\n",
        ("tests/test_ramsey.py::TestHeldPivotWalk",),
    ),
    Mutant(
        "no_affine_shortcut", RAMSEY,
        "        if size >= _AFFINE_MIN and not size & (size - 1):\n",
        "        if False:\n",
        ("tests/test_ramsey.py::TestCompressedDimension",),
    ),
    Mutant(
        "gottesman_plain_dot", RAMSEY,
        "    swaps = [f2.swap_halves(g.check_vector(), n) for g in group.generators]\n",
        "    swaps = [g.check_vector() for g in group.generators]\n",
        ("tests/test_ramsey.py::TestSymplecticInvariance",),
    ),
    # classify's clique branch
    Mutant(
        "clique_key_from_x_half", RAMSEY,
        "        candidate = _noncommuting_clique_candidate(*_clique_key(h, g >> n, n))\n",
        "        candidate = _noncommuting_clique_candidate("
        "*_clique_key(h, g & ((1 << n) - 1), n))\n",
        ("tests/test_ramsey.py::TestClassify",),
    ),
    Mutant(
        "clique_key_clears_one_bit", RAMSEY,
        "        gz ^= b\n", "        gz ^= b & -b\n",
        ("tests/test_ramsey.py::TestConstructionInternals",),
    ),
    Mutant(
        "sub_channel_without_g", RAMSEY,
        "                (noise[at(c0 ^ g)][0], 1 / 3),\n",
        "                (noise[at(c0 ^ h)][0], 1 / 3),\n",
        ("tests/test_ramsey.py::TestClassify",),
    ),
    Mutant(
        "clique_without_count", RAMSEY,
        "        if is_clique(sub, candidate):\n", "        if True:\n",
        ("tests/test_ramsey.py::TestClassify",),
    ),
    Mutant(
        "witness_generators_reversed", RAMSEY,
        '            doc["witness_generators"] = [str(g) for g in self.witness.generators]\n',
        '            doc["witness_generators"] = '
        "[str(g) for g in reversed(self.witness.generators)]\n",
        ("tests/test_golden.py",),
    ),
    # search's walk and its records
    Mutant(
        "gather_without_v", RAMSEY,
        "            at ^= np.argmax(x == v[part, None], axis=1)[:, None]\n", "",
        ("tests/test_ramsey.py::TestSearch",),
    ),
    Mutant(
        "record_without_last_vector", RAMSEY,
        "                group = _group_from_rows(row, self.n)\n",
        "                group = _group_from_rows(row[:-1], self.n)\n",
        ("tests/test_ramsey.py::TestSearch",),
    ),
    Mutant(
        "record_marks_both_kinds", RAMSEY,
        "            self.built[i, kind] = True\n", "            self.built[i] = True\n",
        ("tests/test_ramsey.py", "-k", "record"),
    ),
    Mutant(
        "record_group_not_shared", RAMSEY,
        "            if self.built[i, 1 - kind]:\n", "            if False:\n",
        ("tests/test_ramsey.py", "-k", "record"),
    ),
    Mutant(
        "hermitian_rep_unmemoized", "src/qramsey/pauli.py",
        "@lru_cache(maxsize=1 << 10, typed=True)\n", "",
        ("tests/test_ramsey.py", "-k", "record"),
    ),
    # the reductions
    Mutant(
        "rref_one_held_pivot", F2,
        "        held = v & pivots\n        while held:\n",
        "        held = v & pivots\n        if held:\n",
        ("tests/test_f2.py",),
    ),
    Mutant(
        "rref_no_back_substitution", F2,
        "            for k, r in rows.items():\n                if r & m:\n"
        "                    rows[k] = r ^ v\n", "",
        ("tests/test_f2.py",),
    ),
    Mutant(
        "echelon_records_no_top", F2,
        "            tops |= top\n", "",
        ("tests/test_f2.py",),
    ),
    Mutant(
        "canonical_keeps_lowest_generator", "src/qramsey/stabilizer.py",
        "            op = gens[i] if op is None else op.multiply(gens[i])\n",
        "            op = gens[i]\n",
        ("tests/test_stabilizer.py",),
    ),
    # the front end
    Mutant(
        "verify_seed_defaults_to_one", "src/qramsey/cli.py",
        'p.add_argument("--seed", type=_seed, default=0, help="seed for privacy sampling")',
        'p.add_argument("--seed", type=_seed, default=1, help="seed for privacy sampling")',
        ("tests/test_cli.py::TestVerify",),
    ),
)


def _copy(work: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, work / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")


def _pytest(work: Path, selection) -> tuple[int, str]:
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *selection],
        cwd=work, env=env, capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout + proc.stderr


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _copy(work)
        # every selected file or node once; a whole file covers its nodes
        paths = {arg for m in chosen for arg in m.selection if arg.startswith("tests/")}
        paths = {p for p in paths if p.split("::")[0] == p or p.split("::")[0] not in paths}
        code, out = _pytest(work, sorted(paths))
        if code != 0:
            print(f"unmutated selections exit {code}:\n{out}", file=sys.stderr)
            return 1
        for m in chosen:
            target = work / m.path
            original = target.read_text()
            if original.count(m.old) != 1:
                print(f"{m.name}: old text found {original.count(m.old)} times in {m.path}")
                bad += 1
                continue
            target.write_text(original.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                code, out = _pytest(work, m.selection)
            finally:
                target.write_text(original)
            elapsed = time.perf_counter() - start
            failed = re.search(r"(\d+) failed", out)
            if code == 1:
                count = failed.group(1) if failed else "?"
                print(f"{m.name}: caught, {count} failed, {elapsed:.1f} s")
            else:
                bad += 1
                state = "SURVIVED" if code == 0 else f"pytest exit {code}"
                print(f"{m.name}: {state}, {elapsed:.1f} s")
    print(f"{len(chosen) - bad} of {len(chosen)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
