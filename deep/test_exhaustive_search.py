"""search past tier-1's sizes: records reused across searches against an
empty level cache, the n = 5 walk on a seeded maximal channel, and the
first n = 5 search of a seeded 16-operator channel.

Run as a script, this module does one n = 5 search, named by its
argument (``maximal`` or ``s16``).  Each test runs it so, in a process of
its own: the first search then starts from empty caches, and the peak
RSS it prints is that search's own.
"""

import itertools
import os
import random
import resource
import subprocess
import sys
import time

import numpy as np

from qramsey import channel, ramsey, selftest, stabilizer
from qramsey.pauli import hermitian_rep

import reference
from helpers import make_channel


def test_record_reuse_matches_an_empty_cache():
    # one process: a maximal channel, two operators as anticlique, then 16
    # seeded operators as clique and both, so later searches reuse the
    # records and groups that earlier ones built, across kinds too; each
    # must equal the same search from an empty level cache, which is all
    # the state search keeps between calls
    paulis = ["".join(p) for p in itertools.product("IXYZ", repeat=4)]
    s16 = make_channel(*random.Random(7).sample(paulis, 16))
    maximal = channel.maximal_stabilizer_channel(stabilizer.from_string("XIII,IXII,IIXI,IIIX"))
    searches = [
        (maximal, "both"),
        (make_channel("IIII", "XXII"), "anticlique"),
        (s16, "clique"),
        (s16, "both"),
    ]
    ramsey._SUBSPACE_CACHE.clear()
    start = time.perf_counter()
    reused = [ramsey.search(ch, mode) for ch, mode in searches]
    print(f"4 searches at n=4 in one process: {time.perf_counter() - start:.2f} s")
    for (ch, mode), report in zip(searches, reused):
        ramsey._SUBSPACE_CACHE.clear()
        assert ramsey.search(ch, mode) == report, (ch.operators, mode)


def maximal_search_at_n5():
    n = 5
    group = selftest._random_group(random.Random(5), n, n, signs=False)
    ch = channel.maximal_stabilizer_channel(group)
    start = time.perf_counter()
    report = ramsey.search(ch, "both", limit=5)
    elapsed = time.perf_counter() - start
    assert report.witnesses == (), f"{len(report.witnesses)} witnesses for {group}"
    # the same channel again, on the levels the first search built
    start = time.perf_counter()
    assert ramsey.search(ch, "both", limit=5) == report
    warm = time.perf_counter() - start
    # a Lagrangian difference set hits 2^k cosets of every code
    diffs = np.fromiter(channel.difference_set(ch), dtype=np.intp)
    for d, counts in enumerate(ramsey._coset_counts(diffs, n, n - 1)):
        assert (counts == 2 ** (n - d)).all(), (d, sorted(set(counts.tolist())))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"n=5 maximal channel {group}: {report.total_examined} codes, "
        f"no witnesses, every count 2^k; first search {elapsed:.1f} s, "
        f"warm search {warm:.2f} s, peak RSS {peak:.0f} MB"
    )


def first_16_operator_search_at_n5():
    n = 5
    paulis = ["".join(p) for p in itertools.product("IXYZ", repeat=n)]
    ch = make_channel(*random.Random(16).sample(paulis, 16))
    start = time.perf_counter()
    report = ramsey.search(ch, "both", limit=5)
    elapsed = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"n=5 channel of 16 operators (random.Random(16)): {len(report.witnesses)} "
        f"witnesses of {report.total_examined} codes; cold first search {elapsed:.1f} s, "
        f"peak RSS {peak:.0f} MB"
    )
    # a seeded sample of every level, recorded or not, against the
    # reduction route on the same rows
    rng = random.Random(5)
    checked = recorded = 0
    for d in range(n):
        cands = ramsey._candidates(n, d)
        for i in sorted(rng.sample(range(len(cands)), min(300, len(cands)))):
            ops = [hermitian_rep(v, n) for v in cands.rows[i].tolist()]
            want = reference.validate(ops, n=n)
            assert stabilizer.validate(ops, n=n).generators == want.generators, (d, i)
            records = cands.records[i][cands.built[i]] if len(cands.built) else ()
            for record in records:
                assert record.group.generators == want.generators, (d, i)
                recorded += 1
            checked += 1
    assert recorded
    print(f"{checked} sampled n=5 candidates ({recorded} records) match the reduction route")


def _run_child(name):
    # the child imports qramsey, helpers and reference from where this
    # process does
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run(
        [sys.executable, __file__, name], env=env, capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    print(child.stdout, end="")


def test_maximal_search_at_n5():
    _run_child("maximal")


def test_first_16_operator_search_at_n5():
    _run_child("s16")


if __name__ == "__main__":
    {"maximal": maximal_search_at_n5, "s16": first_16_operator_search_at_n5}[sys.argv[1]]()
