"""The dense oracle on the maximal n = 4 channel: the graph rank reads
1 + m(m-1)/2 = 121 quotient lines of the 16 operators, and the maximal
check adds the compression."""

import time

from qramsey import channel, oracle, ramsey, stabilizer


def test_graph_rank_and_maximal_check():
    ch = channel.maximal_stabilizer_channel(stabilizer.from_string("XIII,IXII,IIXI,IIIX"))
    group = ramsey.classify(ch).witness
    start = time.perf_counter()
    graph = oracle.dense_graph_dimension(ch)
    graph_s = time.perf_counter() - start
    start = time.perf_counter()
    maximal = oracle.dense_maximal_check(ch, group)
    maximal_s = time.perf_counter() - start
    assert graph.rank == 16 and maximal, (graph.rank, maximal)
    print(
        f"maximal n=4 channel, {len(ch.operators)} operators: "
        f"dense_graph_dimension {graph_s * 1e3:.1f} ms, "
        f"dense_maximal_check {maximal_s * 1e3:.1f} ms"
    )
