"""SHA-256 over the graph data of every non-cyclic group in a default catalog.

For each entry of ``Catalog.default(max_order)`` whose group is not cyclic,
in catalog order, the digest takes the ``repr()`` of the graph's twin
quotient (quotient rows, descriptors and members), its ``CliqueChromatic``,
its ``IndependenceInfo`` and its degree census (``degree_kinds``). A change
to the graph layer that keeps this digest keeps every one of these values.

    PYTHONPATH=src python scripts/graph_data_digest.py --max-order 720 \\
        --expect 7bf99ec4c73af931cc55019cfd20ac23298d2fd2ce6437c6bec1a744df7fee6d

prints the digest and the number of graphs, and with ``--expect`` exits
non-zero when the digest differs.
"""

import argparse
import hashlib
import sys

from noncyclic.cyclicizers import cyclicizer_table
from noncyclic.graph import (build_graph, clique_and_chromatic, degree_kinds,
                             independence_info)
from noncyclic.groups import build, is_cyclic_group
from noncyclic.harness import Catalog


def graph_data_digest(max_order: int) -> tuple[str, int]:
    digest = hashlib.sha256()
    count = 0
    for entry in Catalog.default(max_order).entries:
        g = build(entry.spec, label=entry.label)
        if is_cyclic_group(g):
            continue
        ctable = cyclicizer_table(g)
        graph = build_graph(g, ctable)
        for part in (graph.twin_quotient, clique_and_chromatic(graph, ctable),
                     independence_info(graph, ctable), degree_kinds(graph)):
            digest.update(repr(part).encode())
        count += 1
    return digest.hexdigest(), count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-order", type=int, default=720)
    ap.add_argument("--expect", help="the SHA-256 the digest must equal")
    args = ap.parse_args(argv)
    hexdigest, count = graph_data_digest(args.max_order)
    print(f"{hexdigest} {count} graphs")
    if args.expect is not None and hexdigest != args.expect:
        print(f"expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
