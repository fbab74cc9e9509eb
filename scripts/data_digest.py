"""SHA-256 over the group or graph data of every group in a default catalog.

For each entry of ``Catalog.default(max_order)``, in catalog order:

``groups`` takes the table bytes (``np_table().tobytes()``), then the
``repr()`` of the labels, element orders, inverses, pair rows, cyclic
subgroups and the <x> bitsets of all x. A change to how groups are built
that keeps this digest keeps every group's data.

``graphs`` skips the cyclic groups and takes the ``repr()`` of the graph's
twin quotient (``canon.twin_contraction`` of the graph: quotient rows,
descriptors and members), its ``DiameterInfo``, its ``CliqueChromatic``, its ``IndependenceInfo`` and its
degree census (``degree_kinds``). A change to the graph layer that keeps
this digest keeps every one of these values.

    PYTHONPATH=src python scripts/data_digest.py groups --max-order 720 \\
        --expect 691c40c9d89a71616565424d3321697ddd37a7c64dea045755b442cfc685a4f3
    PYTHONPATH=src python scripts/data_digest.py graphs --max-order 720 \\
        --expect 68589e9b6b2fdde6d180895446671c54248a48f7d9ae7e519ca5b7a1096c3945

prints the digest and the number of groups or graphs hashed, and with
``--expect`` exits non-zero when the digest differs.
"""

import argparse
import hashlib
import sys

from noncyclic.canon import twin_contraction
from noncyclic.cyclicizers import cyclicizer_table
from noncyclic.graph import (build_graph, clique_and_chromatic, degree_kinds,
                             diameter_info, independence_info)
from noncyclic.groups import build, is_cyclic_group
from noncyclic.harness import Catalog


def group_parts(g) -> list:
    """The hashed data of group ``g``, as bytes."""
    return [g.np_table().tobytes()] + [repr(part).encode() for part in (
        g.labels, g.elem_orders, g.inverses, g.pair_rows, g.cyclic_subgroups,
        [g.generated_cyclic_bits(x) for x in g.elements()])]


def graph_parts(g) -> list:
    """The hashed data of the non-cyclic graph of ``g``, as bytes; none for
    a cyclic group."""
    if is_cyclic_group(g):
        return []
    ctable = cyclicizer_table(g)
    graph = build_graph(g, ctable)
    return [repr(part).encode() for part in (
        twin_contraction(graph), diameter_info(graph),
        clique_and_chromatic(graph, ctable),
        independence_info(graph, ctable), degree_kinds(graph))]


PARTS = {"groups": group_parts, "graphs": graph_parts}


def data_digest(kind: str, max_order: int) -> tuple[str, int]:
    """(hex digest, number of groups or graphs hashed)."""
    digest = hashlib.sha256()
    count = 0
    for entry in Catalog.default(max_order).entries:
        parts = PARTS[kind](build(entry.spec, label=entry.label))
        digest.update(b"".join(parts))
        count += bool(parts)
    return digest.hexdigest(), count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("kind", choices=sorted(PARTS))
    ap.add_argument("--max-order", type=int, default=720)
    ap.add_argument("--expect", help="the SHA-256 the digest must equal")
    args = ap.parse_args(argv)
    hexdigest, count = data_digest(args.kind, args.max_order)
    print(f"{hexdigest} {count} {args.kind}")
    if args.expect is not None and hexdigest != args.expect:
        print(f"expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
