"""SHA-256 over the group data of every group in a default catalog.

For each entry of ``Catalog.default(max_order)``, in catalog order, the
digest takes the table bytes (``np_table().tobytes()``), then the
``repr()`` of the labels, element orders, inverses, pair rows, cyclic
subgroups and the <x> bitsets of all x. A change to how groups are built
that keeps this digest keeps every group's data.

    PYTHONPATH=src python scripts/group_data_digest.py --max-order 720 \\
        --expect 691c40c9d89a71616565424d3321697ddd37a7c64dea045755b442cfc685a4f3

prints the digest and the number of groups, and with ``--expect`` exits
non-zero when the digest differs.
"""

import argparse
import hashlib
import sys

from noncyclic.groups import build
from noncyclic.harness import Catalog


def group_data_digest(max_order: int) -> tuple[str, int]:
    digest = hashlib.sha256()
    count = 0
    for entry in Catalog.default(max_order).entries:
        g = build(entry.spec, label=entry.label)
        digest.update(g.np_table().tobytes())
        for part in (g.labels, g.elem_orders, g.inverses, g.pair_rows,
                     g.cyclic_subgroups,
                     [g.generated_cyclic_bits(x) for x in g.elements()]):
            digest.update(repr(part).encode())
        count += 1
    return digest.hexdigest(), count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-order", type=int, default=720)
    ap.add_argument("--expect", help="the SHA-256 the digest must equal")
    args = ap.parse_args(argv)
    hexdigest, count = group_data_digest(args.max_order)
    print(f"{hexdigest} {count} groups")
    if args.expect is not None and hexdigest != args.expect:
        print(f"expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
