import pytest

from noncyclic import groups as G
from noncyclic.graph import build_graph
from noncyclic.harness import Catalog


@pytest.fixture(scope="session")
def oracle_graphs():
    """Every catalog graph of order at most 64, plus Z6 x S3 (diameter 3)
    and the complete graph of EA(2,3) (diameter 1)."""
    groups = [G.build(e.spec) for e in Catalog.default(max_order=64).entries]
    groups.append(G.build(G.direct_product([G.cyclic(6), G.symmetric(3)],
                                           name="Z6xS3")))
    groups.append(G.build(G.parse_group_expr("EA(2,3)")))
    return [build_graph(g) for g in groups if not G.is_cyclic_group(g)]


@pytest.fixture(scope="session")
def catalog_groups():
    """(entry, group) for every entry of the default catalog (order at most
    200), each group built once with its entry's label. Tests share the
    groups, so they must not mutate them."""
    return [(e, G.build(e.spec, label=e.label))
            for e in Catalog.default(max_order=200).entries]
