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
