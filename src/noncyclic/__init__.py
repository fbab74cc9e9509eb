"""Non-cyclic graphs of finite groups.

Build finite groups as Cayley tables, compute cyclicizers and the
non-cyclic graph, derive its invariants, test graph isomorphism, and run
the structural theorems as executable checks over a catalog of small
groups.
"""

from .canon import (CanonicalForm, are_isomorphic, canonical_form,
                    check_goormaghtigh_condition)
from .cyclicizers import (CyclicizerTable, cyclicizer, cyclicizer_of_set,
                          cyclicizer_table, is_tidy,
                          maximal_cyclic_subgroups, prime_graph,
                          quotient_by_cyclicizer)
from .errors import (ClosureTooLarge, Disconnected, EmptySet, GroupIsCyclic,
                     InvalidCayleyFile, InvalidParameter, NonCyclicError,
                     NotAGroup, OrderTooLarge, ParseError, Timeout, TooLarge,
                     UnknownCheck, VerificationFailure)
from .graph import (InvariantReport, NonCyclicGraph, build_graph,
                    clique_and_chromatic, degree_kinds, diameter_info,
                    independence_info, invariant_report, multipartite_profile,
                    omega_bound_info, to_dot)
from .groups import (Group, GroupSpec, Subgroup, build, center, cyclic,
                     dihedral, direct_product, elementary_abelian, exponent,
                     from_cayley_file, generalized_quaternion, is_pair_cyclic,
                     modular_pgroup, mu, parse_group_expr, perm_group, pi_e,
                     semidihedral, subgroup_generated, symmetric, alternating,
                     cyclic_times_p, to_cayley_file)
from .harness import Catalog, CheckResult, run_all, run_check

__version__ = "0.1.0"
