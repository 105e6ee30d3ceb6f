"""symbreak: symmetry-breaking indices of finite simple graphs.

Computes the distinguishing number D(G), the distinguishing threshold
theta(G), counts of non-equivalent distinguishing colorings, and their
rooted variants; builds vertex-sums, smooth rooted products, coronas and
lexicographic products; and ships a verification harness that checks every
closed-form rule it implements against brute force at desk scale.
"""

from .errors import (BudgetExceededError, EdgeListError, Graph6Error,
                     InvalidInputError, PreconditionError, SymbreakError)
from .graphs import (Graph, RootedGraph, asymmetric6, build_graph, complete,
                     complete_bipartite, connected_components, cycle,
                     delete_vertex, disjoint_union, empty_graph, family,
                     induced_subgraph, is_2connected, is_connected,
                     is_isomorphic, kneser, path, petersen, star)
from .perms import (AutGroup, enumerate_automorphisms, is_automorphism,
                    stabilizer)
from .indices import (Coloring, IndexReport, PhiPair, PhiTable,
                      are_equivalent, distinguishing_number,
                      distinguishing_threshold, graph_indices,
                      is_distinguishing, is_steady, phi, phi_brute,
                      phi_table, rooted_indices)
from .products import (ProductLayout, all_automorphisms_natural, corona,
                       lexicographic, rooted_product_smooth, vertex_sum,
                       vertex_sum_power)
from .formulas import (binomial, corona_preconditions, d_corona,
                       d_lexicographic, d_rooted, d_vertex_sum_power,
                       d_vsum_complete_closed, d_vsum_cycles,
                       d_vsum_nonisomorphic, lexicographic_preconditions,
                       nu_repeated, phi_complete_closed, phi_path_closed,
                       radical_discrepancy_rows, rooted_preconditions,
                       stirling2, theta_corona, theta_lexicographic,
                       theta_rooted, theta_union, theta_vsum_2connected,
                       theta_vsum_cycles)

nu = nu_repeated

__version__ = "0.1.0"
