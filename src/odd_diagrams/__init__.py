"""Odd diagrams of permutations: Bruhat-order structure of odd diagram
classes, their uniform partition, and Poincare polynomial factorization."""

from .classes import (
    class_of,
    classes_of_sn,
)
from .diagrams import (
    first_difference,
    is_legal,
    odd_diagram,
    odd_length,
    rothe_diagram,
    satisfies_legality_criterion,
)
from .duality import (
    bipartite_criterion,
    is_self_dual,
    top_heavy_check,
)
from .intervals import BruhatInterval, hasse_edges, interval_elements, rank_vector
from .partition import block_index, decompose, factorize, phi
from .perms import (
    Perm,
    avoids,
    bruhat_leq,
    covers,
    descent_set,
    format_perm,
    inverse,
    length,
    make_permutation,
    parse_perm,
    right_transpose,
)
from .polynomials import (
    IntPolynomial,
    carrell_condition,
    expand_factors,
    is_palindromic,
    kl_polynomial,
    poincare,
    r_polynomial,
)

__version__ = "0.1.0"
