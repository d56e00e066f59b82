"""Exact computational toolkit for key, Omega, Schubert and Grothendieck
polynomials, Kohnert-style diagram moves with ghosts, column insertion of
reduced words, and the block-Schur splitting of key and Schubert polynomials.
"""

__version__ = "0.1.0"

from .perms import (
    composition,
    descents,
    format_composition,
    format_permutation,
    lehmer_code,
    parse_composition,
    parse_permutation,
    perm_descents,
    perm_from_code,
    perm_length,
    permutation,
    reduced_words,
    strict_descents,
)
from .poly import (
    Polynomial,
    demazure,
    divided_difference,
    isobaric,
    twisted_demazure,
)
from .diagrams import (
    Diagram,
    closure,
    closure_polynomial,
    diagram_weight,
    j_polynomial,
    k_polynomial,
    rothe,
    skyline,
    successors,
)
from .tableaux import (
    Tableau,
    compatible_pairs,
    content,
    coxeter_knuth_class,
    egls_insert,
    insertion_tableau,
    nil_left_key,
    peeling_tableau,
    row_word,
    split_blocks,
    split_compatible_pair,
)
from .bases import (
    expand_in_basis,
    grothendieck,
    key_by_insertion_fiber,
    key_polynomial,
    key_split_expansion,
    omega_polynomial,
    schubert,
    schubert_split_expansion,
    schur_block,
    split_extract,
)
