"""Exact computational toolkit for key, Omega, Schubert and Grothendieck
polynomials, Kohnert-style diagram moves with ghosts, column insertion of
reduced words, and the block-Schur splitting of key and Schubert polynomials.

The names below, and the five modules that hold them, are loaded on first
use (PEP 562): ``import kohnert`` loads no submodule, so a process pays only
for the modules it calls.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "perms": """composition descents format_composition format_permutation
        lehmer_code parse_composition parse_permutation perm_descents
        perm_from_code perm_length permutation reduced_words strict_descents""",
    "poly": "Polynomial demazure divided_difference isobaric twisted_demazure",
    "diagrams": """Diagram closure closure_polynomial diagram_weight j_polynomial
        k_polynomial rothe skyline successors""",
    "tableaux": """Tableau compatible_pairs content coxeter_knuth_class egls_insert
        insertion_tableau nil_left_key peeling_tableau row_word split_blocks
        split_compatible_pair""",
    "bases": """expand_in_basis grothendieck key_by_insertion_fiber key_polynomial
        key_split_expansion omega_polynomial schubert schubert_split_expansion
        schur_block split_extract""",
}

# Each exported name, and each of those modules by its own name, to its module.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_MODULE_OF.update({module: module for module in _EXPORTS})


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    # importing a submodule binds it here, so a module name is found next time
    loaded = import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
