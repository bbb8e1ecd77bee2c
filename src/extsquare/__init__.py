"""Exact exterior-square matrix calculus over commutative rings.

The package builds the second compound (Cauchy-Binet) image of invertible
matrices, the transvection calculus of the compound group (expansions,
monomial moves, column/row stabilizers, short Plucker relations and the
membership criterion, congruence levels), and a verified engine expressing
exterior transvections with level-generator arguments as products of
exactly 8, 16, 24 or 48 elementary conjugates of a matrix and its inverse.

The public names below are resolved on first access (a module
__getattr__), so importing the package, or one command of extsquare.cli,
loads only the modules it uses.
"""

from importlib import import_module

_PUBLIC = {
    "indexing": ("ambient_rank", "dim", "height", "pairs", "rank", "shuffle_sign", "sign", "unrank"),
    "matrices": ("InvPair", "Matrix", "commutator", "conjugate", "identity", "identity_pair"),
    "rings": ("IntegerRing", "ModularRing", "NonUnitError", "PolynomialRing", "RingElement", "RingMismatchError"),
    "words": ("ConjWord", "ExtWord", "PairWord", "TransvWord", "ext_letter_matrix"),
    "exterior": ("cauchy_binet", "compound_pair", "ext_transvection", "p_element"),
    "plucker": ("PairVector", "a_sum", "column_satisfies", "is_member", "plucker_poly"),
    "stabilizer": ("column_stabilizer", "plucker_stabilizer", "row_stabilizer"),
    "level": ("congruence_class", "ideal_contains", "level_generators", "reduce_matrix"),
    "rdu": ("CertificateError", "Decomposition", "DecompositionError", "GeneratorTarget", "HeightError",
            "MembershipError", "RankError", "ReverseDecomposer", "verify"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, imported from its module and kept here; a submodule
    name (extsquare.rdu) imports that submodule."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _PUBLIC or name in ("certify", "cli", "generate", "jsonio"):
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
