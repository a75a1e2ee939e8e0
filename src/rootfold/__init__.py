"""Exact-arithmetic engine for root data with finite symmetry groups:
restriction (folding), base-transport cocycles, and the cohomological
classification of twisted data.

The names below are re-exported lazily (PEP 562): ``import rootfold``
loads no submodule, and ``rootfold.X`` imports the submodule that
defines X on first use.  A resolved name is looked up again on every
access rather than stored here, so ``rootfold.X`` is always the
submodule's current binding."""

from importlib import import_module

_EXPORTS = {
    "action": (
        "Coinvariants",
        "DatumAction",
        "FiniteGroup",
        "actions_commute",
        "coinvariants",
        "fixed_weyl",
        "make_action",
        "orbit",
        "orthogonal_orbit",
    ),
    "errors": (
        "EnumerationOverflow",
        "InvalidActionError",
        "ParseError",
        "RootfoldError",
        "UnknownTypeError",
        "UnsupportedDatumError",
    ),
    "folding": (
        "RestrictedDatum",
        "fiber",
        "invariant_positive_systems",
        "positive_system_transfer",
        "reduced_subdatum",
        "restrict",
        "weyl_descent_iso",
    ),
    "rootdatum": (
        "BasedRootDatum",
        "DatumAutomorphism",
        "RootDatum",
        "WeylGroup",
        "base_of",
        "canonical_base",
        "classify",
        "from_cartan_type",
        "is_reduced",
        "positive_systems",
        "reflection",
        "verify_axioms",
        "verify_base",
        "weyl_group",
    ),
    "twist": (
        "CohomologyClassSet",
        "StarCocycle",
        "base_transport",
        "equivariant_automorphism_group",
        "equivariant_isomorphic",
        "h1_classes",
        "h1_with_image",
        "star_action",
        "twist_datum",
        "z1_enumerate",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
