"""Minimal linear codes from multiplicatively invariant subsets of finite fields.

Each public name is imported from its home module on first use (PEP 562),
so `from pdscodes import pds` compiles only the modules that pds imports.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "blocking": ("BlockingReport", "is_cutting_vectorial_blocking"),
    "charsums": ("Spectrum", "full_spectrum"),
    "codes": (
        "MinimalityReport",
        "SubsetCode",
        "WeightDistribution",
        "ab_condition",
        "minimality_cyclotomic_sufficient",
        "minimality_latin_sufficient",
        "minimality_pds_sufficient",
        "weight_class",
        "weight_distribution_predicted",
    ),
    "field": ("FieldSpec", "FieldTower", "build_tower"),
    "pds": (
        "FieldSubset",
        "PdsCertificate",
        "PdsVerificationError",
        "build_cyclotomic_subset",
        "cyclotomic_classes",
        "is_fq_invariant",
        "predicted_cyclotomic_eigenvalues",
        "quadric_subset",
        "verify_pds_direct",
        "verify_pds_spectral",
    ),
    "qpoly": ("QPolynomial", "induced_code_automorphism_check", "is_automorphism_of"),
    "recipes": ("RECIPES", "build_recipe"),
    "secretsharing": ("AccessReport", "analyze_scheme"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
