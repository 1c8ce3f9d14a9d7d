"""Exact invariants of polarized metrized graphs of total genus 3.

The package computes the tau, theta, delta, phi, lambda, epsilon and Z
invariants of polarized metrized graphs with rational edge lengths, entirely
in exact rational arithmetic.  A catalog of the 41 fixed families of total
genus 3 carries independently transcribed closed forms that cross-check the
general engine; a polynomial module certifies the symbolic identities behind
the sharp lower bounds; a bounds module corroborates those floors by exact
sampling and confirms the sharpness witnesses.

Each public name imports its module on first use, not at ``import pmgraph``.
"""

import importlib

__version__ = "1.0.0"

# module -> its public names, in the order of __all__
_EXPORTS = {
    "graph": (
        "Edge",
        "GenusData",
        "InvalidGraphError",
        "PmGraph",
        "PmGraphError",
        "UnsupportedGenusError",
        "ValidationReport",
        "Vertex",
        "as_rational",
        "canonical_divisor",
        "connected_components",
        "genus",
        "normalize",
        "require_valid",
        "validate",
    ),
    "io": (
        "ParseError",
        "graph_to_text",
        "parse_graph",
    ),
    "resistance": (
        "EdgeClass",
        "ResistanceMatrix",
        "classify_edges",
        "effective_resistance",
        "laplacian",
        "resistance_matrix",
    ),
    "invariants": (
        "InvariantSet",
        "delta",
        "invariant_set",
        "tau",
        "theta",
        "zhang_invariants",
    ),
    "catalog": (
        "CatalogError",
        "CrossCheckReport",
        "FamilySpec",
        "ParameterError",
        "UnknownFamilyError",
        "build",
        "check_family",
        "closed_form",
        "cross_check",
        "family",
        "list_families",
        "random_lengths",
    ),
    "polynomials": (
        "Polynomial",
        "variables",
    ),
    "identities": (
        "IdentityCertificate",
        "PROBE_NAMES",
        "identity_names",
        "named",
        "verify_all",
        "verify_identity",
    ),
    "bounds": (
        "BoundSpec",
        "SampleReport",
        "Witness",
        "WitnessReport",
        "bound_table",
        "engine_ratio",
        "engine_ratios",
        "matching_families",
        "sample_check",
        "verify_bounds",
        "witness_check",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    """A submodule such as ``catalog``, or a public name read off its module.

    Nothing is stored here, so a name rebound in its module reads the same here.
    """
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
