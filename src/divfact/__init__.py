"""Exact-arithmetic toolkit for weighted line bundle degrees on moduli of
pointed rational curves: factorization rules, F-curve degree vectors,
cyclic-cover numerics, and symbolic tableau invariants.

Each public name is imported from its module on first use (PEP 562), so a
process that needs one submodule, such as the CLI, loads no other."""

# each public name and the submodule that defines it
_EXPORTS = {
    "BundleFamily": "bundles",
    "DegreeVector": "bundles",
    "MainTheoremReport": "bundles",
    "check_git_factorization": "bundles",
    "deg4_cb": "bundles",
    "deg4_cyc": "bundles",
    "deg4_git": "bundles",
    "degree_vector": "bundles",
    "fcurve_degree": "bundles",
    "verify_main_theorem": "bundles",
    "CoverSpec": "covers",
    "DegenerationData": "covers",
    "DisconnectedCoverWarning": "covers",
    "InvariantError": "covers",
    "degenerate": "covers",
    "genus": "covers",
    "PointConfiguration": "invariants",
    "RestrictionReport": "invariants",
    "Stability": "invariants",
    "Tableau": "invariants",
    "attach_block_matrix": "invariants",
    "attach_configuration": "invariants",
    "enumerate_tableaux": "invariants",
    "evaluate_tableau": "invariants",
    "is_semistable": "invariants",
    "tableau_polynomial": "invariants",
    "verify_restriction_theorem": "invariants",
    "Poly": "polynomials",
    "determinant": "polynomials",
    "BoundaryCut": "strata",
    "SetPartition4": "strata",
    "enumerate_boundary_cuts": "strata",
    "enumerate_fcurves": "strata",
    "Linearization": "weights",
    "RangeConditionError": "weights",
    "WeightVector": "weights",
    "in_hypersimplex": "weights",
    "phi_rule": "weights",
    "psi_rule": "weights",
    "split_linearization": "weights",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        module = f"{__name__}.{_EXPORTS[name]}"
    elif name in _EXPORTS.values():
        module = f"{__name__}.{name}"
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(module)
    if name in _EXPORTS:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
