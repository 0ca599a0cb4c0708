"""Exact verification toolkit for two-term symmetric-mean inequalities.

Everything computes over arbitrary-precision rationals; randomized
searches re-verify any candidate exactly before reporting it.

Public names resolve on first access (PEP 562): ``import symcert``
loads no submodule, and ``symcert.f_scan`` imports ``symcert.certificate``
the first time it is read.
"""

import importlib

__version__ = "0.1.0"

# defining submodule -> the public names it exports
_EXPORTS = {
    "core": (
        "AllSamplesDegenerate",
        "CertificateViolation",
        "SymProfile",
        "as_point",
        "as_rational",
        "as_triple",
        "binomial",
        "e_all",
        "garding_membership",
        "parse_point",
        "sigma_all",
        "to_json",
    ),
    "gaps": (
        "ChainResult",
        "EndpointWitness",
        "EqualityCase",
        "GapReport",
        "PreconditionError",
        "Relation",
        "gen_maclaurin_chain",
        "gen_nm_gap",
        "linear_combo_gap",
        "liu_ren_gap",
        "maclaurin_chain_check",
        "newton_gap",
        "quantitative_gap",
        "remark_violation",
    ),
    "certificate": (
        "BinomQuad",
        "CertConstants",
        "FScanRow",
        "Lemma31Report",
        "Lemma32Report",
        "WindowCheck",
        "binom_quad",
        "cert_constants",
        "decomposition_coefficient_match",
        "decomposition_residual",
        "f_scan",
        "is_special_window",
        "lemma31_check",
        "lemma32_check",
        "theta_for",
        "window_check",
    ),
    "reduction": (
        "Branch",
        "CascadeResult",
        "Cubic",
        "RootTriple",
        "associated_cubic",
        "cubic_discriminant",
        "degenerate_direct_gap",
        "derivative_cascade",
        "gap_from_moments",
        "lemma21_identity_residual",
        "real_cubic_roots",
        "reduce_to_three",
    ),
    "search": (
        "ScanGrid",
        "ScanReport",
        "ThetaSummary",
        "Witness",
        "empirical_theta",
        "find_counterexample_15",
        "structured_scan",
    ),
    "report": ("report_bundle",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
