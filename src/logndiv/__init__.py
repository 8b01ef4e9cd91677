"""Outage probabilities of SC/EGC/MRC diversity receivers over equally
correlated lognormal fading channels: closed-form high-SNR approximations,
seeded Monte Carlo ground truth, sum-of-lognormal tail CDFs, and numeric
verification of the supporting geometry.

The public names below are imported on first access (PEP 562), so that
`import logndiv` costs nothing and the closed forms never load the Monte
Carlo and quadrature modules they do not use. At run time the package needs
numpy alone: no command loads scipy."""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it provides.
_EXPORTS = {
    "asymptotics": ("AsymptoteDecomposition", "OutageQuery", "egc_outage_asym",
                    "mrc_outage_asym", "outage_asym", "sc_asymptote_decomposition",
                    "sc_outage_asym", "single_branch_outage_exact", "sum_lognormal_cdf_asym"),
    "baselines": ("MatchedLognormal", "fenton_wilkinson_cdf", "fenton_wilkinson_match"),
    "channel": ("ChannelSpec", "DerivedParams", "a_from_rho", "derive_params", "rho_from_a"),
    "curves": ("Curve", "CurvePoint", "read_curves"),
    "errors": ("BelowAsymptoticRegimeError", "DegenerateGeometryError", "DomainError",
               "IntegrationFailureError", "LogndivError", "SearchFailureError",
               "SeriesCapError"),
    "montecarlo": ("SimConfig", "SimEstimate", "simulate_outage", "simulate_outage_multi",
                   "sweep"),
    "schemes": ("SchemeKind",),
    "special_fn": ("MarcumArgs", "gaussian_q", "gaussian_q_asym", "marcum_q",
                   "noncentral_chi2_cdf", "reg_gamma_lower", "reg_gamma_upper"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value   # later lookups bypass this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
