"""Isosquare numbers: integers n with equal binary digit sums of n and n^2.

Library layout:
  membership     exact digit sums in any base, the (base, multiplier, power)
                 predicate and weight profiles
  constructions  verified constructive member families and the gap scan
  enumeration    fast sieve, counting function and run scans
  analysis       probabilistic model, exponent fit, fluctuation profile
  checks         on-demand verification suites
  cli            command-line interface

The public names below load on first use: importing the package imports
none of its modules, so a command pays only for the modules it runs.
"""

_HOMES = {
    "membership": ("ISOSQUARE", "PropertyTriple", "WeightProfile",
                   "digit_sum", "is_isosquare", "satisfies",
                   "weight_profile"),
    "constructions": ("ConstructionStage", "ConstructionTrace",
                      "PostconditionError", "affix_one", "construct_family",
                      "construct_one", "family_traces", "finalize_member",
                      "four_tuple", "gap_interval", "gap_weight_identity",
                      "inflate", "mersenne_member", "mult_mersenne",
                      "near_power_witness", "normalize_defect", "scan_gap",
                      "subtract_compose", "subtract_mersenne"),
    "enumeration": ("CountSample", "RunRecord", "counting", "find_runs",
                    "members_in_range", "sieve"),
    "analysis": ("FitResult", "ProfilePoint", "alpha_limit",
                 "alpha_theoretical", "cross_binomial_sum", "fit_exponent",
                 "fluctuation_profile", "geometric_grid",
                 "model_probability"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items()
              for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    """Import a public name's module, or one of the four modules above, on
    first access (PEP 562)."""
    from importlib import import_module
    if name in _HOMES:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
