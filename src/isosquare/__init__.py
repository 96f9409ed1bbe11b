"""Isosquare numbers: integers n with equal binary digit sums of n and n^2.

Library layout:
  membership     exact digit sums in any base, the (base, multiplier, power)
                 predicate and weight profiles
  constructions  constructive member families with verified weight identities
  enumeration    fast sieve, counting function, run and gap scans
  analysis       probabilistic model, exponent fit, fluctuation profile
  checks         on-demand verification suites
  cli            command-line interface
"""

from .membership import (ISOSQUARE, PropertyTriple, WeightProfile,
                         digit_sum, is_isosquare, satisfies, weight_profile)
from .constructions import (ConstructionStage, ConstructionTrace,
                            PostconditionError, affix_one, construct_family,
                            construct_one, family_traces, finalize_member,
                            four_tuple, gap_interval, gap_weight_identity,
                            inflate, mersenne_member, mult_mersenne,
                            near_power_witness, normalize_defect,
                            subtract_compose, subtract_mersenne)
from .enumeration import (CountSample, RunRecord, counting, find_runs,
                          members_in_range, scan_gap, sieve)
from .analysis import (FitResult, ProfilePoint, alpha_limit,
                       alpha_theoretical, cross_binomial_sum, fit_exponent,
                       fluctuation_profile, geometric_grid, model_probability)

__version__ = "0.1.0"
