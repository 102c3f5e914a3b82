"""Exact census of rooted and sensed orientable hypermaps.

Three mutually cross-checking engines compute the counts:

* :class:`~hypermap_census.rooted.RootedCensus` - the fast rooted engine,
  a dart-count recurrence on homogeneous polynomials;
* :class:`~hypermap_census.sequenced.SequencedCensus` - an independent,
  slower oracle via sequenced and multirooted hypermap recurrences (plus the
  corrected sequenced recurrence for ordinary maps);
* :func:`~hypermap_census.orbifold.sensed_table` - sensed (unrooted) counts
  by summing over quotient-orbifold signatures and dividing by the dart
  count.

:mod:`hypermap_census.series` verifies the closed parametric generating
functions (genus 0-6 by darts, genus 0-2 by vertices/hyperedges/faces)
against the engines, coefficient by coefficient.
"""

from .core import (
    CensusError,
    CountTable,
    InexactDivisionError,
    NegativeCoefficientError,
    NotFilledError,
    faces_from_key,
    validate_hypermap_key,
    validate_map_key,
)
from .orbifold import OrbifoldSignature, admissible_signatures, epi0, sensed_table
from .rooted import HomoPoly, RootedCensus
from .sequenced import SequencedCensus, degree_list, sub_multisets
from .series import (
    NoConvergenceError,
    NonIntegerCoefficientError,
    TSeries,
    USeries,
    ValuationError,
    hg_trivariate,
    hg_univariate,
    hg_via_t,
    pqr_of_xyu,
    t_of_z,
    tau_of_z,
)

__version__ = "0.1.0"

__all__ = [
    "CensusError",
    "CountTable",
    "HomoPoly",
    "InexactDivisionError",
    "NegativeCoefficientError",
    "NoConvergenceError",
    "NonIntegerCoefficientError",
    "NotFilledError",
    "OrbifoldSignature",
    "RootedCensus",
    "SequencedCensus",
    "TSeries",
    "USeries",
    "ValuationError",
    "admissible_signatures",
    "degree_list",
    "epi0",
    "faces_from_key",
    "hg_trivariate",
    "hg_univariate",
    "hg_via_t",
    "pqr_of_xyu",
    "sensed_table",
    "sub_multisets",
    "t_of_z",
    "tau_of_z",
    "validate_hypermap_key",
    "validate_map_key",
]
