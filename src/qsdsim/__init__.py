"""Optimal discrimination of symmetric nonorthogonal photon states.

Construction of square-root detection states for cyclic state families,
their analytic success probabilities, and simulations of the physical
measurements that realize them: conditional two-photon absorption,
sum-frequency up-conversion with retry on the inconclusive branch, linear
multiports on single-photon families, and a two-photon-transition atom
detector.

The package namespace holds the names of the README library example;
everything else is imported from its module.
"""

from .families import coincident_family, make_family
from .minerror import outcome_table
from .unambiguous import orthogonalize_sfg, recovery_pipeline_analytic

__version__ = "0.1.0"
