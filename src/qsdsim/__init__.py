"""Optimal discrimination of symmetric nonorthogonal photon states.

Construction of square-root detection states for cyclic state families,
their analytic success probabilities, and simulations of the physical
measurements that realize them: conditional two-photon absorption,
sum-frequency up-conversion with retry on the inconclusive branch, linear
multiports on single-photon families, and a two-photon-transition atom
detector.
"""

from .channels import (
    AtomFieldModel,
    ExcitationResult,
    ScheduleError,
    atom_excitation_avg,
    detector_atom_coefficients,
    detector_atom_model,
    sfg_schedule,
    sfg_unitary,
    tpa_conditional_operator,
    tpa_schedule,
)
from .families import (
    FamilyError,
    SymmetricFamily,
    coincident_family,
    family_states,
    make_family,
)
from .fock import FockBasis, annihilation_matrix, build_basis
from .minerror import (
    DetectionSet,
    outcome_table,
    srm_states_closed,
    success_probability_analytic,
)
from .montecarlo import TrialReport, run_min_error, run_sfg_recovery_pipeline, run_unambiguous
from .multiport import (
    MultiportUnitary,
    build_multiport,
    min_error_single_photon,
)
from .unambiguous import (
    equivalence_check,
    inconclusive_family,
    orthogonalize_sfg,
    orthogonalize_tpa,
    recovery_pipeline_analytic,
    success_probability_ud,
    survivor_gram,
)

__version__ = "0.1.0"
