"""The qsdsim names the in-process workloads call.

The tracer wraps these bindings like those in any qsdsim module namespace,
so each call from the benchmark into a module records a span.
"""

from qsdsim.channels import atom_excitation_avg, detector_atom_model
from qsdsim.cli import dispatch
from qsdsim.families import family_states, make_family, two_photon_labels
from qsdsim.fock import build_basis
from qsdsim.minerror import min_error_report
from qsdsim.montecarlo import run_min_error, run_sfg_recovery_pipeline, run_unambiguous
from qsdsim.multiport import multiport_report
from qsdsim.serialize import dumps, table_csv

__all__ = [
    "atom_excitation_avg",
    "build_basis",
    "detector_atom_model",
    "dispatch",
    "dumps",
    "family_states",
    "make_family",
    "min_error_report",
    "multiport_report",
    "run_min_error",
    "run_sfg_recovery_pipeline",
    "run_unambiguous",
    "table_csv",
    "two_photon_labels",
]
