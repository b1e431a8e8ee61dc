"""The seeded input generator is deterministic and yields valid families."""

import json
import warnings

import pytest
import workloads
from qsdsim.channels import sfg_schedule, tpa_schedule
from qsdsim.families import make_family
from qsdsim.serialize import parse_polar
from qsdsim.unambiguous import inconclusive_family, success_probability_ud


def test_same_seed_gives_identical_bytes():
    assert json.dumps(workloads.draw_inputs(7)) == json.dumps(workloads.draw_inputs(7))


def test_other_seed_gives_other_inputs():
    assert workloads.draw_inputs(7)["families"] != workloads.draw_inputs(8)["families"]
    assert workloads.draw_inputs(7)["mc_seeds"] != workloads.draw_inputs(8)["mc_seeds"]


@pytest.mark.parametrize("seed", range(40))
def test_every_drawn_family_is_valid(seed):
    inputs = workloads.draw_inputs(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N, M in workloads.FAMILY_SHAPES:
            polar = inputs["families"][f"N{N}M{M}"]
            make_family(N, M, workloads.complex_coeffs(polar), protocol_ordering=True)
    three = make_family(3, 2, workloads.complex_coeffs(inputs["families"]["N3M2"]))
    tpa_schedule(three)
    sfg_schedule(three)
    success_probability_ud(three)
    assert inconclusive_family(three) is not None


def test_cli_flags_carry_the_in_process_coefficients():
    polar = workloads.draw_inputs(3)["families"]["N3M2"]
    flags = workloads.polar_flags(3, 2, polar)
    texts = flags[flags.index("--coeffs-polar") + 1 :]
    assert [parse_polar(t) for t in texts] == workloads.complex_coeffs(polar)
