"""Seeded Monte Carlo over the discrimination protocols.

Sampling uses numpy's default PCG64 generator.  A run is split into
`shards` independent streams; shard s draws from default_rng((seed, s)),
which hashes the pair through SeedSequence, so a run is reproducible for a
given (seed, shards) pair and shards can be distributed without
overlapping streams (nearby seeds do not collide).

Branch probabilities are taken from the exact analytic protocol tables;
the randomness being tested is the categorical sampling itself, so the
empirical rates must land within binomial error of the analytic values.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .families import SymmetricFamily
from .minerror import outcome_table, success_probability_analytic
from .multiport import min_error_single_photon
from .unambiguous import (
    inconclusive_family,
    orthogonalize_sfg,
    orthogonalize_tpa,
    projective_discriminate,
    recovery_pipeline_analytic,
    success_probability_ud,
)

# 2 MiB of gathered float64 per block: the fastest of 2^16..2^22 cells at
# N = 3 and N = 64, and a sampler peak near 25 MiB at 10^6 trials
SAMPLE_BLOCK_CELLS = 2**18


@dataclass
class TrialReport:
    """Counts and rates of one Monte Carlo run, JSON-ready via as_dict()."""

    protocol: str
    trials: int
    seed: int
    shards: int
    shard_trials: list[int]
    counts: dict
    empirical: dict
    analytic: dict
    stderr: dict
    notes: str | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def _shard_sizes(trials: int, shards: int) -> list[int]:
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    base, extra = divmod(trials, shards)
    return [base + (1 if s < extra else 0) for s in range(shards)]


def _binomial_stderr(p_hat: float, trials: int) -> float:
    return float(np.sqrt(p_hat * (1.0 - p_hat) / trials))


def _sample_rows(rng, row_cumulative: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Categorical draw per trial from the cumulative table row of its k.

    The gather-compare runs over blocks of SAMPLE_BLOCK_CELLS table cells,
    so memory stays bounded for any trial count while the draws, and so
    the counts, are the same as for one pass over all trials.
    """
    us = rng.random(ks.shape[0])
    n_cols = row_cumulative.shape[1]
    js = np.empty(ks.shape[0], dtype=np.int64)
    block = max(1, SAMPLE_BLOCK_CELLS // n_cols)
    for start in range(0, ks.shape[0], block):
        stop = start + block
        (row_cumulative[ks[start:stop]] < us[start:stop, None]).sum(axis=1, out=js[start:stop])
    return np.minimum(js, n_cols - 1, out=js)


def run_min_error(family: SymmetricFamily, trials: int, seed: int, shards: int = 1) -> TrialReport:
    """Sample the square-root measurement: prepare uniform k, record click j."""
    table = outcome_table(family)
    cum = np.cumsum(table, axis=1)
    N = family.N
    joint = np.zeros((N, N), dtype=np.int64)
    sizes = _shard_sizes(trials, shards)
    for s, n in enumerate(sizes):
        if n == 0:
            continue
        rng = np.random.default_rng((seed, s))
        ks = rng.integers(0, N, size=n)
        js = _sample_rows(rng, cum, ks)
        np.add.at(joint, (ks, js), 1)
    p_hat = float(np.trace(joint) / trials)
    p_c = success_probability_analytic(family)
    return TrialReport(
        protocol="min-error",
        trials=trials,
        seed=seed,
        shards=shards,
        shard_trials=sizes,
        counts={"joint": joint.tolist()},
        empirical={"success_rate": p_hat},
        analytic={"success_rate": p_c},
        stderr={"success_rate": _binomial_stderr(p_hat, trials)},
    )


def run_unambiguous(
    family: SymmetricFamily, mechanism: str, trials: int, seed: int, shards: int = 1
) -> TrialReport:
    """Sample the contraction protocol: conclusive click or flagged failure.

    The conclusive branch fires with the exact probability P_D; inside it
    the guess is drawn from the projective measurement along the
    orthogonalized survivors, whose off-diagonal weight is zero to float
    accuracy, so wrong conclusive guesses must never occur.
    """
    p_d = success_probability_ud(family)
    if mechanism == "tpa":
        survivors = orthogonalize_tpa(family).states
    elif mechanism == "sfg":
        survivors = orthogonalize_sfg(family).conclusive
    else:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    normalized = [s.normalized_copy() for s in survivors]
    conclusive_table = np.array([projective_discriminate(normalized, s) for s in normalized])
    cum = np.cumsum(conclusive_table, axis=1)

    N = family.N
    conclusive_joint = np.zeros((N, N), dtype=np.int64)
    inconclusive = np.zeros(N, dtype=np.int64)
    sizes = _shard_sizes(trials, shards)
    for s, n in enumerate(sizes):
        if n == 0:
            continue
        rng = np.random.default_rng((seed, s))
        ks = rng.integers(0, N, size=n)
        conclusive_mask = rng.random(n) < p_d
        np.add.at(inconclusive, ks[~conclusive_mask], 1)
        kc = ks[conclusive_mask]
        if kc.size:
            js = _sample_rows(rng, cum, kc)
            np.add.at(conclusive_joint, (kc, js), 1)
    conclusive_count = int(conclusive_joint.sum())
    wrong = conclusive_count - int(np.trace(conclusive_joint))
    rate = float(conclusive_count / trials)
    return TrialReport(
        protocol="unambiguous",
        trials=trials,
        seed=seed,
        shards=shards,
        shard_trials=sizes,
        counts={
            "conclusive_joint": conclusive_joint.tolist(),
            "inconclusive": inconclusive.tolist(),
            "wrong_conclusive": wrong,
        },
        empirical={"conclusive_rate": rate, "inconclusive_rate": 1.0 - rate},
        analytic={"conclusive_rate": p_d, "inconclusive_rate": 1.0 - p_d},
        stderr={
            "conclusive_rate": _binomial_stderr(rate, trials),
            "inconclusive_rate": _binomial_stderr(rate, trials),
        },
        notes=f"mechanism={mechanism}",
    )


def run_sfg_recovery_pipeline(
    family: SymmetricFamily, trials: int, seed: int, shards: int = 1
) -> TrialReport:
    """Sample up-conversion with retry on the inconclusive branch.

    Conclusive events identify k outright.  Inconclusive events hand the
    single-excitation ancilla family to its matched multiport, whose click
    becomes the guess; when that family is uninformative the guess is
    uniform.
    """
    analytic = recovery_pipeline_analytic(family)
    p_d = analytic["conclusive_probability"]
    recovered = inconclusive_family(family)
    N = family.N
    if recovered is None:
        recovery_table = np.full((N, N), 1.0 / N)
        notes = "recovery uninformative; guessing uniformly"
    else:
        recovery_table = min_error_single_photon(recovered).table
        notes = None
    cum = np.cumsum(recovery_table, axis=1)

    conclusive_correct = np.zeros(N, dtype=np.int64)
    recovered_joint = np.zeros((N, N), dtype=np.int64)
    sizes = _shard_sizes(trials, shards)
    for s, n in enumerate(sizes):
        if n == 0:
            continue
        rng = np.random.default_rng((seed, s))
        ks = rng.integers(0, N, size=n)
        conclusive_mask = rng.random(n) < p_d
        np.add.at(conclusive_correct, ks[conclusive_mask], 1)
        ki = ks[~conclusive_mask]
        if ki.size:
            js = _sample_rows(rng, cum, ki)
            np.add.at(recovered_joint, (ki, js), 1)
    correct = int(conclusive_correct.sum()) + int(np.trace(recovered_joint))
    overall = float(correct / trials)
    conclusive_rate = float(conclusive_correct.sum() / trials)
    return TrialReport(
        protocol="sfg-recovery-pipeline",
        trials=trials,
        seed=seed,
        shards=shards,
        shard_trials=sizes,
        counts={
            "conclusive_correct": conclusive_correct.tolist(),
            "recovered_joint": recovered_joint.tolist(),
        },
        empirical={"overall_success_rate": overall, "conclusive_rate": conclusive_rate},
        analytic={
            "overall_success_rate": analytic["overall_success_probability"],
            "conclusive_rate": p_d,
        },
        stderr={
            "overall_success_rate": _binomial_stderr(overall, trials),
            "conclusive_rate": _binomial_stderr(conclusive_rate, trials),
        },
        notes=notes,
    )
