"""Seeded Monte Carlo over the discrimination protocols.

Sampling uses numpy's default PCG64 generator.  A run is split into
`shards` independent streams; shard s draws from default_rng((seed, s)),
which hashes the pair through SeedSequence, so a run is reproducible for a
given (seed, shards) pair and shards can be distributed without
overlapping streams (nearby seeds do not collide).

Branch probabilities are taken from the exact analytic protocol tables;
the randomness being tested is the categorical sampling itself, so the
empirical rates must land within binomial error of the analytic values.

Runners report counts, never per-trial outcomes, so the categorical step
bins each row's sorted draws against that row's cumulative edges instead
of comparing every trial with all N edges.  Its cost is O(trials), nearly
independent of N, its extra memory is bounded by a fixed block of trials,
and the counts are exact: the same as a per-trial draw, and reproducible
for each (seed, shards) pair.
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

# trials grouped and sorted per block: of 2^14..2^22 the fastest at N = 64
# and within 1.6x of the fastest at N = 3 and N = 256, with a sampler peak
# near 22 MiB at 10^6 trials
SAMPLE_BLOCK_TRIALS = 2**18


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


def _sample_joint(rng, row_cumulative: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Joint (k, j) counts of one categorical draw per trial from row k.

    A trial of row k with uniform u lands in column j = #(cum[k] < u),
    clipped to the last column.  Each block of SAMPLE_BLOCK_TRIALS trials
    is grouped by k and each row's u sorted, so the trials with j >= m are
    the u above cum[k][m-1], read off by searchsorted.  That is a sort per
    block, O(trials) for the fixed block size, instead of comparing every
    trial with all N edges, and it gives the same draws and counts as a
    per-trial gather.
    """
    us = rng.random(ks.shape[0])
    n_rows, n_cols = row_cumulative.shape
    edges = row_cumulative[:, :-1]
    joint = np.zeros((n_rows, n_cols), dtype=np.int64)
    key_type = np.min_scalar_type(n_rows - 1)
    for start in range(0, ks.shape[0], SAMPLE_BLOCK_TRIALS):
        block_ks = ks[start : start + SAMPLE_BLOCK_TRIALS]
        # a stable sort of 8- or 16-bit keys is numpy's radix sort
        order = np.argsort(block_ks.astype(key_type), kind="stable")
        grouped = us[start : start + SAMPLE_BLOCK_TRIALS][order]
        sizes = np.bincount(block_ks, minlength=n_rows)
        stops = np.cumsum(sizes)
        for k in np.flatnonzero(sizes):
            u = np.sort(grouped[stops[k] - sizes[k] : stops[k]])
            below = np.searchsorted(u, edges[k], side="right")
            joint[k] += np.diff(below, prepend=0, append=sizes[k])
    return joint


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
        joint += _sample_joint(rng, cum, ks)
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
        inconclusive += np.bincount(ks[~conclusive_mask], minlength=N)
        kc = ks[conclusive_mask]
        conclusive_joint += _sample_joint(rng, cum, kc)
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
        conclusive_correct += np.bincount(ks[conclusive_mask], minlength=N)
        ki = ks[~conclusive_mask]
        recovered_joint += _sample_joint(rng, cum, ki)
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
