"""Seeded Monte Carlo over the discrimination protocols.

Sampling uses numpy's default PCG64 generator.  A run is split into
`shards` independent streams; shard s draws from default_rng((seed, s)),
which hashes the pair through SeedSequence, so a run is reproducible for a
given (seed, shards) pair and shards can be distributed without
overlapping streams (nearby seeds do not collide).

Branch probabilities are taken from the exact analytic protocol tables;
the randomness being tested is the categorical sampling itself, so the
empirical rates must land within binomial error of the analytic values.

Runners report counts, never per-trial outcomes, as int64 arrays, and
the count table has an exact law, so each shard draws the counts
directly: the prepared-k totals are Multinomial(n, 1/N), a branch's
conclusive counts are Binomial(n_k, P_D), and row k of a joint table is
Multinomial(n_k, table[k]).  numpy draws these by conditional binomials, so a shard costs
O(N^2) time and memory at any trial count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .families import SymmetricFamily, family_to_json
from .minerror import outcome_table, success_probability_analytic
from .multiport import min_error_single_photon
from .unambiguous import (
    contract,
    orthonormal_survivor_gram,
    recovery_pipeline_analytic,
    success_probability_ud,
)

# shards a run may be split into: each one seeds its own generator and
# costs O(N^2), and each adds an entry to the report's shard_trials
MAX_SHARDS = 2**16
# numpy draws counts as signed 64-bit integers
MAX_TRIALS = 2**63 - 1


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
        """The fields as a shallow dict: the count arrays are shared, not copied."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class PipelineReport(TrialReport):
    """A TrialReport that also carries the family the retry discriminates.

    recovered_family is the JSON form of the ancilla family left on the
    inconclusive branch, or "uninformative" when the retry guesses
    uniformly.
    """

    recovered_family: dict | str = field(kw_only=True)


def _shard_sizes(trials: int, shards: int) -> list[int]:
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be between 1 and 2^63 - 1, got {trials}")
    if not 1 <= shards <= MAX_SHARDS:
        raise ValueError(f"shards must be between 1 and {MAX_SHARDS}, got {shards}")
    base, extra = divmod(trials, shards)
    return [base + (1 if s < extra else 0) for s in range(shards)]


def _binomial_stderr(p_hat: float, trials: int) -> float:
    return float(np.sqrt(p_hat * (1.0 - p_hat) / trials))


def _shard_rows(sizes: list[int], seed: int, N: int):
    """Yield (rng, prepared-k counts) of each non-empty shard, the counts drawn first."""
    uniform = np.full(N, 1.0 / N)
    for s, n in enumerate(sizes):
        if n:
            rng = np.random.default_rng((seed, s))
            yield rng, rng.multinomial(n, uniform)


def _unit_rows(table) -> np.ndarray:
    """Rows of a table, an array or a click table's Circulant, as an array rescaled to sum to one.

    numpy rejects pvals that add up past 1 + 1e-12.
    """
    table = np.asarray(table)
    return table / table.sum(axis=1, keepdims=True)


def run_min_error(family: SymmetricFamily, trials: int, seed: int, shards: int = 1) -> TrialReport:
    """Sample the square-root measurement: prepare uniform k, record click j."""
    table = _unit_rows(outcome_table(family))
    N = family.N
    joint = np.zeros((N, N), dtype=np.int64)
    sizes = _shard_sizes(trials, shards)
    for rng, rows in _shard_rows(sizes, seed, N):
        joint += rng.multinomial(rows, table)
    p_hat = float(np.trace(joint) / trials)
    p_c = success_probability_analytic(family)
    return TrialReport(
        protocol="min-error",
        trials=trials,
        seed=seed,
        shards=shards,
        shard_trials=sizes,
        counts={"joint": joint},
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
    survivors, _ = contract(family, mechanism)
    gram, _ = orthonormal_survivor_gram(survivors)
    # row k: |<n_j|n_k>|^2 over j, the projective measurement on survivor k
    conclusive_table = _unit_rows(np.abs(gram.T) ** 2)

    N = family.N
    conclusive_joint = np.zeros((N, N), dtype=np.int64)
    inconclusive = np.zeros(N, dtype=np.int64)
    sizes = _shard_sizes(trials, shards)
    for rng, rows in _shard_rows(sizes, seed, N):
        conclusive = rng.binomial(rows, p_d)
        inconclusive += rows - conclusive
        conclusive_joint += rng.multinomial(conclusive, conclusive_table)
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
            "conclusive_joint": conclusive_joint,
            "inconclusive": inconclusive,
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
) -> PipelineReport:
    """Sample up-conversion with retry on the inconclusive branch.

    Conclusive events identify k outright.  Inconclusive events hand the
    single-excitation ancilla family to its matched multiport, whose click
    becomes the guess; when that family is uninformative the guess is
    uniform.  The report's analytic rates include the retry's own success
    rate, recovery_success_rate, which has no sampled counterpart.
    """
    analytic = recovery_pipeline_analytic(family)
    p_d = analytic["conclusive_probability"]
    recovered = analytic["recovered_family"]
    N = family.N
    if recovered is None:
        recovery_table = np.full((N, N), 1.0 / N)
        notes = "recovery uninformative; guessing uniformly"
    else:
        recovery_table = _unit_rows(min_error_single_photon(recovered).table)
        notes = None

    conclusive_correct = np.zeros(N, dtype=np.int64)
    recovered_joint = np.zeros((N, N), dtype=np.int64)
    sizes = _shard_sizes(trials, shards)
    for rng, rows in _shard_rows(sizes, seed, N):
        conclusive = rng.binomial(rows, p_d)
        conclusive_correct += conclusive
        recovered_joint += rng.multinomial(rows - conclusive, recovery_table)
    correct = int(conclusive_correct.sum()) + int(np.trace(recovered_joint))
    overall = float(correct / trials)
    conclusive_rate = float(conclusive_correct.sum() / trials)
    return PipelineReport(
        protocol="sfg-recovery-pipeline",
        trials=trials,
        seed=seed,
        shards=shards,
        shard_trials=sizes,
        counts={
            "conclusive_correct": conclusive_correct,
            "recovered_joint": recovered_joint,
        },
        empirical={"overall_success_rate": overall, "conclusive_rate": conclusive_rate},
        analytic={
            "overall_success_rate": analytic["overall_success_probability"],
            "conclusive_rate": p_d,
            "recovery_success_rate": analytic["recovery_success_probability"],
        },
        stderr={
            "overall_success_rate": _binomial_stderr(overall, trials),
            "conclusive_rate": _binomial_stderr(conclusive_rate, trials),
        },
        notes=notes,
        recovered_family="uninformative" if recovered is None else family_to_json(recovered),
    )
