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
the count table has an exact law, so the counts are drawn directly.  Each
shard draws only its prepared-k totals, Multinomial(n_s, 1/N), and for a
contraction their conclusive part, Binomial(totals, P_D).  A sum of
independent Multinomial(n_s, p) draws is Multinomial(sum n_s, p), so the
run draws its joint table once, from the summed counts: row k is
Multinomial(n_k, table[k]), drawn by shard 0's generator after its own
draws.  numpy draws these by conditional binomials, so a shard costs O(N)
and the joint table O(N^2) time and memory at any trial count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .families import SymmetricFamily, family_to_json
from .minerror import outcome_table, success_probability_analytic
from .multiport import multiport_report
from .unambiguous import (
    contract,
    orthonormal_survivor_gram,
    recovery_pipeline_analytic,
    success_probability_ud,
)

# shards a run may be split into: each one seeds its own generator and
# draws O(N) counts, and each adds an entry to the report's shard_trials
MAX_SHARDS = 2**16
# numpy draws counts as signed 64-bit integers
MAX_TRIALS = 2**63 - 1


@dataclass
class TrialReport:
    """Counts and rates of one Monte Carlo run, JSON-ready via as_dict().

    trials and shards are read off shard_trials, and each stderr entry is
    the binomial standard error of the empirical rate of the same name.
    """

    protocol: str
    trials: int = field(init=False)
    seed: int
    shards: int = field(init=False)
    shard_trials: list[int]
    counts: dict
    empirical: dict
    analytic: dict
    stderr: dict = field(init=False)
    notes: str | None = None

    def __post_init__(self):
        self.trials, self.shards = sum(self.shard_trials), len(self.shard_trials)
        self.stderr = {
            name: float(np.sqrt(p * (1.0 - p) / self.trials)) for name, p in self.empirical.items()
        }

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


def _draw_totals(N: int, trials: int, seed: int, shards: int, p_d: float | None = None):
    """(shard sizes, shard 0's generator, prepared-k totals, their conclusive part).

    Each non-empty shard s draws from default_rng((seed, s)) its totals
    and, given p_d, their Binomial(totals, p_d) conclusive part, which is
    None without p_d; both are returned summed over the shards.  Shard 0
    comes last, so the generator returned has made its own draws and
    draws the run's joint table next.
    """
    sizes = _shard_sizes(trials, shards)
    uniform = np.full(N, 1.0 / N)
    totals = np.zeros(N, dtype=np.int64)
    conclusive = None if p_d is None else np.zeros(N, dtype=np.int64)
    # shard s holds a trial exactly when s < trials
    for s in reversed(range(min(shards, trials))):
        rng = np.random.default_rng((seed, s))
        rows = rng.multinomial(sizes[s], uniform)
        totals += rows
        if p_d is not None:
            conclusive += rng.binomial(rows, p_d)
    return sizes, rng, totals, conclusive


def _unit_rows(table) -> np.ndarray:
    """Rows of a table, an array or a click table's Circulant, as an array rescaled to sum to one.

    numpy rejects pvals that add up past 1 + 1e-12.
    """
    table = np.asarray(table)
    return table / table.sum(axis=1, keepdims=True)


def run_min_error(family: SymmetricFamily, trials: int, seed: int, shards: int = 1) -> TrialReport:
    """Sample the square-root measurement: prepare uniform k, record click j."""
    table = _unit_rows(outcome_table(family))
    sizes, rng, totals, _ = _draw_totals(family.N, trials, seed, shards)
    joint = rng.multinomial(totals, table)
    p_hat = float(np.trace(joint) / trials)
    return TrialReport(
        protocol="min-error",
        seed=seed,
        shard_trials=sizes,
        counts={"joint": joint},
        empirical={"success_rate": p_hat},
        analytic={"success_rate": success_probability_analytic(family)},
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
    gram, _ = orthonormal_survivor_gram(contract(family, mechanism).conclusive)
    # row k: |<n_j|n_k>|^2 over j, the projective measurement on survivor k
    conclusive_table = _unit_rows(np.abs(gram.T) ** 2)

    sizes, rng, totals, conclusive = _draw_totals(family.N, trials, seed, shards, p_d)
    conclusive_joint = rng.multinomial(conclusive, conclusive_table)
    conclusive_count = int(conclusive.sum())
    rate = float(conclusive_count / trials)
    return TrialReport(
        protocol="unambiguous",
        seed=seed,
        shard_trials=sizes,
        counts={
            "conclusive_joint": conclusive_joint,
            "inconclusive": totals - conclusive,
            "wrong_conclusive": conclusive_count - int(np.trace(conclusive_joint)),
        },
        empirical={"conclusive_rate": rate, "inconclusive_rate": 1.0 - rate},
        analytic={"conclusive_rate": p_d, "inconclusive_rate": 1.0 - p_d},
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
        recovery_table = _unit_rows(multiport_report(recovered)["click_table"])
        notes = None

    sizes, rng, totals, conclusive = _draw_totals(N, trials, seed, shards, p_d)
    recovered_joint = rng.multinomial(totals - conclusive, recovery_table)
    correct = int(conclusive.sum()) + int(np.trace(recovered_joint))
    overall = float(correct / trials)
    conclusive_rate = float(conclusive.sum() / trials)
    return PipelineReport(
        protocol="sfg-recovery-pipeline",
        seed=seed,
        shard_trials=sizes,
        counts={
            "conclusive_correct": conclusive,
            "recovered_joint": recovered_joint,
        },
        empirical={"overall_success_rate": overall, "conclusive_rate": conclusive_rate},
        analytic={
            "overall_success_rate": analytic["overall_success_probability"],
            "conclusive_rate": p_d,
            "recovery_success_rate": analytic["recovery_success_probability"],
        },
        notes=notes,
        recovered_family="uninformative" if recovered is None else family_to_json(recovered),
    )
