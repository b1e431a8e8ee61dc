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
and the joint table O(N^2) time at any trial count, and a run holds the
int64 joint table and one block of BLOCK_ROWS table rows, not O(N^2) floats.
"""

from __future__ import annotations

import numpy as np

from .families import SymmetricFamily, family_to_json
from .minerror import outcome_table, success_probability_analytic
from .multiport import multiport_report
from .unambiguous import (
    contract,
    inconclusive_probability_ud,
    orthonormal_survivor_gram,
    recovery_pipeline_analytic,
    success_probability_ud,
)

# shards a run may be split into: each one seeds its own generator and
# draws O(N) counts, and each adds an entry to the report's shard_trials
MAX_SHARDS = 2**16
# numpy draws counts as signed 64-bit integers
MAX_TRIALS = 2**63 - 1
# rows of a probability table copied, divided and drawn at a time
BLOCK_ROWS = 64


class TrialReport:
    """Counts and rates of one Monte Carlo run, JSON-ready via as_dict().

    trials and shards are read off shard_trials, and each stderr entry is
    the binomial standard error of the empirical rate of the same name.
    """

    # the report's keys, in as_dict order
    _fields = (
        "protocol", "trials", "seed", "shards", "shard_trials",
        "counts", "empirical", "analytic", "stderr", "notes",
    )
    __slots__ = _fields

    def __init__(
        self,
        protocol: str,
        seed: int,
        shard_trials: list[int],
        counts: dict,
        empirical: dict,
        analytic: dict,
        notes: str | None = None,
    ):
        self.protocol, self.seed, self.shard_trials = protocol, seed, shard_trials
        self.counts, self.empirical, self.analytic, self.notes = counts, empirical, analytic, notes
        self.trials, self.shards = sum(shard_trials), len(shard_trials)
        self.stderr = {
            name: float(np.sqrt(p * (1.0 - p) / self.trials)) for name, p in empirical.items()
        }

    def as_dict(self) -> dict:
        """The fields as a shallow dict: the count arrays are shared, not copied."""
        return {name: getattr(self, name) for name in self._fields}


class PipelineReport(TrialReport):
    """A TrialReport that also carries the family the retry discriminates.

    recovered_family is the JSON form of the ancilla family left on the
    inconclusive branch, or "uninformative" when the retry guesses
    uniformly.
    """

    _fields = TrialReport._fields + ("recovered_family",)
    __slots__ = ("recovered_family",)

    def __init__(self, *args, recovered_family: dict | str, **kwargs):
        super().__init__(*args, **kwargs)
        self.recovered_family = recovered_family


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


def _draw_joint(rng, totals, table) -> np.ndarray:
    """The int64 joint table whose row k is Multinomial(totals[k], table[k] / its sum).

    table, an array or a `Circulant`, is read BLOCK_ROWS rows at a time.
    numpy rejects pvals that add up past 1 + 1e-12, so each row is divided
    by its own sum: the sums of a circulant's rotated rows differ in their
    last bits, and one shared divisor would move the stream.
    """
    joint = np.empty((len(totals), len(totals)), dtype=np.int64)
    for block in (slice(s, s + BLOCK_ROWS) for s in range(0, len(totals), BLOCK_ROWS)):
        rows = np.asarray(table[block])
        joint[block] = rng.multinomial(totals[block], rows / rows.sum(axis=1, keepdims=True))
    return joint


def run_min_error(family: SymmetricFamily, trials: int, seed: int, shards: int = 1) -> TrialReport:
    """Sample the square-root measurement: prepare uniform k, record click j."""
    sizes, rng, totals, _ = _draw_totals(family.N, trials, seed, shards)
    joint = _draw_joint(rng, totals, outcome_table(family))
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
    sizes, rng, totals, conclusive = _draw_totals(family.N, trials, seed, shards, p_d)
    # row k: |<n_j|n_k>|^2 over j, the projective measurement on survivor k
    conclusive_joint = _draw_joint(rng, conclusive, np.abs(gram.T) ** 2)
    conclusive_count = int(conclusive.sum())
    inconclusive = totals - conclusive
    return TrialReport(
        protocol="unambiguous",
        seed=seed,
        shard_trials=sizes,
        counts={
            "conclusive_joint": conclusive_joint,
            "inconclusive": inconclusive,
            "wrong_conclusive": conclusive_count - int(np.trace(conclusive_joint)),
        },
        # each rate is its count over the trials: 1.0 - rate would cancel near P_D = 1
        empirical={
            "conclusive_rate": conclusive_count / trials,
            "inconclusive_rate": int(inconclusive.sum()) / trials,
        },
        analytic={"conclusive_rate": p_d, "inconclusive_rate": inconclusive_probability_ud(family)},
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
        recovery_table = np.broadcast_to(1.0 / N, (N, N))
        notes = "recovery uninformative; guessing uniformly"
    else:
        recovery_table = multiport_report(recovered)["click_table"]
        notes = None

    sizes, rng, totals, conclusive = _draw_totals(N, trials, seed, shards, p_d)
    recovered_joint = _draw_joint(rng, totals - conclusive, recovery_table)
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
