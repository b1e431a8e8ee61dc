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
the count table has an exact law, so the counts are drawn directly.  All
three runners return a `TrialReport`, handed each sampled rate as its
count; its docstring lists the report's keys.  Each
shard draws only its prepared-k totals, Multinomial(n_s, 1/N), and for a
contraction their conclusive part, Binomial(totals, P_D).  A sum of
independent Multinomial(n_s, p) draws is Multinomial(sum n_s, p), so the
run draws its joint table once, from the summed counts: row k is
Multinomial(n_k, table[k]), drawn by shard 0's generator after its own
draws.  numpy draws these by conditional binomials, so a shard costs O(N)
and the joint table O(N) time per row with trials, and a run holds the
int64 joint table and one block of BLOCK_ROWS table rows, not O(N^2) floats.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .families import SymmetricFamily, family_to_json
from .minerror import outcome_table, success_probability_analytic
from .multiport import multiport_report
from .unambiguous import (
    contract,
    inconclusive_probability_ud,
    recovery_pipeline_analytic,
    success_probability_ud,
    survivor_gram,
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

    A report's keys, in as_dict order, are protocol, trials, seed, shards,
    shard_trials, counts, empirical, analytic, stderr and notes; a
    conversion + retry run sets recovered_family last.  trials and shards
    are read off shard_trials.  events maps each sampled rate's name to the
    int n of trials it counts: the empirical rate is n / trials and its
    stderr sqrt(n (trials - n)) / trials^(3/2), so complementary rates
    carry equal errors.
    """

    def __init__(
        self,
        protocol: str,
        seed: int,
        shard_trials: list[int],
        counts: dict,
        events: dict,
        analytic: dict,
        notes: str | None = None,
    ):
        trials = sum(shard_trials)
        # assigned in the report's key order, which as_dict keeps
        self.protocol, self.trials, self.seed = protocol, trials, operator.index(seed)
        self.shards, self.shard_trials, self.counts = len(shard_trials), shard_trials, counts
        # int / int rounds once: the rate and the variance are correctly rounded at any trials
        self.empirical = {name: n / trials for name, n in events.items()}
        self.analytic = analytic
        self.stderr = {name: math.sqrt(n * (trials - n) / trials**3) for name, n in events.items()}
        self.notes = notes

    def as_dict(self) -> dict:
        """The attributes as a shallow dict: the count arrays are shared, not copied."""
        return dict(vars(self))


def _shard_sizes(trials: int, shards: int) -> list[int]:
    trials, shards = operator.index(trials), operator.index(shards)
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

    Only rows with trials are read from table, an array or a `Circulant`,
    BLOCK_ROWS at a time; numpy draws nothing for a zero total.  numpy
    rejects pvals that add up past 1 + 1e-12, so each row is divided by its
    own sum: the sums of a circulant's rotated rows differ in their last
    bits, and one shared divisor would move the stream.
    """
    joint = np.zeros((len(totals), len(totals)), dtype=np.int64)
    held = np.flatnonzero(totals)
    for block in (held[s : s + BLOCK_ROWS] for s in range(0, len(held), BLOCK_ROWS)):
        rows = np.asarray(table[block])
        joint[block] = rng.multinomial(totals[block], rows / rows.sum(axis=1, keepdims=True))
    return joint


def run_min_error(family: SymmetricFamily, trials: int, seed: int, shards: int = 1) -> TrialReport:
    """Sample the square-root measurement: prepare uniform k, record click j."""
    sizes, rng, totals, _ = _draw_totals(family.N, trials, seed, shards)
    joint = _draw_joint(rng, totals, outcome_table(family))
    return TrialReport(
        protocol="min-error",
        seed=seed,
        shard_trials=sizes,
        counts={"joint": joint},
        events={"success_rate": int(np.trace(joint))},
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
    gram, _ = survivor_gram(contract(family, mechanism).conclusive)
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
        events={"conclusive_rate": conclusive_count, "inconclusive_rate": int(inconclusive.sum())},
        analytic={"conclusive_rate": p_d, "inconclusive_rate": inconclusive_probability_ud(family)},
        notes=f"mechanism={mechanism}",
    )


def run_sfg_recovery_pipeline(
    family: SymmetricFamily, trials: int, seed: int, shards: int = 1
) -> TrialReport:
    """Sample up-conversion with retry on the inconclusive branch.

    Conclusive events identify k outright.  Inconclusive events hand the
    single-excitation ancilla family to its matched multiport, whose click
    becomes the guess; when that family is uninformative the guess is
    uniform.  The report's analytic rates include the retry's own success
    rate, recovery_success_rate, which has no sampled counterpart, and its
    recovered_family is the JSON form of the ancilla family the retry
    discriminates, or "uninformative" when the retry guesses uniformly.
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
    conclusive_count = int(conclusive.sum())
    correct = conclusive_count + int(np.trace(recovered_joint))
    report = TrialReport(
        protocol="sfg-recovery-pipeline",
        seed=seed,
        shard_trials=sizes,
        counts={
            "conclusive_correct": conclusive,
            "recovered_joint": recovered_joint,
        },
        events={"overall_success_rate": correct, "conclusive_rate": conclusive_count},
        analytic={
            "overall_success_rate": analytic["overall_success_probability"],
            "conclusive_rate": p_d,
            "recovery_success_rate": analytic["recovery_success_probability"],
        },
        notes=notes,
    )
    report.recovered_family = "uninformative" if recovered is None else family_to_json(recovered)
    return report
