import copy
import hashlib

import numpy as np
import pytest

from qsdsim.families import coincident_family, family_to_json, make_family
from qsdsim import montecarlo, unambiguous
from qsdsim.minerror import outcome_table
from qsdsim.montecarlo import (
    MAX_SHARDS,
    MAX_TRIALS,
    TrialReport,
    _shard_sizes,
    run_min_error,
    run_sfg_recovery_pipeline,
    run_unambiguous,
)
from qsdsim.multiport import multiport_report
from qsdsim.serialize import dumps
from qsdsim.unambiguous import inconclusive_family, success_probability_ud
from reference import peak_bytes

EXAMPLE = (0.7, 0.6, np.sqrt(0.15))


def _unit_rows(table) -> np.ndarray:
    """The dense table with each row divided by its own sum, as the runners draw it."""
    dense = np.asarray(table)
    return dense / dense.sum(axis=1, keepdims=True)


def _equal(a, b) -> bool:
    """a == b, with dicts compared key by key in order and arrays element by element."""
    if isinstance(a, dict):
        return isinstance(b, dict) and list(a) == list(b) and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def test_shard_sizes():
    assert _shard_sizes(10, 1) == [10]
    assert _shard_sizes(10, 3) == [4, 3, 3]
    assert _shard_sizes(2, 4) == [1, 1, 0, 0]
    with pytest.raises(ValueError):
        _shard_sizes(0, 1)
    with pytest.raises(ValueError):
        _shard_sizes(10, 0)
    assert _shard_sizes(MAX_TRIALS, 2) == [2**62, 2**62 - 1]
    assert len(_shard_sizes(1, MAX_SHARDS)) == MAX_SHARDS
    # numpy counts in int64; past the shard ceiling no list is built
    with pytest.raises(ValueError, match="trials must be between 1 and 2\\^63 - 1"):
        _shard_sizes(MAX_TRIALS + 1, 1)
    with pytest.raises(ValueError, match=f"shards must be between 1 and {MAX_SHARDS}"):
        _shard_sizes(10, MAX_SHARDS + 1)


def test_min_error_deterministic():
    fam = coincident_family(3)
    a = run_min_error(fam, 5000, seed=42, shards=2)
    b = run_min_error(fam, 5000, seed=42, shards=2)
    assert _equal(a.counts, b.counts)
    assert a.empirical == b.empirical
    c = run_min_error(fam, 5000, seed=43, shards=2)
    assert not _equal(c.counts, a.counts)


def test_min_error_counts_consistent():
    fam = coincident_family(3)
    report = run_min_error(fam, 30000, seed=5)
    joint = np.asarray(report.counts["joint"])
    assert joint.sum() == 30000
    assert report.shard_trials == [30000]
    p_hat = report.empirical["success_rate"]
    assert p_hat == pytest.approx(np.trace(joint) / 30000)
    stderr = report.stderr["success_rate"]
    assert stderr == pytest.approx(np.sqrt(p_hat * (1 - p_hat) / 30000))
    assert abs(p_hat - report.analytic["success_rate"]) < 4 * stderr


def test_sharded_run_statistically_consistent():
    fam = coincident_family(4)
    report = run_min_error(fam, 50000, seed=9, shards=7)
    assert sum(report.shard_trials) == 50000
    p_hat = report.empirical["success_rate"]
    assert abs(p_hat - report.analytic["success_rate"]) < 4 * report.stderr["success_rate"]


@pytest.mark.parametrize("mechanism", ["tpa", "sfg"])
def test_unambiguous_run(mechanism):
    fam = make_family(3, 2, EXAMPLE)
    report = run_unambiguous(fam, mechanism, 50000, seed=3)
    assert report.counts["wrong_conclusive"] == 0
    joint = np.asarray(report.counts["conclusive_joint"])
    assert joint.sum() + np.asarray(report.counts["inconclusive"]).sum() == 50000
    assert np.all(joint == np.diag(np.diag(joint)))
    rate = report.empirical["conclusive_rate"]
    assert abs(rate - 0.45) < 4 * report.stderr["conclusive_rate"]
    assert report.analytic["conclusive_rate"] == pytest.approx(0.45, abs=1e-12)
    assert report.notes == f"mechanism={mechanism}"


def test_unambiguous_rejects_nonorthogonal_survivors(monkeypatch):
    # survivors further than 1e-9 from orthonormal would make wrong guesses possible
    fam = make_family(3, 2, EXAMPLE)
    result = unambiguous.orthogonalize_tpa(fam)
    for skew, rejected in ((1e-12, False), (1e-6, True)):
        conclusive = result.conclusive.copy()
        conclusive[1] += skew * conclusive[0]
        skewed = result._replace(conclusive=conclusive)
        monkeypatch.setattr(unambiguous, "orthogonalize_tpa", lambda family: skewed)
        if rejected:
            with pytest.raises(ValueError, match="states are not mutually orthogonal"):
                run_unambiguous(fam, "tpa", 100, seed=0)
        else:
            assert run_unambiguous(fam, "tpa", 100, seed=0).counts["wrong_conclusive"] == 0


def test_pipeline_run_informative():
    fam = make_family(3, 2, EXAMPLE)
    report = run_sfg_recovery_pipeline(fam, 50000, seed=17, shards=3)
    assert report.notes is None
    want = report.analytic["overall_success_rate"]
    assert want == pytest.approx(0.8114718562118318, abs=1e-12)
    got = report.empirical["overall_success_rate"]
    assert abs(got - want) < 4 * report.stderr["overall_success_rate"]
    conclusive = np.asarray(report.counts["conclusive_correct"]).sum()
    recovered = np.asarray(report.counts["recovered_joint"]).sum()
    assert conclusive + recovered == 50000


def test_pipeline_run_uninformative():
    fam = coincident_family(3)
    report = run_sfg_recovery_pipeline(fam, 50000, seed=23)
    assert report.notes == "recovery uninformative; guessing uniformly"
    want = report.analytic["overall_success_rate"]
    assert want == pytest.approx(0.8333333333333334, abs=1e-12)
    got = report.empirical["overall_success_rate"]
    assert abs(got - want) < 4 * report.stderr["overall_success_rate"]


def test_pipeline_report_names_the_recovered_family():
    fam = make_family(3, 2, EXAMPLE)
    report = run_sfg_recovery_pipeline(fam, 100, seed=1)
    assert report.recovered_family == family_to_json(inconclusive_family(fam))
    assert report.analytic["recovery_success_rate"] == pytest.approx(0.657221556748785, abs=1e-12)
    report = run_sfg_recovery_pipeline(coincident_family(3), 100, seed=1)
    assert report.recovered_family == "uninformative"
    assert report.analytic["recovery_success_rate"] == pytest.approx(1 / 3, abs=1e-12)


def test_trial_report_serializes():
    report = run_min_error(coincident_family(3), 100, seed=1)
    text = dumps(report.as_dict())
    assert '"protocol": "min-error"' in text
    assert text.endswith("\n")


def test_trial_report_as_dict_is_shallow():
    report = run_sfg_recovery_pipeline(make_family(3, 2, EXAMPLE), 1000, seed=3)
    fields = report.as_dict()
    # the same keys, order and values as a deep copy of every field, without copying the counts
    keys = ["protocol", "trials", "seed", "shards", "shard_trials", "counts", "empirical",
            "analytic", "stderr", "notes", "recovered_family"]
    assert _equal(fields, {key: copy.deepcopy(getattr(report, key)) for key in keys})
    assert fields["counts"] is report.counts


# The pinned counts below are reprinted, from the root of the repository, by the
# command above each test; a deliberate change of the sampling stream, or of the
# tables it draws from, re-pins them with that command.


# PYTHONPATH=src python -c "import hashlib, numpy as np; from qsdsim.families import make_family; from qsdsim.montecarlo import run_min_error; j = np.asarray(run_min_error(make_family(64, 2, (0.7, 0.6, np.sqrt(0.15))), 10**6, seed=2024).counts['joint'], dtype='<i8'); print(int(np.trace(j)), hashlib.sha256(j.tobytes()).hexdigest())"
def test_min_error_sampler_memory_is_bounded():
    # drawn counts take O(N^2) memory at any trial count; per-trial draws took 22 MiB here
    fam = make_family(64, 2, EXAMPLE)
    report, peak = peak_bytes(run_min_error, fam, 10**6, seed=2024)
    assert peak < 64 * 2**20
    joint = np.asarray(report.counts["joint"], dtype="<i8")
    # counts of the multinomial count sampler for this seed
    assert int(np.trace(joint)) == 44214
    assert hashlib.sha256(joint.tobytes()).hexdigest() == (
        "a51cc968538c53d7b9ef6aa465b15aef9271f065fcd10d2f388c0ef52a2a59ce"
    )


# PYTHONPATH=src python -c "import numpy as np; from qsdsim.families import make_family; from qsdsim.montecarlo import run_unambiguous; [print(m, {k: np.asarray(v).tolist() for k, v in run_unambiguous(make_family(3, 2, (0.7, 0.6, np.sqrt(0.15))), m, 10**5, seed=31, shards=3).counts.items()}) for m in ('tpa', 'sfg')]"
@pytest.mark.parametrize("mechanism", ["tpa", "sfg"])
def test_unambiguous_counts_are_pinned(mechanism):
    # counts of the multinomial count sampler for this seed and shard count
    report = run_unambiguous(make_family(3, 2, EXAMPLE), mechanism, 10**5, seed=31, shards=3)
    pinned = {
        "conclusive_joint": [[15004, 0, 0], [0, 15003, 0], [0, 0, 15108]],
        "inconclusive": [18401, 18399, 18085],
        "wrong_conclusive": 0,
    }
    assert _equal(report.counts, pinned)


# PYTHONPATH=src python -c "import numpy as np; from qsdsim.families import make_family; from qsdsim.montecarlo import run_sfg_recovery_pipeline; print({k: v.tolist() for k, v in run_sfg_recovery_pipeline(make_family(3, 2, (0.7, 0.6, np.sqrt(0.15))), 10**5, seed=37, shards=3).counts.items()})"
def test_pipeline_counts_are_pinned():
    # counts of the multinomial count sampler for this seed and shard count
    report = run_sfg_recovery_pipeline(make_family(3, 2, EXAMPLE), 10**5, seed=37, shards=3)
    pinned = {
        "conclusive_correct": [15089, 14989, 14975],
        "recovered_joint": [[12092, 3238, 3109], [3064, 11935, 3083], [3163, 3108, 12155]],
    }
    assert _equal(report.counts, pinned)


COUNT_KEYS = {
    "min-error": ("joint",),
    "unambiguous": ("conclusive_joint", "inconclusive"),
    "sfg-recovery-pipeline": ("conclusive_correct", "recovered_joint"),
}
RUNNERS = {
    "min-error": lambda fam, trials, seed, shards=2: run_min_error(fam, trials, seed, shards),
    "tpa": lambda fam, trials, seed, shards=2: run_unambiguous(fam, "tpa", trials, seed, shards),
    "pipeline": lambda fam, trials, seed, shards=2: run_sfg_recovery_pipeline(
        fam, trials, seed, shards
    ),
}


@pytest.mark.parametrize("shards", [1, 3, 64])
@pytest.mark.parametrize(
    "runner, N",
    [*((runner, 3) for runner in RUNNERS.values()), (RUNNERS["min-error"], 130)],
    ids=[*RUNNERS.keys(), "min-error-130"],
)
def test_each_run_draws_one_joint_table(monkeypatch, runner, N, shards):
    # a shard draws O(N) counts; the joint table is drawn by shard 0's
    # generator, one 2-D draw per block of BLOCK_ROWS rows
    joint_draws = []
    default_rng = np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self.seed, self.rng = seed, default_rng(seed)

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def multinomial(self, n, pvals):
            if np.ndim(pvals) == 2:
                joint_draws.append(self.seed)
            return self.rng.multinomial(n, pvals)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    runner(make_family(N, 2, EXAMPLE), 1000, 11, shards)
    assert joint_draws == [(11, 0)] * -(-N // montecarlo.BLOCK_ROWS)


@pytest.mark.parametrize("shards, trials", [(2, 10**5), (7, 10**5), (64, 10**5), (64, 40)])
@pytest.mark.parametrize("protocol", RUNNERS)
def test_counts_follow_the_documented_streams(protocol, shards, trials):
    # README "Reproducibility": each non-empty shard s draws from
    # default_rng((seed, s)) its prepared-k totals and, for a contraction, their
    # conclusive part; shard 0's generator then draws the joint table once
    family, seed = make_family(3, 2, EXAMPLE), 99
    report = RUNNERS[protocol](family, trials, seed, shards)
    assert report.shard_trials == _shard_sizes(trials, shards)
    p_d = success_probability_ud(family)
    totals, conclusive = np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64)
    streams = []
    for s, n in enumerate(report.shard_trials):
        if n:
            streams.append(np.random.default_rng((seed, s)))
            rows = streams[-1].multinomial(n, np.full(3, 1 / 3))
            totals += rows
            if protocol != "min-error":
                conclusive += streams[-1].binomial(rows, p_d)
    assert len(streams) == min(shards, trials)
    counts = report.counts
    if protocol == "min-error":
        table = _unit_rows(outcome_table(family))
        assert np.array_equal(counts["joint"], streams[0].multinomial(totals, table))
    elif protocol == "tpa":
        assert np.array_equal(counts["conclusive_joint"].sum(axis=1), conclusive)
        assert np.array_equal(counts["inconclusive"], totals - conclusive)
        assert counts["wrong_conclusive"] == 0
    else:
        table = _unit_rows(multiport_report(inconclusive_family(family))["click_table"])
        assert np.array_equal(counts["conclusive_correct"], conclusive)
        assert np.array_equal(
            counts["recovered_joint"], streams[0].multinomial(totals - conclusive, table)
        )


@pytest.mark.parametrize("shards", [1, 16])
@pytest.mark.parametrize("N", [63, 64, 65, 130, 1024])
def test_block_draws_are_one_draw_of_the_dense_table(N, shards):
    # drawn BLOCK_ROWS rows at a time, the joint table is still shard 0's one
    # draw from the dense table, on either side of a block border
    family, trials, seed = make_family(N, 2, EXAMPLE), 10**6, 5
    report = run_min_error(family, trials, seed, shards)
    totals = np.zeros(N, dtype=np.int64)
    for s, n in enumerate(_shard_sizes(trials, shards)):
        stream = np.random.default_rng((seed, s))
        totals += stream.multinomial(n, np.full(N, 1 / N))
        if s == 0:
            shard_0 = stream
    expected = shard_0.multinomial(totals, _unit_rows(outcome_table(family)))
    assert np.array_equal(report.counts["joint"], expected)


def test_min_error_sampler_holds_one_block_beside_the_joint_table():
    # the int64 joint table is 8 MiB; a block of 64 rows, its pvals and its
    # draw are 1.5 MiB. The dense float table drawn at once peaked at 16.07 MiB
    family = make_family(1024, 6, np.full(7, 1 / np.sqrt(7)))
    _, peak = peak_bytes(run_min_error, family, 10**6, seed=3, shards=16)
    assert peak <= 8 * 2**20 + 2 * 2**20


@pytest.mark.parametrize("runner", RUNNERS.values(), ids=RUNNERS.keys())
def test_count_tables_are_int64_arrays(runner):
    report = runner(make_family(3, 2, EXAMPLE), 100, 5)
    for key in COUNT_KEYS[report.protocol]:
        assert isinstance(report.counts[key], np.ndarray) and report.counts[key].dtype == np.int64


def _count_tables(report) -> list[np.ndarray]:
    return [np.asarray(report.counts[key]) for key in COUNT_KEYS[report.protocol]]


@pytest.mark.parametrize("runner", RUNNERS.values(), ids=RUNNERS.keys())
@pytest.mark.parametrize("trials", [1, 7, 10**15, MAX_TRIALS])
def test_counts_sum_to_trials(runner, trials):
    report = runner(make_family(3, 2, EXAMPLE), trials, 5)
    assert sum(int(table.sum()) for table in _count_tables(report)) == trials
    assert report.counts.get("wrong_conclusive", 0) == 0


def _cell_probabilities(family) -> dict:
    """Exact probability of each count cell per trial, from the analytic tables."""
    N = family.N
    p_d = success_probability_ud(family)
    recovery = np.asarray(multiport_report(inconclusive_family(family))["click_table"])
    return {
        "min-error": [np.asarray(outcome_table(family)) / N],
        "unambiguous": [p_d * np.eye(N) / N, np.full(N, (1.0 - p_d) / N)],
        "sfg-recovery-pipeline": [np.full(N, p_d / N), (1.0 - p_d) * recovery / N],
    }


@pytest.mark.parametrize("runner", RUNNERS.values(), ids=RUNNERS.keys())
def test_count_means_follow_the_tables(runner):
    # a cell's count is Binomial(trials, p); its mean over seeds lies within
    # 5 standard errors of trials * p, and a cell of p = 0 is never hit
    family, trials, seeds = make_family(3, 2, EXAMPLE), 1000, 400
    reports = [runner(family, trials, seed) for seed in range(seeds)]
    for table, p in zip(
        zip(*map(_count_tables, reports)), _cell_probabilities(family)[reports[0].protocol]
    ):
        mean = np.mean(table, axis=0)
        sigma = np.sqrt(trials * p * (1.0 - p) / seeds)
        assert np.all(np.abs(mean - trials * p) <= 5.0 * sigma), (mean, trials * p)
    assert all(report.counts.get("wrong_conclusive", 0) == 0 for report in reports)


def test_trial_counts_validation():
    fam = coincident_family(3)
    with pytest.raises(ValueError):
        run_min_error(fam, 0, seed=1)
    with pytest.raises(ValueError):
        run_min_error(fam, 100, seed=1, shards=0)


def test_report_type():
    report = run_min_error(coincident_family(3), 10, seed=2)
    assert isinstance(report, TrialReport)
    assert report.protocol == "min-error"
    assert report.seed == 2
    assert report.shards == 1
