import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdsim.families import coincident_family, make_family
from qsdsim import montecarlo
from qsdsim.montecarlo import (
    TrialReport,
    _sample_joint,
    _shard_sizes,
    run_min_error,
    run_sfg_recovery_pipeline,
    run_unambiguous,
)
from qsdsim.serialize import dumps

EXAMPLE = (0.7, 0.6, np.sqrt(0.15))


def test_shard_sizes():
    assert _shard_sizes(10, 1) == [10]
    assert _shard_sizes(10, 3) == [4, 3, 3]
    assert _shard_sizes(2, 4) == [1, 1, 0, 0]
    with pytest.raises(ValueError):
        _shard_sizes(0, 1)
    with pytest.raises(ValueError):
        _shard_sizes(10, 0)


def test_min_error_deterministic():
    fam = coincident_family(3)
    a = run_min_error(fam, 5000, seed=42, shards=2)
    b = run_min_error(fam, 5000, seed=42, shards=2)
    assert a.counts == b.counts
    assert a.empirical == b.empirical
    c = run_min_error(fam, 5000, seed=43, shards=2)
    assert c.counts != a.counts


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


def test_unambiguous_rejects_unknown_mechanism():
    with pytest.raises(ValueError):
        run_unambiguous(make_family(3, 2, EXAMPLE), "other", 10, seed=0)


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


def test_trial_report_serializes():
    report = run_min_error(coincident_family(3), 100, seed=1)
    text = dumps(report.as_dict())
    assert '"protocol": "min-error"' in text
    assert text.endswith("\n")


def test_min_error_sampler_memory_is_bounded():
    # one gather over all trials held a trials x N float array: 565 MiB here
    fam = make_family(64, 2, EXAMPLE)
    tracemalloc.start()
    try:
        report = run_min_error(fam, 10**6, seed=2024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    joint = np.asarray(report.counts["joint"], dtype="<i8")
    # counts of the one-pass sampler for this seed
    assert int(np.trace(joint)) == 44363
    assert hashlib.sha256(joint.tobytes()).hexdigest() == (
        "0292963d975fc1bd012754222b0192802641e351b5944ae17ccc7ae549e499d7"
    )


@pytest.mark.parametrize("mechanism", ["tpa", "sfg"])
def test_unambiguous_counts_are_pinned(mechanism):
    # counts of the per-trial gather sampler for this seed and shard count
    report = run_unambiguous(make_family(3, 2, EXAMPLE), mechanism, 10**5, seed=31, shards=3)
    assert report.counts == {
        "conclusive_joint": [[15003, 0, 0], [0, 15000, 0], [0, 0, 14973]],
        "inconclusive": [18330, 18412, 18282],
        "wrong_conclusive": 0,
    }


def test_pipeline_counts_are_pinned():
    # counts of the per-trial gather sampler for this seed and shard count
    report = run_sfg_recovery_pipeline(make_family(3, 2, EXAMPLE), 10**5, seed=37, shards=3)
    assert report.counts == {
        "conclusive_correct": [15123, 14966, 14968],
        "recovered_joint": [[12038, 3048, 3100], [3088, 12193, 3086], [3158, 3087, 12145]],
    }


@pytest.mark.parametrize("trials", [1, 7, 64, 10**9])
def test_sampler_blocks_do_not_change_counts(monkeypatch, trials):
    fam = make_family(16, 2, EXAMPLE)
    want = run_min_error(fam, 3000, seed=9, shards=2).counts
    monkeypatch.setattr(montecarlo, "SAMPLE_BLOCK_TRIALS", trials)
    assert run_min_error(fam, 3000, seed=9, shards=2).counts == want


def _gathered_joint(rng, row_cumulative, ks):
    """Reference sampler: compare each trial's u with its whole row, then scatter."""
    us = rng.random(ks.shape[0])
    js = (row_cumulative[ks] < us[:, None]).sum(axis=1)
    js = np.minimum(js, row_cumulative.shape[1] - 1)
    joint = np.zeros(row_cumulative.shape, dtype=np.int64)
    np.add.at(joint, (ks, js), 1)
    return joint


@st.composite
def cumulative_tables(draw):
    """Cumulative rows of nonnegative N x N tables, N = 2..300 (uint8 and uint16 keys).

    Zeroed cells give tied edges, and rows scaled below a unit sum (down to
    all-zero rows) leave u above the last edge, which the sampler clips.
    """
    n = draw(st.integers(2, 256) | st.integers(257, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.random((n, n))
    table[rng.random((n, n)) < draw(st.floats(0.0, 1.0))] = 0.0
    totals = table.sum(axis=1, keepdims=True)
    table = np.divide(table, totals, out=np.zeros_like(table), where=totals > 0)
    short = rng.random((n, 1)) < draw(st.floats(0.0, 1.0))
    table *= np.where(short, rng.random((n, 1)), 1.0)
    return np.cumsum(table, axis=1)


@settings(max_examples=60, deadline=None)
@given(
    cumulative_tables(),
    st.integers(0, 5000),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 7, montecarlo.SAMPLE_BLOCK_TRIALS]),
    st.data(),
)
def test_sampled_joint_matches_gathered_joint(cum, trials, seed, block, data):
    n = cum.shape[0]
    busy_rows = data.draw(st.just(n) | st.integers(1, n))
    ks = np.random.default_rng(seed).integers(0, busy_rows, size=trials)
    want = _gathered_joint(np.random.default_rng(seed + 1), cum, ks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "SAMPLE_BLOCK_TRIALS", block)
        got = _sample_joint(np.random.default_rng(seed + 1), cum, ks)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


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
