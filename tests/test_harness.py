"""Property-suite harness: determinism, one-thread execution, reports, filters."""

import json
import threading

import numpy as np
import pytest

from kubomeans.catalog import entry_from_id
from kubomeans.connections import Connection, evaluate
from kubomeans.harness import (
    SUITES,
    applicable_suites,
    run_all,
    run_suite,
)
from kubomeans.measures import UnitMeasure, add, dirac, geometric_density
from kubomeans.spd import congruence, loewner_leq, random_spd


def test_suite_names_are_stable():
    assert "monotonicity" in SUITES
    assert "transformer" in SUITES
    assert "continuity" in SUITES
    assert len(SUITES) == len(set(SUITES)) == 11


def test_run_suite_validates_usage():
    with pytest.raises(ValueError):
        run_suite("nosuch", "log_mean")
    with pytest.raises(ValueError):
        run_suite("monotonicity", "log_mean", trials=0)
    with pytest.raises(ValueError):
        run_suite("crosscheck_closed_form", "cantor")
    with pytest.raises(ValueError):
        run_suite("monotonicity", 3.14)
    with pytest.raises(ValueError, match="dim"):
        run_suite("monotonicity", "log_mean", dim=0)


def test_seeds_whose_keys_leave_philox_range_are_rejected_up_front():
    # one message naming the seed, whichever suite runs and before any draw
    for suite in ("norm_bound", "representation_agreement"):
        with pytest.raises(ValueError, match="seed -1 is out of range"):
            run_suite(suite, "log_mean", seed=-1)
        with pytest.raises(ValueError, match=f"seed {2**110} is out of range"):
            run_suite(suite, "log_mean", seed=2**110)
    for seed in (-1, 2**100):
        with pytest.raises(ValueError, match=f"seed {seed} is out of range"):
            run_all("quick", seed=seed, suites=("norm_bound",))
    # the largest seed of a one-trial task: its last key is 2**128 - 8 + 7
    top = 2**105 - 1
    assert run_suite("norm_bound", "log_mean", trials=1, seed=top).passed
    with pytest.raises(ValueError, match=f"seed {top + 1} is out of range"):
        run_suite("norm_bound", "log_mean", trials=1, seed=top + 1)


def test_a_cond_that_is_not_finite_is_rejected_up_front():
    # as for random_spd: a usage error, also in a suite that draws no pair
    for suite in ("norm_bound", "representation_agreement"):
        for cond in (np.nan, np.inf, 0.5):
            with pytest.raises(ValueError, match="cond must be finite and >= 1"):
                run_suite(suite, "log_mean", cond=cond)


def test_report_canonical_excludes_wall_time():
    rep = run_suite("norm_bound", "arithmetic:0.3", trials=5, seed=1)
    assert rep.passed
    doc = rep.canonical()
    assert "wall_time" not in doc
    assert doc["suite"] == "norm_bound"
    assert doc["target"] == "arithmetic:0.3"
    assert doc["trials"] == 5
    assert doc["failures"] == []
    json.loads(rep.canonical_json())  # serializes cleanly


def test_run_suite_deterministic_across_calls():
    a = run_suite("transpose_duality", "geometric:0.3", trials=8, seed=7)
    b = run_suite("transpose_duality", "geometric:0.3", trials=8, seed=7)
    assert a.canonical_json() == b.canonical_json()


def test_zero_tolerance_records_trial_keys():
    # quadrature vs closed form always differs in the last bits, so tol=0
    # fails every trial and exposes the counter-derived keys
    rep = run_suite("crosscheck_closed_form", "geometric:0.3", trials=3, seed=5, tol=0.0)
    assert not rep.passed
    keys = [k for k, _ in rep.failures]
    assert keys == [5 * 2**20 + 0, 5 * 2**20 + 1, 5 * 2**20 + 2]
    assert all(v > 0.0 for _, v in rep.failures)


def test_applicable_suites_drop_missing_closed_forms():
    cantor = entry_from_id("cantor")
    names = applicable_suites(cantor)
    assert "crosscheck_closed_form" not in names
    assert "representation_agreement" not in names
    assert len(names) == 9
    assert applicable_suites(entry_from_id("log_mean")) == SUITES


def test_each_suite_passes_on_a_catalog_sample():
    for suite in SUITES:
        rep = run_suite(suite, "log_mean", trials=4, dim=3, seed=11)
        assert rep.passed, (suite, rep.failures)


@pytest.mark.parametrize("label", [None, "atom_and_geometric"])
def test_each_suite_runs_on_a_custom_connection(label):
    # a Connection is its own target: every suite that needs no closed form
    # runs on it, and the two that compare with one are usage errors
    conn = Connection(add(dirac(0.3), UnitMeasure(ac=geometric_density(0.4))), label)
    for suite in SUITES:
        if suite in ("crosscheck_closed_form", "representation_agreement"):
            with pytest.raises(ValueError, match="has no closed-form"):
                run_suite(suite, conn, trials=4, dim=3)
            continue
        rep = run_suite(suite, conn, trials=4, dim=3, seed=5)
        assert rep.passed, (suite, rep.failures)
        assert rep.target == (label or "custom")


def test_transformer_strict_projection_instance():
    # deterministic M2 instance: exact projection T, interior mean, so
    # T (A sigma B) T <= (TAT) sigma (TBT) with strict inequality possible
    dim = 3
    a = random_spd(dim, 20.0, 41).entries
    b = random_spd(dim, 20.0, 42).entries
    t = np.diag([1.0, 1.0, 0.0])
    conn = Connection(dirac(0.5))
    lhs = congruence(t, evaluate(conn, a, b)).entries
    rhs = evaluate(conn, congruence(t, a).entries, congruence(t, b).entries).entries
    assert loewner_leq(lhs, rhs, tol=1e-8)


def test_run_all_ignores_thread_variable(monkeypatch):
    # checks run in one thread whatever the environment says: the IFS node
    # cache behind the pinned harness spec is unlocked module state
    monkeypatch.delenv("KUBO_MEANS_THREADS", raising=False)
    serial = run_all(profile="quick", seed=2, suites=("norm_bound",))
    assert len(serial) == 11
    assert all(rep.suite == "norm_bound" for rep in serial)
    assert all(rep.passed for rep in serial)

    def no_threads(self):
        raise AssertionError("run_all started a thread")

    monkeypatch.setenv("KUBO_MEANS_THREADS", "4")
    monkeypatch.setattr(threading.Thread, "start", no_threads)
    again = run_all(profile="quick", seed=2, suites=("norm_bound",))
    assert [r.canonical_json() for r in serial] == [r.canonical_json() for r in again]


def test_run_all_validates_inputs():
    with pytest.raises(ValueError):
        run_all(profile="nightly")
    with pytest.raises(ValueError):
        run_all(suites=("nosuch",))


def test_filtered_run_matches_full_run_seeds():
    # the suite filter must not renumber tasks
    full = run_all(profile="quick", seed=3, suites=("scalar_reduction", "norm_bound"))
    only = run_all(profile="quick", seed=3, suites=("norm_bound",))
    full_nb = [r for r in full if r.suite == "norm_bound"]
    assert [r.canonical_json() for r in full_nb] == [r.canonical_json() for r in only]


def test_norm_bound_trials_validate_each_matrix_once(monkeypatch):
    # the task's inputs are one stack for both slots, validated when built,
    # and its result stack (PSD by construction) is validated when the suite
    # reads its norms: one eigensolve each for all trials; the two input
    # halves share the stack's facts, and evaluation and the scales reuse the
    # stored norms instead of wrapping or measuring a matrix again
    from kubomeans.spd import SpdMatrix, SpdStack

    calls, solves = [], []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda x: solves.append(np.shape(x)) or eigvalsh(x)
    )
    for cls in (SpdMatrix, SpdStack):
        post_init = cls.__post_init__

        def counted(self, post_init=post_init):
            calls.append(type(self).__name__)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    rep = run_suite("norm_bound", "geometric:0.3", trials=5)
    assert rep.passed
    assert calls == ["SpdStack"]
    assert len(solves) == 2


@pytest.mark.parametrize(
    "suite, target, shapes",
    [
        ("monotonicity", "geometric:0.3", [(40, 4, 4), (40, 4, 4), (20, 4, 4)]),
        ("transformer", "geometric:0.3", [(40, 4, 4), (40, 4, 4), (20, 4, 4)]),
        ("transformer", "arithmetic:0.3", [(40, 4, 4), (40, 4, 4), (20, 4, 4)]),
        ("congruence_eq", "geometric:0.3", [(40, 4, 4), (40, 4, 4)]),
        ("continuity", "geometric:0.3", [(40, 4, 4), (320, 4, 4), (20, 7, 4, 4)]),
    ],
)
def test_derived_pairs_are_validated_by_one_eigensolve(monkeypatch, suite, target, shapes):
    # the drawn pair is one (2n, d, d) eigensolve; so is the pair a trial
    # derives from it (bumped, transformed or shifted by each eps), whose
    # halves share its facts; the last solve is the suite's own metric
    solves, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda x: solves.append(np.shape(x)) or eigvalsh(x)
    )
    assert run_suite(suite, target, trials=20, dim=4).passed
    assert solves == shapes


@pytest.mark.parametrize("dim", [1, 2, 4, 7])
def test_stacked_draws_equal_the_per_key_draws(dim):
    # slots 0 and 1 are random_spd, slots 2 and 3 start with
    # _random_orthogonal and go on with uniforms from the same generator;
    # _log_uniform draws from slot 2 alone
    from kubomeans.harness import _draws, _log_uniform, _pairs, _trial_key
    from kubomeans.spd import _random_orthogonal

    keys = [_trial_key(seed, trial) for seed in (0, 9) for trial in (0, 1, 5)]
    a, b = _pairs(keys, dim, 100.0)
    for i, key in enumerate(keys):
        assert np.array_equal(a.entries[i], random_spd(dim, 100.0, 8 * key).entries)
        assert np.array_equal(b.entries[i], random_spd(dim, 100.0, 8 * key + 1).entries)
    for slot in (2, 3):
        q, u, v = _draws(keys, slot, dim, (0.0, 0.5), (-0.5, 0.5))
        for i, key in enumerate(keys):
            # a fresh generator per key: the recipe re-keying must reproduce
            rng = np.random.Generator(np.random.Philox(key=8 * key + slot))
            assert np.array_equal(q[i], _random_orthogonal(rng, dim))
            assert np.array_equal(u[i], rng.uniform(0.0, 0.5, size=dim))
            assert np.array_equal(v[i], rng.uniform(-0.5, 0.5, size=dim))
    for low, high in ((0.1, 10.0), (0.05, 20.0)):
        xs = _log_uniform(keys, low, high, dim + 3)
        for i, key in enumerate(keys):
            rng = np.random.Generator(np.random.Philox(key=8 * key + 2))
            want = np.exp(rng.uniform(np.log(low), np.log(high), size=dim + 3))
            assert np.array_equal(xs[i], want)


def test_quick_profile_reports_are_pinned():
    # sha256 of the canonical reports of run_all("quick", 0), one JSON line
    # per report: evaluating a task's trials together must not change them
    import hashlib

    text = "\n".join(r.canonical_json() for r in run_all("quick", 0))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "0140c72f3bd0a16bc849ace04abae1399129185d7896ad93269b43cee8398b7c"
