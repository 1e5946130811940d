"""Stacked evaluation: parity with evaluate, isolation of compressed pairs,
validation and the report's route."""

import numpy as np
import pytest

from kubomeans.catalog import catalog, entry_from_id
from kubomeans.connections import Connection, evaluate, evaluate_many, evaluate_report
from kubomeans.errors import NotPsdError, ShapeError
from kubomeans.measures import UnitMeasure
from kubomeans.quadrature import QuadratureSpec
from kubomeans.spd import SpdStack, random_spd, random_spd_stack

PINNED = QuadratureSpec(scheme=("ifs_recursion", 12))


def _stacks(n, dim, cond=100.0, key=0):
    return (
        random_spd_stack(dim, cond, [2 * (key + i) for i in range(n)]),
        random_spd_stack(dim, cond, [2 * (key + i) + 1 for i in range(n)]),
    )


def _atoms_only(entry):
    mu = entry.connection.measure
    return mu.ac is None and mu.sc is None


@pytest.mark.parametrize("dim", [1, 4, 16])
@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_stack_matches_a_loop_of_evaluate(entry, dim):
    # one integration over the stack's spectra gives each pair's value to
    # 1e-12; atom-only measures keep their pencil solves and agree exactly
    a, b = _stacks(6, dim, key=10 * dim)
    spec = PINNED if entry.id == "cantor_mean" else None
    report = evaluate_many(entry.connection, a, b, spec)
    assert isinstance(report.value, SpdStack) and len(report.value) == 6
    assert report.route == ("atoms" if _atoms_only(entry) else "congruence")
    assert report.compressed == 0
    for i in range(6):
        alone = evaluate(entry.connection, a[i], b[i], spec).entries
        got = report.value.entries[i]
        if _atoms_only(entry):
            assert np.array_equal(got, alone)
        else:
            assert np.linalg.norm(got - alone) <= 1e-12 * np.linalg.norm(alone)


def test_one_pair_stack_is_evaluate_report():
    a, b = random_spd(5, 100.0, 1), random_spd(5, 100.0, 2)
    for ident in ("geometric:0.3", "log_mean", "dual_log_mean", "harmonic:0.3"):
        conn = entry_from_id(ident).connection
        one = evaluate_report(conn, a, b)
        many = evaluate_many(conn, [a], [b])
        assert np.array_equal(many.value.entries[0], one.value.entries)
        assert (many.nodes_used, many.parts) == (one.nodes_used, one.parts)
        assert many.error_estimate == one.error_estimate


@pytest.mark.parametrize(
    "ident", ["harmonic:0.5", "finite_atomic", "geometric:0.5", "log_mean", "cantor_mean"]
)
def test_shared_null_pair_leaves_the_others_unchanged(ident):
    # the shared-null pair runs on range(A + B) on its own: the other pairs'
    # values are bitwise those of the stack without it
    conn = entry_from_id(ident).connection
    a, b = _stacks(4, 3, key=7)
    proj = np.diag([1.0, 1.0, 0.0])
    null_a = proj @ random_spd(3, 10.0, 21).entries @ proj
    null_b = proj @ random_spd(3, 10.0, 22).entries @ proj
    with_null = evaluate_many(
        conn,
        np.concatenate((a.entries[:2], [null_a], a.entries[2:])),
        np.concatenate((b.entries[:2], [null_b], b.entries[2:])),
    )
    without = evaluate_many(conn, a, b)
    others = np.delete(with_null.value.entries, 2, axis=0)
    assert np.array_equal(others, without.value.entries)
    assert with_null.compressed == 1 and without.compressed == 0
    alone = evaluate_report(conn, null_a, null_b)
    assert alone.compressed == 1
    assert np.array_equal(with_null.value.entries[2], alone.value.entries)
    assert len(with_null.parts) == len(without.parts) + len(alone.parts)
    # the limit from above: the pair's value on the common range, 0 off it
    want = np.zeros((3, 3))
    want[:2, :2] = evaluate(conn, null_a[:2, :2], null_b[:2, :2]).entries
    assert np.linalg.norm(alone.value.entries - want) <= 1e-9 * np.linalg.norm(want)


def test_mismatched_stacks_raise_shape_errors():
    conn = entry_from_id("geometric:0.3").connection
    a, b = _stacks(3, 4)
    small, _ = _stacks(3, 3)
    short, _ = _stacks(2, 4)
    for other in (small, short, small.entries, short.entries):
        with pytest.raises(ShapeError):
            evaluate_many(conn, a, other)
    with pytest.raises(ShapeError):
        evaluate_many(conn, a.entries[0], b.entries[0])


def test_non_psd_member_is_named():
    conn = entry_from_id("geometric:0.3").connection
    a, b = _stacks(3, 2)
    bad = a.entries.copy()
    bad[1] = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPsdError) as err:
        evaluate_many(conn, bad, b)
    assert err.value.index == 1


def test_each_stack_is_validated_by_one_eigensolve(monkeypatch):
    # the inputs: two eigvalsh calls whatever the stack's size; the results,
    # PSD by construction for geometric and summed pencils for harmonic, one
    # more each, when the stack is built or on the first read of a fact
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(x):
        calls.append(np.shape(x))
        return eigvalsh(x)

    a, b = _stacks(20, 4)
    raw_a, raw_b = a.entries.copy(), b.entries.copy()
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for ident in ("harmonic:0.3", "geometric:0.3"):
        calls.clear()
        value = evaluate_many(entry_from_id(ident).connection, raw_a, raw_b).value
        value.norms, value.strictly_pd, value[3].min_eigenvalue
        assert calls == [(20, 4, 4)] * 3
    calls.clear()
    evaluate_many(entry_from_id("geometric:0.3").connection, raw_a, raw_b)
    assert calls == [(20, 4, 4)] * 2


def test_route_and_schedule_count_stay_out_of_canonical_reports():
    # route and the count of pairs compressed onto range(A + B)
    from kubomeans.harness import run_suite

    report = evaluate_report(Connection(UnitMeasure()), np.eye(2), np.eye(2))
    assert report.route == "atoms" and report.compressed == 0
    doc = run_suite("norm_bound", "geometric:0.3", trials=2).canonical()
    assert set(doc) == {
        "suite", "target", "trials", "dim", "cond", "seed", "tol", "passed", "failures"
    }
