"""Catalog entries: scalar/matrix closed forms, id grammar, declared flags."""

import math
import sys

import numpy as np
import pytest

from kubomeans import connections
from kubomeans.catalog import (
    catalog,
    catalog_ids,
    closed_form_eval,
    entry_from_id,
    representing_function_closed,
)
from kubomeans.connections import (
    evaluate,
    is_mean,
    is_symmetric_connection,
    parallel_sum,
    representing_function,
    transpose,
)
from kubomeans.measures import geometric_density
from kubomeans.spd import random_spd, spectral_norm


def _pair(key, dim=4, cond=100.0):
    return random_spd(dim, cond, 2 * key).entries, random_spd(dim, cond, 2 * key + 1).entries


def test_catalog_ids_roundtrip():
    ids = catalog_ids()
    assert len(ids) == len(set(ids)) == len(catalog())
    for ident in ids:
        assert entry_from_id(ident).id == ident


def test_catalog_module_is_not_shadowed_by_its_function():
    import kubomeans.catalog as C

    assert C is sys.modules["kubomeans.catalog"]
    assert [e.id for e in C.catalog()] == catalog_ids()


def test_id_grammar_aliases_and_params():
    assert entry_from_id("dual_log").id == "dual_log_mean"
    assert entry_from_id("cantor").id == "cantor_mean"
    assert entry_from_id("atomic:0.5@0.25,0.5@0.75").id == "finite_atomic:0.5@0.25,0.5@0.75"
    assert entry_from_id("geometric").id == "geometric:0.3"  # default parameter
    assert entry_from_id("harmonic:0.25").id == "harmonic:0.25"


def test_id_grammar_rejects_malformed():
    for bad in (
        "nosuch",
        "geometric:0.3,0.4",
        "log_mean:0.5",  # fixed entry takes no parameter
        "atomic:1.0",  # missing @
        "atomic:0.5@2.0",  # location outside [0, 1]
        "harmonic:-0.1",
        "arithmetic:1.5",
        "",
    ):
        with pytest.raises(ValueError):
            entry_from_id(bad)


def test_atom_lists_without_weight_are_rejected():
    # the zero measure's id "finite_atomic:" would resolve to the default list
    for bad in ("atomic:0.0@0.5", "finite_atomic:0@0.25,0.0@0.75"):
        with pytest.raises(ValueError, match="positive weight"):
            entry_from_id(bad)
    ident = entry_from_id("atomic:0.0@0.5,0.3@0.25").id
    assert ident == "finite_atomic:0.3@0.25"
    assert entry_from_id(ident).id == ident


def test_arithmetic_convention_weights_b():
    # arithmetic:alpha carries (1-alpha) delta_0 + alpha delta_1, so on the
    # scalars (1, 2) the 0.3-mean is 1.3
    got = closed_form_eval("arithmetic:0.3", np.array([[1.0]]), np.array([[2.0]]))
    assert got.entries[0, 0] == pytest.approx(1.3, abs=1e-15)
    f = representing_function_closed("arithmetic:0.3", 2.0)
    assert f == pytest.approx(1.3, abs=1e-15)


def test_scalar_closed_forms():
    x = 2.0
    assert representing_function_closed("geometric:0.25", 16.0) == pytest.approx(2.0)
    assert representing_function_closed("log_mean", x) == pytest.approx((x - 1) / math.log(x))
    assert representing_function_closed("dual_log", math.e) == pytest.approx(
        math.e / (math.e - 1)
    )
    assert representing_function_closed("harmonic:0.5", 3.0) == pytest.approx(1.5)
    assert representing_function_closed("left_trivial", x) == 1.0
    assert representing_function_closed("right_trivial", x) == x
    assert representing_function_closed("sum", x) == pytest.approx(1.0 + x)
    assert representing_function_closed("parallel_sum", x) == pytest.approx(x / (1 + x))


def test_log_mean_scalar_series_window():
    # the closed form switches to a series near x = 1; both sides must agree
    f = lambda x: representing_function_closed("log_mean", x)
    for x in (1.0 - 2e-4, 1.0 - 5e-5, 1.0, 1.0 + 5e-5, 1.0 + 2e-4):
        want = 1.0 if x == 1.0 else (x - 1.0) / math.log(x)
        assert f(x) == pytest.approx(want, rel=1e-12)
    assert f(1.0) == 1.0
    assert f(0.0) == 0.0


def test_dual_log_scalar_series_window():
    f = lambda x: representing_function_closed("dual_log", x)
    for x in (1.0 - 2e-4, 1.0 - 5e-5, 1.0 + 5e-5, 1.0 + 2e-4):
        want = x * math.log(x) / (x - 1.0)
        assert f(x) == pytest.approx(want, rel=1e-12)
    assert f(1.0) == 1.0
    assert f(0.0) == 0.0


def test_geometric_matrix_closed_form_diagonal():
    a = np.diag([1.0, 4.0])
    b = np.diag([4.0, 1.0])
    got = closed_form_eval("geometric:0.5", a, b).entries
    np.testing.assert_allclose(got, np.diag([2.0, 2.0]), rtol=1e-12)


def test_log_mean_of_equal_matrices_is_identity_map():
    a = random_spd(4, 50.0, 31).entries
    got = closed_form_eval("log_mean", a, a).entries
    np.testing.assert_allclose(got, a, rtol=1e-12, atol=1e-13)


def test_geometric_alpha_zero_one_degrade_to_trivial():
    assert entry_from_id("geometric:0.0").id == "left_trivial"
    assert entry_from_id("geometric:1.0").id == "right_trivial"


def test_closed_form_eval_missing():
    a, b = _pair(32)
    with pytest.raises(ValueError):
        closed_form_eval("cantor", a, b)
    with pytest.raises(ValueError):
        representing_function_closed("cantor", 2.0)


def test_closed_forms_match_quadrature_on_random_pairs():
    a, b = _pair(33, dim=5)
    scale = 1.0 + spectral_norm(a) + spectral_norm(b)
    for ident in ("harmonic:0.3", "arithmetic:0.7", "geometric:0.6", "log_mean",
                  "dual_log", "sum", "parallel_sum", "atomic:0.4@0.2,0.6@0.9"):
        entry = entry_from_id(ident)
        quad = evaluate(entry.connection, a, b).entries
        closed = closed_form_eval(ident, a, b).entries
        rel = np.linalg.norm(quad - closed) / np.linalg.norm(closed)
        assert rel <= 1e-6, ident
        assert spectral_norm(quad - closed) <= 1e-6 * scale, ident


def test_declared_flags_match_predicates():
    for entry in catalog():
        assert entry.is_mean == is_mean(entry.connection), entry.id
        assert entry.symmetric == is_symmetric_connection(entry.connection), entry.id


def test_atomic_symmetry_detection():
    assert entry_from_id("atomic:0.5@0.25,0.5@0.75").symmetric
    assert not entry_from_id("atomic:0.6@0.25,0.4@0.75").symmetric
    assert entry_from_id("atomic:1.0@0.5").symmetric


def test_transpose_of_geometric_is_complementary_alpha():
    entry = entry_from_id("geometric:0.3")
    t_measure = transpose(entry.connection).measure
    want = geometric_density(0.7)
    ts = np.array([0.1, 0.3, 0.7])
    np.testing.assert_allclose(t_measure.ac(ts), want(ts), atol=1e-12)


def test_dual_log_closed_form_is_the_limit_on_singular_b():
    # duallog_scalar(0) = 0, so a singular B needs no inverse: the closed
    # form returns the limit from above
    proj = np.diag([1.0, 1.0, 0.0])
    a = random_spd(3, 10.0, 34).entries
    b = proj @ random_spd(3, 10.0, 35).entries @ proj
    value = closed_form_eval("dual_log", a, b).entries
    above = closed_form_eval("dual_log", a, b + 1e-9 * np.eye(3)).entries
    scale = 1.0 + spectral_norm(a) + spectral_norm(b)
    assert spectral_norm(value - above) <= 1e-6 * scale


@pytest.mark.parametrize("seed", [23, 63])
@pytest.mark.parametrize("ident", ["geometric:0.3", "geometric:0.5", "dual_log_mean"])
def test_density_closed_forms_take_a_singular_a(ident, seed):
    # A singular and B PD: the transposed form B^1/2 f^T(B^-1/2 A B^-1/2) B^1/2
    # with f^T(x) = x f(1/x) gives the value evaluate returns
    proj = np.diag([1.0, 1.0, 0.0])
    a = proj @ random_spd(3, 10.0, seed).entries @ proj
    b = random_spd(3, 10.0, seed + 1).entries
    closed = closed_form_eval(ident, a, b).entries
    quad = evaluate(entry_from_id(ident).connection, a, b).entries
    assert np.linalg.norm(quad - closed) <= 1e-7 * np.linalg.norm(closed)


def test_closed_form_needs_one_input_pd_on_the_range():
    from kubomeans.errors import SingularPencilError

    # A + B is PD, but A and B are each singular on it
    a, b = np.diag([1.0, 0.0]), np.diag([0.0, 2.0])
    with pytest.raises(SingularPencilError):
        closed_form_eval("geometric:0.5", a, b)


def test_scalar_closed_forms_vectorize():
    xs = np.array([0.5, 1.0, 2.0])
    vals = representing_function_closed("log_mean", xs)
    assert vals.shape == (3,)
    assert vals[1] == 1.0
    with pytest.raises(ValueError):
        representing_function_closed("log_mean", -1.0)


def test_quadrature_rep_agrees_with_closed_scalar():
    for ident in ("geometric:0.25", "log_mean", "dual_log", "harmonic:0.5"):
        entry = entry_from_id(ident)
        f = representing_function(entry.connection)
        for x in (0.1, 0.5, 2.0, 10.0):
            assert f(x) == pytest.approx(
                representing_function_closed(ident, x), abs=1e-8
            ), (ident, x)


def test_atom_closed_forms_do_not_use_the_measure_route(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("closed form went through evaluate_report")

    monkeypatch.setattr(connections, "evaluate_report", refuse)
    a, b = _pair(36)
    assert np.array_equal(closed_form_eval("harmonic:0", a, b).entries, a)
    assert np.array_equal(closed_form_eval("harmonic:1", a, b).entries, b)
    # A !_t B = [(1-t)A^{-1} + tB^{-1}]^{-1}
    inv = np.linalg.inv
    want = inv(0.7 * inv(a) + 0.3 * inv(b))
    got = closed_form_eval("harmonic:0.3", a, b).entries
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    want = 0.5 * a + 0.25 * inv(0.8 * inv(a) + 0.2 * inv(b)) + 0.25 * b
    got = closed_form_eval("atomic:0.5@0,0.25@0.2,0.25@1", a, b).entries
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    for entry in catalog():
        mu = entry.connection.measure
        if mu.ac is None and mu.sc is None:
            entry.closed_form_matrix(a, b)


def test_parallel_sum_closed_form_is_the_parallel_sum_bitwise():
    a, b = _pair(37)
    proj = np.diag([1.0, 1.0, 1.0, 0.0])
    for x, y in ((a, b), (proj @ a @ proj, b)):
        got = closed_form_eval("parallel_sum", x, y).entries
        assert np.array_equal(got, parallel_sum(x, y).entries)
