"""Connection evaluation, representing functions, transpose, decomposition,
and compression onto range(A + B) for inputs that share a null direction."""

import math

import numpy as np
import pytest

from kubomeans.catalog import closed_form_eval, entry_from_id
from kubomeans.connections import (
    Connection,
    add_connections,
    decompose_connection,
    evaluate,
    evaluate_canonical,
    evaluate_report,
    is_mean,
    is_symmetric_connection,
    mean_convex_decomposition,
    parallel_sum,
    representing_function,
    scale_connection,
    symmetrize,
    transpose,
    transpose_rep_function,
    weighted_harmonic,
)
from kubomeans.errors import NotPsdError, QuadratureError, ShapeError
from kubomeans.measures import (
    HalfLineDensity,
    HalfLineMeasure,
    UnitMeasure,
    cantor_measure,
    dirac,
    geometric_density,
    halfline_dirac,
    halfline_geometric,
    halfline_logmean,
    lebesgue_density,
    pushforward_psi,
)
from kubomeans.quadrature import QuadratureSpec, halfline_mass, integrate_measure
from kubomeans.spd import loewner_leq, random_spd, spectral_norm


def _pair(key, dim=4, cond=100.0):
    return random_spd(dim, cond, 2 * key).entries, random_spd(dim, cond, 2 * key + 1).entries


def test_weighted_harmonic_endpoints_bitwise():
    a, b = _pair(1)
    assert np.array_equal(weighted_harmonic(a, b, 0.0).entries, a)
    assert np.array_equal(weighted_harmonic(a, b, 1.0).entries, b)


def test_weighted_harmonic_matches_inverse_form():
    a, b = _pair(2, dim=5)
    for t in (0.25, 0.5, 0.9):
        got = weighted_harmonic(a, b, t).entries
        want = np.linalg.inv((1 - t) * np.linalg.inv(a) + t * np.linalg.inv(b))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_weighted_harmonic_scalar_resistors():
    got = weighted_harmonic(np.array([[1.0]]), np.array([[3.0]]), 0.5)
    assert got.entries[0, 0] == pytest.approx(1.5, rel=1e-15)


def test_weighted_harmonic_t_domain():
    a, b = _pair(3)
    for t in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            weighted_harmonic(a, b, t)


def test_parallel_sum_is_half_harmonic():
    a, b = _pair(4, dim=3)
    left = parallel_sum(a, b).entries
    right = 0.5 * weighted_harmonic(a, b, 0.5).entries
    np.testing.assert_allclose(left, right, rtol=1e-13, atol=1e-14)


def test_parallel_sum_with_zero_block():
    b = random_spd(3, 10.0, 9).entries
    zero = np.zeros((3, 3))
    assert np.allclose(parallel_sum(zero, b).entries, 0.0, atol=1e-15)


def test_shape_mismatch_raises():
    a = random_spd(3, 10.0, 11).entries
    b = random_spd(4, 10.0, 12).entries
    with pytest.raises(ShapeError):
        weighted_harmonic(a, b, 0.5)
    with pytest.raises(ShapeError):
        evaluate(Connection(dirac(0.5)), a, b)


def test_indefinite_input_raises():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    ok = np.eye(2)
    with pytest.raises(NotPsdError):
        evaluate(Connection(dirac(0.5)), bad, ok)


def test_evaluate_atomic_measures_exact():
    a, b = _pair(5)
    conn = Connection(UnitMeasure(atoms=((0.0, 0.7), (1.0, 0.3))))
    got = evaluate(conn, a, b).entries
    assert np.array_equal(got, 0.7 * a + 0.3 * b)


def test_evaluate_zero_measure():
    a, b = _pair(6)
    report = evaluate_report(Connection(UnitMeasure()), a, b)
    assert np.array_equal(report.value.entries, np.zeros_like(a))
    assert report.parts == (("empty", 0, 0.0),)


def test_evaluate_norm_bound():
    a, b = _pair(7, dim=6)
    conn = Connection(UnitMeasure(ac=lebesgue_density()))
    value = evaluate(conn, a, b).entries
    bound = max(spectral_norm(a), spectral_norm(b))
    assert spectral_norm(value) <= bound * (1 + 1e-9)


def test_evaluate_geometric_density_matches_congruence():
    a, b = _pair(8, dim=4)
    conn = Connection(UnitMeasure(ac=geometric_density(0.5)))
    got = evaluate(conn, a, b).entries
    rt = np.linalg.cholesky(a)
    inner = np.linalg.solve(rt, np.linalg.solve(rt, b).T)
    w, v = np.linalg.eigh(0.5 * (inner + inner.T))
    want = rt @ ((v * np.sqrt(w)) @ v.T) @ rt.T
    assert np.allclose(got, want, rtol=1e-9, atol=1e-10)


def test_report_fields_on_pd_inputs():
    a, b = _pair(9)
    report = evaluate_report(Connection(UnitMeasure(ac=geometric_density(0.3))), a, b)
    assert report.compressed == 0
    assert report.nodes_used > 0
    assert report.error_estimate < 1e-8


def test_harmonic_type_shared_null_input_is_compressed():
    # inputs sharing a null vector make A + B singular: the pencil is solved
    # on range(A + B) and the value is 0 on the null vector, exactly
    d = 3
    proj = np.diag([1.0, 1.0, 0.0])
    a = proj @ random_spd(d, 10.0, 21).entries @ proj
    b = proj @ random_spd(d, 10.0, 22).entries @ proj
    conn = Connection(dirac(0.5))
    report = evaluate_report(conn, a, b)
    assert report.compressed == 1
    # A !_{1/2} B = 2 A(A+B)^-1 B on the common range, 0 on the null vector
    a2, b2 = a[:2, :2], b[:2, :2]
    block = a2 @ np.linalg.solve(0.5 * (a2 + b2), b2)
    want = np.zeros((d, d))
    want[:2, :2] = 0.5 * (block + block.T)
    scale = 1.0 + spectral_norm(a) + spectral_norm(b)
    assert spectral_norm(report.value.entries - want) <= 1e-12 * scale


def _transposed_geometric(a, b, alpha):
    """A #_alpha B = B^1/2 (B^-1/2 A B^-1/2)^(1-alpha) B^1/2 for a PD B,
    with the zero eigenvalues of a singular A's inner matrix set to 0."""
    w, v = np.linalg.eigh(b)
    rt, rti = (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T
    wi, vi = np.linalg.eigh(rti @ a @ rti)
    wi = np.where(wi > 1e-12 * wi.max(), wi, 0.0)
    return rt @ ((vi * wi ** (1.0 - alpha)) @ vi.T) @ rt


def test_geometric_on_singular_input_returns_the_limit():
    conn = Connection(UnitMeasure(ac=geometric_density(0.5)))
    # A singular, B PD: A + B is PD, so the M3 limit comes back directly
    proj = np.diag([1.0, 1.0, 0.0])
    a = proj @ random_spd(3, 10.0, 23).entries @ proj
    b = random_spd(3, 10.0, 24).entries
    report = evaluate_report(conn, a, b)
    assert report.compressed == 0
    want = _transposed_geometric(a, b, 0.5)
    got = report.value.entries
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
    # a shared null vector makes A + B singular, and A has one more null
    # direction: the limit is the transposed form on the first two
    # coordinates, where B is PD
    first = np.diag([1.0, 0.0, 0.0])
    a = first @ random_spd(3, 10.0, 23).entries @ first
    b = proj @ b @ proj
    report = evaluate_report(conn, a, b)
    assert report.compressed == 1
    want = np.zeros((3, 3))
    want[:2, :2] = _transposed_geometric(a[:2, :2], b[:2, :2], 0.5)
    got = report.value.entries
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def _shared_null_pair(seed, dim=6):
    """A and B sharing one null vector, with one more null direction in A."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    shared, extra = np.outer(q[:, -1], q[:, -1]), np.outer(q[:, -2], q[:, -2])
    pa = np.eye(dim) - shared - extra
    pb = np.eye(dim) - shared
    a = pa @ random_spd(dim, 10.0, seed).entries @ pa
    b = pb @ random_spd(dim, 10.0, seed + 1).entries @ pb
    return 0.5 * (a + a.T), 0.5 * (b + b.T), q[:, :-1]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "ident",
    ["geometric:0.3", "geometric:0.5", "dual_log_mean", "harmonic:0.5",
     "finite_atomic", "parallel_sum", "cantor_mean"],
)
def test_shared_null_pairs_return_the_limit_on_the_range(ident, seed):
    # A sigma B = P (A_R sigma B_R) P^T with P spanning range(A + B),
    # A_R = P^T A P and B_R = P^T B P (A_R singular, B_R PD)
    entry = entry_from_id(ident)
    spec = QuadratureSpec(scheme=("ifs_recursion", 12)) if ident == "cantor_mean" else None
    a, b, P = _shared_null_pair(seed)
    report = evaluate_report(entry.connection, a, b, spec)
    assert report.compressed == 1
    got = report.value.entries
    a_r, b_r = P.T @ a @ P, P.T @ b @ P
    on_range = P @ evaluate(entry.connection, a_r, b_r, spec).entries @ P.T
    assert np.linalg.norm(got - on_range) <= 1e-12 * np.linalg.norm(on_range)
    if entry.closed_form_matrix is not None:
        closed = P @ closed_form_eval(ident, a_r, b_r).entries @ P.T
        assert np.linalg.norm(got - closed) <= 1e-7 * np.linalg.norm(closed)
    zero = evaluate_report(entry.connection, np.zeros((6, 6)), np.zeros((6, 6)), spec)
    assert zero.compressed == 1 and zero.nodes_used == 0
    assert np.array_equal(zero.value.entries, np.zeros((6, 6)))


def test_no_schedule_for_endpoint_measures_on_singular_input():
    proj = np.diag([1.0, 0.0])
    a = proj @ random_spd(2, 10.0, 25).entries @ proj
    b = random_spd(2, 10.0, 26).entries
    conn = Connection(UnitMeasure(atoms=((0.0, 0.5), (1.0, 0.5))))
    report = evaluate_report(conn, a, b)
    assert report.compressed == 0
    assert np.array_equal(report.value.entries, 0.5 * a + 0.5 * b)


def test_rep_function_values_and_edges():
    conn = Connection(
        UnitMeasure(atoms=((0.0, 0.25), (0.5, 0.25)), ac=lebesgue_density(0.5))
    )
    f = representing_function(conn)
    assert f.at_zero() == 0.25
    assert f(0.0) == 0.25
    assert f(1.0) == pytest.approx(1.0, abs=1e-10)
    xs = np.array([0.5, 1.0, 2.0, 8.0])
    vals = f(xs)
    assert vals.shape == (4,)
    assert np.all(np.diff(vals) > 0)  # nondecreasing in x
    with pytest.raises(ValueError):
        f(-1.0)
    with pytest.raises(ValueError):
        f(math.inf)


def test_rep_function_scalar_in_scalar_out():
    f = representing_function(Connection(dirac(0.5)))
    out = f(2.0)
    assert isinstance(out, float)
    assert out == pytest.approx(2.0 / 1.5, rel=1e-15)


def test_transpose_rep_duality():
    conn = Connection(UnitMeasure(ac=geometric_density(0.3)))
    f = representing_function(conn)
    for x in (0.25, 0.5, 2.0, 4.0):
        assert transpose_rep_function(conn, x) == pytest.approx(
            x * f(1.0 / x), abs=1e-10
        )


def test_transpose_involution_and_atoms():
    conn = Connection(UnitMeasure(atoms=((0.0, 0.75), (1.0, 0.25))))
    t = transpose(conn)
    assert t.measure.atoms == ((0.0, 0.25), (1.0, 0.75))
    assert transpose(t).measure == conn.measure


def test_evaluate_canonical_atoms():
    a, b = _pair(10)
    nu = HalfLineMeasure(atoms=((0.0, 0.5), (math.inf, 0.5)))
    got = evaluate_canonical(nu, a, b).entries
    assert np.array_equal(got, 0.5 * a + 0.5 * b)
    nu1 = halfline_dirac(1.0, 0.5)
    got1 = evaluate_canonical(nu1, a, b).entries
    want1 = 0.5 * parallel_sum(a, b).entries * 2.0
    np.testing.assert_allclose(got1, want1, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize(
    "nu, ident",
    [
        (halfline_geometric(0.5), "geometric:0.5"),
        (halfline_logmean(), "log_mean"),
        # no named pushforward: rho pulls back to Lebesgue measure on [0, 1]
        (HalfLineMeasure(ac=HalfLineDensity(fn=lambda lam: (1.0 + lam) ** -2.0)), "dual_log_mean"),
    ],
    ids=["halfline_geometric:0.5", "halfline_log_mean", "unnamed_dual_log_mean"],
)
def test_evaluate_canonical_matches_pushforward_route(nu, ident):
    a, b = _pair(11, dim=3)
    direct = evaluate_canonical(nu, a, b).entries
    pushed = evaluate(Connection(pushforward_psi(nu)), a, b).entries
    scale = 1.0 + spectral_norm(a) + spectral_norm(b)
    assert spectral_norm(direct - pushed) <= 1e-6 * scale
    closed = closed_form_eval(ident, a, b).entries
    assert spectral_norm(direct - closed) <= 1e-12 * spectral_norm(closed)
    assert halfline_mass(nu.ac, nu.weight) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha, key", [(0.3, 0), (0.3, 1), (0.7, 0), (0.7, 1)])
def test_evaluate_canonical_matches_pushforward_route_at_cond_1e10(alpha, key):
    # lam = t/(1-t) spans 1e-10..1e10 on these scalar pairs, so the pulled-back
    # density has to see the exact 1 - t of every node
    a, b = _pair(key, dim=1, cond=1e10)
    nu = halfline_geometric(alpha)
    direct = evaluate_canonical(nu, a, b).entries
    pushed = evaluate(Connection(pushforward_psi(nu)), a, b).entries
    assert spectral_norm(direct - pushed) <= 1e-12 * spectral_norm(pushed)


@pytest.mark.parametrize("side", ["A", "B"])
def test_log_mean_of_an_exactly_singular_input_is_zero(side):
    # a !_t 0 = 0 for every t > 0, and the log-mean density has no atom at 0
    a, b = ([[1.0]], [[0.0]]) if side == "B" else ([[0.0]], [[1.0]])
    assert evaluate_canonical(halfline_logmean(), a, b).entries[0, 0] == 0.0
    assert evaluate(entry_from_id("log_mean").connection, a, b).entries[0, 0] == 0.0


@pytest.mark.parametrize(
    "ident, nu",
    [
        ("log_mean", halfline_logmean()),
        ("geometric:0.1", halfline_geometric(0.1)),
        ("geometric:0.3", halfline_geometric(0.3)),
    ],
    ids=["log_mean", "geometric:0.1", "geometric:0.3"],
)
@pytest.mark.parametrize("side", ["A", "B"])
def test_input_singular_on_a_random_plane_matches_closed_form(ident, nu, side):
    # Float noise leaves congruence eigenvalues of about 1e-16 in the null
    # direction, which f(x) ~ 1/|log x| or x**alpha would turn into errors
    # of percents; A + B stays PD, so nothing is compressed.
    full = random_spd(3, 10.0, 30).entries
    conn = entry_from_id(ident).connection
    for k in range(10):
        q = np.linalg.qr(np.random.default_rng(30000 + k).normal(size=(3, 2)))[0]
        plane = q @ q.T @ random_spd(3, 10.0, 31).entries @ q @ q.T
        a, b = (full, plane) if side == "B" else (plane, full)
        closed = closed_form_eval(ident, a, b).entries
        if ident == "log_mean" and side == "A":
            # Known defect (ROADMAP): logistic nodes past u = 36.8 round to
            # t == 1 and take the endpoint value b, so the refinement never
            # settles; the error is typed, not a wrong value.
            with pytest.raises(QuadratureError):
                evaluate(conn, a, b)
            with pytest.raises(QuadratureError):
                evaluate_canonical(nu, a, b)
            continue
        tol = 1e-12 * spectral_norm(closed)
        assert spectral_norm(evaluate(conn, a, b).entries - closed) <= tol
        assert spectral_norm(evaluate_canonical(nu, a, b).entries - closed) <= tol


def test_is_mean_and_symmetry_predicates():
    assert is_mean(Connection(dirac(0.5)))
    assert not is_mean(Connection(dirac(0.5, 0.5)))
    assert is_symmetric_connection(Connection(dirac(0.5)))
    assert not is_symmetric_connection(Connection(dirac(0.3)))


def test_symmetrize_yields_symmetric_mean():
    conn = Connection(UnitMeasure(ac=geometric_density(0.3)))
    sym = symmetrize(conn)
    assert is_symmetric_connection(sym)
    assert is_mean(sym)


def test_connection_algebra_mass():
    c1 = Connection(dirac(0.5, 0.4))
    c2 = Connection(UnitMeasure(ac=lebesgue_density(0.6)))
    both = add_connections(c1, c2)
    assert is_mean(both)
    with pytest.raises(ValueError):
        scale_connection(c1, -2.0)


def test_decompose_connection_resums():
    mu = UnitMeasure(
        atoms=((0.5, 0.3),), ac=lebesgue_density(0.5), sc=(cantor_measure().sc[0], 0.2)
    )
    conn = Connection(mu, label="mixed")
    s_ac, s_sc, s_sd, f_ac, f_sc, f_sd = decompose_connection(conn)
    assert s_ac.label == "mixed[ac]"
    f = representing_function(conn)
    for x in (0.1, 0.7, 1.0, 3.0, 10.0):
        resummed = f_ac(x) + f_sc(x) + f_sd(x)
        assert resummed == pytest.approx(f(x), abs=1e-9)


def test_mean_convex_decomposition_zero_parts():
    k_ac, k_sc, k_sd, parts = mean_convex_decomposition(
        Connection(UnitMeasure(ac=geometric_density(0.5)))
    )
    assert (k_ac, k_sc, k_sd) == (1.0, 0.0, 0.0)
    assert parts[1].measure.is_zero() and parts[2].measure.is_zero()
    assert "zero" in parts[1].label


def test_mean_convex_decomposition_rejects_non_mean():
    with pytest.raises(ValueError):
        mean_convex_decomposition(Connection(dirac(0.5, 2.0)))


def test_connection_is_frozen():
    conn = Connection(dirac(0.5), label="w")
    with pytest.raises(AttributeError):
        conn.label = "x"


def test_pd_inputs_never_compute_the_schedule_scale(monkeypatch):
    # the eigenvectors of A + B belong to the compression of singular pairs
    # alone: a strictly PD pair runs no eigensolve of A + B
    solved = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(x, *args, solver=solver, **kwargs):
            solved.append(np.array(x))
            return solver(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def eigensolves_of(total):
        return sum(np.array_equal(x, total) for x in solved)

    a, b = _pair(31)
    report = evaluate_report(Connection(UnitMeasure(ac=geometric_density(0.3))), a, b)
    assert report.compressed == 0
    value = evaluate_canonical(halfline_geometric(0.3), a, b)
    assert np.all(np.isfinite(value.entries))
    parallel_sum(a, b)
    assert eigensolves_of(a + b) == 0
    # the count sees them where they run
    proj = np.diag([1.0, 1.0, 0.0, 1.0])
    a, b = proj @ a @ proj, proj @ b @ proj
    assert evaluate_report(Connection(dirac(0.5)), a, b).compressed == 1
    assert eigensolves_of(a + b) > 0


def test_rank_deficient_input_runs_on_the_range(monkeypatch):
    import kubomeans.connections as connections

    runs = []
    on_range = connections._on_range

    def counted(Ae, Be, kernel):
        def seen(Ar, Br):
            runs.append(Ar.shape)
            return kernel(Ar, Br)

        return on_range(Ae, Be, seen)

    monkeypatch.setattr(connections, "_on_range", counted)
    proj = np.diag([1.0, 1.0, 0.0])
    a = proj @ random_spd(3, 10.0, 21).entries @ proj
    b = proj @ random_spd(3, 10.0, 22).entries @ proj
    report = evaluate_report(Connection(dirac(0.5)), a, b)
    assert report.compressed == 1
    assert report.parts == (("atoms", 1, 0.0),)
    assert runs == [(2, 2)]


def test_atoms_on_rank_deficient_pair_with_pd_pencil_run_directly():
    # A and B singular but A + B PD: the atom's pencil is PD, so it runs directly
    drop_last = np.diag([1.0, 1.0, 0.0])
    drop_first = np.diag([0.0, 1.0, 1.0])
    a = drop_last @ random_spd(3, 10.0, 21).entries @ drop_last
    b = drop_first @ random_spd(3, 10.0, 22).entries @ drop_first
    report = evaluate_report(Connection(dirac(0.5)), a, b)
    assert report.compressed == 0
    assert np.array_equal(report.value.entries, weighted_harmonic(a, b, 0.5).entries)


@pytest.mark.parametrize("dim", [1, 4, 16])
@pytest.mark.parametrize(
    "ident", ["geometric:0.3", "geometric:0.5", "log_mean", "dual_log_mean", "cantor_mean"]
)
def test_congruence_route_matches_the_pencil_oracle(ident, dim):
    # the integral of A !_t B itself, node by node, against the lifted scalar
    import kubomeans.connections as connections

    mu = entry_from_id(ident).connection.measure
    spec = QuadratureSpec(scheme=("ifs_recursion", 12)) if ident == "cantor_mean" else None
    a, b = _pair(40 + dim, dim=dim)
    got = evaluate(Connection(mu), a, b, spec).entries
    oracle = integrate_measure(connections._harmonic_fnode(a, b), mu, spec).value
    assert np.linalg.norm(got - oracle) <= 1e-9 * np.linalg.norm(oracle)


def test_successful_evaluations_leave_no_cyclic_garbage():
    # Every object an evaluation makes is freed by reference counting;
    # cycles would wait for the collector and pile up in long runs.
    import gc

    a, b = _pair(50)
    ids = ("dual_log_mean", "geometric:0.3", "log_mean", "harmonic:0.5", "cantor_mean")
    calls = [lambda c=entry_from_id(i).connection: evaluate(c, a, b) for i in ids]
    cantor = entry_from_id("cantor_mean").connection
    pinned = QuadratureSpec(scheme=("ifs_recursion", 8))
    dual = entry_from_id("dual_log_mean").connection
    calls += [
        lambda: evaluate(cantor, a, b, pinned),
        lambda: representing_function(dual, 2.0),
        lambda: transpose_rep_function(dual, 2.0),
    ]
    for call in calls:
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()
