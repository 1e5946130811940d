"""Quadrature engine: node rules, per-part drivers, reports, node tables."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from kubomeans.errors import IfsBudgetError, QuadratureError
from kubomeans.measures import (
    Density,
    DensityTerm,
    IfsMeasure,
    UnitMeasure,
    cantor_ifs,
    cantor_measure,
    dirac,
    geometric_density,
    halfline_geometric,
    halfline_logmean,
    lebesgue_density,
    logmean_density,
)
from kubomeans.quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    density_mass,
    ifs_nodes,
    integrate_halfline_density,
    integrate_ifs,
    integrate_measure,
    integrate_scalar,
    integrate_scalar_report,
    jacobi_rule,
    legendre_rule,
    logistic_rule,
    node_table,
    tanh_sinh_rule,
)


def _rng(key):
    return np.random.Generator(np.random.Philox(key=key))


def beta_fn(a, b):
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


# Jacobi exponents the catalog's densities reach (geometric:0.3 and its
# reflection, geometric:0.5, Lebesgue) and two one-sided envelopes
CATALOG_EXPONENTS = (
    (-0.7, -0.3),
    (-0.3, -0.7),
    (-0.5, -0.5),
    (0.0, 0.0),
    (-0.7, 0.0),
    (-0.3, 0.0),
)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_nodes=1)
    with pytest.raises(ValueError):
        QuadratureSpec(scheme="simpson")
    with pytest.raises(ValueError):
        QuadratureSpec(scheme=("ifs_recursion", 0))
    # density rules follow each term's exponents; none can be forced
    with pytest.raises(ValueError):
        QuadratureSpec(scheme=("gauss_jacobi", -0.5, -0.5))
    with pytest.raises(ValueError):
        QuadratureSpec(scheme="gauss_legendre")
    assert QuadratureSpec(scheme=("ifs_recursion", 12)).ifs_depth == 12
    assert QuadratureSpec().ifs_depth is None


def test_spec_rejects_a_nan_node_budget_at_construction():
    # NaN fails every comparison, so a `< 2` test let it through to use
    with pytest.raises(ValueError, match="max_nodes"):
        QuadratureSpec(max_nodes=float("nan"))


def test_jacobi_rule_reproduces_beta_moments():
    # int t^p (1-t)^q t^k dt = B(p+k+1, q+1)
    for p, q in ((-0.5, -0.5), (0.3, -0.7), (0.0, 0.0), (1.5, 2.0)):
        t, tc, w = jacobi_rule(p, q, 24)
        for k in range(4):
            got = float(np.sum(w * t**k))
            assert got == pytest.approx(beta_fn(p + k + 1, q + 1), rel=1e-13)


@pytest.mark.parametrize("p, q", CATALOG_EXPONENTS)
def test_jacobi_rule_moments_match_exact_beta_values(p, q):
    # a Gauss rule integrates t^k t^p (1-t)^q exactly; what is left is the
    # rounding in the nodes and weights
    for n in (16, 64, 256, 4096):
        t, tc, w = jacobi_rule(p, q, n)
        for k in range(9):
            got = float(np.sum(w * t**k))
            assert got == pytest.approx(beta_fn(p + k + 1, q + 1), rel=1e-11), (n, k)


@pytest.mark.parametrize(
    "p, q", CATALOG_EXPONENTS + ((-0.95, 0.4), (1.5, 2.0), (6.0, 0.5))
)
def test_jacobi_rule_nodes_match_scipy(p, q):
    special = pytest.importorskip("scipy.special")
    sizes = (1, 2, 3, 7, 16, 64, 255, 1024)
    if (p, q) in CATALOG_EXPONENTS[:3]:
        sizes += (4096,)
    for n in sizes:
        with np.errstate(invalid="ignore", divide="ignore"):
            x, _w = special.roots_jacobi(n, q, p)
        t, tc, _ = jacobi_rule(p, q, n)
        np.testing.assert_allclose(t, 0.5 * (1.0 + x), rtol=0, atol=1e-14)
        np.testing.assert_allclose(tc, 0.5 * (1.0 - x), rtol=0, atol=1e-14)


def test_jacobi_rule_complement_accuracy_at_endpoints():
    t, tc, w = jacobi_rule(-0.9, 0.0, 64)
    # both coordinates are exact complements built from one abscissa
    np.testing.assert_allclose(t + tc, 1.0, atol=1e-15)
    assert tc.max() < 1.0 and t.min() > 0.0


def test_jacobi_rule_rejects_nonintegrable():
    with pytest.raises(ValueError):
        jacobi_rule(-1.0, 0.0, 8)


def test_legendre_rule_polynomial_exactness():
    x, w = legendre_rule(6)
    # degree up to 2n-1 = 11 integrates exactly on [-1, 1]
    for k in range(12):
        want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert float(np.sum(w * x**k)) == pytest.approx(want, abs=1e-14)


def test_legendre_rule_is_symmetric_with_mass_two():
    # the sizes the panels (8, 16) and the Cauchy rule (64 * 2^k) build
    for n in (1, 2, 3, 8, 16, 64, 128, 256, 512, 1024, 2048, 4096):
        x, w = legendre_rule(n)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0.0)
        assert w.sum() == 2.0


def test_legendre_rule_builds_in_linear_memory():
    legendre_rule.cache_clear()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        x, w = legendre_rule(4096)
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(x) == 4096 and w.sum() == 2.0
    assert seconds < 2.0
    assert peak < 16 * 2**20


def test_logistic_rule_mass_exact_and_kernel():
    for n in (64, 128, 256):
        t, tc, v = logistic_rule(n)
        assert len(t) == n + 2
        assert float(np.sum(v)) == pytest.approx(1.0, abs=1e-15)
        # each tail's node lies inside (0, 1), beyond every interior node
        assert 0.0 < t[0] < t[1] and 0.0 < tc[-1] < tc[-2]
        assert t[0] == tc[-1] and tc[0] == t[-1]
    # first moment of the log-mean kernel is 1/2 by symmetry
    t, tc, v = logistic_rule(256)
    assert float(np.sum(v * t)) == pytest.approx(0.5, abs=1e-12)


def test_tanh_sinh_rule_unit_mass():
    t, tc, w = tanh_sinh_rule(8)
    assert float(np.sum(w)) == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(t + tc, 1.0, atol=1e-15)
    assert t.min() > 0.0 and t.max() < 1.0


def test_ifs_nodes_cantor_structure():
    t, tc, w = ifs_nodes(cantor_ifs(), 5)
    assert len(t) == 2**5
    np.testing.assert_allclose(w, 2.0**-5)
    # complements are the exact reflected nodes of the symmetric system
    np.testing.assert_allclose(np.sort(tc), np.sort(1.0 - t), atol=0)
    with pytest.raises(IfsBudgetError):
        ifs_nodes(cantor_ifs(), 25)


def test_ifs_nodes_are_cached_read_only():
    first = ifs_nodes(cantor_ifs(), 9)
    again = ifs_nodes(cantor_ifs(), 9)
    assert all(a is b for a, b in zip(first, again))
    assert not any(a.flags.writeable for a in first)
    # systems that compare equal but carry other complement offsets, one
    # rounding apart, keep their own entries
    maps, probs = ((0.3, 0.0), (0.3, 0.7)), (0.5, 0.5)
    plain = IfsMeasure(maps, probs)
    shifted = IfsMeasure(maps, probs, maps_c=(np.nextafter(0.7, 1.0), 0.0))
    assert plain == shifted
    assert not np.array_equal(ifs_nodes(plain, 3)[1], ifs_nodes(shifted, 3)[1])


def test_node_values_aliasing_the_cached_nodes_are_not_scaled_in_place():
    # the reduction weights a node function's own buffer in place; values that
    # are a view of the (cached, read-only) nodes must be copied instead
    m = UnitMeasure(ac=geometric_density(0.5), sc=(cantor_ifs(), 1.0))
    spec = QuadratureSpec(scheme=("ifs_recursion", 12))
    first, _ = integrate_scalar(m, lambda t: t, spec)
    again, _ = integrate_scalar(m, lambda t: t, spec)
    assert first == again == pytest.approx(1.0, abs=1e-9)


def test_integrate_scalar_atoms_exact():
    m = UnitMeasure(atoms=((0.25, 0.5), (0.75, 0.25)))
    value, err = integrate_scalar(m, lambda t: t**2)
    assert value == 0.5 * 0.25**2 + 0.25 * 0.75**2
    assert err == 0.0


def test_integrate_scalar_mixture_report_parts():
    m = UnitMeasure(
        atoms=((0.5, 0.3),), ac=lebesgue_density(0.5), sc=(cantor_ifs(), 0.2)
    )
    report = integrate_scalar_report(m, lambda t: t**2)
    schemes = [row[0] for row in report.parts]
    assert schemes[0] == "atoms"
    assert schemes[1] == "gauss_legendre"
    assert schemes[2].startswith("ifs_adaptive:")
    # 0.3/4 + 0.5/3 + 0.2 * 3/8
    want = 0.3 * 0.25 + 0.5 / 3.0 + 0.2 * 0.375
    assert report.value == pytest.approx(want, abs=1e-9)
    assert report.error_estimate < 1e-6


def test_zero_measure_integrates_to_zero():
    report = integrate_scalar_report(UnitMeasure(), lambda t: t)
    assert report.value == 0.0
    assert report.parts == (("empty", 0, 0.0),)


def test_density_masses_are_unit():
    # the rules integrate each catalog density to its stated unit mass
    for dens, tol in (
        (lebesgue_density(), 1e-12),
        (geometric_density(0.25), 1e-10),
        (logmean_density(), 1e-10),
    ):
        value, _err = integrate_scalar(UnitMeasure(ac=dens), np.ones_like)
        assert value == pytest.approx(1.0, abs=tol)
    # density_mass takes a stated mass as it is, and integrates the rest
    pulled = halfline_geometric(0.3).ac.pullback()
    mixture = Density(geometric_density(0.25, 0.5).terms + (pulled,) + lebesgue_density(0.25).terms)
    pulled_mass, _err = integrate_scalar(UnitMeasure(ac=Density((pulled,))), np.ones_like)
    assert pulled_mass == pytest.approx(1.0, abs=1e-10)
    want = 0.5 * 1.0 + pulled_mass + 0.25 * 1.0
    assert density_mass(mixture) == want
    assert density_mass(geometric_density(0.25, 3.0)) == 3.0


def test_quadrature_error_carries_best_estimate():
    # Lebesgue panels cannot resolve a jump to abs_tol within depth 12
    m = UnitMeasure(ac=lebesgue_density())
    with pytest.raises(QuadratureError) as err:
        integrate_scalar(m, lambda t: np.where(t < 1.0 / 3.0, 0.0, 1.0))
    assert err.value.value is not None
    assert err.value.nodes_used > 0


def test_density_rule_follows_the_exponents():
    # (0, 0) panels, other envelopes Gauss-Jacobi, no envelope tanh-sinh
    # unless the term is the log-mean kernel
    def term(exponents, ident=None):
        return DensityTerm(
            ident=ident,
            weight=1.0,
            fn=lambda t, tc: 2.0 * t,
            exponents=exponents,
        )

    cases = (
        (term((0.0, 0.0)), "gauss_legendre"),
        (term((1.0, 0.0)), "gauss_jacobi"),
        (term(None), "tanh_sinh"),
        (term(None, "linear"), "tanh_sinh"),
    )
    for t, scheme in cases:
        for d in (Density((t,)), Density((t.reflect(),))):
            report = integrate_scalar_report(UnitMeasure(ac=d), lambda x: x)
            assert report.parts[0][0] == scheme
    report = integrate_scalar_report(UnitMeasure(ac=Density((term(None),))), lambda x: x)
    assert report.value == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert integrate_scalar_report(
        UnitMeasure(ac=logmean_density()), lambda x: x
    ).parts[0][0] == "logistic_substitution"


def test_ifs_depth_pin_and_convergence():
    m = cantor_measure()
    v16, _ = integrate_scalar(m, lambda t: t / (0.5 + t), QuadratureSpec(scheme=("ifs_recursion", 16)))
    v20, _ = integrate_scalar(m, lambda t: t / (0.5 + t), QuadratureSpec(scheme=("ifs_recursion", 20)))
    assert abs(v16 - v20) <= 1e-6


def test_integrate_ifs_moments():
    assert integrate_ifs(cantor_ifs(), lambda t: t, 18) == pytest.approx(0.5, abs=1e-12)
    assert integrate_ifs(cantor_ifs(), lambda t: t * t, 18) == pytest.approx(0.375, abs=1e-9)


def test_matrix_integration_trace_metric():
    # one shared node set; per-entry magnitudes differ by orders of magnitude
    m = UnitMeasure(ac=lebesgue_density())

    def fnode(t, tc):
        out = np.zeros((len(t), 2, 2))
        out[:, 0, 0] = t
        out[:, 1, 1] = 1e6 * t**2
        out[:, 0, 1] = out[:, 1, 0] = 1e-6 * t**3
        return out

    report = integrate_measure(fnode, m)
    want = np.array([[0.5, 1e-6 / 4], [1e-6 / 4, 1e6 / 3]])
    np.testing.assert_allclose(report.value, want, rtol=1e-9)


@pytest.mark.parametrize(
    "measure",
    [UnitMeasure(ac=lebesgue_density()), UnitMeasure(ac=geometric_density(0.3))],
)
def test_traceless_refinement_difference_keeps_refining(measure):
    # diag(h, -h) has trace 0 at every level, so a trace-driven test would
    # stop at the first comparison; the max-abs metric refines as for h
    h = lambda t: np.cos(40.0 * t)
    scalar = integrate_measure(lambda t, tc: h(t), measure)

    def fnode(t, tc):
        out = np.zeros((len(t), 2, 2))
        out[:, 0, 0] = h(t)
        out[:, 1, 1] = -h(t)
        return out

    report = integrate_measure(fnode, measure)
    assert report.nodes_used == scalar.nodes_used
    assert report.nodes_used > 48
    want = np.diag([scalar.value, -scalar.value])
    np.testing.assert_allclose(report.value, want, rtol=1e-12, atol=1e-15)


def test_integration_deterministic_bitwise():
    m = UnitMeasure(ac=geometric_density(0.3), atoms=((0.5, 0.2),))
    h = lambda t: t / (1.0 + t)
    a, _ = integrate_scalar(m, h)
    b, _ = integrate_scalar(m, h)
    assert a == b


def test_halfline_geometric_pullback_mass():
    for nu in (halfline_geometric(0.5), halfline_logmean()):
        assert density_mass(Density((nu.ac.pullback(),))) == pytest.approx(1.0, abs=1e-9)


def test_integrate_halfline_density_matches_scalar_oracle():
    # int_0^inf lam/(lam+2) dnu, integrated through rho's own pullback,
    # equals the [0,1] integral against the catalog geometric-1/2 density
    dens = halfline_geometric(0.5).ac

    def fnode(t, tc):
        return t / (t + 2.0 * tc)

    report = integrate_halfline_density(fnode, dens)
    from kubomeans.measures import pushforward_psi

    mu = pushforward_psi(halfline_geometric(0.5))
    want, _ = integrate_scalar(mu, lambda t: np.where(t < 1.0, t / (t + 2.0 * (1.0 - t)), 1.0 / 3.0))
    assert float(report.value) == pytest.approx(want, abs=1e-9)


def test_node_table_masses_and_parts():
    m = UnitMeasure(
        atoms=((0.5, 0.3),), ac=lebesgue_density(0.5), sc=(cantor_ifs(), 0.2)
    )
    rows = node_table(m, n=64)
    by_part = {}
    for part, t, w in rows:
        by_part.setdefault(part, 0.0)
        by_part[part] += w
        assert 0.0 <= t <= 1.0
    assert by_part["atoms"] == 0.3
    assert by_part["gauss_legendre"] == pytest.approx(0.5, rel=1e-12)
    assert by_part["ifs_recursion:6"] == pytest.approx(0.2, rel=1e-12)


def test_node_table_respects_pinned_depth_and_size():
    rows = node_table(cantor_measure(), QuadratureSpec(scheme=("ifs_recursion", 3)), n=64)
    assert len(rows) == 8
    assert all(part == "ifs_recursion:3" for part, _, _ in rows)
    # logistic rule carries two exact tail nodes beyond the requested n
    rows = node_table(UnitMeasure(ac=logmean_density()), n=32)
    assert len(rows) == 34
    assert sum(w for _, _, w in rows) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        node_table(cantor_measure(), n=1)


def test_node_table_quadrature_agreement():
    m = UnitMeasure(ac=geometric_density(0.3))
    rows = node_table(m, n=48)
    h = lambda t: t / (1.0 + t)
    approx = sum(w * h(t) for _, t, w in rows)
    want, _ = integrate_scalar(m, h)
    assert approx == pytest.approx(want, abs=1e-10)


def test_tolerance_split_across_parts():
    # summed part error estimates stay within the requested budget
    m = UnitMeasure(
        atoms=((0.5, 0.3),), ac=lebesgue_density(0.5), sc=(cantor_ifs(), 0.2)
    )
    spec = QuadratureSpec(abs_tol=1e-8, rel_tol=1e-8)
    report = integrate_scalar_report(m, lambda t: np.exp(t), spec)
    bound = spec.abs_tol + spec.rel_tol * abs(report.value)
    assert report.error_estimate <= bound


def test_max_nodes_budget_respected():
    m = UnitMeasure(ac=geometric_density(0.5))
    with pytest.raises(QuadratureError):
        integrate_scalar(
            m,
            lambda t: np.cos(200.0 * t),
            QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_nodes=32),
        )


def test_legendre_panels_keep_their_preorder():
    # A pole at t = 0 fails the leftmost panel of every depth, while its
    # right sibling passes: one panel at depth 0 and two at each of depths
    # 1..12, 24 nodes each.  The error carries the leftmost failing
    # depth-12 panel's fine sum and difference, the ones a walk of the
    # tree in preorder meets first.
    from kubomeans.connections import _harmonic_scalar

    m = UnitMeasure(ac=lebesgue_density())
    with pytest.raises(QuadratureError) as err:
        integrate_scalar(m, lambda t: 1.0 / t)
    assert err.value.nodes_used == (1 + 2 * 12) * 24 == 600
    assert err.value.value == 6.7614579864579785
    assert err.value.error_estimate == 1.3257437007436916
    assert str(err.value) == (
        "gauss_legendre panels exceeded depth 12 on [0, 0.000244140625] "
        "(integrand too rough)"
    )
    # dual_log_mean's f(x) = int x / ((1-t)x + t) dt: f(2) settles on the
    # first panel, f(1e-3) after 19 panels
    for x, nodes in ((2.0, 24), (1e-3, 456)):
        fnode = lambda t, tc: _harmonic_scalar(np.array([x]), t, tc)
        assert integrate_measure(fnode, m).nodes_used == nodes


def _recursive_panels(fnode, term, spec):
    # reference: one node-function call per rule and panel, in recursion
    from kubomeans.quadrature import _metric, _reduce

    x8, w8 = legendre_rule(8)
    x16, w16 = legendre_rule(16)
    out = {"nodes": 0, "err": 0.0, "total": None}

    def panel_value(a, b, x, w):
        half = 0.5 * (b - a)
        t = a + half * (1.0 + x)
        tc = (1.0 - b) + half * (1.0 - x)
        return _reduce(fnode, t, tc, half * w * term.eval_pair(t, tc))

    def visit(a, b, depth):
        coarse = panel_value(a, b, x8, w8)
        fine = panel_value(a, b, x16, w16)
        out["nodes"] += 24
        diff = _metric(fine - coarse)
        if diff <= max((b - a) * spec.abs_tol, spec.rel_tol * _metric(fine)):
            total = out["total"]
            out["total"] = fine if total is None else total + fine
            out["err"] += diff
            return
        assert depth < 12
        mid = 0.5 * (a + b)
        visit(a, mid, depth + 1)
        visit(mid, b, depth + 1)

    visit(0.0, 1.0, 0)
    return out["total"], out["nodes"], out["err"]


def test_panel_batches_sum_like_one_call_per_rule():
    # Slicing the batch of a depth's panels gives the sums of separate 8-
    # and 16-node batches per panel, added in preorder, bit for bit, for
    # scalar, vector and matrix integrands.
    from kubomeans.connections import _harmonic_scalar, _pair_fnode
    from kubomeans.quadrature import _adaptive_panels
    from pencil import harmonic_fnode

    term = lebesgue_density().terms[0]
    a, b = (m @ m.T + 1e-3 * np.eye(3) for m in _rng(7).normal(size=(2, 3, 3)))
    xs = np.array([1e-3, 0.5, 2.0, 50.0])
    fnodes = [
        lambda t, tc: _harmonic_scalar(xs, t, tc),
        lambda t, tc: _harmonic_scalar(np.array([1e-3]), t, tc)[:, 0],
        _pair_fnode(np.array([0.001, 0.3, 0.999]), np.array([0.999, 0.7, 0.001])),
        harmonic_fnode(a, b),
    ]
    # 640 values per node fit one panel in a call; 4096 fit no panel, so
    # each rule of each panel is summed in calls of its own
    for width in (640, 4096):
        spread = np.linspace(1e-3, 1.0 - 1e-3, width)
        fnodes.append(_pair_fnode(spread, 1.0 - spread))
    for fnode in fnodes:
        value, nodes, err = _adaptive_panels(fnode, term, DEFAULT_SPEC)
        ref_value, ref_nodes, ref_err = _recursive_panels(fnode, term, DEFAULT_SPEC)
        assert nodes == ref_nodes > 24
        assert err == ref_err
        assert np.array_equal(value, ref_value)
        assert value.dtype == ref_value.dtype and np.shape(value) == np.shape(ref_value)


def test_panels_take_one_node_call_per_depth(monkeypatch):
    # dual_log_mean's (0, 0) term on a d = 16, cond-1e2 pair: every depth's
    # panels share one node-function call, so there are fewer calls than
    # panels and at most one per depth 0..12
    from kubomeans import connections, entry_from_id, evaluate_report, random_spd

    calls = []
    pair_fnode = connections._pair_fnode

    def counted(a, b):
        fnode = pair_fnode(a, b)

        def wrapped(t, tc):
            calls.append(len(t))
            return fnode(t, tc)

        wrapped.width = fnode.width
        return wrapped

    monkeypatch.setattr(connections, "_pair_fnode", counted)
    a, b = random_spd(16, 1e2, 1), random_spd(16, 1e2, 2)
    report = evaluate_report(entry_from_id("dual_log_mean").connection, a, b)
    ((scheme, nodes, _),) = report.parts
    assert scheme == "gauss_legendre" and sum(calls) == nodes
    assert len(calls) <= 13 and len(calls) < nodes // 24


def _capped_calls(fnode, declared):
    # the values every call returns; a declared width is copied onto the
    # wrapper, otherwise the drivers measure it
    sizes = []

    def wrapped(t, tc):
        out = fnode(t, tc)
        sizes.append(np.asarray(out).size)
        return out

    if declared:
        wrapped.width = fnode.width
    return wrapped, sizes


@pytest.mark.parametrize("declared", [True, False])
@pytest.mark.parametrize(
    "case", ["ifs_pinned", "ifs_adaptive", "logistic_4096", "legendre_panels"]
)
def test_node_calls_stay_within_the_value_cap(case, declared):
    # a 640-wide integrand (160 pairs at d = 4) gets at most _CALL_VALUES
    # values per node-function call, on every route that hands out many nodes
    from kubomeans.connections import _pair_fnode
    from kubomeans.quadrature import _CALL_VALUES

    a = np.linspace(1e-3, 1.0 - 1e-3, 640)
    fnode, sizes = _capped_calls(_pair_fnode(a, 1.0 - a), declared)
    if case == "ifs_pinned":
        pinned = QuadratureSpec(scheme=("ifs_recursion", 12))
        report = integrate_measure(fnode, cantor_measure(), pinned)
        assert report.nodes_used == 4096 + 1024
    elif case == "ifs_adaptive":
        report = integrate_measure(fnode, cantor_measure())
        assert report.nodes_used > _CALL_VALUES // 640
    elif case == "logistic_4096":
        # unreachable tolerance: the doubling runs through the 4096-node rule
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300)
        with pytest.raises(QuadratureError) as err:
            integrate_measure(fnode, UnitMeasure(ac=logmean_density()), spec)
        sizes_run = (64, 128, 256, 512, 1024, 2048, 4096)
        assert err.value.nodes_used == sum(n + 2 for n in sizes_run)
    else:
        report = integrate_measure(fnode, UnitMeasure(ac=lebesgue_density()))
        assert report.parts[0][0] == "gauss_legendre" and report.nodes_used > 24
    assert max(sizes) <= _CALL_VALUES == 2**14
    if case != "legendre_panels":  # 24 nodes of 640 values fit one call
        assert sum(sizes) > _CALL_VALUES


def test_panels_too_wide_for_one_call_sum_each_rule_apart():
    # 4096 values per node leave room for 4 nodes a call: each panel then
    # sums its 8- and 16-point rules in calls of their own, to the same value
    from kubomeans.connections import _pair_fnode
    from kubomeans.quadrature import _CALL_VALUES

    lebesgue = UnitMeasure(ac=lebesgue_density())
    a = np.linspace(1e-3, 1.0 - 1e-3, 4096)
    fnode, sizes = _capped_calls(_pair_fnode(a, 1.0 - a), True)
    wide = integrate_measure(fnode, lebesgue).value
    assert max(sizes) <= _CALL_VALUES
    for i in (0, 1000, 2048, 4095):
        one = integrate_measure(_pair_fnode(a[i : i + 1], 1.0 - a[i : i + 1]), lebesgue)
        assert abs(wide[i] - one.value[0]) <= 1e-10 * abs(one.value[0])
