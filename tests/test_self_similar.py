"""Self-similar parts: adaptive cylinder refinement against a certified oracle.

The kernels t -> a !_t b and t -> 1 !_t x are 1 / (a linear function of t),
hence convex on every cylinder S_w([0, 1]).  On a cylinder of mass p_w whose
normalized measure has mean S_w(m1), Jensen gives p_w k(S_w(m1)) from below
and the chord through the cylinder's ends gives
p_w ((1 - m1) k(left_w) + m1 k(right_w)) from above.  Summing both over a
partition into cylinders encloses the integral; splitting the cylinders with
the widest gaps narrows the enclosure.  The oracle below builds its
cylinders from the maps alone and shares no code with the quadrature.
"""

import math

import numpy as np
import pytest

import kubomeans.quadrature as quadrature
from kubomeans.catalog import entry_from_id
from kubomeans.connections import evaluate_report, representing_function
from kubomeans.errors import IfsBudgetError
from kubomeans.measures import IfsMeasure, UnitMeasure, cantor_measure
from kubomeans.quadrature import (
    DEFAULT_SPEC,
    IFS_ATOM_BUDGET,
    QuadratureSpec,
    ifs_nodes,
    integrate_measure,
    integrate_scalar_report,
)

CANTOR_MAPS = ((1.0 / 3.0, 0.0), (1.0 / 3.0, 1.0 - 1.0 / 3.0))
CANTOR_PROBS = (0.5, 0.5)


def convexity_enclosure(kernel, maps, probs, width):
    """(lo, hi) around int kernel dmu of the IFS, with hi - lo <= width(lo).

    ``kernel(t, tc)`` must be convex in t on [0, 1]; tc = 1 - t is passed
    from each cylinder's own complement offset so it stays exact at t = 1.
    """
    rs = np.array([r for r, _ in maps])
    bs = np.array([b for _, b in maps])
    cs = 1.0 - rs - bs
    ps = np.array(probs)
    # m1 = sum_i p_i (r_i m1 + b_i)
    m1 = float(ps @ bs / (1.0 - ps @ rs))

    def bounds(r, b, c, p):
        jensen = kernel(b + r * m1, c + r * (1.0 - m1))
        chord = (1.0 - m1) * kernel(b, c + r) + m1 * kernel(b + r, c)
        return p * jensen, p * chord

    cyl = [np.array([v]) for v in (1.0, 0.0, 0.0, 1.0)]
    lo_w, hi_w = bounds(*cyl)
    for _ in range(500):
        lo, hi = float(lo_w.sum()), float(hi_w.sum())
        if hi - lo <= width(lo):
            return lo, hi
        gap = hi_w - lo_w
        split = gap >= gap.mean()
        r, b, c, p = (a[split] for a in cyl)
        kids = [
            np.multiply.outer(rs, r).ravel(),
            (b + np.multiply.outer(bs, r)).ravel(),
            (c + np.multiply.outer(cs, r)).ravel(),
            np.multiply.outer(ps, p).ravel(),
        ]
        kid_lo, kid_hi = bounds(*kids)
        cyl = [np.concatenate((a[~split], k)) for a, k in zip(cyl, kids)]
        lo_w = np.concatenate((lo_w[~split], kid_lo))
        hi_w = np.concatenate((hi_w[~split], kid_hi))
    raise AssertionError("enclosure did not narrow")


def _tol(value, spec=DEFAULT_SPEC):
    return max(spec.abs_tol, spec.rel_tol * abs(value))


def _cantor():
    return entry_from_id("cantor_mean").connection


def _level(report) -> int:
    (label, nodes, err), = report.parts
    assert (nodes, err) == (report.nodes_used, report.error_estimate)
    scheme, _, level = label.partition(":")
    assert scheme == "ifs_adaptive"
    return int(level)


def test_pair_next_to_an_endpoint_pole_lies_in_the_enclosure():
    a, b = 1e-10, 1.0
    lo, hi = convexity_enclosure(
        lambda t, tc: a * b / (tc * b + t * a), CANTOR_MAPS, CANTOR_PROBS, _tol
    )
    assert 8.674e-7 < lo < hi < 8.676e-7
    value = float(evaluate_report(_cantor(), [[a]], [[b]]).value.entries[0, 0])
    tol = _tol(value)
    assert lo - tol <= value <= hi + tol


@pytest.mark.parametrize("x", [1e-8, 1e-4, 2.0, 1e4, 1e8])
def test_representing_function_lies_in_the_enclosure(x):
    lo, hi = convexity_enclosure(
        lambda t, tc: x / (tc * x + t), CANTOR_MAPS, CANTOR_PROBS, _tol
    )
    value = representing_function(_cantor()).eval(x)
    tol = _tol(value)
    assert lo - tol <= value <= hi + tol


def test_asymmetric_system_and_its_reflection_lie_in_the_enclosure():
    # unequal ratios and masses: the barycentre m1 is not 1/2, and the
    # complement offsets are composed separately from the locations
    maps, probs, weight = ((0.25, 0.0), (0.5, 0.5)), (0.3, 0.7), 0.8
    mu = UnitMeasure(sc=(IfsMeasure(maps, probs), weight))
    kernel = lambda t, tc: 1.0 / (tc + 1e-3)
    lo, hi = convexity_enclosure(kernel, maps, probs, lambda v: _tol(v) / weight)
    value = float(integrate_measure(kernel, mu).value)
    tol = _tol(value)
    assert weight * lo - tol <= value <= weight * hi + tol
    # the reflected measure integrates the reflected kernel to the same value
    reflected = UnitMeasure(sc=(mu.sc[0].conjugate(), weight))
    mirror = integrate_measure(lambda t, tc: kernel(tc, t), reflected)
    assert float(mirror.value) == pytest.approx(value, rel=1e-9)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_oscillation_matching_at_coarse_nodes_is_refined(k):
    # cos(2 pi 3^k t) takes the value -1 at the barycentres of every cylinder
    # down to depth k, so children agree with their parent there.  Its
    # integral is Re mu^(3^k) = -prod_{j>=1} cos(2 pi / 3^j) for every k >= 1
    h = lambda t: np.cos(2.0 * np.pi * 3**k * t)
    exact = -math.prod(math.cos(2.0 * math.pi / 3**j) for j in range(1, 60))
    report = integrate_scalar_report(cantor_measure(), h)
    assert report.value == pytest.approx(exact, abs=_tol(exact))
    assert abs(report.value - exact) <= 10.0 * report.error_estimate


def test_polynomial_vanishing_at_coarse_nodes_is_refined():
    # zero at 1/2, 1/6 and 5/6; the Cantor measure's central moments are
    # E (t - 1/2)^2 = 1/8 and E (t - 1/2)^4 = 3 (1/8)^2 - 2 (1/80) = 7/320
    h = lambda t: ((t - 0.5) ** 2 - 1.0 / 9.0) * (t - 0.5) ** 2
    exact = 7.0 / 320.0 - 1.0 / 72.0
    report = integrate_scalar_report(cantor_measure(), h)
    assert report.value == pytest.approx(exact, abs=_tol(exact))


def test_refinement_goes_deeper_next_to_a_pole():
    near_pole = evaluate_report(_cantor(), [[1e-10]], [[1.0]])
    smooth = evaluate_report(_cantor(), [[1.0]], [[2.0]])  # f(2)
    assert _level(near_pole) > _level(smooth)
    assert near_pole.nodes_used > smooth.nodes_used


def test_unreachable_tolerance_raises_a_budget_error():
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300)
    with pytest.raises(IfsBudgetError) as err:
        evaluate_report(_cantor(), [[1e-10]], [[1.0]], spec)
    assert 0 < err.value.nodes_used <= IFS_ATOM_BUDGET
    assert math.isfinite(err.value.value)


@pytest.mark.parametrize(
    "limit", [("IFS_ATOM_BUDGET", 4096), ("IFS_FRONTIER_BYTES", 2048)]
)
def test_refinement_stops_before_its_budget(monkeypatch, limit):
    # at the default spec the pole pair needs 17311 evaluations, up to 2048
    # of them in one level
    name, value = limit
    monkeypatch.setattr(quadrature, name, value)
    with pytest.raises(IfsBudgetError) as err:
        evaluate_report(_cantor(), [[1e-10]], [[1.0]])
    assert 0 < err.value.nodes_used <= min(quadrature.IFS_ATOM_BUDGET, 17311)
    assert math.isfinite(err.value.value) and err.value.error_estimate > 0.0


def test_pinned_depth_is_the_exact_uniform_sum():
    h = lambda t: t / (0.5 + t)
    report = integrate_scalar_report(
        cantor_measure(), h, QuadratureSpec(scheme=("ifs_recursion", 12))
    )
    t, _tc, w = ifs_nodes(cantor_measure().sc[0], 12)
    assert report.parts[0][:2] == ("ifs_recursion:12", 2**12 + 2**10)
    assert report.value == float(np.sum(w * h(t)))
