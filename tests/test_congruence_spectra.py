"""Two-sided congruence spectra against independent oracles.

Evaluation (``connections._congruence_basis``) and the density closed forms
(``catalog._congruence_closed``) both diagonalise A and B in one basis M and
take a_i and b_i as the two quadratic forms, so A sigma B =
M diag(a_i f(b_i / a_i)) M^T.  Two oracles check them here: the Kubo-Ando
lift A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2} in float64, which is accurate at
cond 1e2 but loses every digit at cond 1e10, and the same congruence with
A = L L^T computed by mpmath at 30 digits.
"""

import numpy as np
import pytest

from kubomeans import connections
from kubomeans.catalog import closed_form_eval, entry_from_id
from kubomeans.spd import random_spd

DENSITY_IDS = ("geometric:0.3", "log_mean", "dual_log_mean")


def _kubo_ando_lift(f, a, b):
    """A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2} for a strictly PD A."""
    lam, q = np.linalg.eigh(a)
    root = (q * np.sqrt(lam)) @ q.T
    inv_root = (q / np.sqrt(lam)) @ q.T
    inner = inv_root @ b @ inv_root
    mu, v = np.linalg.eigh(0.5 * (inner + inner.T))
    value = root @ ((v * f(np.maximum(mu, 0.0))) @ v.T) @ root
    return 0.5 * (value + value.T)


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("ident", DENSITY_IDS)
def test_closed_forms_match_the_kubo_ando_lift_at_moderate_condition(ident):
    f = entry_from_id(ident).closed_form_scalar
    for dim in (1, 3, 8):
        for key in range(5):
            a = random_spd(dim, 100.0, 2 * key).entries
            b = random_spd(dim, 100.0, 2 * key + 1).entries
            want = _kubo_ando_lift(f, a, b)
            got = closed_form_eval(ident, a, b).entries
            assert _rel(got, want) <= 1e-12, (ident, dim, key)


# ---------------------------------------------------------------------------
# 30-digit references


def _mp_scalars():
    mp = pytest.importorskip("mpmath")
    one = mp.mpf(1)
    return mp, {
        "geometric:0.3": lambda x: x ** mp.mpf("0.3"),
        "log_mean": lambda x: (x - 1) / mp.log(x) if x != 1 else one,
        "dual_log_mean": lambda x: x * mp.log(x) / (x - 1) if x != 1 else one,
    }


def _mp_reference(mp, f, a, b):
    """L V f(Lambda) V^T L^T with A = L L^T and L^{-1} B L^{-T} = V Lambda V^T."""
    with mp.workdps(30):
        lower = mp.cholesky(mp.matrix(a.tolist()))
        inv = lower**-1
        inner = inv * mp.matrix(b.tolist()) * inv.T
        lam, vecs = mp.eigsy((inner + inner.T) / 2)
        basis = lower * vecs
        value = basis * mp.diag([f(x) for x in lam]) * basis.T
        return np.array(value.tolist(), dtype=float)


def _probe_pairs(cond):
    for dim in (4, 8):
        for s in range(1, 7):
            yield random_spd(dim, cond, 2 * s), random_spd(dim, cond, 2 * s + 1)


@pytest.mark.parametrize("cond", [1e6, 1e10])
def test_density_closed_forms_hold_at_high_condition(cond):
    mp, scalars = _mp_scalars()
    for a, b in _probe_pairs(cond):
        for ident, f in scalars.items():
            want = _mp_reference(mp, f, a.entries, b.entries)
            got = closed_form_eval(ident, a, b).entries
            assert _rel(got, want) <= 1e-7, (ident, cond)


@pytest.mark.parametrize("cond", [1e6, 1e10])
def test_congruence_spectra_keep_both_inputs_relative_accuracy(cond):
    # exact g = a^0.7 b^0.3 (geometric:0.3) on the evaluation basis, lifted:
    # with b = 1 - a a small b kept only a's absolute accuracy (1.7e-8 here)
    mp, scalars = _mp_scalars()
    worst = 0.0
    for a, b in _probe_pairs(cond):
        want = _mp_reference(mp, scalars["geometric:0.3"], a.entries, b.entries)
        floors = connections._null_floors(a, b)
        ae, be, m = connections._congruence_basis(a.entries, b.entries, floors)
        got = connections._lift(m, ae**0.7 * be**0.3)
        worst = max(worst, _rel(got, want))
    assert worst <= 8e-9

