"""Extended-precision references for the eval_edge inputs.

At condition number 1e10 the catalog's float64 closed forms lose about five
digits (a log_mean pair at d = 16 misses an mpmath reference by 6e-5 while
the quadrature value is within 1e-10), so the edge gate builds its own
references with mpmath at 30 digits:

* PD pairs: ``A sigma B = L V f(Lambda) V^T L^T`` with ``A = L L^T`` and
  ``L^{-1} B L^{-T} = V Lambda V^T``, f the catalog's closed-form scalar.
* A singular, B PD: the same formula for the transpose, ``B sigma^T A``
  with ``f^T(x) = x f(1/x)`` and ``f^T(0) = mu({1}) = 0`` for these entries.
  This is the limit from above that the paper takes for PSD inputs (M3).
* atom-only measures on any pair with a PD pencil: the exact sum of
  ``A !_t B = B ((1-t)B + tA)^{-1} A``.

Pairs with no closed form (cantor_mean, and densities on two singular
inputs) fall back to the order and norm bounds.

On the two rank-deficient classes kubomeans evaluates every id here through
its eps schedule (each of their measures charges (0, 1)), so a value is held
to the schedule's own acceptance rule (``workloads.schedule_check``); on the
PD classes to the relative ``VERIFY_TOL``.
"""

from __future__ import annotations

from functools import cached_property

import mpmath as mp
import numpy as np

import workloads as wl

MP_DIGITS = 30


def _mp(a: np.ndarray):
    return mp.matrix(a.tolist())


def _sym(h: np.ndarray) -> np.ndarray:
    return 0.5 * (h + h.T)


def _congruence_basis(p: np.ndarray, q: np.ndarray):
    """M = L V and Lambda for p = L L^T and L^{-1} q L^{-T} = V Lambda V^T."""
    with mp.workdps(MP_DIGITS):
        lower = mp.cholesky(_mp(p))
        inv = lower**-1
        c = inv * _mp(q) * inv.T
        c = (c + c.T) / 2
        lam, vecs = mp.eigsy(c)
        basis = lower * vecs
        return (
            np.array(basis.tolist(), dtype=float),
            np.array([float(x) for x in lam]),
        )


def _harmonic_mp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    with mp.workdps(MP_DIGITS):
        am, bm = _mp(a), _mp(b)
        pencil = (1 - mp.mpf(t)) * bm + mp.mpf(t) * am
        h = bm * (pencil**-1) * am
        return _sym(np.array(h.tolist(), dtype=float))


class EdgeReference:
    """References for every catalog id on one eval_edge input pair."""

    def __init__(self, a: np.ndarray, b: np.ndarray, cls: str):
        self.a, self.b, self.cls = a, b, cls
        self._harmonic: dict[float, np.ndarray] = {}

    @cached_property
    def _pd_basis(self):
        return _congruence_basis(self.a, self.b)

    @cached_property
    def _transposed_basis(self):
        return _congruence_basis(self.b, self.a)

    def _spectral(self, f) -> np.ndarray:
        if self.cls == "rankdef_A":
            basis, lam = self._transposed_basis
            lam = np.maximum(lam, 0.0)
            pos = lam > 0.0
            vals = np.zeros_like(lam)
            vals[pos] = lam[pos] * np.asarray(f(1.0 / lam[pos]), dtype=float)
        else:
            basis, lam = self._pd_basis
            vals = np.asarray(f(lam), dtype=float)
        return _sym((basis * vals) @ basis.T)

    def _atomic(self, atoms) -> np.ndarray:
        total = np.zeros_like(self.a)
        for t, w in atoms:
            if t not in self._harmonic:
                self._harmonic[t] = _harmonic_mp(self.a, self.b, t)
            total = total + w * self._harmonic[t]
        return total

    def _close_to(self, ident: str, ref: np.ndarray):
        if self.cls.startswith("rankdef"):
            return wl.schedule_check(ident, ref, self.a, self.b)
        return wl.closeness_check(ident, ref)

    def check_for(self, ident: str):
        atoms = wl.atoms_of(ident)
        if atoms is not None:
            return self._close_to(ident, self._atomic(atoms))
        entry = wl.catalog.entry_from_id(ident)
        f = entry.closed_form_scalar
        if f is None or self.cls == "rankdef_AB":
            return wl.bounds_check(ident, self.a, self.b, 1.0, wl.first_moment(ident))
        return self._close_to(ident, self._spectral(f))
