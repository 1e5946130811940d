"""Finite positive Borel measures on [0, 1] and on the extended half-line.

A measure is stored by parts: a finite atom list, an absolutely continuous
part (a density, possibly a sum of weighted catalog densities), and a
singular-continuous part realized as a self-similar measure of an iterated
function system of affine contractions.  The three parts drive three
different integration schemes downstream, so the decomposition is structural,
not inferred.

Reflection t -> 1 - t is kept exactly involutive: atoms, IFS maps and density
terms store their reflected coordinates at construction (1 - (1 - t) is not
float-exact for general t), so pushing forward twice returns a structurally
identical measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

__all__ = [
    "DensityTerm",
    "Density",
    "IfsMeasure",
    "UnitMeasure",
    "HalfLineDensity",
    "HalfLineMeasure",
    "dirac",
    "lebesgue_density",
    "geometric_density",
    "logmean_density",
    "cantor_ifs",
    "cantor_measure",
    "halfline_dirac",
    "halfline_geometric",
    "halfline_logmean",
    "add",
    "scale",
    "total_mass",
    "is_probability",
    "pushforward_theta",
    "pushforward_psi",
    "is_symmetric",
    "decompose_measure",
    "measure_to_json",
    "measure_from_json",
]

ATOM_MERGE_TOL = 1e-14
PROB_SUM_TOL = 1e-15

# 64 interior Chebyshev points used for structural density comparisons.
_CHEB64 = tuple(
    0.5 * (1.0 + math.cos((2 * k - 1) * math.pi / 128.0)) for k in range(1, 65)
)


# ---------------------------------------------------------------------------
# absolutely continuous part


@dataclass(frozen=True)
class DensityTerm:
    """One weighted density on (0, 1).

    ``fn(t, tc)`` evaluates the unreflected unit-mass density on arrays of
    interior points t and their complements tc = 1 - t, which the rules
    carry exactly where forming 1 - t would round.  ``exponents = (p, q)``
    describe the power envelope ``g ~ c * t**p`` near 0 and
    ``~ c * (1-t)**q`` near 1 (p, q finite and > -1), or None when no such
    envelope exists (the log-mean density decays like ``1/(t log^2 t)``).  The
    exponents alone pick the quadrature rule: (0, 0) gets Gauss-Legendre
    panels, any other envelope Gauss-Jacobi on those exponents, and no
    envelope the logistic rule for ``log_mean`` or tanh-sinh for any other
    term.  ``smooth`` is the residual phi with
    ``g = phi(t) * t**p * (1-t)**q`` when available; the Gauss-Jacobi driver
    prefers it to avoid endpoint cancellation.  ``unit_mass`` states the
    mass of the unweighted term when it is known: the term's mass is then
    ``weight * unit_mass`` (``quadrature.density_mass``), not an integral.
    ``reflected`` toggles evaluation at 1 - t; reflecting twice restores the
    original term exactly.

    Equality compares identity, weight, exponents and orientation; the
    callables are rebuilt by the JSON parser, so they do not participate.
    """

    ident: str | None
    weight: float
    fn: Callable = field(compare=False)
    exponents: tuple[float, float] | None
    smooth: Callable | None = field(default=None, compare=False)
    unit_mass: float | None = field(default=None, compare=False)
    reflected: bool = False

    def __post_init__(self):
        if self.weight < 0.0 or not math.isfinite(self.weight):
            raise ValueError(
                f"density weight {self.weight} must be finite and nonnegative"
            )
        if self.exponents is not None:
            p, q = self.exponents
            if not (math.isfinite(p) and math.isfinite(q)):
                raise ValueError(f"endpoint exponents {(p, q)} must be finite")
            if p <= -1.0 or q <= -1.0:
                raise ValueError("endpoint exponents must exceed -1 (integrability)")

    @property
    def effective_exponents(self) -> tuple[float, float] | None:
        if self.exponents is None:
            return None
        p, q = self.exponents
        return (q, p) if self.reflected else (p, q)

    def reflect(self) -> "DensityTerm":
        return replace(self, reflected=not self.reflected)

    def eval_pair(self, t: np.ndarray, tc: np.ndarray) -> np.ndarray:
        """Density values given both coordinates t and 1 - t."""
        x, y = (tc, t) if self.reflected else (t, tc)
        return self.weight * self.fn(x, y)

    def smooth_pair(self, t: np.ndarray, tc: np.ndarray) -> np.ndarray:
        """Weighted Jacobi residual phi at (t, 1-t), on the effective exponents."""
        x, y = (tc, t) if self.reflected else (t, tc)
        if self.smooth is not None:
            phi = self.smooth(x)
        else:
            p, q = self.exponents
            phi = self.fn(x, y) * x ** (-p) * y ** (-q)
        return self.weight * phi


@dataclass(frozen=True)
class Density:
    """Absolutely continuous part: a finite sum of weighted density terms."""

    terms: tuple[DensityTerm, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a density needs at least one term")
        terms = tuple(self.terms)
        for term in terms:
            if not isinstance(term, DensityTerm):
                raise TypeError(
                    f"Density takes DensityTerm items, got {type(term).__name__}"
                )
        object.__setattr__(self, "terms", terms)

    def eval(self, ts) -> np.ndarray:
        t = np.asarray(ts, dtype=float)
        tc = 1.0 - t
        out = np.zeros_like(t)
        for term in self.terms:
            out = out + term.eval_pair(t, tc)
        return out

    __call__ = eval


def lebesgue_density(weight: float = 1.0) -> Density:
    """Lebesgue measure on [0, 1]."""
    term = DensityTerm(
        ident="lebesgue",
        weight=weight,
        fn=lambda t, tc: np.ones_like(t),
        exponents=(0.0, 0.0),
        unit_mass=1.0,
    )
    return Density((term,))


def geometric_density(alpha: float, weight: float = 1.0) -> Density:
    """Density ``sin(a*pi)/pi * t**(a-1) * (1-t)**(-a)`` of the a-geometric mean.

    Unit mass by Euler's reflection formula B(a, 1-a) = pi / sin(a*pi).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("geometric density requires alpha in (0, 1)")
    c = math.sin(alpha * math.pi) / math.pi

    def fn(t, tc):
        return c * t ** (alpha - 1.0) * tc ** (-alpha)

    term = DensityTerm(
        ident=f"geometric:{alpha!r}",
        weight=weight,
        fn=fn,
        exponents=(alpha - 1.0, -alpha),
        smooth=lambda t: np.full_like(t, c),
        unit_mass=1.0,
    )
    return Density((term,))


def logmean_density(weight: float = 1.0) -> Density:
    """Density ``1 / (t (1-t) (pi^2 + log^2(t/(1-t))))`` of the logarithmic mean.

    No power envelope with exponents > -1 exists (the decay carries a log^2
    factor), so the exponents are None and the logistic substitution
    u = log(t/(1-t)) is the integration route.
    """

    def fn(t, tc):
        u = np.log(t / tc)
        return 1.0 / (t * tc * (math.pi**2 + u * u))

    term = DensityTerm(
        ident="log_mean",
        weight=weight,
        fn=fn,
        exponents=None,
        unit_mass=1.0,
    )
    return Density((term,))


# id -> (its number of parameters, the density from them and a weight)
_DENSITY_BUILDERS = {
    "lebesgue": (0, lambda params, w: lebesgue_density(w)),
    "log_mean": (0, lambda params, w: logmean_density(w)),
    "geometric": (1, lambda params, w: geometric_density(float(params[0]), w)),
}


def _density_from_ident(ident: str, weight: float) -> Density:
    name, _, rest = ident.partition(":")
    params = rest.split(",") if rest else []
    try:
        count, builder = _DENSITY_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown density id {ident!r}") from None
    if len(params) != count:
        raise ValueError(
            f"density id {ident!r}: {name} takes {count} parameter(s), "
            f"got {len(params)}"
        )
    return builder(params, weight)


# ---------------------------------------------------------------------------
# singular-continuous part


@dataclass(frozen=True)
class IfsMeasure:
    """Self-similar probability measure of affine contractions of [0, 1].

    ``maps`` holds (ratio, offset) pairs S_i(t) = r_i t + b_i with
    0 < r_i < 1, b_i >= 0 and r_i + b_i <= 1; ``probs`` are the mixture
    weights.  At least two maps must carry positive probability so the
    invariant measure is continuous.  Maps are stored sorted by (r, b) so a
    reflection-conjugated system compares equal when it coincides as a set.
    """

    maps: tuple[tuple[float, float], ...]
    probs: tuple[float, ...]
    maps_c: tuple[float, ...] = field(default=None, compare=False)  # type: ignore[assignment]

    def __post_init__(self):
        maps = tuple((float(r), float(b)) for r, b in self.maps)
        probs = tuple(float(p) for p in self.probs)
        if len(maps) != len(probs):
            raise ValueError("maps and probs must have equal length")
        if len(maps) < 2 or sum(p > 0.0 for p in probs) < 2:
            raise ValueError("need at least two maps with positive probability")
        for r, b in maps:
            if not 0.0 < r < 1.0:
                raise ValueError(f"contraction ratio {r} outside (0, 1)")
            if b < 0.0 or not math.isfinite(b) or r + b > 1.0 + 1e-12:
                raise ValueError(f"map t -> {r}*t + {b} does not send [0,1] into itself")
        for p in probs:
            if p < 0.0 or not math.isfinite(p):
                raise ValueError(f"probability {p} must be finite and nonnegative")
        if abs(sum(probs) - 1.0) > PROB_SUM_TOL:
            raise ValueError("probabilities must sum to 1")
        comp = self.maps_c
        if comp is None:
            comp = tuple(1.0 - r - b for r, b in maps)
        order = sorted(range(len(maps)), key=lambda i: maps[i])
        object.__setattr__(self, "maps", tuple(maps[i] for i in order))
        object.__setattr__(self, "probs", tuple(probs[i] for i in order))
        object.__setattr__(self, "maps_c", tuple(float(comp[i]) for i in order))

    def conjugate(self) -> "IfsMeasure":
        """Reflection conjugation: S -> Theta o S o Theta, offsets 1 - r - b."""
        maps = tuple((r, c) for (r, _), c in zip(self.maps, self.maps_c))
        comp = tuple(b for _, b in self.maps)
        return IfsMeasure(maps=maps, probs=self.probs, maps_c=comp)

    def moment(self, k: int) -> float:
        """k-th raw moment from the exact self-similarity recursion."""
        if k < 0:
            raise ValueError("moment order must be nonnegative")
        mom = [1.0]
        for n in range(1, k + 1):
            acc = 0.0
            shrink = 0.0
            for (r, b), p in zip(self.maps, self.probs):
                shrink += p * r**n
                for j in range(n):
                    acc += p * math.comb(n, j) * r**j * b ** (n - j) * mom[j]
            mom.append(acc / (1.0 - shrink))
        return mom[k]


def cantor_ifs() -> IfsMeasure:
    """The Cantor measure's IFS: t/3 and t/3 + (1 - 1/3), equal weights.

    The second offset is written 1 - 1/3 so reflection conjugation reproduces
    the map set float-exactly.
    """
    r = 1.0 / 3.0
    return IfsMeasure(maps=((r, 0.0), (r, 1.0 - r)), probs=(0.5, 0.5))


# ---------------------------------------------------------------------------
# unit-interval measures


@dataclass(frozen=True)
class UnitMeasure:
    """A finite positive Borel measure on [0, 1], stored by parts.

    atoms : tuple of (location, weight), sorted by location, coincident atoms
    merged by adding weights: an atom joins a group when both its location
    and its complement lie within 1e-14 of the group's first atom.
    ac : optional Density.  sc : optional (IfsMeasure, weight) pair.
    atom_arrays : the atoms as read-only float arrays (locations,
    complements, weights), built once here so that no integration
    against the measure builds them.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    ac: Density | None = None
    sc: tuple[IfsMeasure, float] | None = None
    atoms_c: tuple[float, ...] = field(default=None, compare=False, repr=False)  # type: ignore[assignment]
    atom_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        triples = []
        comp = self.atoms_c
        for i, (t, w) in enumerate(self.atoms):
            t, w = float(t), float(w)
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"atom location {t} outside [0, 1]")
            if w < 0.0 or not math.isfinite(w):
                raise ValueError(f"atom weight {w} must be finite and nonnegative")
            if w == 0.0:
                continue
            tc = float(comp[i]) if comp is not None else 1.0 - t
            triples.append((t, tc, w))
        triples.sort(key=lambda x: (x[0], x[1]))
        merged: list[list[float]] = []
        for t, tc, w in triples:
            # both coordinates must be close, so reflection merges alike
            if (
                merged
                and t - merged[-1][0] <= ATOM_MERGE_TOL
                and abs(tc - merged[-1][1]) <= ATOM_MERGE_TOL
            ):
                merged[-1][2] += w
            else:
                merged.append([t, tc, w])
        object.__setattr__(self, "atoms", tuple((t, w) for t, tc, w in merged))
        object.__setattr__(self, "atoms_c", tuple(tc for t, tc, w in merged))
        arrays = np.array(merged, dtype=float).reshape(-1, 3).T.copy()
        arrays.flags.writeable = False
        object.__setattr__(self, "atom_arrays", tuple(arrays))
        if self.ac is not None and not isinstance(self.ac, Density):
            raise TypeError("ac part must be a Density")
        if self.sc is not None:
            ifs, w = self.sc
            if not isinstance(ifs, IfsMeasure):
                raise TypeError("sc part must be (IfsMeasure, weight)")
            w = float(w)
            if w < 0.0 or not math.isfinite(w):
                raise ValueError(f"sc weight {w} must be finite and nonnegative")
            object.__setattr__(self, "sc", (ifs, w) if w > 0.0 else None)

    def __reduce__(self):
        # copies and unpickled measures rebuild their read-only atom_arrays
        return (UnitMeasure, (self.atoms, self.ac, self.sc, self.atoms_c))

    def atom_pairs(self) -> tuple[tuple[float, float, float], ...]:
        """Atoms as (location, complement location, weight) triples."""
        return tuple(
            (t, tc, w) for (t, w), tc in zip(self.atoms, self.atoms_c)
        )

    def atom_mass(self) -> float:
        return float(sum(w for _, w in self.atoms))

    def charges_interior(self) -> bool:
        """True when mass can sit strictly inside (0, 1)."""
        if self.ac is not None or self.sc is not None:
            return True
        return any(0.0 < t < 1.0 for t, _ in self.atoms)

    def is_zero(self) -> bool:
        return not self.atoms and self.ac is None and self.sc is None


def dirac(t: float, weight: float = 1.0) -> UnitMeasure:
    return UnitMeasure(atoms=((t, weight),))


def cantor_measure(weight: float = 1.0) -> UnitMeasure:
    return UnitMeasure(sc=(cantor_ifs(), weight))


def add(m1: UnitMeasure, m2: UnitMeasure) -> UnitMeasure:
    """Partwise sum of two measures.

    Coincident atoms merge; density term lists concatenate; singular parts
    must share the same IFS (weights then add), since a single sc slot is
    stored.
    """
    atoms = m1.atoms + m2.atoms
    atoms_c = m1.atoms_c + m2.atoms_c
    if m1.ac is None:
        ac = m2.ac
    elif m2.ac is None:
        ac = m1.ac
    else:
        ac = Density(m1.ac.terms + m2.ac.terms)
    if m1.sc is None:
        sc = m2.sc
    elif m2.sc is None:
        sc = m1.sc
    else:
        ifs1, w1 = m1.sc
        ifs2, w2 = m2.sc
        if ifs1 != ifs2:
            raise ValueError(
                "cannot add measures with structurally different singular parts"
            )
        sc = (ifs1, w1 + w2)
    return UnitMeasure(atoms=atoms, ac=ac, sc=sc, atoms_c=atoms_c)


def scale(m: UnitMeasure, k: float) -> UnitMeasure:
    """Scale all parts by k >= 0; k == 0 gives the zero measure."""
    if k < 0.0 or not math.isfinite(k):
        raise ValueError("scale factor must be finite and nonnegative")
    if k == 0.0:
        return UnitMeasure()
    atoms = tuple((t, w * k) for t, w in m.atoms)
    ac = None
    if m.ac is not None:
        ac = Density(tuple(replace(t, weight=t.weight * k) for t in m.ac.terms))
    sc = (m.sc[0], m.sc[1] * k) if m.sc is not None else None
    return UnitMeasure(atoms=atoms, ac=ac, sc=sc, atoms_c=m.atoms_c)


def total_mass(m: UnitMeasure, spec=None) -> float:
    """Total mass, part by part.

    Atom and IFS masses are structural sums.  The density part's mass is
    ``quadrature.density_mass``: structural for a term that states its
    ``unit_mass``, integrated by the term's rule otherwise.
    """
    mass = m.atom_mass()
    if m.sc is not None:
        mass += m.sc[1]
    if m.ac is not None:
        from . import quadrature

        mass += quadrature.density_mass(m.ac, spec)
    return mass


def is_probability(m: UnitMeasure, tol: float = 1e-10, spec=None) -> bool:
    return abs(total_mass(m, spec) - 1.0) <= tol


def pushforward_theta(m: UnitMeasure) -> UnitMeasure:
    """Image measure under Theta(t) = 1 - t; exactly involutive."""
    atoms = tuple((tc, w) for (t, w), tc in zip(m.atoms, m.atoms_c))
    atoms_c = tuple(t for t, _ in m.atoms)
    ac = Density(tuple(t.reflect() for t in m.ac.terms)) if m.ac is not None else None
    sc = (m.sc[0].conjugate(), m.sc[1]) if m.sc is not None else None
    return UnitMeasure(atoms=atoms, ac=ac, sc=sc, atoms_c=atoms_c)


def _atoms_match(
    a: tuple[tuple[float, float, float], ...],
    b: tuple[tuple[float, float, float], ...],
    tol: float,
) -> bool:
    if len(a) != len(b):
        return False
    for (t1, _, w1), (t2, _, w2) in zip(a, sorted(b)):
        if abs(t1 - t2) > max(tol, 1e-12) or abs(w1 - w2) > tol * (1.0 + abs(w1)):
            return False
    return True


def _ifs_close(i1: IfsMeasure, i2: IfsMeasure, tol: float) -> bool:
    if len(i1.maps) != len(i2.maps):
        return False
    for (r1, b1), p1, (r2, b2), p2 in zip(
        i1.maps, i1.probs, i2.maps, i2.probs
    ):
        if abs(r1 - r2) > tol or abs(b1 - b2) > tol or abs(p1 - p2) > tol:
            return False
    return True


def is_symmetric(m: UnitMeasure, tol: float = 1e-9) -> bool:
    """Structural comparison of the measure with its reflection.

    Atom multisets must match within tol; densities are compared on a fixed
    grid of 64 interior Chebyshev points within ``tol * (1 + |g|)``; IFS parts
    must be conjugation-equal within 1e-12.
    """
    refl = pushforward_theta(m)
    if not _atoms_match(m.atom_pairs(), refl.atom_pairs(), tol):
        return False
    if (m.ac is None) != (refl.ac is None):
        return False
    if m.ac is not None:
        t = np.array(_CHEB64)
        g1 = m.ac.eval(t)
        g2 = refl.ac.eval(t)
        if np.any(np.abs(g1 - g2) > tol * (1.0 + np.abs(g1))):
            return False
    if (m.sc is None) != (refl.sc is None):
        return False
    if m.sc is not None:
        if abs(m.sc[1] - refl.sc[1]) > tol * (1.0 + m.sc[1]):
            return False
        if not _ifs_close(m.sc[0], refl.sc[0], 1e-12):
            return False
    return True


def decompose_measure(m: UnitMeasure) -> tuple[UnitMeasure, UnitMeasure, UnitMeasure]:
    """Split into (absolutely continuous, singular continuous, discrete) parts."""
    m_ac = UnitMeasure(ac=m.ac) if m.ac is not None else UnitMeasure()
    m_sc = UnitMeasure(sc=m.sc) if m.sc is not None else UnitMeasure()
    m_sd = UnitMeasure(atoms=m.atoms, atoms_c=m.atoms_c)
    return m_ac, m_sc, m_sd


# ---------------------------------------------------------------------------
# extended half-line measures and the Psi pushforward


@dataclass(frozen=True)
class HalfLineDensity:
    """Density rho on (0, inf), integrated as its image under Psi on [0, 1].

    ``pow0``: rho ~ c * lambda**pow0 near 0 (pow0 > -1).  ``decay``: rho ~
    c * lambda**(-decay) at infinity (decay > 1 for finite mass).  Both None
    mark a density with no power envelope (the log-mean density decays like
    1/(lambda log^2 lambda)).  ``pushforward_ident`` names the unit-interval
    density this transforms into under Psi, when known; ``pushforward_psi``
    then takes that catalog density, and ``pullback`` otherwise.  pow0 and
    decay, when set, must be finite.
    """

    fn: Callable = field(compare=False)
    pow0: float | None = 0.0
    decay: float | None = 2.0
    pushforward_ident: str | None = None

    def __post_init__(self):
        if (self.pow0 is None) != (self.decay is None):
            raise ValueError("pow0 and decay must both be set or both be None")
        if self.pow0 is None:
            return
        if not (math.isfinite(self.pow0) and math.isfinite(self.decay)):
            raise ValueError(
                f"pow0 {self.pow0} and decay {self.decay} must be finite"
            )
        if self.pow0 <= -1.0:
            raise ValueError("pow0 must exceed -1 (integrability at 0)")
        if self.decay <= 1.0:
            raise ValueError("decay must exceed 1 (finite mass at infinity)")

    def pullback(self) -> DensityTerm:
        """The unit-interval term of rho under Psi.

        ``g(t) = rho(t/(1-t)) / (1-t)**2`` with envelope exponents
        (pow0, decay - 2), or none; the term carries ``pushforward_ident``,
        so the rule table treats it as it treats that catalog density.  The
        rules evaluate g from t and the exact 1 - t, which near t = 1 holds
        the digits that lambda = t/(1-t) needs.
        """
        rho = self.fn

        def g(t, tc):
            return rho(t / tc) / (tc * tc)

        exponents = None if self.pow0 is None else (self.pow0, self.decay - 2.0)
        return DensityTerm(
            ident=self.pushforward_ident, weight=1.0, fn=g, exponents=exponents
        )


@dataclass(frozen=True)
class HalfLineMeasure:
    """Finite positive measure on [0, inf]; math.inf marks the atom at infinity.

    ``atoms`` holds (lambda, weight) pairs and ``ac`` the density, which
    enters with weight 1: a weighted density is a rho scaled in its ``fn``.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    ac: HalfLineDensity | None = None

    def __post_init__(self):
        cleaned = []
        for lam, w in self.atoms:
            lam, w = float(lam), float(w)
            if lam < 0.0 or math.isnan(lam):
                raise ValueError(f"atom location {lam} outside [0, inf]")
            if w < 0.0 or not math.isfinite(w):
                raise ValueError("atom weight must be finite and nonnegative")
            if w > 0.0:
                cleaned.append((lam, w))
        cleaned.sort()
        object.__setattr__(self, "atoms", tuple(cleaned))


def halfline_dirac(lam: float, weight: float = 1.0) -> HalfLineMeasure:
    return HalfLineMeasure(atoms=((lam, weight),))


def halfline_geometric(alpha: float) -> HalfLineMeasure:
    """Representing measure of the alpha-geometric mean on [0, inf].

    Density ``sin(a*pi)/pi * lambda**(a-1) / (1 + lambda)``; pushes forward
    under Psi(lambda) = lambda/(1+lambda) to the unit-interval geometric
    density.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    c = math.sin(alpha * math.pi) / math.pi

    def fn(lam):
        return c * lam ** (alpha - 1.0) / (1.0 + lam)

    return HalfLineMeasure(
        ac=HalfLineDensity(
            fn=fn,
            pow0=alpha - 1.0,
            decay=2.0 - alpha,
            pushforward_ident=f"geometric:{alpha!r}",
        )
    )


def halfline_logmean() -> HalfLineMeasure:
    """Representing measure of the logarithmic mean: 1/(lambda (pi^2 + ln^2 lambda))."""

    def fn(lam):
        u = np.log(lam)
        return 1.0 / (lam * (math.pi**2 + u * u))

    return HalfLineMeasure(
        ac=HalfLineDensity(
            fn=fn,
            pow0=None,
            decay=None,
            pushforward_ident="log_mean",
        )
    )


def pushforward_psi(nu: HalfLineMeasure) -> UnitMeasure:
    """Image under Psi(lambda) = lambda / (lambda + 1), with Psi(inf) = 1.

    Atoms map to t = lambda/(1+lambda) (complement 1/(1+lambda) computed
    directly for accuracy); a density with a named pushforward maps to that
    catalog density, any other to its ``pullback``.
    """
    atoms = []
    atoms_c = []
    for lam, w in nu.atoms:
        if math.isinf(lam):
            atoms.append((1.0, w))
            atoms_c.append(0.0)
        else:
            atoms.append((lam / (1.0 + lam), w))
            atoms_c.append(1.0 / (1.0 + lam))
    ac = None
    if nu.ac is not None:
        if nu.ac.pushforward_ident is not None:
            ac = _density_from_ident(nu.ac.pushforward_ident, 1.0)
        else:
            ac = Density((nu.ac.pullback(),))
    return UnitMeasure(atoms=tuple(atoms), ac=ac, atoms_c=tuple(atoms_c))


# ---------------------------------------------------------------------------
# JSON serialization (shortest round-trip floats via json/repr)


def _term_to_json(term: DensityTerm) -> dict:
    if term.ident is None:
        raise ValueError("only catalog densities serialize (term has no id)")
    out = {"id": term.ident, "w": term.weight}
    if term.reflected:
        out["reflected"] = True
    return out


def measure_to_json(m: UnitMeasure) -> dict:
    """Measure as a JSON-ready dict: atoms sorted by location, parts by id."""
    obj: dict = {"atoms": [[t, w] for t, w in m.atoms]}
    if m.ac is None:
        obj["ac"] = None
    elif len(m.ac.terms) == 1:
        obj["ac"] = _term_to_json(m.ac.terms[0])
    else:
        obj["ac"] = {"terms": [_term_to_json(t) for t in m.ac.terms]}
    if m.sc is None:
        obj["sc"] = None
    else:
        ifs, w = m.sc
        entry = {
            "maps": [[r, b] for r, b in ifs.maps],
            "probs": list(ifs.probs),
            "weight": w,
        }
        if ifs == cantor_ifs():
            entry["id"] = "cantor"
        obj["sc"] = entry
    return obj


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string"}


def _json_kind(value, kind: type, what: str):
    """``value`` when it is of JSON type ``kind``; else a ValueError naming ``what``."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _json_entry(obj: dict, key: str, kind: type, where: str):
    """``obj[key]``, which ``where`` needs, of JSON type ``kind``."""
    if key not in obj:
        raise ValueError(f"{where}: missing entry {key!r}")
    return _json_kind(obj[key], kind, f"{where}: entry {key!r}")


def _term_from_json(obj: dict) -> tuple[DensityTerm, ...]:
    _json_kind(obj, dict, "density term")
    ident = _json_entry(obj, "id", str, "density term")
    dens = _density_from_ident(ident, float(obj.get("w", 1.0)))
    terms = dens.terms
    if obj.get("reflected"):
        terms = tuple(t.reflect() for t in terms)
    return terms


def measure_from_json(obj: dict) -> UnitMeasure:
    """Parse the dict form emitted by measure_to_json (tolerant on sc/ac shorthand).

    A missing or mistyped entry raises ValueError naming it.
    """
    _json_kind(obj, dict, "measure JSON")
    atoms = tuple((float(t), float(w)) for t, w in obj.get("atoms") or ())
    ac_obj = obj.get("ac")
    ac = None
    if ac_obj:
        if "terms" in _json_kind(ac_obj, dict, "ac part"):
            terms: tuple[DensityTerm, ...] = ()
            for t in _json_entry(ac_obj, "terms", list, "ac part"):
                terms = terms + _term_from_json(t)
        else:
            terms = _term_from_json(ac_obj)
        ac = Density(terms)
    sc_obj = obj.get("sc")
    sc = None
    if sc_obj:
        if "maps" in _json_kind(sc_obj, dict, "sc part"):
            maps = _json_entry(sc_obj, "maps", list, "sc part")
            probs = _json_entry(sc_obj, "probs", list, "sc part")
            ifs = IfsMeasure(
                maps=tuple((float(r), float(b)) for r, b in maps),
                probs=tuple(float(p) for p in probs),
            )
            sc = (ifs, float(sc_obj.get("weight", 1.0)))
        elif sc_obj.get("id") == "cantor":
            sc = (cantor_ifs(), float(sc_obj.get("w", sc_obj.get("weight", 1.0))))
        else:
            raise ValueError(f"unknown singular part {sc_obj!r}")
    return UnitMeasure(atoms=atoms, ac=ac, sc=sc)
