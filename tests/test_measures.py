"""Measure model: parts, algebra, reflection, pushforwards, JSON."""

import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from kubomeans.measures import (
    Density,
    DensityTerm,
    HalfLineDensity,
    HalfLineMeasure,
    IfsMeasure,
    UnitMeasure,
    add,
    cantor_ifs,
    cantor_measure,
    decompose_measure,
    dirac,
    geometric_density,
    halfline_dirac,
    halfline_geometric,
    halfline_logmean,
    is_probability,
    is_symmetric,
    lebesgue_density,
    logmean_density,
    measure_from_json,
    measure_to_json,
    pushforward_psi,
    pushforward_theta,
    scale,
    total_mass,
)
from kubomeans.quadrature import QuadratureSpec, density_mass, integrate_scalar


def test_atoms_sorted_merged_and_validated():
    m = UnitMeasure(atoms=((0.7, 0.1), (0.2, 0.3), (0.7, 0.2)))
    assert m.atoms == ((0.2, 0.3), (0.7, 0.30000000000000004))
    with pytest.raises(ValueError):
        UnitMeasure(atoms=((1.5, 0.1),))
    with pytest.raises(ValueError):
        UnitMeasure(atoms=((0.5, -0.1),))
    # zero-weight atoms vanish
    assert UnitMeasure(atoms=((0.5, 0.0),)).is_zero()


_THIRD = 1.0 / 3.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: lebesgue_density(v),
        lambda v: UnitMeasure(sc=(cantor_ifs(), v)),
        # three maps: two positive probabilities pass the continuity test
        lambda v: IfsMeasure(
            maps=((_THIRD, 0.0), (_THIRD, _THIRD), (_THIRD, 2.0 * _THIRD)),
            probs=(0.5, 0.5, v),
        ),
        lambda v: IfsMeasure(maps=((_THIRD, 0.0), (_THIRD, v)), probs=(0.5, 0.5)),
        lambda v: QuadratureSpec(abs_tol=v),
        lambda v: QuadratureSpec(rel_tol=v),
    ],
    ids=["density_weight", "sc_weight", "ifs_prob", "ifs_offset", "abs_tol", "rel_tol"],
)
def test_non_finite_weights_and_tolerances_are_rejected(build, bad):
    with pytest.raises(ValueError):
        build(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: DensityTerm(ident=None, weight=1.0, fn=lambda t, tc: t, exponents=(v, 0.0)),
        lambda v: DensityTerm(ident=None, weight=1.0, fn=lambda t, tc: t, exponents=(0.0, v)),
        lambda v: HalfLineDensity(fn=lambda lam: lam, pow0=v),
        lambda v: HalfLineDensity(fn=lambda lam: lam, decay=v),
    ],
    ids=["exponent_at_0", "exponent_at_1", "pow0", "decay"],
)
def test_non_finite_endpoint_exponents_are_rejected(build, bad):
    # they would pass the > -1 and > 1 tests and fail in the rule's eigensolve
    with pytest.raises(ValueError, match="finite"):
        build(bad)


def test_density_requires_terms():
    with pytest.raises(ValueError):
        Density(())
    with pytest.raises(TypeError):
        Density((lebesgue_density(),))  # a Density is not a DensityTerm


def test_density_term_reflect_is_involution():
    term = geometric_density(0.3).terms[0]
    assert term.reflect().reflect() == term
    ts = np.array([0.2, 0.5, 0.9])
    # reflected term evaluates the base density at 1 - t
    np.testing.assert_allclose(
        term.reflect().eval_pair(ts, 1.0 - ts), term.eval_pair(1.0 - ts, ts)
    )


def test_constructor_densities_have_unit_mass_tags():
    for dens in (lebesgue_density(), geometric_density(0.25), logmean_density()):
        assert all(t.unit_mass == 1.0 for t in dens.terms)
    assert lebesgue_density(0.5).terms[0].weight == 0.5


def test_geometric_density_closed_form_values():
    # g(t) = sin(pi a)/pi * t**(a-1) * (1-t)**(-a)
    alpha = 0.5
    dens = geometric_density(alpha)
    want = lambda t: math.sin(math.pi * alpha) / math.pi * t ** (alpha - 1) * (1 - t) ** (-alpha)
    for t in (0.1, 0.5, 0.8):
        assert dens(np.array([t]))[0] == pytest.approx(want(t), rel=1e-14)


def test_logmean_density_value_at_half():
    # 1/(t(1-t)(pi^2 + log^2(t/(1-t)))) at t = 1/2 is 4/pi^2
    dens = logmean_density()
    assert dens(np.array([0.5]))[0] == pytest.approx(4.0 / math.pi**2, rel=1e-14)


def test_ifs_validation_and_cantor():
    ifs = cantor_ifs()
    assert ifs.maps == ((1 / 3, 0.0), (1 / 3, 1 - 1 / 3))
    assert ifs.probs == (0.5, 0.5)
    with pytest.raises(ValueError):
        IfsMeasure(maps=((1.2, 0.0),), probs=(1.0,))
    with pytest.raises(ValueError):
        IfsMeasure(maps=((0.5, 0.0), (0.5, 0.5)), probs=(0.7, 0.7))


def test_add_and_scale_algebra():
    m = add(dirac(0.5, 0.3), scale(cantor_measure(), 0.2))
    m = add(m, UnitMeasure(ac=lebesgue_density(0.5)))
    assert m.atoms == ((0.5, 0.3),)
    assert m.sc[1] == 0.2
    assert total_mass(m) == pytest.approx(1.0, abs=1e-12)
    assert is_probability(m)
    doubled = scale(m, 2.0)
    assert total_mass(doubled) == pytest.approx(2.0, abs=1e-12)
    assert not is_probability(doubled)
    with pytest.raises(ValueError):
        scale(m, -1.0)


def test_scale_by_zero_gives_zero_measure():
    assert scale(dirac(0.3), 0.0).is_zero()


def test_pushforward_theta_reflects_every_part():
    m = UnitMeasure(
        atoms=((0.2, 0.4),),
        ac=geometric_density(0.3),
        sc=(cantor_ifs(), 0.5),
    )
    r = pushforward_theta(m)
    assert r.atoms == ((0.8, 0.4),)
    assert r.ac.terms[0].reflected
    assert pushforward_theta(r) == m
    # reflected IFS of the symmetric cantor system is the same system
    assert r.sc[0] == cantor_ifs()


def test_pushforward_theta_keeps_atoms_just_over_the_merge_tolerance():
    # 1 - t rounds, so the two complements land within 1e-14 of each other
    # although the locations do not; reflection must not merge them
    t1 = 0.100002
    t2 = t1 + 1e-14
    for _ in range(4):
        t2 = math.nextafter(t2, 1.0)
    m = UnitMeasure(atoms=((t1, 1.0), (t2, 1.0)))
    assert len(m.atoms) == 2
    r = pushforward_theta(m)
    assert len(r.atoms) == 2
    assert pushforward_theta(r) == m


def test_is_symmetric_flags():
    assert is_symmetric(dirac(0.5))
    assert is_symmetric(UnitMeasure(ac=logmean_density()))
    assert is_symmetric(cantor_measure())
    assert is_symmetric(UnitMeasure(atoms=((0.0, 0.5), (1.0, 0.5))))
    assert not is_symmetric(dirac(0.3))
    assert not is_symmetric(UnitMeasure(ac=geometric_density(0.3)))
    assert not is_symmetric(UnitMeasure(atoms=((0.0, 0.7), (1.0, 0.3))))


def test_decompose_measure_splits_parts():
    m = UnitMeasure(
        atoms=((0.5, 0.3),), ac=lebesgue_density(0.5), sc=(cantor_ifs(), 0.2)
    )
    ac, sc, sd = decompose_measure(m)
    assert ac == UnitMeasure(ac=lebesgue_density(0.5))
    assert sc == UnitMeasure(sc=(cantor_ifs(), 0.2))
    assert sd == UnitMeasure(atoms=((0.5, 0.3),))


def test_pushforward_psi_atoms():
    # Psi(lam) = lam/(lam+1): 0 -> 0, 1 -> 1/2, inf -> 1
    nu = HalfLineMeasure(atoms=((0.0, 0.25), (1.0, 0.5), (math.inf, 0.25)))
    mu = pushforward_psi(nu)
    assert mu.atoms == ((0.0, 0.25), (0.5, 0.5), (1.0, 0.25))


def test_pushforward_psi_halfline_constructors():
    assert pushforward_psi(halfline_dirac(1.0)) == dirac(0.5)
    geo = pushforward_psi(halfline_geometric(0.5))
    assert geo.ac is not None and geo.atoms == ()
    lm = pushforward_psi(halfline_logmean())
    assert lm == UnitMeasure(ac=logmean_density())


def test_halfline_density_envelope_validation():
    rho = lambda lam: (1.0 + lam) ** -2.0
    # the envelope is both exponents or neither
    with pytest.raises(ValueError):
        HalfLineDensity(fn=rho, pow0=None)
    with pytest.raises(ValueError):
        HalfLineDensity(fn=rho, decay=None)
    with pytest.raises(ValueError):
        HalfLineDensity(fn=rho, pow0=-1.0)
    with pytest.raises(ValueError):
        HalfLineDensity(fn=rho, decay=1.0)
    term = HalfLineDensity(fn=rho).pullback()
    assert term.ident is None and term.weight == 1.0 and term.exponents == (0.0, 0.0)
    t = np.array([0.1, 0.5, 0.9])
    np.testing.assert_allclose(term.fn(t, 1.0 - t), 1.0, rtol=1e-14)
    # with no envelope and no named pushforward the pullback goes to tanh-sinh
    bare = HalfLineDensity(fn=rho, pow0=None, decay=None)
    assert bare.pullback().exponents is None
    assert density_mass(Density((bare.pullback(),))) == pytest.approx(1.0, abs=1e-12)
    assert halfline_logmean().ac.pullback() == logmean_density().terms[0]


def test_json_roundtrip_catalog_measures():
    cases = [
        dirac(0.5, 0.5),
        UnitMeasure(ac=logmean_density()),
        UnitMeasure(ac=geometric_density(0.3)),
        pushforward_theta(UnitMeasure(ac=geometric_density(0.3))),
        UnitMeasure(
            atoms=((0.5, 0.3),), ac=lebesgue_density(0.5), sc=(cantor_ifs(), 0.2)
        ),
        UnitMeasure(atoms=((0.0, 1.0), (1.0, 1.0))),
    ]
    for m in cases:
        text = json.dumps(measure_to_json(m))
        assert measure_from_json(json.loads(text)) == m


def test_atom_arrays_are_read_only_and_follow_the_atoms():
    m = UnitMeasure(
        atoms=((0.7, 0.5), (0.0, 0.25), (1.0, 0.125), (0.1, 0.0)),
        ac=lebesgue_density(0.5),
    )
    cases = [
        m,
        pushforward_theta(m),
        measure_from_json(json.loads(json.dumps(measure_to_json(m)))),
        dataclasses.replace(m, ac=None, sc=(cantor_ifs(), 0.5)),
        UnitMeasure(),
    ]
    for case in cases:
        arrays = case.atom_arrays
        assert len(arrays) == 3
        for a in arrays:
            assert a.dtype == float and not a.flags.writeable
        assert tuple(zip(*(a.tolist() for a in arrays))) == case.atom_pairs()
    with pytest.raises(ValueError):
        m.atom_arrays[2][0] = 1.0


def test_copied_measures_keep_read_only_atom_arrays():
    # an integration that weights its node values in place must never reach
    # a copy's atom locations
    m = UnitMeasure(atoms=((0.7, 0.5), (0.0, 0.25), (1.0, 0.125)), sc=(cantor_ifs(), 0.5))
    first = integrate_scalar(m, lambda t: t)
    for case in (copy.deepcopy(m), copy.copy(m), pickle.loads(pickle.dumps(m))):
        assert case == m and case.atom_pairs() == m.atom_pairs()
        assert not any(a.flags.writeable for a in case.atom_arrays)
        assert integrate_scalar(case, lambda t: t) == first
        assert integrate_scalar(case, lambda t: t) == first
        assert case.atom_pairs() == m.atom_pairs()


_LAMBDAS = (0.0, 1e-20, 1.0, 1e20, math.inf)


def _atom_producers():
    m = UnitMeasure(atoms=((0.0, 0.25), (0.3, 0.5), (0.7, 0.125)), ac=lebesgue_density(0.5))
    out = [m, pushforward_theta(m), add(m, pushforward_theta(m)), scale(m, 0.3)]
    out += list(decompose_measure(m))
    for lam in _LAMBDAS:
        nu = pushforward_psi(halfline_dirac(lam, 0.5))
        out += [nu, pushforward_theta(nu), add(nu, m), scale(nu, 2.0)]
    return out


def test_replaced_atoms_need_their_own_complements():
    m = UnitMeasure(atoms=((0.0, 0.25), (0.7, 0.5)))
    # the old complements do not fit the new atoms: a count or a value off
    for atoms in (((0.3, 1.0),), ((0.1, 1.0), (0.2, 1.0), (0.3, 1.0)), ((0.0, 1.0), (0.6, 1.0))):
        with pytest.raises(ValueError, match="atoms_c=None"):
            dataclasses.replace(m, atoms=atoms)
    fresh = dataclasses.replace(m, atoms=((0.3, 1.0),), atoms_c=None)
    assert fresh.atom_pairs() == ((0.3, 0.7, 1.0),)
    for case in _atom_producers():
        for copied in (copy.deepcopy(case), pickle.loads(pickle.dumps(case))):
            assert copied.atom_pairs() == case.atom_pairs()
        assert dataclasses.replace(case).atom_pairs() == case.atom_pairs()


def test_replaced_ifs_maps_need_their_own_complements():
    ifs = IfsMeasure(maps=((0.5, 0.0), (0.25, 0.5)), probs=(0.5, 0.5))
    with pytest.raises(ValueError, match="maps_c=None"):
        dataclasses.replace(ifs, maps=((0.5, 0.5), (0.25, 0.0)))
    with pytest.raises(ValueError, match="maps_c=None"):
        dataclasses.replace(
            ifs, maps=((0.5, 0.5), (0.25, 0.0), (0.1, 0.0)), probs=(0.25, 0.25, 0.5)
        )
    fresh = dataclasses.replace(ifs, maps=((0.5, 0.5), (0.25, 0.0)), maps_c=None)
    assert fresh.maps_c == (0.75, 0.0)
    for case in (ifs, cantor_ifs(), fresh):
        twice = case.conjugate().conjugate()
        assert twice == case and twice.maps_c == case.maps_c
        for copied in (copy.deepcopy(case), pickle.loads(pickle.dumps(case))):
            assert copied == case and copied.maps_c == case.maps_c
        assert dataclasses.replace(case).maps_c == case.maps_c


def test_density_measures_pickle_with_their_values():
    from kubomeans.catalog import catalog
    from kubomeans.connections import RepFunction

    def round_trip(obj):
        return pickle.loads(pickle.dumps(obj))

    x = np.array([1e-3, 0.25, 1.0, 4.0, 1e3])
    cases = [(e.connection.measure,) * 2 for e in catalog()]
    for nu in (halfline_geometric(0.3), halfline_logmean()):
        cases.append((pushforward_psi(nu), pushforward_psi(round_trip(nu))))
        cases.append((UnitMeasure(ac=Density((nu.ac.pullback(),))),) * 2)
    for m, source in cases:
        again = round_trip(source)
        assert again == m
        want = RepFunction(m)(x)
        assert np.array_equal(RepFunction(again)(x).view(np.uint64), want.view(np.uint64))


def test_json_rejects_unknown_parts():
    with pytest.raises(ValueError):
        measure_from_json({"ac": {"id": "nosuch", "w": 1.0}})
    with pytest.raises(ValueError):
        measure_from_json({"sc": {"id": "sierpinski", "w": 1.0}})


@pytest.mark.parametrize(
    "ident", ["geometric", "geometric:", "geometric:0.3,7", "geometric:0.3,",
              "lebesgue:5", "log_mean:0.5"]
)
def test_json_density_ids_take_their_parameter_count(ident):
    # no parameter may be missing, and none dropped (which would read the
    # measure back under another id)
    with pytest.raises(ValueError, match="parameter") as info:
        measure_from_json({"ac": {"id": ident}})
    assert repr(ident) in str(info.value)


@pytest.mark.parametrize(
    "nu", [halfline_geometric(0.3), halfline_geometric(0.5), halfline_geometric(0.9),
           halfline_logmean()],
    ids=lambda nu: nu.ac.pushforward_ident,
)
def test_named_halfline_pullback_is_its_catalog_density(nu):
    # pushforward_psi sends a named half-line density to the catalog density
    # its pushforward_ident names instead of to its pullback: the two agree
    t = np.linspace(0.001, 0.999, 999)
    got = nu.ac.pullback().fn(t, 1.0 - t)
    (term,) = measure_from_json({"ac": {"id": nu.ac.pushforward_ident}}).ac.terms
    want = term.fn(t, 1.0 - t)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    assert pushforward_psi(nu).ac.terms == (term,)


def test_json_refuses_anonymous_density():
    anon = DensityTerm(
        ident=None,
        weight=1.0,
        fn=lambda t, tc: np.ones_like(t),
        exponents=(0.0, 0.0),
    )
    with pytest.raises(ValueError):
        measure_to_json(UnitMeasure(ac=Density((anon,))))


def test_charges_interior():
    assert dirac(0.5).charges_interior()
    assert not UnitMeasure(atoms=((0.0, 1.0), (1.0, 2.0))).charges_interior()
    assert UnitMeasure(ac=lebesgue_density()).charges_interior()
    assert cantor_measure().charges_interior()
