"""Property tests: measure JSON round-trip, exact reflection, mass algebra,
and the catalog id parser's error contract.

Runs are derandomized so the tier-1 suite stays deterministic.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kubomeans.catalog import CatalogEntry, entry_from_id
from kubomeans.measures import (
    Density,
    IfsMeasure,
    UnitMeasure,
    add,
    cantor_ifs,
    geometric_density,
    lebesgue_density,
    logmean_density,
    measure_from_json,
    measure_to_json,
    pushforward_theta,
    scale,
    total_mass,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

unit = st.floats(0.0, 1.0)
weights = st.floats(1e-6, 10.0)
atoms = st.lists(st.tuples(unit, weights), max_size=5)


@st.composite
def density_terms(draw):
    weight = draw(weights)
    kind = draw(st.sampled_from(("lebesgue", "log_mean", "geometric")))
    if kind == "lebesgue":
        dens = lebesgue_density(weight)
    elif kind == "log_mean":
        dens = logmean_density(weight)
    else:
        dens = geometric_density(draw(st.floats(0.05, 0.95)), weight)
    term = dens.terms[0]
    return term.reflect() if draw(st.booleans()) else term


@st.composite
def ifs_parts(draw):
    if draw(st.booleans()):
        ifs = cantor_ifs()
    else:
        r1, r2 = draw(st.floats(0.05, 0.6)), draw(st.floats(0.05, 0.4))
        p = draw(st.floats(0.05, 0.95))
        ifs = IfsMeasure(maps=((r1, 0.0), (r2, 1.0 - r2)), probs=(p, 1.0 - p))
    return ifs, draw(weights)


@st.composite
def measures(draw, sc=None):
    terms = draw(st.lists(density_terms(), max_size=3))
    part = sc if sc is not None else draw(st.none() | ifs_parts())
    return UnitMeasure(
        atoms=tuple(draw(atoms)),
        ac=Density(tuple(terms)) if terms else None,
        sc=part,
    )


@PROPERTY
@given(measures())
def test_measure_json_round_trip(m):
    text = json.dumps(measure_to_json(m))
    back = measure_from_json(json.loads(text))
    assert back == m
    assert json.dumps(measure_to_json(back)) == text


@PROPERTY
@given(measures())
def test_pushforward_theta_is_an_involution(m):
    twice = pushforward_theta(pushforward_theta(m))
    assert twice == m
    assert twice.atom_pairs() == m.atom_pairs()


@PROPERTY
@given(measures(), st.floats(0.0, 8.0))
def test_scale_multiplies_total_mass(m, k):
    want = k * total_mass(m)
    assert total_mass(scale(m, k)) == pytest.approx(want, rel=1e-9, abs=1e-9)


@PROPERTY
@given(st.data())
def test_add_sums_total_mass(data):
    m1 = data.draw(measures())
    m2 = data.draw(measures(sc=m1.sc) if m1.sc is not None else measures())
    want = total_mass(m1) + total_mass(m2)
    assert total_mass(add(m1, m2)) == pytest.approx(want, rel=1e-9, abs=1e-9)


_NAMES = (
    "left_trivial", "right_trivial", "arithmetic", "harmonic", "geometric",
    "sum", "parallel_sum", "log_mean", "dual_log_mean", "dual_log",
    "finite_atomic", "atomic", "cantor_mean", "cantor",
)
_PARAM = st.text(alphabet="0123456789.,@-+eEnaif_: x", max_size=16)
_IDS = st.text(max_size=24) | st.builds(
    lambda name, param: f"{name}:{param}", st.sampled_from(_NAMES), _PARAM
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_IDS)
def test_entry_from_id_raises_only_value_error(ident):
    try:
        entry = entry_from_id(ident)
    except ValueError:
        return
    assert isinstance(entry, CatalogEntry)
