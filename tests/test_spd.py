"""Symmetric/SPD wrappers, spectral calculus, and matrix CSV I/O."""

import io

import numpy as np
import pytest

from kubomeans.errors import NotPsdError, ShapeError, SpectralDomainError
from kubomeans.spd import (
    SpdMatrix,
    SymMatrix,
    apply_spectral_function,
    congruence,
    load_matrix,
    loewner_leq,
    matrix_power,
    random_spd,
    save_matrix,
    spectral_norm,
)


def _rng(key):
    return np.random.Generator(np.random.Philox(key=key))


def test_sym_matrix_validates_shape():
    with pytest.raises(ShapeError):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        SymMatrix(np.zeros(4))


def test_sym_matrix_symmetrizes_roundoff():
    a = np.array([[1.0, 0.5 + 1e-16], [0.5, 2.0]])
    m = SymMatrix(a)
    assert np.array_equal(m.entries, m.entries.T)


def test_spd_rejects_indefinite():
    with pytest.raises(NotPsdError) as err:
        SpdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert err.value.min_eigenvalue < 0


def test_spd_accepts_boundary_psd():
    # exactly singular PSD passes the tolerance gate but is not strictly pd
    m = SpdMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert not m.is_strictly_pd
    assert random_spd(3, 10.0, 7).is_strictly_pd


def test_spectral_norm_matches_numpy():
    for key in range(5):
        g = _rng(key).normal(size=(4, 4))
        s = g + g.T
        assert spectral_norm(s) == pytest.approx(np.linalg.norm(s, 2), rel=1e-12)


def test_apply_spectral_function_sqrt_square_roundtrip():
    a = random_spd(5, 50.0, 11)
    back = apply_spectral_function(
        apply_spectral_function(a, np.sqrt), np.square
    )
    assert np.allclose(back.entries, a.entries, rtol=1e-12, atol=1e-12)


def test_apply_spectral_function_rejects_nonfinite():
    singular = SymMatrix(np.diag([1.0, 0.0]))
    with np.errstate(divide="ignore"):
        with pytest.raises(SpectralDomainError):
            apply_spectral_function(singular, np.log)


def test_matrix_power_endpoints_and_half():
    a = random_spd(4, 30.0, 3)
    assert np.allclose(matrix_power(a, 0.0).entries, np.eye(4))
    assert np.allclose(matrix_power(a, 1.0).entries, a.entries, rtol=1e-12)
    root = matrix_power(a, 0.5).entries
    assert np.allclose(root @ root, a.entries, rtol=1e-11, atol=1e-12)


def test_matrix_power_alpha_domain():
    a = random_spd(3, 10.0, 5)
    for alpha in (-0.1, 1.5, np.nan):
        with pytest.raises(ValueError):
            matrix_power(a, alpha)


def test_congruence_definition():
    # C is symmetric by contract, so C A C^T = C A C
    a = random_spd(4, 20.0, 13)
    g = _rng(21).normal(size=(4, 4))
    c = g + g.T
    got = congruence(c, a).entries
    want = c @ a.entries @ c
    assert np.allclose(got, 0.5 * (want + want.T), rtol=1e-13, atol=1e-13)


def test_loewner_leq_orders_bumps():
    a = random_spd(4, 40.0, 17).entries
    bump = random_spd(4, 5.0, 18).entries
    assert loewner_leq(a, a + bump)
    assert not loewner_leq(a + bump, a)
    assert loewner_leq(a, a)


def test_random_spd_determinism_and_conditioning():
    a = random_spd(6, 100.0, 42)
    b = random_spd(6, 100.0, 42)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, random_spd(6, 100.0, 43).entries)
    eigs = np.linalg.eigvalsh(a.entries)
    assert eigs.min() >= 100.0**-0.5 * (1 - 1e-12)
    assert eigs.max() <= 100.0**0.5 * (1 + 1e-12)


def test_save_load_roundtrip_bitwise(tmp_path):
    a = random_spd(5, 100.0, 23)
    path = tmp_path / "m.csv"
    save_matrix(path, a)
    back = load_matrix(path)
    assert np.array_equal(back.entries, a.entries)


def test_save_to_stream():
    buf = io.StringIO()
    save_matrix(buf, np.eye(2))
    assert buf.getvalue() == "1.0,0.0\n0.0,1.0\n"


def test_load_warns_on_asymmetry(tmp_path):
    path = tmp_path / "skew.csv"
    path.write_text("1.0,0.5\n0.0,1.0\n")
    with pytest.warns(UserWarning):
        m = load_matrix(path)
    assert np.allclose(m.entries, [[1.0, 0.25], [0.25, 1.0]])


def test_load_rejects_garbage(tmp_path):
    ragged = tmp_path / "bad.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ShapeError):
        load_matrix(ragged)
    nonsquare = tmp_path / "rect.csv"
    nonsquare.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    with pytest.raises(ShapeError):
        load_matrix(nonsquare)


def test_spd_validation_runs_one_eigensolve(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for dim in (2, 4, 16):
        a = random_spd(dim, 1e6, dim).entries
        calls.clear()
        m = SpdMatrix(a)
        assert calls == [(dim, dim)]
        eigs = eigvalsh(a)
        norm = float(np.max(np.abs(eigs)))
        assert m.min_eigenvalue == float(eigs[0])
        assert m.eig_floor == 1e-13 * norm
    calls.clear()
    with pytest.raises(NotPsdError) as err:
        SpdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert len(calls) == 1
    assert err.value.min_eigenvalue == -1.0
    assert err.value.tolerance == 1e-10 * (1.0 + 3.0)


def test_spectral_norm_of_spd_matrix_is_the_stored_norm(monkeypatch):
    # the norm validation computed, equal to an eigensolve of the entries
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    mats = [random_spd(dim, 1e4, 60 + dim) for dim in (1, 2, 7)]
    mats += [SpdMatrix(singular), SpdMatrix([[0.0]]), SpdMatrix(np.zeros((7, 7)))]
    expected = [spectral_norm(m.entries) for m in mats]

    def forbidden(*args, **kwargs):
        raise AssertionError("spectral_norm re-solved a validated matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    assert [spectral_norm(m) for m in mats] == expected
    assert expected[3] == 2.0 and expected[4] == 0.0
