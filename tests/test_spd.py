"""Symmetric/SPD wrappers, spectral calculus, and matrix CSV I/O."""

import io

import numpy as np
import pytest

from kubomeans.errors import NotPsdError, ShapeError, SpectralDomainError
from kubomeans.spd import (
    SpdMatrix,
    SpdStack,
    SymMatrix,
    apply_spectral_function,
    congruence,
    load_matrix,
    loewner_leq,
    matrix_power,
    random_spd,
    random_spd_stack,
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


# ||A|| = 1 for both, so the acceptance bound is -1e-10 * (1 + 1) = -2e-10
_INSIDE = np.diag([1.0, -1.9e-10])
_OUTSIDE = np.diag([1.0, -2.1e-10])


def test_psd_tolerance_accepts_inside_and_rejects_outside():
    assert SpdMatrix(_INSIDE).min_eigenvalue == -1.9e-10
    with pytest.raises(NotPsdError) as err:
        SpdMatrix(_OUTSIDE)
    assert err.value.min_eigenvalue == -2.1e-10
    assert err.value.tolerance == pytest.approx(2e-10, rel=1e-15)
    assert err.value.index is None


def test_stack_applies_the_matrix_rule_and_names_the_failing_member():
    ok = random_spd(2, 10.0, 3).entries
    stack = SpdStack([ok, _INSIDE, ok])
    assert stack.min_eigenvalues[1] == -1.9e-10
    assert list(stack.strictly_pd) == [True, False, True]
    with pytest.raises(NotPsdError) as err:
        SpdStack([ok, _INSIDE, _OUTSIDE, ok])
    assert err.value.index == 2
    assert "stack member 2" in str(err.value)
    assert err.value.min_eigenvalue == -2.1e-10
    assert err.value.tolerance == pytest.approx(2e-10, rel=1e-15)


@pytest.mark.parametrize("dim", [1, 2, 7])
def test_stack_members_match_matrices_validated_alone(dim):
    mats = [random_spd(dim, 1e3, seed).entries for seed in range(5)]
    mats.append(np.zeros((dim, dim)))
    stack = SpdStack(np.array(mats))
    assert len(stack) == 6 and stack.entries.shape[1:] == (dim, dim)
    assert not stack.entries.flags.writeable
    for i, m in enumerate(mats):
        alone, member = SpdMatrix(m), stack[i]
        assert np.array_equal(member.entries, alone.entries)
        assert member.min_eigenvalue == alone.min_eigenvalue
        assert spectral_norm(member) == spectral_norm(alone) == stack.norms[i]
        assert member.eig_floor == alone.eig_floor
        assert member.is_strictly_pd == alone.is_strictly_pd == stack.strictly_pd[i]
    assert np.array_equal(spectral_norm(stack), stack.norms)
    assert np.array_equal(spectral_norm(stack.entries), stack.norms)


def test_stack_validates_shape_and_entries():
    with pytest.raises(ShapeError):
        SpdStack(np.eye(3))
    with pytest.raises(ShapeError):
        SpdStack(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError):
        SpdStack(np.zeros((0, 3, 3)))
    with pytest.raises(ValueError):
        SpdStack(np.full((1, 2, 2), np.nan))


def _reference_spd(dim, cond, seed):
    # the documented recipe, written out: dim log-uniform eigenvalues, then
    # the gauge-fixed QR factor of a dim x dim normal block, one Philox key
    rng = np.random.Generator(np.random.Philox(key=seed))
    lam = np.exp(rng.uniform(-0.5 * np.log(cond), 0.5 * np.log(cond), size=dim))
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    a = (q * lam) @ q.T
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("dim", [1, 2, 4, 7])
def test_random_spd_stack_draws_each_seed_as_alone(dim):
    seeds = [0, 5, 8 * 2**20 + 1, 2**40 + 3]
    stack = random_spd_stack(dim, 100.0, seeds)
    for i, seed in enumerate(seeds):
        assert np.array_equal(stack.entries[i], _reference_spd(dim, 100.0, seed))
        assert np.array_equal(random_spd(dim, 100.0, seed).entries, stack.entries[i])
