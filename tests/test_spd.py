"""Symmetric/SPD wrappers, their validation, and matrix CSV I/O."""

import io
import sys
import threading

import numpy as np
import pytest

from kubomeans.errors import NotPsdError, ShapeError
from kubomeans.spd import (
    CERTIFY_MIN_DIM,
    SpdMatrix,
    SpdStack,
    SymMatrix,
    _certified_pd,
    _keyed_generators,
    as_entries,
    congruence,
    load_matrix,
    loewner_leq,
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
    # one eigvalsh per matrix: at construction below CERTIFY_MIN_DIM, and
    # from it up on the first read of a spectral fact, since a shifted
    # Cholesky certifies the strict-PD verdict at construction
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for dim in (2, 4, CERTIFY_MIN_DIM - 1, CERTIFY_MIN_DIM, 16, 64):
        a = random_spd(dim, 1e6, dim).entries
        calls.clear()
        m = SpdMatrix(a)
        eager = [(dim, dim)] if dim < CERTIFY_MIN_DIM else []
        assert calls == eager
        assert m.is_strictly_pd is True
        assert calls == eager
        eigs = eigvalsh(a)
        norm = float(np.max(np.abs(eigs)))
        assert m.min_eigenvalue == float(eigs[0])
        assert m.eig_floor == 1e-13 * norm
        assert spectral_norm(m) == norm
        assert calls == [(dim, dim)]
    for bad in (np.array([[1.0, 2.0], [2.0, 1.0]]), _not_psd(16, 30)):
        calls.clear()
        with pytest.raises(NotPsdError):
            SpdMatrix(bad)
        assert calls == [bad.shape]
    with pytest.raises(NotPsdError) as err:
        SpdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
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
    seeds = [0, 5, 8 * 2**20 + 1, 2**40 + 3, 2**64 - 1, 2**64, 2**100 + 3, 2**128 - 1]
    stack = random_spd_stack(dim, 100.0, seeds)
    for i, seed in enumerate(seeds):
        assert np.array_equal(stack.entries[i], _reference_spd(dim, 100.0, seed))
        assert np.array_equal(random_spd(dim, 100.0, seed).entries, stack.entries[i])


def _draw_mix(rng):
    # the doubles leave buffer_pos mid-block, and three uint32 draws take
    # two 64-bit words and leave half of the second buffered (has_uint32)
    return (
        rng.uniform(-1.0, 1.0, size=5),
        rng.normal(size=7),
        rng.integers(0, 2**32, size=3, dtype=np.uint32),
    )


def test_keyed_generators_draw_as_fresh_generators():
    keys = [0, 5, 2**64 - 1, 2**64, 2**100 + 3, 2**128 - 1, 5, 5]
    seen = []
    for key, rng in zip(keys, _keyed_generators(keys)):
        seen.append(rng)
        got, want = _draw_mix(rng), _draw_mix(_rng(key))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), key
    assert all(rng is seen[0] for rng in seen)
    for bad in (-1, 2**128):
        with pytest.raises(ValueError, match="Philox key"):
            next(_keyed_generators([bad]))


def _not_psd(dim, key):
    a = random_spd(dim, 10.0, key).entries
    u = _rng(key).normal(size=dim)
    u /= np.linalg.norm(u)
    return a - 2.0 * spectral_norm(a) * np.outer(u, u)


def _error(call):
    with pytest.raises(NotPsdError) as err:
        call()
    return err.value.min_eigenvalue, err.value.tolerance, err.value.index


@pytest.mark.parametrize("dim", [1, 2, 7])
def test_a_built_matrix_raises_on_first_read_as_eager_validation(dim):
    bad = _not_psd(dim, 31)
    eager = _error(lambda: SpdMatrix(bad))
    reads = (
        lambda m: m.min_eigenvalue,
        lambda m: m.is_strictly_pd,
        lambda m: m.eig_floor,
        spectral_norm,
    )
    for read in reads:
        built = SpdMatrix._built(bad)  # no eigensolve, so no error yet
        assert _error(lambda: read(built)) == eager
        assert _error(lambda: read(built)) == eager  # and again on a second read
    stack = np.array([random_spd(dim, 10.0, 32).entries, bad])
    eager = _error(lambda: SpdStack(stack))
    assert eager[2] == 1
    for name in ("min_eigenvalues", "norms", "eig_floors", "strictly_pd"):
        built = SpdStack._built(stack)
        assert _error(lambda: getattr(built, name)) == eager
    assert _error(lambda: SpdStack._built(stack)[0]) == eager


@pytest.mark.parametrize("dim", [1, 2, 7])
def test_a_built_matrix_stores_and_measures_as_an_eager_one(dim):
    a = random_spd(dim, 1e6, 33).entries.copy()
    a[0, -1] += 1e-9  # asymmetric: both symmetrize the same way
    eager, built = SpdMatrix(a), SpdMatrix._built(a)
    assert isinstance(built, SpdMatrix)
    assert np.array_equal(built.entries.view(np.uint64), eager.entries.view(np.uint64))
    assert not built.entries.flags.writeable and built.entries is not a
    def facts(m):
        return m.min_eigenvalue, spectral_norm(m), m.eig_floor, m.is_strictly_pd

    assert facts(built) == facts(eager)
    stacked = np.array([a, 2.0 * a])
    eager, built = SpdStack(stacked), SpdStack._built(stacked)
    assert np.array_equal(built.entries, eager.entries)
    assert not built.entries.flags.writeable
    for name in ("min_eigenvalues", "norms", "eig_floors", "strictly_pd"):
        assert np.array_equal(getattr(built, name), getattr(eager, name))
        assert not getattr(built, name).flags.writeable
    a[0, 0] = np.nan
    with pytest.raises(ValueError):
        SpdMatrix._built(a)  # the finiteness check does not wait
    with pytest.raises(ValueError):
        SpdStack._built(np.array([a]))


def test_concurrent_first_reads_agree_with_eager_validation():
    # threads race to the first read of the same built values; whichever
    # stores its facts first, every reader sees the eager ones
    mats = [random_spd(6, 1e4, 40 + i).entries for i in range(8)]
    eager = map(SpdMatrix, mats)
    want = [(m.min_eigenvalue, m.eig_floor, spectral_norm(m)) for m in eager]
    errors = []

    def read(built):
        try:
            for m, expected in zip(built, want):
                got = (m.min_eigenvalue, m.eig_floor, spectral_norm(m))
                if got != expected or m.is_strictly_pd is not True:
                    errors.append(got)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            built = [SpdMatrix._built(m) for m in mats]
            threads = [threading.Thread(target=read, args=(built,)) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def _eigensolve_rule(a):
    """The eigvalsh validation, written out: (error fields, None) for a
    rejected matrix, (None, strictly PD) for an accepted one."""
    eigs = np.linalg.eigvalsh(a)
    low, norm = float(eigs[0]), float(max(eigs[-1], -eigs[0]))
    tol = 1e-10 * (1.0 + norm)
    if low < -tol:
        message = f"matrix is not PSD: min eigenvalue {low:.6g} < -{tol:.6g}"
        return (message, low, tol, None), None
    return None, low > 1e-13 * norm


def _agrees_with_the_eigensolve(a) -> bool:
    """SpdMatrix(a) gives the eigensolve's verdict, or raises its error;
    returns whether the certificate holds, checking its facts if it does."""
    a = 0.5 * (a + a.T)
    certified = _certified_pd(a)
    error, strict = _eigensolve_rule(a)
    if error is not None:
        with pytest.raises(NotPsdError) as err:
            SpdMatrix(a)
        got = err.value
        assert (str(got), got.min_eigenvalue, got.tolerance, got.index) == error
        assert not certified
        return False
    m = SpdMatrix(a)
    deferred = "_norm" not in vars(m)
    assert deferred == (certified and m.dim >= CERTIFY_MIN_DIM)
    assert m.is_strictly_pd is strict
    if certified:
        assert strict and m.min_eigenvalue > m.eig_floor
        assert m.is_strictly_pd is True  # the eigensolve kept the verdict
    return certified


@pytest.mark.parametrize("dim", [8, 16, 64, 256])
@pytest.mark.parametrize("cond", [1e2, 1e6, 1e10, 1e12])
def test_certificate_agrees_with_the_eigensolve_on_seeded_inputs(dim, cond):
    seeds = range(3 if dim < 256 else 2)
    certified = [_agrees_with_the_eigensolve(random_spd(dim, cond, 500 + s).entries)
                 for s in seeds]
    if cond <= 1e10:
        # lambda_min / tr(A) is far above 1e-12 here: the certificate holds
        assert all(certified)


def _with_min_eigenvalue(dim, ratio, key):
    # ||A|| = 1 and lambda_min = ratio, up to the rounding of the product
    lam = np.geomspace(1.0, 1e-3, dim)
    lam[-1] = ratio
    q = np.linalg.qr(_rng(key).normal(size=(dim, dim)))[0]
    return (q * lam) @ q.T


@pytest.mark.parametrize("dim", [8, 16, 64])
@pytest.mark.parametrize("ratio", [-1e-9, -1e-11, 0.0, 1e-13, 1e-12, 1e-11])
@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_certificate_agrees_with_the_eigensolve_at_the_boundary(dim, ratio, scale):
    a = scale * _with_min_eigenvalue(dim, ratio, dim)
    certified = _agrees_with_the_eigensolve(a)
    if ratio <= 1e-12:
        assert not certified  # lambda_min <= 1e-12 ||A|| <= 1e-12 tr(A)


@pytest.mark.parametrize("dim", [8, 16, 64])
@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150, 1e-300])
def test_certificate_rejects_rank_deficient_inputs(dim, scale):
    for rank in (1, dim // 2, dim - 1):
        g = _rng(100 * dim + rank).normal(size=(dim, rank))
        assert not _agrees_with_the_eigensolve(scale * (g @ g.T))
    assert not _certified_pd(np.zeros((dim, dim)))
    assert not _certified_pd(np.full((dim, dim), scale))


@pytest.mark.filterwarnings("error")
def test_certificate_holds_where_the_trace_overflows():
    a = np.diag(np.full(32, 1e307))  # tr(A) = 3.2e308 overflows, c tr(A) does not
    assert _certified_pd(a)
    assert _agrees_with_the_eigensolve(a)


def test_complex_entries_raise_unless_their_imaginary_part_is_zero():
    z = np.array([[2.0, 1j], [-1j, 2.0]])
    builders = (as_entries, SymMatrix, SpdMatrix, lambda x: SpdStack([x]))
    for build in builders:
        with pytest.raises(ValueError, match="matrix entries must be real"):
            build(z)
    real = z.real.copy()
    for build in builders:
        assert np.array_equal(np.asarray(build(real + 0j)), np.asarray(build(real)))


@pytest.mark.filterwarnings("error")
def test_entries_near_the_float_range_symmetrize_without_overflow():
    # 1e308 + 1e308 overflows; the stored entries are the finite halves
    a = np.diag([1e308, 1.0])
    assert np.array_equal(SpdMatrix(a).entries, a)
    assert np.array_equal(SpdStack([a]).entries[0], a)
    asym = np.array([[1e308, 1.7e308], [1.6e308, 1e308]])
    half = 0.5 * 1.7e308 + 0.5 * 1.6e308
    assert np.array_equal(SymMatrix(asym).entries, [[1e308, half], [half, 1e308]])
    # the bits of 0.5 * (a + a^T) wherever the sum is finite and normal
    x = random_spd(6, 1e6, 3).entries
    x = x + np.triu(np.full((6, 6), 1e-13), 1)  # an asymmetric input
    assert np.array_equal(SymMatrix(x).entries.view(np.uint64), (0.5 * (x + x.T)).view(np.uint64))
