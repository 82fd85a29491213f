"""Flux families and right-hand sides: closed forms, Jacobian structure, growth."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradbound import (
    FluxKind,
    FluxSpec,
    RhsKind,
    RhsSpec,
    flux_eval,
    flux_jacobian_bounds,
    rhs_eval,
)
from gradbound.flux import DELTA_U

PURE2 = FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0)
PURE3 = FluxSpec(FluxKind.PURE_P_LAPLACE, 3.0)


def _sample(norm: float, shape=(2, 3), seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal(shape)
    return Q * (norm / math.sqrt(float(np.sum(Q * Q))))


def test_flux_eval_heat_identity():
    Q = _sample(1.7)
    assert np.allclose(flux_eval(PURE2, Q), Q, rtol=0.0, atol=0.0)


def test_flux_eval_pure_p3():
    Q = _sample(2.0)
    assert np.allclose(flux_eval(PURE3, Q), 2.0 * Q, rtol=1e-14)


def test_flux_eval_double_power():
    spec = FluxSpec(FluxKind.DOUBLE_POWER, 2.0, q=3.0)
    Q = _sample(1.0)
    assert np.allclose(flux_eval(spec, Q), 2.0 * Q, rtol=1e-14)


def test_flux_zero_maps_to_zero():
    Z = np.zeros((1, 3))
    for spec in (PURE2, PURE3, FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, 1.7, eps=1e-3)):
        assert np.all(flux_eval(spec, Z) == 0.0)


def test_singular_evaluation_rejected():
    spec = FluxSpec(FluxKind.PURE_P_LAPLACE, 1.5)
    with pytest.raises(ValueError, match="singular"):
        flux_eval(spec, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="singular"):
        flux_jacobian_bounds(spec, np.zeros((2, 3)))
    # regularized at the same p is fine at Q = 0
    reg = FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, 1.5, eps=1e-3)
    assert np.isfinite(flux_eval(reg, np.zeros((2, 3)))).all()


def test_spec_validation():
    with pytest.raises(ValueError):
        FluxSpec(FluxKind.PURE_P_LAPLACE, 1.0)
    with pytest.raises(ValueError, match="q >= p"):
        FluxSpec(FluxKind.DOUBLE_POWER, 2.0, q=1.5)
    with pytest.raises(ValueError, match="no q"):
        FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0, q=2.5)
    with pytest.raises(ValueError, match="eps"):
        FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, 1.5, eps=0.0)
    with pytest.raises(ValueError, match="no eps"):
        FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0, eps=0.1)
    # a one-power family stores a q equal to p as None; double power keeps it
    assert FluxSpec(FluxKind.PURE_P_LAPLACE, 2.0, q=2.0).q is None
    assert FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, 1.5, q=1.5, eps=1e-3).q is None
    assert FluxSpec(FluxKind.DOUBLE_POWER, 2.0, q=2.0).q == 2.0


def test_jacobian_bounds_pure():
    # eigenvalues (p-1)|Q|^(p-2) radial, |Q|^(p-2) tangential
    Q = _sample(2.0)
    lo, hi = flux_jacobian_bounds(PURE3, Q)
    assert lo == pytest.approx(2.0, rel=1e-14)
    assert hi == pytest.approx(4.0, rel=1e-14)
    lo2, hi2 = flux_jacobian_bounds(PURE2, _sample(0.3))
    assert lo2 == 1.0 and hi2 == 1.0


def test_jacobian_bounds_double_power():
    # F'' = 1 + 3 t^2 and F'/t = 1 + t^2 at t = 1: [2, 4]
    spec = FluxSpec(FluxKind.DOUBLE_POWER, 2.0, q=4.0)
    lo, hi = flux_jacobian_bounds(spec, _sample(1.0))
    assert lo == pytest.approx(2.0, rel=1e-14)
    assert hi == pytest.approx(4.0, rel=1e-14)


def test_jacobian_regularized_at_zero():
    # dA/dQ at Q = 0 is eps^(p-2) times the identity
    for p in (1.5, 2.5, 3.0):
        spec = FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, p, eps=1e-2)
        lo, hi = flux_jacobian_bounds(spec, np.zeros((2, 3)))
        assert lo == pytest.approx(1e-2 ** (p - 2.0), rel=1e-12)
        assert hi == pytest.approx(1e-2 ** (p - 2.0), rel=1e-12)


def _all_specs():
    return [
        PURE2,
        PURE3,
        FluxSpec(FluxKind.PURE_P_LAPLACE, 2.5),
        FluxSpec(FluxKind.DOUBLE_POWER, 2.0, q=2.6),
        FluxSpec(FluxKind.DOUBLE_POWER, 2.5, q=3.2),
        FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, 1.5, eps=1e-2),
        FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, 3.0, eps=0.1),
    ]


def _fd_jacobian(spec: FluxSpec, Q: np.ndarray, step: float) -> np.ndarray:
    N, n = Q.shape
    J = np.zeros((N * n, N * n))
    for col, (i, a) in enumerate((i, a) for i in range(N) for a in range(n)):
        E = np.zeros_like(Q)
        E[i, a] = step
        J[:, col] = ((flux_eval(spec, Q + E) - flux_eval(spec, Q - E)) / (2 * step)).ravel()
    return J


def test_fd_jacobian_matches_eigen_structure():
    # Rayleigh extremes of the FD tensor vs the analytic radial/tangential pair
    rng = np.random.default_rng(42)
    for trial in range(100):
        spec = _all_specs()[trial % len(_all_specs())]
        Q = rng.standard_normal((2, 3))
        norm = math.sqrt(float(np.sum(Q * Q)))
        Q *= rng.uniform(0.3, 2.5) / norm
        step = 1e-7 * max(1.0, norm)
        J = _fd_jacobian(spec, Q, step)
        eig = np.linalg.eigvalsh(0.5 * (J + J.T))
        lo, hi = flux_jacobian_bounds(spec, Q)
        assert eig[0] == pytest.approx(float(lo), rel=1e-6, abs=1e-9)
        assert eig[-1] == pytest.approx(float(hi), rel=1e-6, abs=1e-9)


def test_rayleigh_window_exact_for_pure():
    rng = np.random.default_rng(7)
    for p in (1.5, 2.0, 2.5, 3.0):
        spec = FluxSpec(FluxKind.PURE_P_LAPLACE, p)
        lam, Lam = min(1.0, p - 1.0), max(1.0, p - 1.0)
        for _ in range(25):
            Q = rng.standard_normal((2, 3)) * rng.uniform(0.1, 3.0)
            mag = math.sqrt(float(np.sum(Q * Q)))
            if mag == 0.0:
                continue
            lo, hi = flux_jacobian_bounds(spec, Q)
            assert lo == pytest.approx(lam * mag ** (p - 2.0), rel=1e-13)
            assert hi == pytest.approx(Lam * mag ** (p - 2.0), rel=1e-13)


def test_monotonicity():
    rng = np.random.default_rng(3)
    for spec in _all_specs():
        for _ in range(150):
            Q1 = rng.standard_normal((2, 3)) * rng.uniform(0.1, 2.0)
            Q2 = rng.standard_normal((2, 3)) * rng.uniform(0.1, 2.0)
            d = flux_eval(spec, Q1) - flux_eval(spec, Q2)
            assert float(np.sum(d * (Q1 - Q2))) >= -1e-12


def test_rhs_zero():
    u = np.ones((4, 2))
    g = np.ones((4, 2, 3))
    assert np.all(rhs_eval(RhsSpec(RhsKind.ZERO), u, g) == 0.0)


def test_rhs_fixed_dir_power():
    spec = RhsSpec(RhsKind.POWER_FIXED_DIR, w=1.5, c1=1.0, direction=(1.0, 0.0))
    u = np.zeros((1, 2))
    grad = np.zeros((1, 2, 3))
    grad[0, 0, 0] = 4.0  # |grad| = 4, 4^1.5 = 8
    out = rhs_eval(spec, u, grad)
    assert out[0, 0] == pytest.approx(8.0, rel=1e-14)
    assert out[0, 1] == 0.0


def test_rhs_direction_normalized():
    spec = RhsSpec(RhsKind.POWER_FIXED_DIR, w=1.0, c1=2.0, direction=(3.0, 4.0))
    assert np.hypot(*spec.direction) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError, match="direction"):
        RhsSpec(RhsKind.POWER_FIXED_DIR, w=1.0, c1=1.0)


def test_rhs_struwe_at_unit_sphere():
    # u = x/|x| at |x| = 1: f = u |grad u|^2 = (n-1) x
    x = np.array([[0.6, -0.48, 0.64]])
    u = x / np.linalg.norm(x, axis=-1, keepdims=True)
    jac = (np.eye(3) / 1.0 - np.einsum("bi,bj->bij", u, u))[0]
    grad = jac[None, :, :]
    spec = RhsSpec(RhsKind.STRUWE_COUPLING, w=2.0)
    out = rhs_eval(spec, u, grad)
    assert np.allclose(out, 2.0 * u, rtol=1e-12)


def test_rhs_aligned_growth_bound():
    rng = np.random.default_rng(5)
    for kind in (RhsKind.POWER_ALIGNED, RhsKind.POWER_FIXED_DIR):
        spec = RhsSpec(kind, w=1.3, c1=0.8, c2=0.2,
                       direction=(0.0, 1.0) if kind is RhsKind.POWER_FIXED_DIR else None)
        for _ in range(500):
            u = rng.standard_normal((1, 2)) * rng.uniform(0.0, 2.0)
            grad = rng.standard_normal((1, 2, 3)) * rng.uniform(0.0, 3.0)
            mag = math.sqrt(float(np.sum(grad * grad)))
            out = rhs_eval(spec, u, grad)
            bound = spec.c1 * mag**spec.w + spec.c2
            assert np.abs(out).max() <= bound + 1e-12


def test_rhs_aligned_near_zero_u_stays_bounded():
    spec = RhsSpec(RhsKind.POWER_ALIGNED, w=1.0, c1=1.0)
    u = np.full((1, 2), DELTA_U / 10.0)
    grad = np.zeros((1, 2, 3))
    grad[0, 0, 0] = 1.0
    out = rhs_eval(spec, u, grad)
    assert np.isfinite(out).all()
    assert np.abs(out).max() <= 1.0 + 1e-12


def test_rhs_manufactured_calls_table():
    table = lambda x, t: np.full(x.shape[:-1] + (1,), t)
    spec = RhsSpec(RhsKind.MANUFACTURED, source=table)
    x = np.zeros((5, 3))
    out = rhs_eval(spec, np.zeros((5, 1)), np.zeros((5, 1, 3)), x=x, t=0.7)
    assert np.all(out == 0.7)
    with pytest.raises(ValueError, match="source"):
        RhsSpec(RhsKind.MANUFACTURED)


MONOTONE_FLUXES = st.one_of(
    st.builds(FluxSpec, st.just(FluxKind.PURE_P_LAPLACE), st.floats(1.2, 4.0)),
    st.builds(lambda p, dq: FluxSpec(FluxKind.DOUBLE_POWER, p, q=p + dq),
              st.floats(1.2, 3.0), st.floats(0.0, 1.5)),
    st.builds(lambda p, eps: FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, p, eps=eps),
              st.floats(1.2, 4.0), st.floats(1e-6, 1.0)),
)


@settings(max_examples=200, deadline=None)
@given(spec=MONOTONE_FLUXES, N=st.integers(1, 3), n=st.integers(2, 3),
       seed=st.integers(0, 2**32 - 1))
def test_flux_is_monotone(spec, N, n, seed):
    # (A(P) - A(Q)) . (P - Q) >= 0 for every flux family: A(Q) = a(|Q|) Q with
    # a(t) t increasing.  32 pairs per draw, |P| and |Q| log-uniform over
    # [1e-8, 1e3]; for the regularized family |Q| also sits within 1e-3 eps of
    # 0, and at 0 itself.  The floor is round-off in A(P) - A(Q): 1e-12 of
    # (|A(P)| + |A(Q)|) |P - Q|.
    rng = np.random.default_rng(seed)
    P, Q = rng.standard_normal((2, 32, N, n))
    P *= 10.0 ** rng.uniform(-8.0, 3.0, (32, 1, 1)) / np.sqrt(np.sum(P * P, axis=(1, 2)))[:, None, None]
    Q *= 10.0 ** rng.uniform(-8.0, 3.0, (32, 1, 1)) / np.sqrt(np.sum(Q * Q, axis=(1, 2)))[:, None, None]
    if spec.kind is FluxKind.REGULARIZED_P_LAPLACE:
        Q[:8] *= spec.eps * 10.0 ** rng.uniform(-12.0, -3.0, (8, 1, 1)) \
            / np.sqrt(np.sum(Q[:8] * Q[:8], axis=(1, 2)))[:, None, None]
        Q[8] = 0.0
    AP, AQ = flux_eval(spec, P), flux_eval(spec, Q)
    inner = np.sum((AP - AQ) * (P - Q), axis=(1, 2))
    size = lambda X: np.sqrt(np.sum(X * X, axis=(1, 2)))
    assert (inner >= -1e-12 * (size(AP) + size(AQ)) * size(P - Q)).all()


JACOBIAN_FLUXES = st.one_of(
    st.builds(FluxSpec, st.just(FluxKind.PURE_P_LAPLACE), st.floats(1.2, 4.0)),
    st.builds(lambda p, dq: FluxSpec(FluxKind.DOUBLE_POWER, p, q=p + dq),
              st.floats(1.2, 3.0), st.floats(0.0, 1.5)),
    st.builds(lambda p, eps: FluxSpec(FluxKind.REGULARIZED_P_LAPLACE, p, eps=eps),
              st.floats(1.2, 4.0), st.floats(1e-4, 1.0)),
)


@settings(max_examples=150, deadline=None)
@given(spec=JACOBIAN_FLUXES, N=st.integers(1, 3), n=st.integers(2, 3),
       seed=st.integers(0, 2**32 - 1))
def test_jacobian_bounds_bracket_the_fd_rayleigh_quotient(spec, N, n, seed):
    # E . (A(Q + hE) - A(Q - hE)) / (2h |E|^2) lies in [lo, hi] for 16 random
    # directions E per sample, and the radial (E = Q) and a tangential (E . Q
    # = 0) direction attain the two ends.  |Q| is log-uniform over [1e-3, 1e2],
    # for the regularized family over [eps, 1e2]; h is 1e-6 of
    # sqrt(eps^2 + |Q|^2), the length on which dA/dQ changes.
    rng = np.random.default_rng(seed)
    size = lambda X: np.sqrt(np.sum(X * X, axis=(-2, -1), keepdims=True))
    Q = rng.standard_normal((8, N, n))
    low = math.log10(spec.eps) if spec.eps else -3.0
    Q *= 10.0 ** rng.uniform(low, 2.0, (8, 1, 1)) / size(Q)
    E = rng.standard_normal((8, 18, N, n))
    E[:, 0] = Q
    E[:, 1] -= np.sum(E[:, 1] * Q, axis=(-2, -1), keepdims=True) * Q / size(Q) ** 2
    Qs = Q[:, None]
    h = 1e-6 * np.sqrt(spec.eps**2 + size(Qs) ** 2) / size(E)
    quotient = np.sum(E * (flux_eval(spec, Qs + h * E) - flux_eval(spec, Qs - h * E)),
                      axis=(-2, -1)) / (2.0 * h[..., 0, 0] * size(E)[..., 0, 0] ** 2)
    lo, hi = flux_jacobian_bounds(spec, Q)
    slack = 1e-6 * hi[:, None]
    assert (quotient >= lo[:, None] - slack).all() and (quotient <= hi[:, None] + slack).all()
    ends = np.sort(quotient[:, :2], axis=1)
    assert (np.abs(ends - np.stack([lo, hi], axis=1)) <= 1e-6 * hi[:, None]).all()
