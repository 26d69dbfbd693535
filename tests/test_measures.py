import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import renorm_constant, zero_defect
from mvflow.errors import (
    CannotEstimateError,
    DomainError,
    IncompatibleEnsembleError,
    InvalidTestFunctionError,
    ObservableDomainError,
    UnsupportedDimensionError,
)
from mvflow.measures import (
    DEFECT_FLOOR,
    DefectReport,
    DiscreteYoungMeasure,
    RenormFunction,
    assemble,
    compatibility_residual,
    continuity_residual,
    energy_inequality_slack,
    estimate_defect,
    korn_poincare_check,
    moment,
    momentum_residual,
    renorm_continuity_residual,
    renorm_identity_truncated,
    _prefix_trapezoid,
)
from mvflow.pressure import PowerLawH, PressureLaw
from mvflow.solver import (
    Grid1D,
    SolverConfig,
    Trajectory,
    constant_init,
    gradient_1d,
    perturb_density,
    pulse_flow_init,
    run,
    total_energy,
)
from mvflow.testfuncs import (
    SpaceTimeFunction,
    compatibility_family,
    density_family,
    momentum_family,
)

LAW = PressureLaw(h_part=PowerLawH(a=1.0, gamma=2.0))
LAM = 0.1


def small_run(n=48, T=0.05, delta=0.0, u_amp=0.2, n_samples=5, seed=None):
    grid = Grid1D(n=n, length=1.0)
    cfg = SolverConfig(law=LAW, lam=LAM, T=T, delta=delta,
                       Gamma=2.0, n_samples=n_samples)
    init = pulse_flow_init(length=1.0, amp=0.1, u_amp=u_amp, center_frac=0.35)
    if seed is not None:
        init = perturb_density(init, length=1.0, eps=0.02,
                               rng=np.random.default_rng(seed))
    return run(cfg, init.sample(grid), grid), cfg, grid


def constant_run(rho0=1.3, n=32, T=0.04):
    grid = Grid1D(n=n, length=1.0)
    cfg = SolverConfig(law=LAW, lam=LAM, T=T, n_samples=5)
    return run(cfg, constant_init(rho0).sample(grid), grid), cfg, grid


def family_member(family, fid):
    return next(f for f in family if f.id == fid)


def dirac_measure_from_fields(v, grid, times=(0.0, 1.0)):
    D = gradient_1d(v, grid.dx)
    nt = len(times)
    return DiscreteYoungMeasure(
        times=np.asarray(times, dtype=float), x=grid.centers, dx=grid.dx,
        length=grid.length, S=np.ones((1, nt, grid.n)),
        V=np.tile(v, (1, nt, 1)), D=np.tile(D, (1, nt, 1)))


def synthetic_trajectory(rho_value, grid, cfg, times):
    nt = times.size
    rho = np.full((nt, grid.n), rho_value)
    u = np.zeros((nt, grid.n))
    return Trajectory(grid=grid, cfg=cfg, times=times, rho=rho, u=u,
                      energy=np.zeros(nt), cum_dissipation=np.zeros(nt),
                      min_step_slack=0.0, n_steps=0, complete=True)


# -- assembly ---------------------------------------------------------------------

def test_assemble_single_member_is_dirac():
    traj, cfg, grid = small_run()
    V = assemble([traj])
    assert V.S.shape[0] == 1
    assert V.S.shape == (1, 5, grid.n)
    np.testing.assert_array_equal(moment(V, lambda s, v, D: s), traj.rho)


def test_assemble_duplicate_members_keep_moments():
    traj, _, _ = small_run()
    V1 = assemble([traj])
    V2 = assemble([traj, traj])
    assert V2.S.shape[0] == 2
    g = lambda s, v, D: s * v + D
    np.testing.assert_array_equal(moment(V1, g), moment(V2, g))


def test_assemble_perturbed_ensemble_counts():
    members = [small_run(n=24, T=0.02, seed=k)[0] for k in range(8)]
    V = assemble(members)
    assert V.S.shape[0] == 8


def test_assemble_rejects_mismatched_grids():
    a, _, _ = small_run(n=32)
    b, _, _ = small_run(n=48)
    with pytest.raises(IncompatibleEnsembleError):
        assemble([a, b])


def test_assemble_rejects_mismatched_times():
    a, _, _ = small_run(n=32, T=0.05)
    b, _, _ = small_run(n=32, T=0.06)
    with pytest.raises(IncompatibleEnsembleError):
        assemble([a, b])


def test_assemble_rejects_empty():
    with pytest.raises(IncompatibleEnsembleError):
        assemble([])


# -- moments ----------------------------------------------------------------------

def test_moment_two_atom_average():
    grid = Grid1D(n=4, length=1.0)
    times = np.array([0.0])
    S = np.stack([np.full((1, 4), 1.0), np.full((1, 4), 3.0)])
    Z = np.zeros((2, 1, 4))
    V = DiscreteYoungMeasure(times=times, x=grid.centers, dx=grid.dx, length=1.0,
                             S=S, V=Z, D=Z.copy())
    np.testing.assert_allclose(moment(V, lambda s, v, D: s), 2.0)


def test_moment_energy_composition_on_dirac():
    traj, cfg, grid = small_run()
    V = assemble([traj])
    got = moment(V, lambda s, v, D: 0.5 * s * v * v + LAW.P(s))
    want = 0.5 * traj.rho * traj.u * traj.u + LAW.P(traj.rho)
    np.testing.assert_array_equal(got, want)


def test_moment_domain_error_names_cell():
    grid = Grid1D(n=4, length=1.0)
    S = np.ones((1, 2, 4))
    S[0, 1, 2] = 0.0
    Z = np.zeros((1, 2, 4))
    V = DiscreteYoungMeasure(times=np.array([0.0, 1.0]), x=grid.centers,
                             dx=grid.dx, length=1.0, S=S, V=Z, D=Z.copy())
    with pytest.raises(ObservableDomainError, match="member 0.*time index 1.*cell 2"):
        moment(V, lambda s, v, D: 1.0 / s)


@given(alpha=st.floats(-3.0, 3.0), seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_moment_linearity(alpha, seed):
    rng = np.random.default_rng(seed)
    S = rng.uniform(0.1, 4.0, size=(3, 2, 5))
    Vv = rng.normal(size=(3, 2, 5))
    Dd = rng.normal(size=(3, 2, 5))
    x = (np.arange(5) + 0.5) / 5
    V = DiscreteYoungMeasure(times=np.array([0.0, 1.0]), x=x, dx=0.2, length=1.0,
                             S=S, V=Vv, D=Dd)
    g1 = lambda s, v, D: s * v
    g2 = lambda s, v, D: D * D + s
    combo = moment(V, lambda s, v, D: alpha * g1(s, v, D) + g2(s, v, D))
    np.testing.assert_allclose(
        combo, alpha * moment(V, g1) + moment(V, g2), rtol=0, atol=1e-12)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_jensen_gap_kinetic_energy(seed):
    rng = np.random.default_rng(seed)
    S = rng.uniform(0.1, 5.0, size=(4, 2, 6))
    Vv = rng.uniform(-3.0, 3.0, size=(4, 2, 6))
    Dd = np.zeros_like(S)
    x = (np.arange(6) + 0.5) / 6
    V = DiscreteYoungMeasure(times=np.array([0.0, 1.0]), x=x, dx=1 / 6, length=1.0,
                             S=S, V=Vv, D=Dd)
    kin = moment(V, lambda s, v, D: 0.5 * s * v * v)
    sv = moment(V, lambda s, v, D: s * v)
    s_ = moment(V, lambda s, v, D: s)
    assert np.all(kin - 0.5 * sv**2 / s_ >= -1e-10)


# -- renormalization functions ---------------------------------------------------

def test_renorm_truncation_closed_form():
    b = renorm_identity_truncated(r_b=1.2, width=0.4)
    low = np.array([0.0, 0.3, 0.8])
    np.testing.assert_array_equal(b.b(low), low)
    np.testing.assert_array_equal(b.db(low), 1.0)
    high = np.array([1.2, 2.0, 7.5])
    np.testing.assert_allclose(b.b(high), 1.2 - 0.2, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(b.db(high), 0.0)
    mid = np.linspace(0.8, 1.2, 101)
    slopes = b.db(mid)
    assert np.all(slopes >= 0.0) and np.all(slopes <= 1.0)
    # C1: numerical derivative of b matches db through the rolloff band
    eps = 1e-6
    num = (b.b(mid + eps) - b.b(mid - eps)) / (2 * eps)
    np.testing.assert_allclose(num, slopes, rtol=0, atol=1e-8)


@given(r_b=st.floats(0.3, 4.0), frac=st.floats(0.05, 1.0))
@settings(max_examples=60, deadline=None)
def test_renorm_truncation_property(r_b, frac):
    width = frac * r_b
    b = renorm_identity_truncated(r_b=r_b, width=width)
    probe = np.linspace(0.0, 3.0 * r_b, 257)
    vals = b.b(probe)
    assert np.all(np.diff(vals) >= -1e-12)
    assert abs(b.b(np.array([2.9 * r_b]))[0] - (r_b - width / 2)) < 1e-12
    a = r_b - width
    below = probe[probe <= a]
    np.testing.assert_array_equal(b.b(below), below)


def test_renorm_invalid_slope_rejected():
    with pytest.raises(DomainError):
        RenormLike = renorm_constant(1.0)
        dataclasses.replace(RenormLike, db=lambda s: np.ones_like(np.asarray(s)))


def test_renorm_constant_ok():
    b = renorm_constant(2.5)
    np.testing.assert_array_equal(b.b(np.array([0.1, 9.0])), 2.5)


# -- residual trivial identities ---------------------------------------------------

def test_continuity_constant_state_zero():
    traj, _, _ = constant_run()
    V = assemble([traj])
    tau = float(V.times[-1])
    assert np.all(np.abs(continuity_residual(V, density_family(1.0), tau)) < 1e-12)


def test_continuity_mass_conservation_psi_one():
    traj, _, _ = small_run()
    V = assemble([traj])
    tau = float(V.times[-1])
    psi1 = family_member(density_family(1.0), "1*1")
    psit = family_member(density_family(1.0), "1*t")
    assert np.all(np.abs(continuity_residual(V, [psi1, psit], tau)) < 1e-12)


def test_continuity_off_sample_tau_raises():
    traj, _, _ = small_run()
    V = assemble([traj])
    psi = density_family(1.0)[0]
    with pytest.raises(DomainError):
        continuity_residual(V, [psi], 0.5 * float(V.times[1] + V.times[0]))


def test_renorm_constant_b_on_constant_state():
    traj, _, _ = constant_run()
    V = assemble([traj])
    tau = float(V.times[-1])
    b = renorm_constant(1.0)
    assert np.all(np.abs(renorm_continuity_residual(V, b, density_family(1.0), tau))
                  < 1e-12)


def test_renorm_reduces_to_continuity_below_threshold():
    traj, _, _ = small_run()
    V = assemble([traj])
    tau = float(V.times[-1])
    assert float(np.max(V.S)) < 2.5
    b = renorm_identity_truncated(r_b=3.0, width=0.5)
    plain = continuity_residual(V, density_family(1.0), tau)
    renorm = renorm_continuity_residual(V, b, density_family(1.0), tau)
    assert np.all(np.abs(plain - renorm) < 1e-12)


def test_momentum_constant_state_zero():
    traj, _, _ = constant_run()
    V = assemble([traj])
    tau = float(V.times[-1])
    r, slack = momentum_residual(V, LAW, LAM, momentum_family(1.0), tau, zero_defect(V))
    assert np.all(np.abs(r) < 1e-12)
    assert np.all(slack == 0.0)


def test_momentum_rejects_nonvanishing_test_function():
    traj, _, _ = small_run()
    V = assemble([traj])
    bad = family_member(density_family(1.0), "cos(1pi x/L)*1")
    with pytest.raises(InvalidTestFunctionError):
        momentum_residual(V, LAW, LAM, [bad], float(V.times[-1]), zero_defect(V))


def test_compatibility_zero_fields():
    grid = Grid1D(n=16, length=1.0)
    V = dirac_measure_from_fields(np.zeros(16), grid)
    assert np.all(compatibility_residual(V, compatibility_family(1.0), 1.0) == 0.0)


def test_compatibility_symmetric_pair_degenerates():
    # sin against sin and against a constant: midpoint sums cancel by symmetry
    grid = Grid1D(n=64, length=1.0)
    V = dirac_measure_from_fields(np.sin(np.pi * grid.centers), grid)
    Msin = family_member(compatibility_family(1.0), "sin(pi x/L)*1")
    Mone = family_member(compatibility_family(1.0), "1*1")
    assert np.all(np.abs(compatibility_residual(V, [Msin, Mone], 1.0)) < 1e-12)


def test_compatibility_static_refinement_rate():
    # asymmetric pair; one-sided wall gradients still leave a second-order sum
    M = SpaceTimeFunction(
        id="mix", f=lambda x: np.sin(2 * np.pi * np.asarray(x))
        + np.asarray(x) * (1 - np.asarray(x)),
        df=lambda x: 2 * np.pi * np.cos(2 * np.pi * np.asarray(x))
        + 1 - 2 * np.asarray(x),
        g=lambda t: 1.0, dg=lambda t: 0.0)
    res = []
    for n in (32, 64, 128, 256):
        grid = Grid1D(n=n, length=1.0)
        v = np.sin(np.pi * grid.centers) * (1 + 0.5 * grid.centers)
        res.append(abs(compatibility_residual(
            dirac_measure_from_fields(v, grid), [M], 1.0)[0]))
    ratios = [res[i] / res[i + 1] for i in range(3)]
    assert all(3.4 < r < 4.6 for r in ratios), ratios


# -- residual refinement on solver output ------------------------------------------

@pytest.fixture(scope="module")
def refinement_levels():
    out = {}
    for n in (64, 128, 256):
        grid = Grid1D(n=n, length=1.0)
        cfg = SolverConfig(law=LAW, lam=LAM, T=0.12, n_samples=65)
        init = pulse_flow_init(length=1.0, amp=0.1, u_amp=0.4, center_frac=0.35)
        traj = run(cfg, init.sample(grid), grid)
        out[n] = assemble([traj])
    return out


def _library_maxima(V):
    tau = float(V.times[-1])
    b = renorm_identity_truncated(r_b=1.05, width=0.2)
    dens = density_family(V.length)
    return {
        "cont": float(np.max(np.abs(continuity_residual(V, dens, tau)))),
        "renorm": float(np.max(np.abs(renorm_continuity_residual(V, b, dens, tau)))),
        "mom": float(np.max(np.abs(momentum_residual(
            V, LAW, LAM, momentum_family(V.length), tau, zero_defect(V))[0]))),
        "compat": float(np.max(np.abs(compatibility_residual(
            V, compatibility_family(V.length), tau)))),
    }


def test_residual_library_refinement(refinement_levels):
    rows = [_library_maxima(refinement_levels[n]) for n in (64, 128, 256)]
    for key, lo, hi in (("cont", 1.5, 3.1), ("renorm", 1.7, 4.1),
                        ("mom", 2.0, 4.5), ("compat", 3.2, 4.8)):
        seq = [row[key] for row in rows]
        assert seq[0] > seq[1] > seq[2], (key, seq)
        for a, bb in zip(seq, seq[1:]):
            assert lo < a / bb < hi, (key, seq)
    global_max = [max(row.values()) for row in rows]
    order = np.log2(global_max[0] / global_max[2]) / 2
    assert 0.6 < order < 1.5, (global_max, order)


def test_momentum_single_member_refinement(refinement_levels):
    # the high-frequency sine dominates the library max and converges cleanly
    phi = family_member(momentum_family(1.0), "sin(2pi x/L)*1")
    vals = [abs(momentum_residual(V, LAW, LAM, [phi], float(V.times[-1]),
                                  zero_defect(V))[0][0])
            for V in (refinement_levels[n] for n in (64, 128, 256))]
    assert vals[0] > vals[1] > vals[2]
    for a, b in zip(vals, vals[1:]):
        assert 2.2 < a / b < 4.4, vals


# -- family residuals against the per-function loops, as oracles --------------------

# One test function per call and a Python loop over the sample times, summed
# in the separable order: at each sample time t_k, g(t_k) (or g'(t_k)) times
# the space sum sum_x m_k f dx of a moment against the function's own space
# factor.  A family's residual must be each function's own value, bit for bit,
# whatever else the family holds.

def _reference_space_sum(field_1d: np.ndarray, dx: float) -> float:
    return float(np.sum(field_1d) * dx)


def _reference_time_trapz(series, times: np.ndarray) -> float:
    return float(np.trapezoid(np.array(series), times))


def _reference_factors(fn, x, times):
    """f and f' at the points, g and g' at each sample time."""
    f = np.broadcast_to(np.asarray(fn.f(x), dtype=float), x.shape)
    df = np.broadcast_to(np.asarray(fn.df(x), dtype=float), x.shape)
    return (f, df, [float(fn.g(t)) for t in times],
            [float(fn.dg(t)) for t in times])


def _reference_require_wall_zero(fn, length: float):
    if np.max(np.abs(fn.f(np.array([0.0, length])))) > 1e-12:
        raise InvalidTestFunctionError(
            f"test function {fn.id} does not vanish at the walls")


def _reference_continuity_residual(measure: DiscreteYoungMeasure, psi, tau: float) -> float:
    """Mass form: [integral <s> psi]_0^tau - iint (<s> dpsi/dt + <s v> dpsi/dx)."""
    i = measure.time_index(tau)
    x, dx, times = measure.x, measure.dx, measure.times[: i + 1]
    f, df, g, dg = _reference_factors(psi, x, times)
    s_mom = moment(measure, lambda s, v, D: s)
    sv_mom = moment(measure, lambda s, v, D: s * v)
    s = [_reference_space_sum(s_mom[k] * f, dx) for k in range(i + 1)]
    sv = [_reference_space_sum(sv_mom[k] * df, dx) for k in range(i + 1)]
    interior = [dg[k] * s[k] + g[k] * sv[k] for k in range(i + 1)]
    return g[i] * s[i] - g[0] * s[0] - _reference_time_trapz(interior, times)


def _reference_renorm_continuity_residual(measure: DiscreteYoungMeasure,
                                          b: RenormFunction, psi, tau: float) -> float:
    """Renormalized mass form, including the <(s b' - b) tr D> psi source."""
    i = measure.time_index(tau)
    x, dx, times = measure.x, measure.dx, measure.times[: i + 1]
    f, df, g, dg = _reference_factors(psi, x, times)
    b_mom = moment(measure, lambda s, v, D: b.b(s))
    bv_mom = moment(measure, lambda s, v, D: b.b(s) * v)
    src_mom = moment(measure, lambda s, v, D: (s * b.db(s) - b.b(s)) * D)
    bs = [_reference_space_sum(b_mom[k] * f, dx) for k in range(i + 1)]
    bv = [_reference_space_sum(bv_mom[k] * df, dx) for k in range(i + 1)]
    src = [_reference_space_sum(src_mom[k] * f, dx) for k in range(i + 1)]
    interior = [dg[k] * bs[k] + g[k] * bv[k] for k in range(i + 1)]
    source = [g[k] * src[k] for k in range(i + 1)]
    return (g[i] * bs[i] - g[0] * bs[0] - _reference_time_trapz(interior, times)
            + _reference_time_trapz(source, times))


def _reference_momentum_residual(measure: DiscreteYoungMeasure, law: PressureLaw,
                                 lam: float, phi, tau: float,
                                 defect) -> tuple[float, float]:
    """Momentum form residual and the defect-pairing inequality slack.

    Returns (residual, slack) where slack = xi(tau) D(tau) |phi|_C1 minus the
    actual |<rM; dphi/dx>| at tau, and |phi|_C1 is the max of |phi| +
    |dphi/dt| + |dphi/dx| over every sample time's (n,) table.
    """
    _reference_require_wall_zero(phi, measure.length)
    i = measure.time_index(tau)
    x, dx, times = measure.x, measure.dx, measure.times[: i + 1]
    f, df, g, dg = _reference_factors(phi, x, times)
    sv_mom = moment(measure, lambda s, v, D: s * v)
    flux_mom = moment(measure, lambda s, v, D: s * v * v + law.p(s) - lam * D)
    sv = [_reference_space_sum(sv_mom[k] * f, dx) for k in range(i + 1)]
    flux = [_reference_space_sum(flux_mom[k] * df, dx) for k in range(i + 1)]
    pair = [_reference_space_sum(defect.rM_field[k] * df, dx) for k in range(i + 1)]
    interior = [dg[k] * sv[k] + g[k] * flux[k] for k in range(i + 1)]
    pairing = [g[k] * pair[k] for k in range(i + 1)]
    residual = (g[i] * sv[i] - g[0] * sv[0] - _reference_time_trapz(interior, times)
                - _reference_time_trapz(pairing, times))
    phi_c1 = max(float(np.max(np.abs(f * g[k]) + np.abs(f * dg[k]) + np.abs(df * g[k])))
                 for k in range(i + 1))
    slack = float(defect.xi[i] * defect.D_total[i] * phi_c1 - abs(pairing[i]))
    return residual, slack


def _reference_compatibility_residual(measure: DiscreteYoungMeasure, M,
                                      tau: float) -> float:
    """Gradient compatibility: -iint <v> dM/dx - iint <D> M."""
    i = measure.time_index(tau)
    x, dx, times = measure.x, measure.dx, measure.times[: i + 1]
    f, df, g, _ = _reference_factors(M, x, times)
    v_mom = moment(measure, lambda s, v, D: v)
    d_mom = moment(measure, lambda s, v, D: D)
    series = [-(g[k] * _reference_space_sum(v_mom[k] * df, dx))
              - g[k] * _reference_space_sum(d_mom[k] * f, dx) for k in range(i + 1)]
    return _reference_time_trapz(series, times)


def _random_measure(rng, K, n, nt):
    length = rng.uniform(0.5, 2.0)
    shape = (K, nt, n)
    times = np.cumsum(np.r_[0.0, rng.uniform(0.01, 0.3, nt - 1)])
    return DiscreteYoungMeasure(
        times=times, x=(np.arange(n) + 0.5) * (length / n), dx=length / n,
        length=length, S=rng.uniform(0.05, 3.0, shape), V=rng.normal(size=shape),
        D=rng.normal(size=shape))


def _random_defect(rng, measure):
    nt, n = measure.times.size, measure.x.size
    D_total = rng.uniform(0.0, 1.0, nt)
    return DefectReport(
        times=measure.times, E_inf=D_total, sigma_inf=np.zeros(nt),
        zeta=np.zeros(nt), D_total=D_total, rM_field=rng.normal(size=(nt, n)),
        rM_abs=np.zeros(nt), xi=rng.uniform(0.0, 2.0, nt),
        zeta_by_member=np.zeros((1, nt)))


def _wavy_family(length: float) -> list[SpaceTimeFunction]:
    """Wall-vanishing functions whose |g| and |g'| peak at different times,
    so |phi|_C1 is not read at the last sample time."""
    w = np.pi / length
    return [SpaceTimeFunction(id=f"sin(pi x/L)*{name}", f=lambda x: np.sin(w * x),
                              df=lambda x: w * np.cos(w * x), g=g, dg=dg)
            for name, g, dg in (
                ("cos(7t)", lambda t: np.cos(7.0 * t), lambda t: -7.0 * np.sin(7.0 * t)),
                ("(t-0.4)^2", lambda t: (t - 0.4) ** 2, lambda t: 2.0 * (t - 0.4)))]


def _random_case(K, n, nt, seed):
    rng = np.random.default_rng(seed)
    V = _random_measure(rng, K, n, nt)
    b = renorm_identity_truncated(r_b=rng.uniform(0.5, 3.0), width=0.4)
    return V, b, _random_defect(rng, V)


@given(K=st.integers(1, 4), n=st.integers(8, 48), nt=st.integers(2, 9),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_family_residuals_equal_the_per_function_loops(K, n, nt, seed):
    V, b, defect = _random_case(K, n, nt, seed)
    dens, mom, comp = (density_family(V.length),
                       momentum_family(V.length) + _wavy_family(V.length),
                       compatibility_family(V.length))
    for tau in V.times.tolist():
        assert np.array_equal(
            continuity_residual(V, dens, tau),
            [_reference_continuity_residual(V, f, tau) for f in dens])
        assert np.array_equal(
            renorm_continuity_residual(V, b, dens, tau),
            [_reference_renorm_continuity_residual(V, b, f, tau) for f in dens])
        assert np.array_equal(
            compatibility_residual(V, comp, tau),
            [_reference_compatibility_residual(V, f, tau) for f in comp])
        for rep in (zero_defect(V), defect):
            got = momentum_residual(V, LAW, LAM, mom, tau, defect=rep)
            want = np.array([_reference_momentum_residual(V, LAW, LAM, f, tau, defect=rep)
                             for f in mom])
            assert np.array_equal(got[0], want[:, 0])
            assert np.array_equal(got[1], want[:, 1])


# -- family residuals against an exactly summed table form ---------------------------

# An independent reference: each residual written out as one list of terms
# over the whole (n_t, n) tables of psi, dpsi/dt and dpsi/dx (the products
# F G, F G' and F' G), each interior term weighted by its trapezoid weight,
# and summed by math.fsum.  The residuals sum in another order, so they may
# differ from it only by rounding: at most c (n + n_t) eps sum |terms|, the
# bound of a recursive sum over n cells and then n_t times.

EPS = np.finfo(float).eps


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    w = np.zeros(times.size)
    w[1:] += np.diff(times) / 2.0
    w[:-1] += np.diff(times) / 2.0
    return w


def _table_form(V, fn, i):
    times = V.times[: i + 1]
    f, df = (np.broadcast_to(np.asarray(h(V.x), dtype=float), V.x.shape)
             for h in (fn.f, fn.df))
    g, dg = (np.broadcast_to(np.asarray(h(times), dtype=float), times.shape)
             for h in (fn.g, fn.dg))
    w = _trapezoid_weights(times)[:, None] * V.dx
    return g[:, None] * f, dg[:, None] * f, g[:, None] * df, w


def _fsum(*terms):
    """The exact sum of the terms, rounded once, and the sum of their sizes."""
    flat = np.concatenate([np.ravel(t) for t in terms])
    return math.fsum(flat.tolist()), math.fsum(np.abs(flat).tolist())


def _table_residuals(V, b, defect, tau):
    """{name: [(value, sum |terms|), ...]} over each family, and the momentum
    slack's reference and its size."""
    i = V.time_index(tau)
    m = {name: moment(V, g)[: i + 1] for name, g in (
        ("s", lambda s, v, D: s), ("sv", lambda s, v, D: s * v),
        ("svv", lambda s, v, D: s * v * v), ("p", lambda s, v, D: LAW.p(s)),
        ("stress", lambda s, v, D: LAM * D), ("v", lambda s, v, D: v),
        ("D", lambda s, v, D: D), ("b", lambda s, v, D: b.b(s)),
        ("bv", lambda s, v, D: b.b(s) * v),
        ("src", lambda s, v, D: (s * b.db(s) - b.b(s)) * D))}
    rM = defect.rM_field[: i + 1]
    out = {"continuity": [], "renorm": [], "momentum": [], "slack": [],
           "compatibility": []}
    for fn in density_family(V.length):
        val, d_t, d_x, w = _table_form(V, fn, i)
        out["continuity"].append(_fsum(
            m["s"][i] * val[i] * V.dx, -m["s"][0] * val[0] * V.dx,
            -w * m["s"] * d_t, -w * m["sv"] * d_x))
        out["renorm"].append(_fsum(
            m["b"][i] * val[i] * V.dx, -m["b"][0] * val[0] * V.dx,
            -w * m["b"] * d_t, -w * m["bv"] * d_x, w * m["src"] * val))
    for fn in momentum_family(V.length):
        val, d_t, d_x, w = _table_form(V, fn, i)
        out["momentum"].append(_fsum(
            m["sv"][i] * val[i] * V.dx, -m["sv"][0] * val[0] * V.dx,
            -w * m["sv"] * d_t, -w * m["svv"] * d_x, -w * m["p"] * d_x,
            w * m["stress"] * d_x, -w * rM * d_x))
        pairing, size = _fsum(rM[i] * d_x[i] * V.dx)
        c1 = float(np.max(np.abs(val) + np.abs(d_t) + np.abs(d_x)))
        bound = defect.xi[i] * defect.D_total[i] * c1
        out["slack"].append((bound - abs(pairing), bound + size))
    for fn in compatibility_family(V.length):
        val, _, d_x, w = _table_form(V, fn, i)
        out["compatibility"].append(_fsum(-w * m["v"] * d_x, -w * m["D"] * val))
    return out


@given(K=st.integers(1, 4), n=st.integers(8, 48), nt=st.integers(2, 9),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_family_residuals_match_the_exactly_summed_table_form(K, n, nt, seed):
    V, b, defect = _random_case(K, n, nt, seed)
    assert np.max(np.abs(defect.rM_field)) > 0.0
    dens, mom, comp = (density_family(V.length), momentum_family(V.length),
                       compatibility_family(V.length))
    for tau in (float(V.times[1]), float(V.times[-1])):
        residual, slack = momentum_residual(V, LAW, LAM, mom, tau, defect=defect)
        got = {"continuity": continuity_residual(V, dens, tau),
               "renorm": renorm_continuity_residual(V, b, dens, tau),
               "momentum": residual, "slack": slack,
               "compatibility": compatibility_residual(V, comp, tau)}
        bound = 4 * (n + V.time_index(tau) + 1) * EPS
        for name, want in _table_residuals(V, b, defect, tau).items():
            for value, (exact, size) in zip(got[name], want):
                assert abs(value - exact) <= bound * size, (name, value, exact, size)


def test_momentum_family_names_the_function_not_vanishing_at_the_walls():
    traj, _, _ = small_run()
    V = assemble([traj])
    fam = momentum_family(1.0) + [family_member(density_family(1.0), "x/L*t")]
    with pytest.raises(InvalidTestFunctionError, match=r"x/L\*t does not vanish"):
        momentum_residual(V, LAW, LAM, fam, float(V.times[-1]), zero_defect(V))


# -- energy inequality ------------------------------------------------------------

def test_energy_slack_constant_state():
    traj, cfg, grid = constant_run()
    V = assemble([traj])
    e0 = total_energy(traj.state_at(0), cfg, grid)
    slack = energy_inequality_slack(V, LAW, zero_defect(V), e0, traj.cum_dissipation)
    assert abs(slack[-1]) < 1e-14


def test_energy_slack_smooth_run_floor():
    traj, cfg, grid = small_run(n=96, T=0.1, n_samples=9)
    V = assemble([traj])
    e0 = total_energy(traj.state_at(0), cfg, grid)
    # the measure's own dissipation: the trapezoid integral of lam <(tr D)^2>
    series = np.sum(moment(V, lambda s, v, D: LAM * D * D), axis=1) * V.dx
    measure_dis = np.array([np.trapezoid(series[: k + 1], V.times[: k + 1])
                            for k in range(V.times.size)])
    s_solver = energy_inequality_slack(V, LAW, zero_defect(V), e0, traj.cum_dissipation)
    s_measure = energy_inequality_slack(V, LAW, zero_defect(V), e0, measure_dis)
    for k in (4, 8):
        assert s_solver[k] >= -1e-8 * e0
        assert s_measure[k] >= -1e-8 * e0


def test_energy_slack_delta_run_with_defect():
    # Gamma = 2 with C = 1: the regularization potential cancels against the
    # zeta part of the defect, leaving the solver budget
    traj, cfg, grid = small_run(n=96, T=0.1, delta=1e-2, n_samples=9)
    V = assemble([traj])
    rep = estimate_defect([traj, traj], V, LAW, LAM, tail=1)
    e0 = total_energy(traj.state_at(0), cfg, grid)
    slack = energy_inequality_slack(V, LAW, rep, e0, traj.cum_dissipation)
    for k in (4, 8):
        assert slack[k] >= -1e-8 * e0
        assert rep.zeta[k] > 1e-3
    # every sample time in one call: each slack the bytes of its own row
    energy = moment(V, lambda s, v, D: 0.5 * s * v * v + LAW.P(s))
    alone = [e0 - np.sum(energy[k]) * V.dx - traj.cum_dissipation[k] - rep.D_total[k]
             for k in range(V.times.size)]
    assert slack.shape == V.times.shape
    assert slack.tobytes() == np.array(alone).tobytes()


def test_energy_slack_defect_inflation_linearity():
    traj, cfg, grid = small_run(n=48, T=0.05, delta=1e-3)
    V = assemble([traj])
    rep = estimate_defect([traj, traj], V, LAW, LAM, tail=1)
    inflated = dataclasses.replace(rep, D_total=rep.D_total + 1.0)
    e0 = total_energy(traj.state_at(0), cfg, grid)
    base = energy_inequality_slack(V, LAW, rep, e0, traj.cum_dissipation)
    more = energy_inequality_slack(V, LAW, inflated, e0, traj.cum_dissipation)
    assert abs((base[-1] - more[-1]) - 1.0) < 1e-12


# -- defect estimation --------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1))
def test_prefix_trapezoid_is_each_prefix_trapezoid(n, seed):
    # the terms formed once and reduced per prefix are the bytes of one
    # np.trapezoid call per prefix
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.0, 0.1, size=n))
    series = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8)
    want = np.array([np.trapezoid(series[: k + 1], times[: k + 1]) for k in range(n)])
    assert _prefix_trapezoid(series, times).tobytes() == want.tobytes()


def test_defect_duplicated_sequence_vanishes():
    traj, _, _ = small_run()
    V = assemble([traj])
    rep = estimate_defect([traj, traj], V, LAW, LAM, tail=1)
    np.testing.assert_array_equal(rep.E_inf, 0.0)
    np.testing.assert_array_equal(rep.sigma_inf, 0.0)
    np.testing.assert_array_equal(rep.zeta, 0.0)
    np.testing.assert_array_equal(rep.rM_field, 0.0)
    np.testing.assert_array_equal(rep.xi, 0.0)
    assert np.all(rep.D_total < DEFECT_FLOOR)
    assert rep.clip_log == {}


def test_defect_delta_sequence_trend():
    grid = Grid1D(n=96, length=1.0)
    init = pulse_flow_init(length=1.0, amp=0.1, u_amp=0.2, center_frac=0.35)
    seq = []
    for delta in (1e-2, 1e-3, 1e-4):
        cfg = SolverConfig(law=LAW, lam=LAM, T=0.1, delta=delta, Gamma=2.0,
                           n_samples=9)
        seq.append(run(cfg, init.sample(grid), grid))
    V = assemble([seq[-1]])
    rep = estimate_defect(seq, V, LAW, LAM, tail=1)
    finals = rep.zeta_by_member[:, -1]
    assert finals[0] > finals[1] > finals[2] > 0.0
    assert np.all(rep.E_inf >= 0.0) and np.all(rep.sigma_inf >= 0.0)
    assert np.all(rep.zeta >= 0.0) and np.all(rep.D_total >= 0.0)
    np.testing.assert_allclose(rep.rM_abs, rep.E_inf + rep.zeta,
                               rtol=0, atol=1e-12)
    assert np.all(rep.D_total >= DEFECT_FLOOR)
    np.testing.assert_allclose(rep.xi, 1.0, rtol=0, atol=1e-10)


def test_momentum_slack_with_defect_nonnegative():
    traj, _, _ = small_run(n=64, T=0.08, delta=1e-2, n_samples=9)
    V = assemble([traj])
    rep = estimate_defect([traj, traj], V, LAW, LAM, tail=1)
    phi = family_member(momentum_family(1.0), "sin(1pi x/L)*1+t")
    _, slack = momentum_residual(V, LAW, LAM, [phi], float(V.times[-1]), rep)
    assert slack[0] >= 0.0


def test_defect_clip_log_records_negative():
    grid = Grid1D(n=8, length=1.0)
    cfg = SolverConfig(law=LAW, lam=LAM, T=1.0, n_samples=3)
    times = np.linspace(0.0, 1.0, 3)
    high = synthetic_trajectory(2.0, grid, cfg, times)
    low = synthetic_trajectory(1.0, grid, cfg, times)
    V = assemble([high])
    rep = estimate_defect([high, low], V, LAW, LAM, tail=1)
    assert "E_inf" in rep.clip_log and rep.clip_log["E_inf"] < 0.0
    np.testing.assert_array_equal(rep.E_inf, 0.0)


def test_defect_rejects_short_sequence():
    traj, _, _ = small_run(n=24, T=0.02)
    V = assemble([traj])
    with pytest.raises(CannotEstimateError):
        estimate_defect([traj], V, LAW, LAM, tail=1)


@pytest.mark.parametrize("other, message", [
    (dict(n=96), r"member 1 grid \(96, 1.0\) differs"),   # one size finer
    (dict(n=24), r"member 1 grid \(24, 1.0\) differs"),   # one size coarser
    (dict(T=0.06), "member 1 sample times differ"),
], ids=["finer", "coarser", "times"])
def test_defect_rejects_a_member_off_the_measure_sampling(other, message):
    traj, _, _ = small_run(n=48)
    V = assemble([traj])
    with pytest.raises(IncompatibleEnsembleError, match=message):
        estimate_defect([traj, small_run(**other)[0]], V, LAW, LAM, tail=1)


# -- generalized Korn-Poincare ------------------------------------------------------

def _sine_field_2d(n):
    xs = (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    f = np.sin(np.pi * X) * np.sin(np.pi * Y)
    return np.stack([f, np.zeros_like(f)])


def test_korn_2d_oracle_value():
    v = _sine_field_2d(128)
    out = korn_poincare_check(v, np.zeros_like(v), [1.0, 1.0])
    assert abs(out["lhs"] - 0.25) < 1e-12
    assert abs(out["c_P"] * 4 * np.pi**2 - 1.0) < 5e-4
    assert out["rhs"] > 0.0


def test_korn_scale_invariance():
    v = _sine_field_2d(64)
    base = korn_poincare_check(v, np.zeros_like(v), [1.0, 1.0])
    for fac in (2.0, 3.0):
        scaled = korn_poincare_check(fac * v, np.zeros_like(v), [1.0, 1.0])
        assert abs(scaled["lhs"] - fac**2 * base["lhs"]) < 1e-12 * fac**2
        assert abs(scaled["c_P"] / base["c_P"] - 1.0) < 1e-10


def test_korn_equal_fields_pass_trivially():
    v = _sine_field_2d(32)
    out = korn_poincare_check(v, v, [1.0, 1.0])
    assert out["lhs"] == 0.0 and out["rhs"] == 0.0


def test_korn_rejects_1d():
    v = np.zeros((1, 50))
    with pytest.raises(UnsupportedDimensionError, match="traceless"):
        korn_poincare_check(v, v, [1.0])


def test_korn_3d_runs():
    n = 20
    xs = (np.arange(n) + 0.5) / n
    X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
    f = np.sin(np.pi * X) * np.sin(np.pi * Y) * np.sin(np.pi * Z)
    v = np.stack([f, np.zeros_like(f), np.zeros_like(f)])
    out = korn_poincare_check(v, np.zeros_like(v), [1.0, 1.0, 1.0])
    assert out["c_P"] > 0.0 and np.isfinite(out["c_P"])

