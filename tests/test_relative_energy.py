"""Relative-energy machinery: evaluator, remainder bounds, growth verdict."""

import dataclasses
import math

import numpy as np
import pytest

from mvflow import relative_energy as rel
from mvflow.errors import (CannotBoundError, DomainError, InvalidBandError,
                           ReferenceInvalidError)
from mvflow.measures import DiscreteYoungMeasure, assemble, estimate_defect
from mvflow.pressure import (PowerLawH, PressureLaw, build_bump_q,
                             certify_h_bound, certify_lower_bound)
from mvflow.solver import (Grid1D, SolverConfig, StrongSolutionRef,
                           make_reference, perturb_density, pulse_flow_init,
                           run)

LAW_BUMP = PressureLaw(h_part=PowerLawH(a=1.0, gamma=2.0),
                       bump=build_bump_q(1.0, 2.0, 0.05))
LAW_MONO = PressureLaw(h_part=PowerLawH(a=1.0, gamma=2.0), bump=None)
LENGTH = 1.0


def constant_ref(x, dx, times, r_val, u_val=0.0):
    nt, nx = times.size, x.size
    r = np.full((nt, nx), float(r_val))
    U = np.full((nt, nx), float(u_val))
    Z = np.zeros((nt, nx))
    norms = {"U_sup": abs(u_val), "dU_dx_sup": 0.0, "dU_dt_sup": 0.0,
             "U_C1": abs(u_val), "r_sup": float(r_val), "r_inf": float(r_val),
             "dr_dx_sup": 0.0, "inv_r_sup": 1.0 / r_val}
    return StrongSolutionRef(times=times, x=x, dx=dx, r=r, U=U, dr_dx=Z,
                             dU_dx=Z, dU_dt=Z, d2U_dx2=Z, norms=norms,
                             refinement=1, min_r=float(r_val))


def single_atom_measure(s_val, v_val, n=8):
    x = (np.arange(n) + 0.5) / n
    times = np.array([0.0])
    shape = (1, 1, n)
    return DiscreteYoungMeasure(
        times=times, x=x, dx=1.0 / n, length=1.0,
        S=np.full(shape, float(s_val)), V=np.full(shape, float(v_val)),
        D=np.zeros(shape))


def build_family(eps, law=LAW_BUMP, K=4, n=96, T=0.1, seed=7):
    """K perturbed members plus the unperturbed run as comparison flow."""
    cfg = SolverConfig(law=law, lam=0.1, T=T, n_samples=17)
    grid = Grid1D(n=n, length=LENGTH)
    base = pulse_flow_init(LENGTH, amp=0.1, u_amp=0.3, center_frac=0.35)
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(K):
        ini = perturb_density(base, LENGTH, eps, rng) if eps > 0 else base
        members.append(run(cfg, ini.sample(grid), grid))
    ref = make_reference(cfg, base, grid, factor=1)
    measure = assemble(members)
    # every member shares grid and times; averaging over all of them makes
    # the tail means coincide with the measure moments and the defect vanish
    defect = estimate_defect(members, measure, law, cfg.lam,
                             tail=len(members)) if len(members) > 1 else None
    return cfg, measure, ref, defect


def certs_for(law, ref):
    r_lo, r_hi = float(np.min(ref.r)), float(np.max(ref.r))
    rho_grid = np.linspace(0.0, 10.0, 4001)
    return (certify_lower_bound(law, (r_lo, r_hi), rho_grid),
            certify_h_bound(law, (r_lo, r_hi), rho_grid))


@pytest.fixture(scope="module")
def bump_family():
    return build_family(1e-2)


@pytest.fixture(scope="module")
def bump_certs(bump_family):
    _, _, ref, _ = bump_family
    return certs_for(LAW_BUMP, ref)


@pytest.fixture(scope="module")
def bump_remainders(bump_family, bump_certs):
    cfg, measure, ref, _ = bump_family
    lower, hb = bump_certs
    return rel.remainder_terms(measure, LAW_BUMP, cfg.lam, ref, lower, hb)


# -- evaluator --------------------------------------------------------------------


class TestRelativeEnergyValue:
    def test_single_atom_against_rest_state(self):
        # 1/2 * 2 * 1^2 + (H(2) - H(1) - H'(1)*(2-1)) = 1 + (4 - 1 - 2) = 2
        measure = single_atom_measure(2.0, 1.0)
        ref = constant_ref(measure.x, measure.dx, measure.times, 1.0)
        assert rel.relative_energy_series(measure, LAW_MONO, ref)[
            measure.time_index(0.0)] == pytest.approx(2.0, abs=1e-12)

    def test_kinetic_part_quadratic_in_velocity_offset(self):
        m1 = single_atom_measure(2.0, 1.0)
        m2 = single_atom_measure(2.0, 2.0)
        ref = constant_ref(m1.x, m1.dx, m1.times, 1.0)
        e1 = rel.relative_energy_series(m1, LAW_MONO, ref)[m1.time_index(0.0)]
        e2 = rel.relative_energy_series(m2, LAW_MONO, ref)[m2.time_index(0.0)]
        # doubling v - U quadruples the kinetic share (1.0 here) exactly
        assert e2 - e1 == pytest.approx(3.0, abs=1e-12)

    def test_atoms_matching_comparison_flow_give_zero(self):
        cfg, measure, ref, _ = build_family(0.0, K=1, n=48, T=0.05)
        series = rel.relative_energy_series(measure, LAW_BUMP, ref)
        assert np.max(np.abs(series)) == 0.0

    def test_density_offset_is_detected(self):
        measure = single_atom_measure(1.1, 0.0)
        ref = constant_ref(measure.x, measure.dx, measure.times, 1.0)
        assert rel.relative_energy_series(measure, LAW_MONO, ref)[
            measure.time_index(0.0)] > 1e-4

    def test_series_nonnegative_on_perturbed_family(self, bump_family):
        _, measure, ref, _ = bump_family
        series = rel.relative_energy_series(measure, LAW_BUMP, ref)
        assert np.all(series >= 0.0)

    def test_mismatched_times_rejected(self):
        measure = single_atom_measure(1.0, 0.0)
        ref = constant_ref(measure.x, measure.dx, np.array([0.5]), 1.0)
        with pytest.raises(ReferenceInvalidError, match="times"):
            rel.relative_energy_series(measure, LAW_MONO, ref)

    def test_mismatched_grid_rejected(self):
        measure = single_atom_measure(1.0, 0.0)
        x = measure.x + 0.3 * measure.dx
        ref = constant_ref(x, measure.dx, measure.times, 1.0)
        with pytest.raises(ReferenceInvalidError, match="grid"):
            rel.relative_energy_series(measure, LAW_MONO, ref)

    def test_off_sample_time_rejected(self):
        measure = single_atom_measure(1.0, 0.0)
        ref = constant_ref(measure.x, measure.dx, measure.times, 1.0)
        with pytest.raises(DomainError, match="sample"):
            measure.time_index(0.123)


# -- cutoff band -------------------------------------------------------------------


class TestCutoffBand:
    def test_partition_of_unity(self, bump_family):
        _, _, ref, _ = bump_family
        cut = rel.build_cutoff(LAW_BUMP, ref)
        s = np.linspace(0.0, 3.0 * cut.r2, 4001)
        total = cut.psi(s) + cut.w1(s) + cut.w2(s)
        assert np.max(np.abs(total - 1.0)) < 1e-14

    def test_band_brackets_bump_and_reference(self, bump_family):
        _, _, ref, _ = bump_family
        cut = rel.build_cutoff(LAW_BUMP, ref)
        assert cut.r1 < LAW_BUMP.bump.q1 / 2.0
        assert cut.r2 > 2.0 * LAW_BUMP.bump.q2
        assert cut.r1 < float(np.min(ref.r)) / 2.0
        assert cut.r2 > 2.0 * float(np.max(ref.r))

    def test_plateau_and_tails(self, bump_family):
        _, _, ref, _ = bump_family
        cut = rel.build_cutoff(LAW_BUMP, ref)
        mid = np.linspace(cut.r1, cut.r2, 101)
        assert np.all(cut.psi(mid) == 1.0)
        assert np.all(cut.w1(mid) == 0.0) and np.all(cut.w2(mid) == 0.0)
        # low tail lives strictly below r1, high tail strictly above r2
        assert cut.w1(0.0) == 1.0 and cut.psi(cut.r1 - cut.width) == 0.0
        assert cut.w2(cut.r2 + cut.width) == 1.0


# -- remainder terms --------------------------------------------------------------


class TestRemainderTerms:
    def test_dirac_at_comparison_flow_all_zero(self, bump_certs):
        cfg, measure, ref, _ = build_family(0.0, K=1)
        lower, hb = bump_certs
        rep = rel.remainder_terms(measure, LAW_BUMP, cfg.lam, ref, lower, hb)
        for name in ("I2", "I3", "I4", "I5"):
            assert np.max(np.abs(getattr(rep, name))) == 0.0
        for name in ("slack2", "slack3", "slack4", "slack5"):
            assert np.min(getattr(rep, name)) >= 0.0

    def test_every_bound_holds_on_perturbed_family(self, bump_remainders):
        rep = bump_remainders
        for i in (2, 3, 4, 5):
            bound = getattr(rep, f"bound{i}")
            slack = getattr(rep, f"slack{i}")
            assert np.all(slack >= -1e-8 * (1.0 + bound)), f"term {i}"

    def test_remainders_are_small_against_bounds(self, bump_remainders):
        # interior growth integrals sit well inside their certified envelopes
        rep = bump_remainders
        for i in (2, 3, 4, 5):
            assert np.max(np.abs(getattr(rep, f"I{i}"))) <= \
                0.5 * float(getattr(rep, f"bound{i}")[-1])

    def test_no_bump_kills_the_mismatch_term(self, bump_certs):
        cfg, measure, ref, _ = build_family(1e-2, law=LAW_MONO)
        lower, hb = certs_for(LAW_MONO, ref)
        rep = rel.remainder_terms(measure, LAW_MONO, cfg.lam, ref, lower, hb)
        assert np.all(rep.I5 == 0.0)
        assert rep.constants["Cq"] == 0.0 and rep.constants["K5"] == 0.0
        # the forcing weight reduces to the viscous part alone
        w3_expected = float(np.max(np.abs(cfg.lam * ref.d2U_dx2 / ref.r)))
        assert rep.constants["w3_sup"] == pytest.approx(w3_expected, rel=1e-12)

    def test_constants_are_positive_and_absorption_bounded(self, bump_remainders):
        c = bump_remainders.constants
        for key in ("K2", "K3", "K4", "alpha_psi", "A_w1", "c_trace"):
            assert c[key] > 0.0
        assert c["absorbed_trace"] < c["lam"]
        assert c["eps"] == pytest.approx(c["lam"] / 2.0)

    def test_missing_certificates_rejected(self, bump_family):
        cfg, measure, ref, _ = bump_family
        with pytest.raises(CannotBoundError):
            rel.remainder_terms(measure, LAW_BUMP, cfg.lam, ref, None, None)

    def test_invalidated_certificate_rejected(self, bump_family, bump_certs):
        cfg, measure, ref, _ = bump_family
        lower, hb = bump_certs
        broken = dataclasses.replace(lower, valid=False)
        with pytest.raises(CannotBoundError):
            rel.remainder_terms(measure, LAW_BUMP, cfg.lam, ref, broken, hb)

    def test_certificate_range_must_cover_reference(self, bump_family):
        cfg, measure, ref, _ = bump_family
        rho_grid = np.linspace(0.0, 10.0, 2001)
        lower = certify_lower_bound(LAW_BUMP, (1.5, 1.6), rho_grid)
        hb = certify_h_bound(LAW_BUMP, (1.5, 1.6), rho_grid)
        with pytest.raises(InvalidBandError, match="covers"):
            rel.remainder_terms(measure, LAW_BUMP, cfg.lam, ref, lower, hb)

    def test_nonpositive_viscosity_rejected(self, bump_family, bump_certs):
        _, measure, ref, _ = bump_family
        lower, hb = bump_certs
        with pytest.raises(DomainError, match="viscosity"):
            rel.remainder_terms(measure, LAW_BUMP, 0.0, ref, lower, hb)



# -- growth verdict ---------------------------------------------------------------


class TestGronwallVerdict:
    def test_identically_zero_series_pass_uniqueness(self, bump_certs):
        cfg, measure, ref, defect = build_family(0.0, K=2)
        lower, hb = bump_certs
        rep = rel.remainder_terms(measure, LAW_BUMP, cfg.lam, ref, lower, hb)
        ver = rel.gronwall_verdict(measure.times, rep.E_mv, defect.D_total,
                                   rep, ref, LAW_BUMP, xi=defect.xi)
        assert ver.uniqueness_mode and ver.passed
        assert float(np.max(rep.E_mv + defect.D_total)) < 1e-8 * (1.0 + ver.E_ref)

    def test_growth_mode_passes_for_perturbed_family(self, bump_family,
                                                     bump_remainders):
        cfg, measure, ref, defect = bump_family
        rep = bump_remainders
        ver = rel.gronwall_verdict(measure.times, rep.E_mv, defect.D_total,
                                   rep, ref, LAW_BUMP, xi=defect.xi)
        assert not ver.uniqueness_mode
        assert ver.passed
        assert ver.lambda_emp <= ver.lambda_cert + 1e-9
        assert ver.lambda_cert == pytest.approx(
            math.exp(ver.C_total * float(measure.times[-1])), rel=1e-12)

    def test_growth_factor_stable_across_perturbation_sizes(self, bump_certs):
        lower, hb = bump_certs
        lams, e0s = [], []
        for eps in (1e-1, 1e-2, 1e-3):
            cfg, measure, ref, defect = build_family(eps)
            rep = rel.remainder_terms(measure, LAW_BUMP, cfg.lam, ref, lower, hb)
            ver = rel.gronwall_verdict(measure.times, rep.E_mv, defect.D_total,
                                       rep, ref, LAW_BUMP, xi=defect.xi)
            assert ver.passed and not ver.uniqueness_mode
            lams.append(ver.lambda_emp)
            e0s.append(ver.constants["E0"])
        assert max(lams) <= 2.0 * min(lams)
        # initial energies scale like eps^2
        assert e0s[0] / e0s[1] == pytest.approx(100.0, rel=0.3)
        assert e0s[1] / e0s[2] == pytest.approx(100.0, rel=0.3)

    def test_fake_spike_fails(self, bump_family, bump_remainders):
        cfg, measure, ref, defect = bump_family
        rep = bump_remainders
        spiked = rep.E_mv.copy()
        spiked[-1] = 1e6 * max(spiked[0], 1e-30)
        ver = rel.gronwall_verdict(measure.times, spiked, defect.D_total,
                                   rep, ref, LAW_BUMP, xi=defect.xi)
        assert not ver.passed

    def test_mismatched_series_rejected(self, bump_family, bump_remainders):
        cfg, measure, ref, defect = bump_family
        rep = bump_remainders
        with pytest.raises(DomainError, match="series"):
            rel.gronwall_verdict(measure.times[:-1], rep.E_mv[:-1],
                                 defect.D_total[:-1], rep, ref, LAW_BUMP)

    def test_concentration_weight_enters_growth_constant(self, bump_family,
                                                         bump_remainders):
        cfg, measure, ref, defect = bump_family
        rep = bump_remainders
        v0 = rel.gronwall_verdict(measure.times, rep.E_mv, defect.D_total,
                                  rep, ref, LAW_BUMP, xi=None)
        ones = np.ones_like(measure.times)
        v1 = rel.gronwall_verdict(measure.times, rep.E_mv, defect.D_total,
                                  rep, ref, LAW_BUMP, xi=ones)
        assert v1.C_total - v0.C_total == pytest.approx(
            rep.constants["U_C1"], rel=1e-12)

    def test_report_rows_and_verdict_line(self, bump_family, bump_remainders):
        cfg, measure, ref, defect = bump_family
        rep = bump_remainders
        ver = rel.gronwall_verdict(measure.times, rep.E_mv, defect.D_total,
                                   rep, ref, LAW_BUMP, xi=defect.xi)
        hdr, rows = ver.rows()
        assert len(hdr) == 15 and len(rows) == measure.times.size
        assert all(len(row) == 15 for row in rows)
        line = ver.verdict_line()
        assert "verdict=pass" in line and "lambda_emp=" in line


# -- discrete weak-strong refinement ----------------------------------------------


class TestRefinementToComparisonFlow:
    def test_energy_gap_shrinks_with_resolution(self):
        """Coarse runs measured against one refined flow: the gap falls fast.

        The energy distance is quadratic in the field error, so first-order
        field convergence would give ratios near 4; the measured ratios on
        this smooth configuration sit higher (8.7 and 10.0 at these sizes).
        """
        base = pulse_flow_init(LENGTH, amp=0.1, u_amp=0.3, center_frac=0.35)
        vals = []
        for n in (32, 64, 128):
            cfg = SolverConfig(law=LAW_MONO, lam=0.1, T=0.1, n_samples=9)
            grid = Grid1D(n=n, length=LENGTH)
            traj = run(cfg, base.sample(grid), grid)
            ref = make_reference(cfg, base, grid, factor=256 // n)
            measure = assemble([traj])
            series = rel.relative_energy_series(measure, LAW_MONO, ref)
            assert np.all(series >= 0.0)
            vals.append(float(series[-1]))
        assert vals[0] > vals[1] > vals[2] > 0.0
        ratios = [vals[0] / vals[1], vals[1] / vals[2]]
        assert all(3.5 < r < 16.0 for r in ratios), ratios
