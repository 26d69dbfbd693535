"""End-to-end acceptance: each test prints one PASS/FAIL line with its budget."""

import time

import numpy as np

from helpers import dQ, frobenius, read_csv, zero_defect
from mvflow.configio import format_kv
from mvflow.experiments import cmd_run, presets, run_experiment, spec_from_config
from mvflow.measures import (assemble, compatibility_residual,
                             continuity_residual, estimate_defect,
                             korn_poincare_check, momentum_residual,
                             renorm_continuity_residual,
                             renorm_identity_truncated)
from mvflow.pressure import (CompactBump, PowerLawH, PressureLaw, bregman_H,
                             certify)
from mvflow.relative_energy import gronwall_verdict, remainder_terms
from mvflow.solver import (Grid1D, SolverConfig, make_reference,
                           perturb_density, pulse_flow_init, run,
                           smooth_pulse_init, total_energy)
from mvflow.tensors import trace, traceless


def verdict(name: str, limit_s: float, t0: float, cond: bool, detail: str):
    elapsed = time.perf_counter() - t0
    ok = cond and elapsed < limit_s
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} [{elapsed:.1f}s/{limit_s:.0f}s]")
    assert ok, f"{name}: {detail} (elapsed {elapsed:.1f}s, budget {limit_s:.0f}s)"


def power_law(gamma: float, amp: float = 0.0) -> PressureLaw:
    bump = CompactBump(q1=1.0, q2=2.0, amp=amp) if amp != 0.0 else None
    return PressureLaw(h_part=PowerLawH(a=1.0, gamma=gamma), bump=bump)


def test_01_potential_identities():
    t0 = time.perf_counter()
    rho = np.linspace(1e-3, 10.0, 2000)
    worst = 0.0
    for gamma in (1.0, 1.4, 2.0, 3.0):
        for amp in (0.0, 0.05):
            law = power_law(gamma, amp)
            h_gap = np.max(np.abs(rho * law.dH(rho) - law.H(rho) - law.h(rho)))
            q_gap = np.max(np.abs(rho * dQ(law, rho) - law.Q(rho) - law.q(rho)))
            worst = max(worst, float(h_gap), float(q_gap))
    verdict("potential identities", 1.0, t0, worst <= 1e-8,
            f"max |rho*P' - P - p| = {worst:.3e} <= 1e-8 over gamma grid")


def test_02_quadratic_bregman_closed_form():
    t0 = time.perf_counter()
    rho = np.linspace(1e-6, 10.0, 10_000)
    worst = 0.0
    for a in (1.0, 0.7):
        law = PressureLaw(h_part=PowerLawH(a=a, gamma=2.0))
        for r in (0.5, 1.0, 2.0):
            breg = bregman_H(law, rho, r)
            target = a * (rho - r) ** 2
            mask = target > 0.0
            rel = np.max(np.abs(breg[mask] - target[mask]) / target[mask])
            on_diag = np.max(np.abs(breg[~mask])) if np.any(~mask) else 0.0
            worst = max(worst, float(rel), float(on_diag))
    verdict("quadratic-law closed form", 1.0, t0, worst <= 1e-12,
            f"max relative gap to a(rho-r)^2 = {worst:.3e} <= 1e-12")


def test_03_certificates_over_gamma_and_bump_range():
    t0 = time.perf_counter()
    rho_grid = np.linspace(0.0, 10.0, 4001)
    all_valid = True
    c_floor, c_ceil = np.inf, 0.0
    for gamma in (1.4, 2.0, 3.0):
        h_at_q1 = 1.0  # a * q1^gamma with a = 1, q1 = 1
        for amp in (0.0, 0.1 * h_at_q1, -0.1 * h_at_q1):
            law = power_law(gamma, amp)
            cert = certify(law, (0.5, 2.0), rho_grid)
            all_valid &= cert.valid
            all_valid &= cert.c_min > 0.0 and np.isfinite(cert.C_max)
            c_floor = min(c_floor, cert.c_min)
            c_ceil = max(c_ceil, cert.C_max)
    verdict("lemma certificates", 10.0, t0, all_valid,
            f"valid over 9 law variants, c_min >= {c_floor:.3g}, "
            f"C_max <= {c_ceil:.3g}")


def test_04_per_step_energy_budget():
    t0 = time.perf_counter()
    grid = Grid1D(n=256, length=1.0)
    init = smooth_pulse_init(1.0, base=1.0, amp=0.1)
    law = power_law(2.0)
    worst_rel = -np.inf
    ok = True
    for delta in (0.0, 1e-3):
        cfg = SolverConfig(law=law, lam=0.1, T=0.5, delta=delta, Gamma=2.0,
                           n_samples=6)
        state0 = init.sample(grid)
        e0 = total_energy(state0, cfg, grid)
        traj = run(cfg, state0, grid)
        ok &= traj.complete and traj.min_step_slack >= -1e-8 * e0
        worst_rel = max(worst_rel, -traj.min_step_slack / e0)
    verdict("discrete energy budget", 30.0, t0, ok,
            f"per-step slack >= -1e-8*E(0) for delta in {{0, 1e-3}} "
            f"(worst rel deficit {worst_rel:.3e})")


def _library_max(measure, law, lam, length):
    from mvflow.testfuncs import (compatibility_family, density_family,
                                  momentum_family)
    tau = float(measure.times[-1])
    r_b = 0.75 * float(np.max(measure.S))
    b = renorm_identity_truncated(r_b=r_b, width=0.25 * r_b)
    vals = np.concatenate([
        continuity_residual(measure, density_family(length), tau),
        renorm_continuity_residual(measure, b, density_family(length), tau),
        momentum_residual(measure, law, lam, momentum_family(length), tau,
                          zero_defect(measure))[0],
        compatibility_residual(measure, compatibility_family(length), tau)])
    return float(np.max(np.abs(vals)))


def test_05_residual_refinement_order():
    t0 = time.perf_counter()
    law = power_law(2.0)
    init = pulse_flow_init(1.0, base=1.0, amp=0.1, u_amp=0.4, center_frac=0.35)
    maxima = []
    for n in (64, 128, 256):
        grid = Grid1D(n=n, length=1.0)
        cfg = SolverConfig(law=law, lam=0.1, T=0.12, n_samples=65)
        traj = run(cfg, init.sample(grid), grid)
        measure = assemble([traj])
        maxima.append(_library_max(measure, law, 0.1, 1.0))
    order = 0.5 * np.log2(maxima[0] / maxima[2])
    cond = maxima[0] > maxima[1] > maxima[2] and 0.7 <= order <= 1.3
    verdict("residual refinement", 120.0, t0, cond,
            f"library maxima {maxima[0]:.3e} -> {maxima[1]:.3e} -> "
            f"{maxima[2]:.3e}, observed order {order:.2f} in [0.7, 1.3]")


def test_06_tensor_identities_and_korn():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 3):
        rng = np.random.default_rng(100 + d)
        A = rng.normal(size=(1000, d, d))
        T = traceless(A)
        scale = max(1.0, float(np.max(np.abs(A))) ** 2)
        worst = max(worst, float(np.max(np.abs(trace(T)))) / scale)
        worst = max(worst,
                    float(np.max(np.abs(frobenius(T, T) - 2.0 * frobenius(T, A))))
                    / scale)

    def korn_cp(L):
        n = 64
        xs = (np.arange(n) + 0.5) * (L / n)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        v = np.zeros((2, n, n))
        v[0] = np.sin(np.pi * X / L) * np.sin(np.pi * Y / L)
        return korn_poincare_check(v, np.zeros_like(v), [L, L])["c_P"]

    c1, c2 = korn_cp(1.0), korn_cp(2.0)
    scale_gap = abs(c2 / (4.0 * c1) - 1.0)
    cond = worst <= 1e-12 and np.isfinite(c1) and c1 > 0.0 and scale_gap <= 1e-10
    verdict("tensor identities and korn", 5.0, t0, cond,
            f"identity gap {worst:.2e} <= 1e-12, c_P = {c1:.4g}, "
            f"scale drift {scale_gap:.2e} <= 1e-10")


def test_07_remainder_bounds_hold(tmp_path):
    t0 = time.perf_counter()
    spec = spec_from_config(presets()["weak-strong-bump"])
    man = run_experiment(spec, out_dir=str(tmp_path))
    hdr, rows = read_csv(str(tmp_path / "relative_energy.csv"))
    col = {name: i for i, name in enumerate(hdr)}
    ok = True
    worst = np.inf
    for row in rows:
        for i in (2, 3, 4, 5):
            bound, slack = row[col[f"bound{i}"]], row[col[f"slack{i}"]]
            gap = slack + 1e-8 * (1.0 + bound)
            within = abs(row[col[f"I{i}"]]) <= bound + 1e-8 * (1.0 + bound)
            ok &= gap >= 0.0 and within
            worst = min(worst, gap)
    by_name = {r.name: r for r in man.results}
    ok &= by_name["relative-energy"].passed
    verdict("remainder bounds", 180.0, t0, ok,
            f"|I_i| within certified bounds at all {len(rows)} sample times "
            f"(worst slack margin {worst:.3e})")


def _weak_strong_family(eps: float, seed: int = 7):
    law = power_law(2.0, amp=0.05)
    grid = Grid1D(n=128, length=1.0)
    cfg = SolverConfig(law=law, lam=0.1, T=0.1, n_samples=17)
    base = pulse_flow_init(1.0, base=1.0, amp=0.1, u_amp=0.3, center_frac=0.35)
    rng = np.random.default_rng(seed)
    if eps > 0.0:
        inits = [perturb_density(base, 1.0, eps, rng) for _ in range(4)]
    else:
        inits = [base]
    members = [run(cfg, ini.sample(grid), grid) for ini in inits]
    measure = assemble(members)
    if len(members) > 1:
        defect = estimate_defect(members, measure, law, cfg.lam,
                                 tail=len(members))
    else:
        defect = estimate_defect([members[0], members[0]], measure, law,
                                 cfg.lam, tail=1)
    ref = make_reference(cfg, base, grid, factor=1)
    r_lo, r_hi = float(np.min(ref.r)), float(np.max(ref.r))
    rho_grid = np.linspace(0.0, 10.0, 4001)
    rem = remainder_terms(measure, law, cfg.lam, ref,
                          certify(law, (r_lo, r_hi), rho_grid))
    return gronwall_verdict(rem, defect, ref, law)


def test_08_weak_strong_stability():
    t0 = time.perf_counter()
    ver0 = _weak_strong_family(0.0)
    unique = ver0.uniqueness_mode and ver0.passed
    peak = float(np.max(ver0.remainders.E_mv + ver0.D))
    floor = 1e-8 * (1.0 + ver0.constants["E_ref"])
    unique &= peak < floor

    lambdas = []
    lam_cert = None
    growth_ok = True
    for eps in (1e-1, 1e-2, 1e-3):
        ver = _weak_strong_family(eps)
        growth_ok &= ver.passed and not ver.uniqueness_mode
        lambdas.append(ver.lambda_emp)
        lam_cert = ver.lambda_cert
        growth_ok &= ver.lambda_emp <= ver.lambda_cert + 1e-9
    spread = max(lambdas) / min(lambdas)
    cond = unique and growth_ok and spread <= 2.0
    verdict("weak-strong stability", 300.0, t0, cond,
            f"eps=0 peak {peak:.2e} < floor {floor:.2e}; "
            f"Lambda_emp spread x{spread:.2f} <= 2, all <= "
            f"Lambda_cert {lam_cert:.3g}")


def test_09_defect_trend_under_delta():
    t0 = time.perf_counter()
    law = power_law(2.0)
    grid = Grid1D(n=96, length=1.0)
    base = pulse_flow_init(1.0, base=1.0, amp=0.1, u_amp=0.3, center_frac=0.35)
    members = []
    for d in (1e-2, 1e-3, 1e-4):
        cfg = SolverConfig(law=law, lam=0.1, T=0.1, delta=d, Gamma=2.0,
                           n_samples=17)
        members.append(run(cfg, base.sample(grid), grid))
    finest = assemble([members[-1]])
    rep = estimate_defect(members, finest, law, 0.1, tail=1)
    zeta_steps = rep.zeta_by_member[:-1] - rep.zeta_by_member[1:]
    decreasing = bool(np.all(zeta_steps > 0.0))
    nonneg = all(float(np.min(arr)) >= 0.0
                 for arr in (rep.E_inf, rep.sigma_inf, rep.zeta, rep.D_total))
    rm_ok = bool(np.all(rep.rM_abs <= rep.E_inf + rep.zeta + 1e-8))
    verdict("defect trend", 120.0, t0, decreasing and nonneg and rm_ok,
            f"zeta strictly decreasing along the delta sequence "
            f"(min step {float(np.min(zeta_steps)):.3e}), components >= 0, "
            f"|rM| <= E_inf + zeta + 1e-8")


def test_10_manifest_determinism(tmp_path):
    t0 = time.perf_counter()
    p = tmp_path / "ws.spec"
    p.write_text(format_kv(presets()["weak-strong-monotone"]))
    m1 = cmd_run(str(p), out=str(tmp_path / "a"))
    m2 = cmd_run(str(p), out=str(tmp_path / "b"))
    same = m1.manifest_hash == m2.manifest_hash
    bytes_same = (tmp_path / "a" / "manifest.txt").read_bytes() == \
                 (tmp_path / "b" / "manifest.txt").read_bytes()
    verdict("determinism", 60.0, t0, same and bytes_same,
            f"repeated runs agree on manifest hash {m1.manifest_hash[:12]}..")
