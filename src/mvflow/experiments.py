"""Reproducible experiments: spec -> ensemble runs -> checks -> reports.

An experiment is described by a small key = value file (see configio).  The
driver runs the ensemble, assembles the empirical measure, evaluates the
requested checks, and writes plot-ready CSVs plus a manifest whose hash is a
pure function of the resolved spec and the emitted bytes; repeated runs with
the same spec and seed produce the identical hash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .configio import config_hash, format_csv, format_kv, read_spec
from .errors import MvflowError, SpecParseError
from .measures import (assemble, compatibility_residual, continuity_residual,
                       energy_inequality_slack, estimate_defect,
                       korn_poincare_check, momentum_residual,
                       renorm_continuity_residual, renorm_identity_truncated)
from .pressure import (PressureLaw, certificate_rows, certify_h_bound,
                       certify_lower_bound, law_from_config, law_to_config)
from .relative_energy import (EstimatorConfig, gronwall_verdict,
                              relative_energy_series, remainder_terms)
from .solver import (Grid1D, InitialData, SolverConfig, Trajectory,
                     make_reference, perturb_density, pulse_flow_init, run,
                     total_energy)
from .testfuncs import compatibility_family, density_family, momentum_family

CHECK_NAMES = ("energy", "continuity", "renorm", "momentum", "compatibility",
               "korn", "lemmas", "relative-energy", "gronwall")
ENSEMBLE_MODES = ("none", "density-noise", "delta-sequence")

_KNOWN_KEYS = {
    "schema", "name", "grid.n", "grid.length",
    "solver.lam", "solver.T", "solver.delta", "solver.Gamma", "solver.cfl",
    "solver.n_samples",
    "init.kind", "init.base", "init.amp", "init.u_amp", "init.width_frac",
    "init.center_frac",
    "ensemble.k", "ensemble.mode", "ensemble.eps", "ensemble.deltas",
    "ref.factor", "checks", "seed", "out", "tol.residual",
    "convergence.levels",
}


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    law: PressureLaw
    grid_n: int
    length: float
    lam: float
    T: float
    delta: float
    Gamma: float
    cfl: float
    n_samples: int
    init_kind: str
    init_base: float
    init_amp: float
    init_u_amp: float
    init_width_frac: float
    init_center_frac: float
    members: int
    mode: str
    eps: float
    deltas: tuple[float, ...]
    ref_factor: int
    checks: tuple[str, ...]
    seed: int
    out: str | None
    residual_tol: float
    convergence_levels: tuple[int, ...]


def _get(cfg: dict, key: str, default, cast):
    raw = cfg.get(key)
    if raw is None:
        if default is None:
            raise SpecParseError(f"field '{key}' is required")
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError) as e:
        raise SpecParseError(f"field '{key}': {e}") from e


def spec_from_config(cfg: dict) -> ExperimentSpec:
    """Validate a parsed key/value mapping into an ExperimentSpec."""
    for key in cfg:
        if key in _KNOWN_KEYS or key.startswith("law."):
            continue
        raise SpecParseError(f"field '{key}': unknown")

    try:
        law = law_from_config(cfg)
    except MvflowError as e:
        raise SpecParseError(f"field 'law.*': {e}") from e

    name = _get(cfg, "name", None, str)
    grid_n = _get(cfg, "grid.n", 96, int)
    length = _get(cfg, "grid.length", 1.0, float)
    if grid_n < 4 or length <= 0.0:
        raise SpecParseError("field 'grid.*': need n >= 4 and length > 0")

    members = _get(cfg, "ensemble.k", 1, int)
    if members < 1:
        raise SpecParseError(f"field 'ensemble.k': must be >= 1, got {members}")
    mode = _get(cfg, "ensemble.mode", "none", str)
    if mode not in ENSEMBLE_MODES:
        raise SpecParseError(
            f"field 'ensemble.mode': unknown mode '{mode}' "
            f"(expected one of {', '.join(ENSEMBLE_MODES)})")
    eps = _get(cfg, "ensemble.eps", 0.0, float)
    if mode == "density-noise" and eps <= 0.0:
        raise SpecParseError("field 'ensemble.eps': density-noise needs eps > 0")

    deltas: tuple[float, ...] = ()
    if "ensemble.deltas" in cfg:
        try:
            deltas = tuple(float(v) for v in cfg["ensemble.deltas"].split(","))
        except ValueError as e:
            raise SpecParseError(f"field 'ensemble.deltas': {e}") from e
    if mode == "delta-sequence":
        if len(deltas) < 2:
            raise SpecParseError(
                "field 'ensemble.deltas': delta-sequence needs >= 2 values")
        if any(d <= 0.0 for d in deltas) or \
                any(a >= b for a, b in zip(deltas[1:], deltas[:-1])):
            raise SpecParseError(
                "field 'ensemble.deltas': values must be positive and "
                "strictly decreasing (finest last)")
        if "ensemble.k" in cfg and members != len(deltas):
            raise SpecParseError(
                f"field 'ensemble.k': {members} disagrees with "
                f"{len(deltas)} delta values")
        members = len(deltas)

    checks_raw = _get(cfg, "checks", "", str)
    checks = tuple(c.strip() for c in checks_raw.split(",") if c.strip())
    for c in checks:
        if c not in CHECK_NAMES:
            raise SpecParseError(
                f"field 'checks': unknown check '{c}' "
                f"(expected a subset of {', '.join(CHECK_NAMES)})")

    levels_raw = cfg.get("convergence.levels", "64,128,256")
    try:
        levels = tuple(int(v) for v in levels_raw.split(","))
    except ValueError as e:
        raise SpecParseError(f"field 'convergence.levels': {e}") from e

    init_kind = _get(cfg, "init.kind", "pulse-flow", str)
    if init_kind not in ("pulse-flow", "constant"):
        raise SpecParseError(f"field 'init.kind': unknown kind '{init_kind}'")

    residual_tol = _get(cfg, "tol.residual", 1e-10, float)
    if residual_tol <= 0.0:
        raise SpecParseError("field 'tol.residual': must be > 0")
    ref_factor = _get(cfg, "ref.factor", 1, int)
    if ref_factor < 1:
        raise SpecParseError("field 'ref.factor': must be >= 1")

    try:
        spec = ExperimentSpec(
            name=name, law=law, grid_n=grid_n, length=length,
            lam=_get(cfg, "solver.lam", 0.1, float),
            T=_get(cfg, "solver.T", 0.1, float),
            delta=_get(cfg, "solver.delta", 0.0, float),
            Gamma=_get(cfg, "solver.Gamma", 2.0, float),
            cfl=_get(cfg, "solver.cfl", 0.4, float),
            n_samples=_get(cfg, "solver.n_samples", 17, int),
            init_kind=init_kind,
            init_base=_get(cfg, "init.base", 1.0, float),
            init_amp=_get(cfg, "init.amp", 0.1, float),
            init_u_amp=_get(cfg, "init.u_amp", 0.3, float),
            init_width_frac=_get(cfg, "init.width_frac", 0.1, float),
            init_center_frac=_get(cfg, "init.center_frac", 0.35, float),
            members=members, mode=mode, eps=eps, deltas=deltas,
            ref_factor=ref_factor, checks=checks,
            seed=_get(cfg, "seed", 0, int),
            out=cfg.get("out"), residual_tol=residual_tol,
            convergence_levels=levels)
        _solver_config(spec)  # validates the numeric ranges up front
    except MvflowError as e:
        if isinstance(e, SpecParseError):
            raise
        raise SpecParseError(f"solver configuration invalid: {e}") from e
    return spec


def spec_to_config(spec: ExperimentSpec) -> dict[str, str]:
    """Canonical resolved form of a spec; inverse of spec_from_config."""
    cfg: dict[str, str] = {"schema": "1", "name": spec.name}
    cfg.update(law_to_config(spec.law))
    cfg.update({
        "grid.n": str(spec.grid_n), "grid.length": repr(spec.length),
        "solver.lam": repr(spec.lam), "solver.T": repr(spec.T),
        "solver.delta": repr(spec.delta), "solver.Gamma": repr(spec.Gamma),
        "solver.cfl": repr(spec.cfl), "solver.n_samples": str(spec.n_samples),
        "init.kind": spec.init_kind, "init.base": repr(spec.init_base),
        "init.amp": repr(spec.init_amp), "init.u_amp": repr(spec.init_u_amp),
        "init.width_frac": repr(spec.init_width_frac),
        "init.center_frac": repr(spec.init_center_frac),
        "ensemble.k": str(spec.members), "ensemble.mode": spec.mode,
        "ensemble.eps": repr(spec.eps),
        "ref.factor": str(spec.ref_factor),
        "checks": ",".join(spec.checks), "seed": str(spec.seed),
        "tol.residual": repr(spec.residual_tol),
        "convergence.levels": ",".join(str(v) for v in spec.convergence_levels),
    })
    if spec.deltas:
        cfg["ensemble.deltas"] = ",".join(repr(d) for d in spec.deltas)
    return cfg


# -- presets ----------------------------------------------------------------------

def presets() -> dict[str, dict[str, str]]:
    """Built-in experiment specs, keyed by name."""
    base = {
        "schema": "1", "law.kind": "power", "law.a": "1.0", "law.gamma": "2.0",
        "grid.length": "1.0", "solver.lam": "0.1", "seed": "7",
    }
    constant = dict(base, **{
        "name": "constant-state", "grid.n": "48", "solver.T": "0.05",
        "solver.n_samples": "9", "init.kind": "constant", "init.base": "1.0",
        "ensemble.k": "2", "ensemble.mode": "none",
        "checks": "energy,continuity,renorm,momentum,compatibility,korn,lemmas",
        "tol.residual": "1e-10", "seed": "1",
    })
    monotone = dict(base, **{
        "name": "weak-strong-monotone", "grid.n": "96", "solver.T": "0.1",
        "solver.n_samples": "17", "init.amp": "0.1", "init.u_amp": "0.3",
        "init.center_frac": "0.35",
        "ensemble.k": "4", "ensemble.mode": "density-noise",
        "ensemble.eps": "1e-2", "ref.factor": "1",
        "checks": "energy,lemmas,relative-energy,gronwall",
    })
    bump = dict(monotone, **{
        "name": "weak-strong-bump", "grid.n": "128",
        "law.bump.q1": "1.0", "law.bump.q2": "2.0", "law.bump.A": "0.05",
    })
    # h = rho^2 + 0.1 rho sampled at 9 points on [0, 4]
    tabulated = {k: v for k, v in monotone.items() if k != "law.a"}
    tabulated.update({
        "name": "weak-strong-tabulated", "law.kind": "tabulated",
        "law.rho": "0.0,0.5,1.0,1.5,2.0,2.5,3.0,3.5,4.0",
        "law.h": "0.0,0.3,1.1,2.4,4.2,6.5,9.3,12.6,16.4",
    })
    deltas = dict(base, **{
        "name": "delta-sequence", "grid.n": "96", "solver.T": "0.1",
        "solver.n_samples": "17", "solver.Gamma": "2.0",
        "init.amp": "0.1", "init.u_amp": "0.3", "init.center_frac": "0.35",
        "ensemble.mode": "delta-sequence",
        "ensemble.deltas": "1e-2,1e-3,1e-4",
        "checks": "energy", "seed": "3",
    })
    convergence = dict(base, **{
        "name": "convergence-pulse", "grid.n": "64", "solver.T": "0.12",
        "solver.n_samples": "65", "init.amp": "0.1", "init.u_amp": "0.4",
        "init.center_frac": "0.35", "checks": "energy",
        "convergence.levels": "64,128,256",
    })
    return {cfg["name"]: cfg for cfg in
            (constant, monotone, bump, tabulated, deltas, convergence)}


# -- experiment execution ----------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    detail: str


@dataclass(frozen=True)
class RunManifest:
    name: str
    spec_hash: str
    version: str
    results: tuple[CheckResult, ...]
    files: tuple[tuple[str, str], ...]  # (relative name, sha256)
    out_dir: str
    manifest_hash: str
    manifest_path: str

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _solver_config(spec: ExperimentSpec, delta: float | None = None) -> SolverConfig:
    return SolverConfig(law=spec.law, lam=spec.lam, T=spec.T,
                        delta=spec.delta if delta is None else delta,
                        Gamma=spec.Gamma, cfl=spec.cfl,
                        n_samples=spec.n_samples)


def _initial_data(spec: ExperimentSpec) -> InitialData:
    if spec.init_kind == "constant":
        base = spec.init_base

        def rho_fn(x):
            return np.full_like(np.asarray(x, dtype=float), base)

        def u_fn(x):
            return np.zeros_like(np.asarray(x, dtype=float))

        return InitialData(name="constant", rho_fn=rho_fn, u_fn=u_fn,
                           params={"base": base})
    return pulse_flow_init(spec.length, base=spec.init_base, amp=spec.init_amp,
                           u_amp=spec.init_u_amp,
                           width_frac=spec.init_width_frac,
                           center_frac=spec.init_center_frac)


def _build_ensemble(spec: ExperimentSpec, jobs: int
                    ) -> tuple[Grid1D, InitialData, list[Trajectory]]:
    grid = Grid1D(n=spec.grid_n, length=spec.length)
    base = _initial_data(spec)
    rng = np.random.default_rng(spec.seed)

    tasks: list[tuple[SolverConfig, InitialData]] = []
    if spec.mode == "delta-sequence":
        for d in spec.deltas:
            tasks.append((_solver_config(spec, delta=d), base))
    else:
        for _ in range(spec.members):
            ini = base
            if spec.mode == "density-noise":
                # draw all perturbations before dispatch: the generator state
                # must not depend on thread scheduling
                ini = perturb_density(base, spec.length, spec.eps, rng)
            tasks.append((_solver_config(spec), ini))

    with ThreadPoolExecutor(max_workers=max(1, jobs)) as ex:
        futures = [ex.submit(run, cfg, ini.sample(grid), grid)
                   for cfg, ini in tasks]
        members = [f.result() for f in futures]
    return grid, base, members


@dataclass
class _Context:
    spec: ExperimentSpec
    grid: Grid1D
    base: InitialData
    members: list[Trajectory]
    measure: object
    defect: object
    e0: float
    cum_dis: np.ndarray
    ref: object = None
    remainders: object = None
    verdict: object = None


def _make_context(spec: ExperimentSpec, jobs: int) -> _Context:
    grid, base, members = _build_ensemble(spec, jobs)
    measure = assemble(members)
    if len(members) >= 2:
        # tail spans the full generating ensemble: the tail means then equal
        # the measure moments, so rM collapses to the delta term alone and
        # the rM <= E_inf + zeta and energy-budget identities close exactly
        defect = estimate_defect(members, measure, spec.law, spec.lam,
                                 tail=len(members))
    else:
        defect = estimate_defect([members[0], members[0]], measure,
                                 spec.law, spec.lam, tail=1)
    e0 = float(np.mean([total_energy(m.state_at(0), m.cfg, grid)
                        for m in members]))
    cum_dis = np.mean([m.cum_dissipation for m in members], axis=0)
    return _Context(spec=spec, grid=grid, base=base, members=members,
                    measure=measure, defect=defect, e0=e0, cum_dis=cum_dis)


def _ensure_weak_strong(ctx: _Context) -> None:
    if ctx.remainders is not None:
        return
    spec = ctx.spec
    cfg = _solver_config(spec)
    ctx.ref = make_reference(cfg, ctx.base, ctx.grid, factor=spec.ref_factor)
    r_lo, r_hi = float(np.min(ctx.ref.r)), float(np.max(ctx.ref.r))
    s_top = max(10.0, 5.0 * r_hi, 1.2 * float(np.max(ctx.measure.S)))
    rho_grid = np.linspace(0.0, s_top, 4001)
    lower = certify_lower_bound(spec.law, (r_lo, r_hi), rho_grid)
    hbound = certify_h_bound(spec.law, (r_lo, r_hi), rho_grid)
    ctx.remainders = remainder_terms(ctx.measure, spec.law, spec.lam, ctx.ref,
                                     lower, hbound, EstimatorConfig())
    ctx.verdict = gronwall_verdict(
        ctx.measure.times, ctx.remainders.E_mv, ctx.defect.D_total,
        ctx.remainders, ctx.ref, spec.law, xi=ctx.defect.xi)


def _check_energy(ctx: _Context):
    spec, measure = ctx.spec, ctx.measure
    rows = []
    for tau in measure.times:
        slack = energy_inequality_slack(measure, spec.law, spec.lam, ctx.defect,
                                        ctx.e0, float(tau),
                                        cum_dissipation=ctx.cum_dis)
        rows.append((float(tau), slack))
    worst = min(s for _, s in rows)
    step_worst = min(m.min_step_slack for m in ctx.members)
    ok = worst >= -1e-8 * max(1.0, ctx.e0)
    detail = (f"min form slack {worst:.3e}, min per-step slack "
              f"{step_worst:.3e}, E(0) = {ctx.e0:.6g}")
    return (CheckResult("energy", ok, worst, detail),
            [("energy.csv", format_csv(["tau", "slack"], rows))])


def _check_continuity(ctx: _Context):
    spec, measure = ctx.spec, ctx.measure
    tau = float(measure.times[-1])
    rows = [(f.id, continuity_residual(measure, f, tau))
            for f in density_family(spec.length)]
    worst = max(abs(v) for _, v in rows)
    ok = worst <= spec.residual_tol
    return (CheckResult("continuity", ok, worst,
                        f"max |residual| {worst:.3e} over {len(rows)} tests"),
            [("continuity.csv", format_csv(["psi", "residual"], rows))])


def _check_renorm(ctx: _Context):
    spec, measure = ctx.spec, ctx.measure
    tau = float(measure.times[-1])
    r_b = 0.75 * float(np.max(measure.S))
    b = renorm_identity_truncated(r_b=r_b, width=0.25 * r_b)
    rows = [(f.id, renorm_continuity_residual(measure, b, f, tau))
            for f in density_family(spec.length)]
    worst = max(abs(v) for _, v in rows)
    ok = worst <= spec.residual_tol
    return (CheckResult("renorm", ok, worst,
                        f"max |residual| {worst:.3e} with {b.name}"),
            [("renorm.csv", format_csv(["psi", "residual"], rows))])


def _check_momentum(ctx: _Context):
    spec, measure = ctx.spec, ctx.measure
    tau = float(measure.times[-1])
    rows = []
    for f in momentum_family(spec.length):
        res, slack = momentum_residual(measure, spec.law, spec.lam, f, tau,
                                       defect=ctx.defect)
        rows.append((f.id, res, slack))
    worst = max(abs(v) for _, v, _ in rows)
    worst_slack = min(s for _, _, s in rows)
    ok = worst <= spec.residual_tol and worst_slack >= -1e-8 * max(1.0, ctx.e0)
    return (CheckResult("momentum", ok, worst,
                        f"max |residual| {worst:.3e}, min slack {worst_slack:.3e}"),
            [("momentum.csv", format_csv(["phi", "residual", "slack"], rows))])


def _check_compatibility(ctx: _Context):
    spec, measure = ctx.spec, ctx.measure
    tau = float(measure.times[-1])
    rows = [(f.id, compatibility_residual(measure, f, tau))
            for f in compatibility_family(spec.length)]
    worst = max(abs(v) for _, v in rows)
    ok = worst <= spec.residual_tol
    return (CheckResult("compatibility", ok, worst,
                        f"max |residual| {worst:.3e} over {len(rows)} tests"),
            [("compatibility.csv", format_csv(["M", "residual"], rows))])


def _korn_fields(length: float, n: int):
    xs = (np.arange(n) + 0.5) * (length / n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    v = np.zeros((2, n, n))
    v[0] = np.sin(np.pi * X / length) * np.sin(np.pi * Y / length)
    return v, np.zeros_like(v)


def _check_korn(ctx: _Context):
    L = ctx.spec.length
    rows = []
    for scale in (1.0, 2.0):
        v, u = _korn_fields(scale * L, 48)
        out = korn_poincare_check(v, u, [scale * L, scale * L])
        rows.append((scale * L, out["lhs"], out["rhs"], out["c_P"]))
    c1, c2 = rows[0][3], rows[1][3]
    # c_P carries the square of the box size; doubling L must quadruple it
    invariant = abs(c2 / (4.0 * c1) - 1.0) if c1 > 0 else math.inf
    ok = c1 > 0.0 and math.isfinite(c1) and invariant <= 1e-8
    return (CheckResult("korn", ok, c1,
                        f"c_P {c1:.6g}, scale drift {invariant:.3e}"),
            [("korn.csv", format_csv(["length", "lhs", "rhs", "c_P"], rows))])


def _check_lemmas(ctx: _Context):
    spec, measure = ctx.spec, ctx.measure
    rho_bar = np.mean(measure.S, axis=0)
    r_lo = 0.95 * float(np.min(rho_bar))
    r_hi = 1.05 * float(np.max(rho_bar))
    top = max(10.0, 4.4 * r_hi)
    rho_grid = np.linspace(0.0, top, 4001)
    lower = certify_lower_bound(spec.law, (r_lo, r_hi), rho_grid)
    hbound = certify_h_bound(spec.law, (r_lo, r_hi), rho_grid)
    rows = certificate_rows(lower, hbound)
    ok = lower.valid and hbound.valid
    return (CheckResult("lemmas", ok, float(lower.c_min),
                        f"c_min {lower.c_min:.6g}, C_max {hbound.C_max:.6g} "
                        f"on r in [{r_lo:.4g}, {r_hi:.4g}]"),
            [("certificates.csv",
              format_csv(["r", "c_middle", "c_outer", "C_ratio", "valid"], rows))])


def _check_relative_energy(ctx: _Context):
    _ensure_weak_strong(ctx)
    rep = ctx.remainders
    worst = min(float(np.min(getattr(rep, f"slack{i}") +
                             1e-8 * (1.0 + getattr(rep, f"bound{i}"))))
                for i in (2, 3, 4, 5))
    ok = worst >= 0.0
    hdr = ["tau", "E_mv", "I2", "I3", "I4", "I5",
           "bound2", "bound3", "bound4", "bound5",
           "slack2", "slack3", "slack4", "slack5"]
    rows = [tuple(float(arr[k]) for arr in
                  (rep.times, rep.E_mv, rep.I2, rep.I3, rep.I4, rep.I5,
                   rep.bound2, rep.bound3, rep.bound4, rep.bound5,
                   rep.slack2, rep.slack3, rep.slack4, rep.slack5))
            for k in range(rep.times.size)]
    return (CheckResult("relative-energy", ok, worst,
                        "every remainder within its certified bound" if ok
                        else "a remainder exceeded its certified bound"),
            [("relative_energy.csv", format_csv(hdr, rows))])


def _check_gronwall(ctx: _Context):
    _ensure_weak_strong(ctx)
    ver = ctx.verdict
    hdr, rows = ver.rows()
    return (CheckResult("gronwall", ver.passed, ver.lambda_emp,
                        ver.verdict_line()),
            [("gronwall.csv", format_csv(hdr, rows)),
             ("gronwall_verdict.txt", ver.verdict_line() + "\n")])


_CHECKS = {
    "energy": _check_energy,
    "continuity": _check_continuity,
    "renorm": _check_renorm,
    "momentum": _check_momentum,
    "compatibility": _check_compatibility,
    "korn": _check_korn,
    "lemmas": _check_lemmas,
    "relative-energy": _check_relative_energy,
    "gronwall": _check_gronwall,
}


def resolve_out_dir(spec: ExperimentSpec, flag_out: str | None) -> str:
    """Precedence: --out flag, then MVFLOW_OUT, then the spec, then runs/<name>."""
    if flag_out:
        return flag_out
    env = os.environ.get("MVFLOW_OUT")
    if env:
        return env
    if spec.out:
        return spec.out
    return os.path.join("runs", spec.name)


def run_experiment(spec: ExperimentSpec, out_dir: str | None = None,
                   jobs: int = 1) -> RunManifest:
    """Execute the ensemble and every requested check; write all reports."""
    out_dir = resolve_out_dir(spec, out_dir)
    os.makedirs(out_dir, exist_ok=True)

    resolved = spec_to_config(spec)
    spec_hash = config_hash(resolved)

    ctx = _make_context(spec, jobs)
    if "gronwall" in spec.checks or "relative-energy" in spec.checks:
        _ensure_weak_strong(ctx)

    results: list[CheckResult] = []
    payloads: list[tuple[str, str]] = [("spec.resolved", format_kv(resolved))]
    with ThreadPoolExecutor(max_workers=max(1, jobs)) as ex:
        futures = [(name, ex.submit(_CHECKS[name], ctx)) for name in spec.checks]
        for name, fut in futures:
            try:
                result, files = fut.result()
            except MvflowError as e:
                result, files = CheckResult(name, False, math.nan, str(e)), []
            results.append(result)
            payloads.extend(files)

    # every write funnels through here, in deterministic order
    file_entries: list[tuple[str, str]] = []
    for fname, text in payloads:
        with open(os.path.join(out_dir, fname), "w") as fh:
            fh.write(text)
        file_entries.append(
            (fname, hashlib.sha256(text.encode()).hexdigest()))

    manifest_cfg: dict[str, str] = {
        "schema": "1", "tool": f"mvflow-{__version__}", "name": spec.name,
        "spec_hash": spec_hash,
    }
    for r in results:
        manifest_cfg[f"check.{r.name}"] = "pass" if r.passed else "fail"
        manifest_cfg[f"check.{r.name}.value"] = repr(float(r.value))
    for fname, digest in file_entries:
        manifest_cfg[f"file.{fname}"] = digest
    manifest_text = format_kv(manifest_cfg)
    manifest_hash = hashlib.sha256(manifest_text.encode()).hexdigest()
    manifest_path = os.path.join(out_dir, "manifest.txt")
    with open(manifest_path, "w") as fh:
        fh.write(manifest_text)
        fh.write(f"manifest_hash = {manifest_hash}\n")

    return RunManifest(name=spec.name, spec_hash=spec_hash,
                       version=__version__, results=tuple(results),
                       files=tuple(file_entries), out_dir=out_dir,
                       manifest_hash=manifest_hash, manifest_path=manifest_path)


# -- command-layer operations -------------------------------------------------------

def cmd_run(spec_path: str, out: str | None = None, seed: int | None = None,
            jobs: int = 1) -> RunManifest:
    cfg = read_spec(spec_path)
    spec = spec_from_config(cfg)
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    return run_experiment(spec, out_dir=out, jobs=jobs)


def _order_cell(a: float, b: float) -> object:
    if abs(a) <= 1e-14 or abs(b) <= 1e-14:
        return "n/a"
    return math.log2(abs(a) / abs(b))


def _library_maxima(spec: ExperimentSpec, measure, defect) -> dict[str, float]:
    tau = float(measure.times[-1])
    cont = max(abs(continuity_residual(measure, f, tau))
               for f in density_family(spec.length))
    r_b = 0.75 * float(np.max(measure.S))
    b = renorm_identity_truncated(r_b=r_b, width=0.25 * r_b)
    ren = max(abs(renorm_continuity_residual(measure, b, f, tau))
              for f in density_family(spec.length))
    mom = max(abs(momentum_residual(measure, spec.law, spec.lam, f, tau,
                                    defect=defect)[0])
              for f in momentum_family(spec.length))
    comp = max(abs(compatibility_residual(measure, f, tau))
               for f in compatibility_family(spec.length))
    return {"continuity": cont, "renorm": ren, "momentum": mom,
            "compatibility": comp}


def cmd_convergence(spec_path: str, levels: tuple[int, ...] | None = None,
                    out: str | None = None, seed: int | None = None,
                    jobs: int = 1) -> tuple[str, list[str], list[tuple]]:
    """Refinement table: residual/defect/energy-gap values and log2 orders."""
    cfg = read_spec(spec_path)
    spec = spec_from_config(cfg)
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    out_dir = resolve_out_dir(spec, out)
    os.makedirs(out_dir, exist_ok=True)

    if spec.mode == "delta-sequence":
        if len(spec.deltas) < 3:
            raise SpecParseError("convergence needs at least 3 levels")
        header = ["delta", "zeta", "energy", "dissipation"]
        grid = Grid1D(n=spec.grid_n, length=spec.length)
        base = _initial_data(spec)
        values = []
        for d in spec.deltas:
            traj = run(_solver_config(spec, delta=d), base.sample(grid), grid)
            zeta = float(np.sum(d * traj.rho[-1] ** spec.Gamma) * grid.dx)
            values.append((d, zeta, float(traj.energy[-1]),
                           float(traj.cum_dissipation[-1])))
        rows: list[tuple] = list(values)
        for i in range(len(values) - 1):
            rows.append((f"order:{values[i][0]:g}->{values[i + 1][0]:g}",
                         _order_cell(values[i][1], values[i + 1][1]),
                         "n/a", "n/a"))
    else:
        levels = tuple(levels) if levels else spec.convergence_levels
        if len(levels) < 3:
            raise SpecParseError("convergence needs at least 3 levels")
        header = ["n", "dx", "continuity", "renorm", "momentum",
                  "compatibility", "E_mv"]
        fine_n = 2 * max(levels)
        base = _initial_data(spec)
        per_level = []
        for n in levels:
            lspec = dataclasses.replace(spec, grid_n=int(n), members=1,
                                        mode="none", deltas=())
            grid = Grid1D(n=int(n), length=spec.length)
            traj = run(_solver_config(lspec), base.sample(grid), grid)
            measure = assemble([traj])
            defect = estimate_defect([traj, traj], measure, spec.law,
                                     spec.lam, tail=1)
            lib = _library_maxima(lspec, measure, defect)
            ref = make_reference(_solver_config(lspec), base, grid,
                                 factor=max(1, fine_n // int(n)))
            e_gap = float(relative_energy_series(measure, spec.law, ref)[-1])
            per_level.append((int(n), grid.dx, lib["continuity"], lib["renorm"],
                              lib["momentum"], lib["compatibility"], e_gap))
        rows = list(per_level)
        for i in range(len(per_level) - 1):
            a, b = per_level[i], per_level[i + 1]
            rows.append((f"order:{a[0]}->{b[0]}", "n/a",
                         *[_order_cell(a[j], b[j]) for j in range(2, 7)]))

    path = os.path.join(out_dir, "convergence.csv")
    with open(path, "w") as fh:
        fh.write(format_csv(header, rows))
    return path, header, rows


def cmd_certify(spec_path: str, out: str | None = None
                ) -> tuple[str, list[str], list[tuple]]:
    """Certify the lemma constants for the law described by the spec file."""
    cfg = read_spec(spec_path)
    law = law_from_config(cfg)
    try:
        r_min = float(cfg["certify.r_min"])
        r_max = float(cfg["certify.r_max"])
    except KeyError as e:
        raise SpecParseError(f"field {e} is required for certify") from e
    points = int(cfg.get("certify.points", "4001"))
    name = cfg.get("name", "certify")
    out_dir = out or os.environ.get("MVFLOW_OUT") or cfg.get("out") \
        or os.path.join("runs", name)
    os.makedirs(out_dir, exist_ok=True)

    top = max(10.0, 4.4 * r_max)
    rho_grid = np.linspace(0.0, top, points)
    lower = certify_lower_bound(law, (r_min, r_max), rho_grid)
    hbound = certify_h_bound(law, (r_min, r_max), rho_grid)
    rows = certificate_rows(lower, hbound)
    header = ["r", "c_middle", "c_outer", "C_ratio", "valid"]
    path = os.path.join(out_dir, "certificates.csv")
    with open(path, "w") as fh:
        fh.write(format_csv(header, rows))
    return path, header, rows
