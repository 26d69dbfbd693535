"""Reproducible experiments: spec -> ensemble runs -> checks -> reports.

An experiment is described by a small key = value file (see configio).  The
driver runs the ensemble, assembles the empirical measure, evaluates the
requested checks, and writes plot-ready CSVs plus a manifest whose hash is a
pure function of the resolved spec and the emitted bytes; repeated runs with
the same spec and seed produce the identical hash.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .configio import (SCHEMA_VERSION, config_hash, format_csv, format_kv,
                       read_spec, write_csv)
from .errors import MvflowError, SpecParseError
from .measures import (assemble, compatibility_residual, continuity_residual,
                       energy_inequality_slack, estimate_defect,
                       korn_poincare_check, momentum_residual,
                       renorm_continuity_residual, renorm_identity_truncated)
from .pressure import (Certificate, PressureLaw, certify, law_from_config,
                       law_to_config)
from .relative_energy import (gronwall_verdict, relative_energy_series,
                              remainder_terms)
# run stays a module attribute here: perfbench/tracer.py wraps this name
from .solver import (Grid1D, InitialData, SolverConfig, Trajectory,
                     constant_init, make_reference, perturb_density,
                     pulse_flow_init, reference_from_run, run, run_stack,
                     total_energy)
from .testfuncs import compatibility_family, density_family, momentum_family

# perfbench/tracer.py wraps these two names; nothing calls certify through them
certify_lower_bound = certify_h_bound = certify

ENSEMBLE_MODES = ("none", "density-noise", "delta-sequence")


def _names(raw: str) -> tuple[str, ...]:
    """Parse a comma-separated list of names, blanks dropped."""
    return tuple(c.strip() for c in raw.split(",") if c.strip())


def _tuple_of(cast):
    """Parse a comma-separated list of cast values."""
    return lambda raw: tuple(cast(v) for v in raw.split(","))


def _setting(key: str, default, parse):
    """A field set by the spec key `key`: parse reads the key's text, and
    default stands in when the key is absent."""
    return dataclasses.field(metadata={"key": key, "default": default,
                                       "parse": parse})


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated spec.  The fields declared with _setting are its settings,
    in the order spec_to_config writes them after the head (schema, name and
    the law.* keys); out is read but never written, since where a run writes
    is not part of its spec."""

    name: str
    law: PressureLaw
    grid_n: int = _setting("grid.n", 96, int)
    length: float = _setting("grid.length", 1.0, float)
    lam: float = _setting("solver.lam", 0.1, float)
    T: float = _setting("solver.T", 0.1, float)
    delta: float = _setting("solver.delta", 0.0, float)
    Gamma: float = _setting("solver.Gamma", 2.0, float)
    cfl: float = _setting("solver.cfl", 0.4, float)
    n_samples: int = _setting("solver.n_samples", 17, int)
    init_kind: str = _setting("init.kind", "pulse-flow", str)
    init_base: float = _setting("init.base", 1.0, float)
    init_amp: float = _setting("init.amp", 0.1, float)
    init_u_amp: float = _setting("init.u_amp", 0.3, float)
    init_width_frac: float = _setting("init.width_frac", 0.1, float)
    init_center_frac: float = _setting("init.center_frac", 0.35, float)
    members: int = _setting("ensemble.k", 1, int)
    mode: str = _setting("ensemble.mode", "none", str)
    eps: float = _setting("ensemble.eps", 0.0, float)
    ref_factor: int = _setting("ref.factor", 1, int)
    checks: tuple[str, ...] = _setting("checks", (), _names)
    seed: int = _setting("seed", 0, int)
    residual_tol: float = _setting("tol.residual", 1e-10, float)
    convergence_levels: tuple[int, ...] = _setting(
        "convergence.levels", (64, 128, 256), _tuple_of(int))
    deltas: tuple[float, ...] = _setting("ensemble.deltas", (), _tuple_of(float))
    out: str | None


# (key, field, default, parse) of every setting, in ExperimentSpec's order:
# spec_from_config reads every key with its default, and spec_to_config
# writes every field back; an empty list writes no line
_SETTINGS = tuple((f.metadata["key"], f.name, f.metadata["default"],
                   f.metadata["parse"])
                  for f in dataclasses.fields(ExperimentSpec) if f.metadata)
_KNOWN_KEYS = frozenset({"schema", "name", "out"} | {key for key, *_ in _SETTINGS})


def _get(cfg: dict, key: str, default, cast):
    raw = cfg.get(key)
    if raw is None:
        if default is None:
            raise SpecParseError(f"field '{key}' is required")
        return default
    try:
        value = cast(raw)
    except (TypeError, ValueError) as e:
        raise SpecParseError(f"field '{key}': {e}") from e
    if cast is float and not math.isfinite(value):
        raise SpecParseError(f"field '{key}': must be finite, got {raw}")
    return value


def _text(value) -> str:
    """A spec value as written: a float by repr, a list comma-joined."""
    if isinstance(value, tuple):
        return ",".join(_text(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


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

    spec = ExperimentSpec(
        name=_get(cfg, "name", None, str), law=law, out=cfg.get("out"),
        **{field: _get(cfg, key, default, parse)
           for key, field, default, parse in _SETTINGS})

    if spec.grid_n < 4 or spec.length <= 0.0:
        raise SpecParseError("field 'grid.*': need n >= 4 and length > 0")
    if spec.members < 1:
        raise SpecParseError(f"field 'ensemble.k': must be >= 1, got {spec.members}")
    if spec.mode not in ENSEMBLE_MODES:
        raise SpecParseError(
            f"field 'ensemble.mode': unknown mode '{spec.mode}' "
            f"(expected one of {', '.join(ENSEMBLE_MODES)})")
    if spec.mode == "density-noise" and spec.eps <= 0.0:
        raise SpecParseError("field 'ensemble.eps': density-noise needs eps > 0")

    deltas = spec.deltas
    if spec.mode == "delta-sequence":
        if len(deltas) < 2:
            raise SpecParseError(
                "field 'ensemble.deltas': delta-sequence needs >= 2 values")
        if not all(math.inf > d > 0.0 for d in deltas) or \
                any(a >= b for a, b in zip(deltas[1:], deltas[:-1])):
            raise SpecParseError(
                "field 'ensemble.deltas': values must be positive, finite and "
                "strictly decreasing (finest last)")
        if "ensemble.k" in cfg and spec.members != len(deltas):
            raise SpecParseError(
                f"field 'ensemble.k': {spec.members} disagrees with "
                f"{len(deltas)} delta values")
        spec = dataclasses.replace(spec, members=len(deltas))

    for c in spec.checks:
        if c not in CHECK_NAMES:
            raise SpecParseError(
                f"field 'checks': unknown check '{c}' "
                f"(expected a subset of {', '.join(CHECK_NAMES)})")
    if spec.init_kind not in ("pulse-flow", "constant"):
        raise SpecParseError(f"field 'init.kind': unknown kind '{spec.init_kind}'")
    if spec.residual_tol <= 0.0:
        raise SpecParseError("field 'tol.residual': must be > 0")
    if spec.ref_factor < 1:
        raise SpecParseError("field 'ref.factor': must be >= 1")
    if not 0.0 <= spec.init_center_frac <= 1.0:
        raise SpecParseError("field 'init.center_frac': must lie in [0, 1]")
    if not 0.0 < spec.init_width_frac <= 1.0:
        raise SpecParseError("field 'init.width_frac': must lie in (0, 1]")
    try:
        _solver_config(spec)  # validates the numeric ranges up front
    except MvflowError as e:
        raise SpecParseError(f"solver configuration invalid: {e}") from e
    return spec


def spec_to_config(spec: ExperimentSpec) -> dict[str, str]:
    """Canonical resolved form of a spec; inverse of spec_from_config."""
    cfg = {"schema": str(SCHEMA_VERSION), "name": spec.name,
           **law_to_config(spec.law)}
    for key, field, _, _ in _SETTINGS:
        value = getattr(spec, field)
        if value != ():  # an empty list writes no line
            cfg[key] = _text(value)
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
    results: tuple[CheckResult, ...]
    files: tuple[tuple[str, str], ...]  # (relative name, sha256)
    manifest_hash: str
    manifest_path: str

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _solver_config(spec: ExperimentSpec) -> SolverConfig:
    return SolverConfig(law=spec.law, lam=spec.lam, T=spec.T, delta=spec.delta,
                        Gamma=spec.Gamma, cfl=spec.cfl, n_samples=spec.n_samples)


def _initial_data(spec: ExperimentSpec) -> InitialData:
    if spec.init_kind == "constant":
        return constant_init(spec.init_base)
    return pulse_flow_init(spec.length, base=spec.init_base, amp=spec.init_amp,
                           u_amp=spec.init_u_amp,
                           width_frac=spec.init_width_frac,
                           center_frac=spec.init_center_frac)


def _weak_strong_requested(spec: ExperimentSpec) -> bool:
    return "gronwall" in spec.checks or "relative-energy" in spec.checks


def _build_ensemble(spec: ExperimentSpec
                    ) -> tuple[Grid1D, InitialData, list[Trajectory],
                               Trajectory | None]:
    """Run the members; also the unperturbed base when it is the reference.

    Every mode is one run_stack call over (state, config) rows: a noisy
    state per density-noise member, the base state under each delta of a
    delta-sequence, and then the base state under the spec's config when a
    weak-strong check asks for a ref.factor = 1 reference.  With
    ensemble.mode = none every member is that base row, so it runs once,
    whether or not it is also the reference.
    """
    grid = Grid1D(n=spec.grid_n, length=spec.length)
    base = _initial_data(spec)
    cfg = _solver_config(spec)
    rows = []
    if spec.mode == "delta-sequence":
        rows = [(base, dataclasses.replace(cfg, delta=d)) for d in spec.deltas]
    elif spec.mode == "density-noise":
        rng = np.random.default_rng(spec.seed)
        rows = [(perturb_density(base, spec.length, spec.eps, rng), cfg)
                for _ in range(spec.members)]
    want_ref = spec.ref_factor == 1 and _weak_strong_requested(spec)
    base_row = want_ref or spec.mode == "none"
    if base_row:
        rows.append((base, cfg))
    runs = run_stack([c for _, c in rows], [ini.sample(grid) for ini, _ in rows],
                     [grid] * len(rows))
    base_run = runs.pop() if base_row else None
    members = [base_run] * spec.members if spec.mode == "none" else runs
    return grid, base, members, base_run if want_ref else None


@dataclass
class _Context:
    spec: ExperimentSpec
    members: list[Trajectory]
    measure: object
    defect: object
    e0: float
    cum_dis: np.ndarray
    remainders: object = None
    verdict: object = None


def _make_context(spec: ExperimentSpec) -> _Context:
    """The ensemble, its measure and defect, and, when a weak-strong check
    asks for them, the remainder report and the growth verdict."""
    grid, base, members, base_run = _build_ensemble(spec)
    measure = assemble(members)
    # tail spans the full generating ensemble: the tail means then equal the
    # measure moments, so rM collapses to the delta term alone and the
    # rM <= E_inf + zeta and energy-budget identities close exactly; a single
    # member is paired with itself
    defect = estimate_defect(members if len(members) >= 2 else members * 2,
                             measure, spec.law, spec.lam, tail=len(members))
    e0 = float(np.mean([total_energy(m.state_at(0), m.cfg, grid)
                        for m in members]))
    cum_dis = np.mean([m.cum_dissipation for m in members], axis=0)
    ctx = _Context(spec=spec, members=members, measure=measure, defect=defect,
                   e0=e0, cum_dis=cum_dis)
    if not _weak_strong_requested(spec):
        return ctx

    if base_run is not None:
        ref = reference_from_run(base_run, grid)
    else:
        ref = make_reference(_solver_config(spec), base, grid,
                             factor=spec.ref_factor)
    r_lo, r_hi = float(np.min(ref.r)), float(np.max(ref.r))
    s_top = max(10.0, 5.0 * r_hi, 1.2 * float(np.max(measure.S)))
    rho_grid = np.linspace(0.0, s_top, 4001)
    cert = certify(spec.law, (r_lo, r_hi), rho_grid)
    ctx.remainders = remainder_terms(measure, spec.law, spec.lam, ref, cert)
    ctx.verdict = gronwall_verdict(ctx.remainders, defect, ref, spec.law)
    return ctx


def _check_energy(ctx: _Context):
    spec, measure = ctx.spec, ctx.measure
    slack = energy_inequality_slack(measure, spec.law, ctx.defect, ctx.e0,
                                    ctx.cum_dis)
    rows = list(zip(measure.times.tolist(), slack.tolist()))
    worst = min(s for _, s in rows)
    step_worst = min(m.min_step_slack for m in ctx.members)
    ok = worst >= -1e-8 * max(1.0, ctx.e0)
    detail = (f"min form slack {worst:.3e}, min per-step slack "
              f"{step_worst:.3e}, E(0) = {ctx.e0:.6g}")
    return (CheckResult("energy", ok, worst, detail),
            [("energy.csv", format_csv(["tau", "slack"], rows))])


# -- the residual library -----------------------------------------------------------
#
# Per residual check, the rows (test function id, residual) at the last sample
# time tau, one per function of its test family, and a note for the check's
# detail line; the momentum rows add the defect-pairing slack.  The residual
# checks and cmd_convergence both read it.

def _rows(family, *columns) -> list[tuple]:
    return list(zip((f.id for f in family), *(c.tolist() for c in columns)))


def _continuity_rows(spec, measure, defect, tau):
    fam = density_family(spec.length)
    return (_rows(fam, continuity_residual(measure, fam, tau)),
            f" over {len(fam)} tests")


def _renorm_rows(spec, measure, defect, tau):
    r_b = 0.75 * float(np.max(measure.S))
    b = renorm_identity_truncated(r_b=r_b, width=0.25 * r_b)
    fam = density_family(spec.length)
    return (_rows(fam, renorm_continuity_residual(measure, b, fam, tau)),
            f" with {b.name}")


def _momentum_rows(spec, measure, defect, tau):
    fam = momentum_family(spec.length)
    return _rows(fam, *momentum_residual(measure, spec.law, spec.lam, fam, tau,
                                         defect=defect)), ""


def _compatibility_rows(spec, measure, defect, tau):
    fam = compatibility_family(spec.length)
    return (_rows(fam, compatibility_residual(measure, fam, tau)),
            f" over {len(fam)} tests")


_RESIDUALS = {
    "continuity": (["psi", "residual"], _continuity_rows),
    "renorm": (["psi", "residual"], _renorm_rows),
    "momentum": (["phi", "residual", "slack"], _momentum_rows),
    "compatibility": (["M", "residual"], _compatibility_rows),
}


def _worst_residual(rows) -> float:
    return max(abs(row[1]) for row in rows)


def _check_residual(name: str, ctx: _Context):
    header, rows_of = _RESIDUALS[name]
    rows, note = rows_of(ctx.spec, ctx.measure, ctx.defect,
                         float(ctx.measure.times[-1]))
    worst = _worst_residual(rows)
    ok = worst <= ctx.spec.residual_tol
    if name == "momentum":
        worst_slack = min(row[2] for row in rows)
        ok = ok and worst_slack >= -1e-8 * max(1.0, ctx.e0)
        note = f", min slack {worst_slack:.3e}"
    return (CheckResult(name, ok, worst, f"max |residual| {worst:.3e}{note}"),
            [(f"{name}.csv", format_csv(header, rows))])


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


def _lemma_certificate(law: PressureLaw, r_lo: float, r_hi: float,
                       points: int) -> Certificate:
    """The lemma certificate over r in [r_lo, r_hi], on points densities
    from 0 to max(10, 4.4 r_hi)."""
    return certify(law, (r_lo, r_hi), np.linspace(0.0, max(10.0, 4.4 * r_hi), points))


def _check_lemmas(ctx: _Context):
    rho_bar = np.mean(ctx.measure.S, axis=0)
    r_lo = 0.95 * float(np.min(rho_bar))
    r_hi = 1.05 * float(np.max(rho_bar))
    cert = _lemma_certificate(ctx.spec.law, r_lo, r_hi, 4001)
    return (CheckResult("lemmas", cert.valid, cert.c_min,
                        f"c_min {cert.c_min:.6g}, C_max {cert.C_max:.6g} "
                        f"on r in [{r_lo:.4g}, {r_hi:.4g}]"),
            [("certificates.csv", format_csv(*cert.rows()))])


def _check_relative_energy(ctx: _Context):
    rep = ctx.remainders
    worst = min(float(np.min(slack + 1e-8 * (1.0 + bound)))
                for slack, bound in zip(rep.slack, rep.bound))
    ok = worst >= 0.0
    hdr, rows = rep.rows()
    return (CheckResult("relative-energy", ok, worst,
                        "every remainder within its certified bound" if ok
                        else "a remainder exceeded its certified bound"),
            [("relative_energy.csv", format_csv(hdr, rows))])


def _check_gronwall(ctx: _Context):
    ver = ctx.verdict
    hdr, rows = ver.rows()
    return (CheckResult("gronwall", ver.passed, ver.lambda_emp,
                        ver.verdict_line()),
            [("gronwall.csv", format_csv(hdr, rows)),
             ("gronwall_verdict.txt", ver.verdict_line() + "\n")])


_CHECKS = {
    "energy": _check_energy,
    **{name: functools.partial(_check_residual, name) for name in _RESIDUALS},
    "korn": _check_korn,
    "lemmas": _check_lemmas,
    "relative-energy": _check_relative_energy,
    "gronwall": _check_gronwall,
}
CHECK_NAMES = tuple(_CHECKS)


def resolve_out_dir(flag_out: str | None, spec_out: str | None, name: str) -> str:
    """Precedence: --out flag, then MVFLOW_OUT, then the spec, then runs/<name>."""
    return flag_out or os.environ.get("MVFLOW_OUT") or spec_out \
        or os.path.join("runs", name)


def run_experiment(spec: ExperimentSpec, out_dir: str | None = None) -> RunManifest:
    """Execute the ensemble and every requested check; write all reports.

    The ensemble runs as one stacked solve and the checks run in order.
    """
    out_dir = resolve_out_dir(out_dir, spec.out, spec.name)
    resolved = spec_to_config(spec)
    spec_hash = config_hash(resolved)

    ctx = _make_context(spec)

    results: list[CheckResult] = []
    payloads: list[tuple[str, str]] = [("spec.resolved", format_kv(resolved))]
    for name in spec.checks:
        try:
            result, files = _CHECKS[name](ctx)
        except MvflowError as e:
            result, files = CheckResult(name, False, math.nan, str(e)), []
        results.append(result)
        payloads.extend(files)

    # every write funnels through here, in deterministic order
    os.makedirs(out_dir, exist_ok=True)
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
                       results=tuple(results), files=tuple(file_entries),
                       manifest_hash=manifest_hash, manifest_path=manifest_path)


# -- command-layer operations -------------------------------------------------------

def _load_spec(spec_path: str, seed: int | None) -> ExperimentSpec:
    spec = spec_from_config(read_spec(spec_path))
    return spec if seed is None else dataclasses.replace(spec, seed=seed)


def cmd_run(spec_path: str, out: str | None = None,
            seed: int | None = None) -> RunManifest:
    return run_experiment(_load_spec(spec_path, seed), out_dir=out)


def _order_cell(a: float, b: float) -> object:
    if abs(a) <= 1e-14 or abs(b) <= 1e-14:
        return "n/a"
    return math.log2(abs(a) / abs(b))


def cmd_convergence(spec_path: str, levels: tuple[int, ...] | None = None,
                    out: str | None = None, seed: int | None = None
                    ) -> tuple[str, list[str], list[tuple]]:
    """Refinement table: residual/defect/energy-gap values and log2 orders.

    Every mesh level is compared against a run on 2 * max(levels) cells,
    rounded down to a multiple of the level.  Every level and each distinct
    fine size is one row of a single run_stack call; the table is read from
    the rows afterwards.
    """
    spec = _load_spec(spec_path, seed)
    if spec.mode == "delta-sequence":
        if len(spec.deltas) < 3:
            raise SpecParseError("convergence needs at least 3 levels")
        header = ["delta", "zeta", "energy", "dissipation"]
        # the members only: with no checks to run, no reference row is added
        grid, _, members, _ = _build_ensemble(dataclasses.replace(spec, checks=()))
        values = [(d, float(np.sum(d * traj.rho[-1] ** spec.Gamma) * grid.dx),
                   float(traj.energy[-1]), float(traj.cum_dissipation[-1]))
                  for d, traj in zip(spec.deltas, members)]
        rows: list[tuple] = list(values)
        for i in range(len(values) - 1):
            rows.append((f"order:{values[i][0]:g}->{values[i + 1][0]:g}",
                         _order_cell(values[i][1], values[i + 1][1]),
                         "n/a", "n/a"))
    else:
        levels = tuple(levels) if levels else spec.convergence_levels
        if len(levels) < 3:
            raise SpecParseError("convergence needs at least 3 levels")
        header = ["n", "dx", *_RESIDUALS, "E_mv"]
        fine_n = 2 * max(levels)
        base = _initial_data(spec)
        grids = {int(n): Grid1D(n=int(n), length=spec.length) for n in levels}
        fine = {n: max(1, fine_n // n) * n for n in grids}
        for n in fine.values():
            grids.setdefault(n, Grid1D(n=n, length=spec.length))
        stack = list(grids.values())
        runs = dict(zip(grids, run_stack([_solver_config(spec)] * len(stack),
                                         [base.sample(g) for g in stack], stack)))
        # a level's reference is taken and dropped before its residuals run,
        # so the two are never alive together (they set the op's peak)
        per_level = []
        for n in levels:
            traj, grid = runs[int(n)], grids[int(n)]
            measure = assemble([traj])
            ref = reference_from_run(runs[fine[int(n)]], grid)
            e_gap = float(relative_energy_series(measure, spec.law, ref)[-1])
            del ref
            defect = estimate_defect([traj, traj], measure, spec.law,
                                     spec.lam, tail=1)
            tau = float(measure.times[-1])
            lib = [_worst_residual(rows_of(spec, measure, defect, tau)[0])
                   for _, rows_of in _RESIDUALS.values()]
            per_level.append((int(n), grid.dx, *lib, e_gap))
        rows = list(per_level)
        for i in range(len(per_level) - 1):
            a, b = per_level[i], per_level[i + 1]
            rows.append((f"order:{a[0]}->{b[0]}", "n/a",
                         *[_order_cell(a[j], b[j]) for j in range(2, 7)]))

    out_dir = resolve_out_dir(out, spec.out, spec.name)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "convergence.csv")
    write_csv(path, header, rows)
    return path, header, rows


def cmd_certify(spec_path: str, out: str | None = None
                ) -> tuple[str, list[str], list[tuple]]:
    """Certify the lemma constants for the law described by the spec file."""
    cfg = read_spec(spec_path)
    law = law_from_config(cfg)
    r_min = _get(cfg, "certify.r_min", None, float)
    r_max = _get(cfg, "certify.r_max", None, float)
    points = _get(cfg, "certify.points", 4001, int)
    header, rows = _lemma_certificate(law, r_min, r_max, points).rows()
    out_dir = resolve_out_dir(out, cfg.get("out"), cfg.get("name", "certify"))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "certificates.csv")
    write_csv(path, header, rows)
    return path, header, rows
