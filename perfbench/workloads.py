"""The four benchmark workloads: inputs from a seed, one op, its gates.

Each workload turns ``--seed`` into inputs (``prepare``), runs one op on
them (``op``) and checks the op's output (``check``).  mvflow is imported
inside ``prepare`` so that a fresh process pays the package's import cost
there, which is what ``setup_s`` measures.  Ops look mvflow's entry points
up through their modules at call time, so the tracer's wrappers are seen
while it is installed.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import os

import numpy as np

# ensemble-bump and convergence-pulse go through the CLI, which loads every
# layer; the solver workloads need only the solver and its pressure laws.
CLI_MODULES = ("mvflow.cli", "mvflow.experiments", "mvflow.configio")
SOLVER_MODULES = ("mvflow.solver", "mvflow.pressure")


def _import(names):
    return {n: importlib.import_module(n) for n in names}


def _tree_size(path: str) -> tuple[int, int]:
    files = size = 0
    for dirpath, _, names in os.walk(path):
        for n in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, n))
    return files, size


def _write_spec(workdir: str, cfg: dict, configio) -> str:
    path = os.path.join(workdir, f"{cfg['name']}.spec")
    with open(path, "w") as fh:
        fh.write(configio.format_kv(cfg))
    return path


def _call_cli(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class EnsembleBump:
    """`mvflow run` on the weak-strong-bump preset with the benchmark seed."""

    name = "ensemble-bump"
    modules = CLI_MODULES

    def prepare(self, seed: int, workdir: str) -> None:
        self.mods = _import(self.modules)
        cfg = self.mods["mvflow.experiments"].presets()["weak-strong-bump"]
        self.spec = _write_spec(workdir, cfg, self.mods["mvflow.configio"])
        self.seed = seed
        self.first_hash = None

    def op(self, out_dir: str):
        return _call_cli(self.mods["mvflow.cli"],
                         ["run", "--spec", self.spec, "--seed", str(self.seed),
                          "--jobs", "1", "--out", out_dir])

    def check(self, result, out_dir: str) -> tuple[bool, str, dict]:
        rc, text = result
        if rc != 0:
            return False, f"exit code {rc}: {text.strip()[-200:]}", {}
        with open(os.path.join(out_dir, "manifest.txt")) as fh:
            lines = fh.read().splitlines(keepends=True)
        body, last = "".join(lines[:-1]), lines[-1].strip()
        digest = hashlib.sha256(body.encode()).hexdigest()
        if last != f"manifest_hash = {digest}":
            return False, "manifest hash does not match its body", {}
        for ln in lines[:-1]:
            key, _, value = ln.partition(" = ")
            if key.startswith("file."):
                with open(os.path.join(out_dir, key[5:]), "rb") as fh:
                    if hashlib.sha256(fh.read()).hexdigest() != value.strip():
                        return False, f"{key[5:]} does not match its digest", {}
        if self.first_hash is None:
            self.first_hash = digest
        elif digest != self.first_hash:
            return False, "manifest hash differs from the first op's", {}
        files, size = _tree_size(out_dir)
        return True, "ok", {"manifest_hash": digest, "files_written": files,
                            "bytes_written": size}


class ConvergencePulse:
    """`mvflow convergence` on convergence-pulse, levels 64,128,256."""

    name = "convergence-pulse"
    modules = CLI_MODULES
    columns = ("continuity", "renorm", "momentum", "compatibility", "E_mv")

    def prepare(self, seed: int, workdir: str) -> None:
        self.mods = _import(self.modules)
        cfg = dict(self.mods["mvflow.experiments"].presets()["convergence-pulse"])
        center = 0.30 + 0.10 * float(np.random.default_rng(seed).random())
        cfg["init.center_frac"] = repr(center)
        self.spec = _write_spec(workdir, cfg, self.mods["mvflow.configio"])

    def op(self, out_dir: str):
        return _call_cli(self.mods["mvflow.cli"],
                         ["convergence", "--spec", self.spec, "--levels",
                          "64,128,256", "--jobs", "1", "--out", out_dir])

    def check(self, result, out_dir: str) -> tuple[bool, str, dict]:
        rc, text = result
        if rc != 0:
            return False, f"exit code {rc}: {text.strip()[-200:]}", {}
        with open(os.path.join(out_dir, "convergence.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        levels = [r for r in rows if r["n"].isdigit()]
        if [int(r["n"]) for r in levels] != [64, 128, 256]:
            return False, "table does not hold the levels 64,128,256", {}
        for col in self.columns:
            vals = [float(r[col]) for r in levels]
            if not all(np.isfinite(vals)) or \
                    not all(a > b for a, b in zip(vals, vals[1:])):
                return False, f"column {col} does not decrease: {vals}", {}
        files, size = _tree_size(out_dir)
        return True, "ok", {"files_written": files, "bytes_written": size}


class _SolverWorkload:
    """One `solver.run`; gates on completion, energy budget, mass, positivity."""

    modules = SOLVER_MODULES

    def prepare(self, seed: int, workdir: str) -> None:
        self.mods = _import(self.modules)
        solver = self.mods["mvflow.solver"]
        self.grid = solver.Grid1D(n=self.n, length=1.0)
        self.cfg = solver.SolverConfig(law=self.law(self.mods["mvflow.pressure"]),
                                       lam=0.1, T=self.T, delta=0.0)
        init = solver.perturb_density(self.init(solver), 1.0, 1e-2,
                                      np.random.default_rng(seed))
        self.state = init.sample(self.grid)

    def op(self, out_dir: str):
        return self.mods["mvflow.solver"].run(self.cfg, self.state, self.grid)

    def check(self, traj, out_dir: str) -> tuple[bool, str, dict]:
        solver = self.mods["mvflow.solver"]
        e0 = solver.total_energy(self.state, self.cfg, self.grid)
        mass = traj.rho.sum(axis=1) * self.grid.dx
        mass0 = float(self.state.rho.sum() * self.grid.dx)
        record = {"accepted_steps": int(traj.n_steps),
                  "min_step_slack": float(traj.min_step_slack)}
        if not traj.complete:
            return False, "run did not complete", record
        if not (np.all(np.isfinite(traj.rho)) and np.all(np.isfinite(traj.u))
                and np.all(np.isfinite(traj.energy))):
            return False, "non-finite values in the trajectory", record
        if np.min(traj.rho) < 0.0:
            return False, f"negative density {np.min(traj.rho):.3e}", record
        drift = float(np.max(np.abs(mass - mass0))) / mass0
        if drift > 1e-12:
            return False, f"mass drift {drift:.3e} exceeds 1e-12", record
        if traj.min_step_slack < -1e-8 * e0:
            return False, (f"per-step slack {traj.min_step_slack:.3e} below "
                           f"-1e-8 E(0) = {-1e-8 * e0:.3e}"), record
        return True, "ok", record


class BudgetSolve(_SolverWorkload):
    name = "budget-solve"
    n, T = 256, 0.1

    def law(self, pressure):
        return pressure.PressureLaw(h_part=pressure.PowerLawH(a=1.0, gamma=2.0))

    def init(self, solver):
        return solver.smooth_pulse_init(1.0, base=1.0, amp=0.1)


class TabulatedSolve(_SolverWorkload):
    name = "tabulated-solve"
    n, T = 96, 0.01

    def law(self, pressure):
        rho = np.linspace(0.0, 4.0, 9)
        h = rho**2 + 0.1 * rho
        return pressure.PressureLaw(h_part=pressure.TabulatedH(
            rho_samples=tuple(rho), h_samples=tuple(h), gamma_tail=2.0))

    def init(self, solver):
        return solver.pulse_flow_init(1.0)


WORKLOADS = {w.name: w for w in
             (EnsembleBump, BudgetSolve, TabulatedSolve, ConvergencePulse)}
