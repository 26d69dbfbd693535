"""Print the numbers a bit-neutral change must leave as they are.

    python3 tools/bitcheck.py [--src DIR] > bits.txt

Each line is ``<key> <value>``:

- ``preset.<name>.manifest_hash``: every built-in preset through
  ``run_experiment`` with its own seed;
- ``ensemble-bump.seed<S>.manifest_hash``: the weak-strong-bump preset at the
  benchmark seeds 501-510;
- ``preset.<name>.row<k>.*`` and ``ensemble-bump.seed<S>.row<k>.*`` for
  S in 501 and 502: ``n_steps``, ``n_trials`` and ``min_step_slack`` of each
  row of the experiment's ``run_stack`` call (manifests do not hold
  ``n_trials``, so a miscount by the stacked controller shows only here);
- ``ensemble-bump.gamma1.4.manifest_hash``: the weak-strong-bump preset
  with ``law.gamma = 1.4``, whose certificates and remainder scans sum the
  Bregman series (gamma = 2 stops after its first term);
- ``ensemble-bump.A2-base1.6.manifest_hash``: the weak-strong-bump preset
  with ``law.bump.A = 2.0`` and ``init.base = 1.6``, whose pressure slope is
  negative on most sampled cells, so the bump runs in the non-monotone
  regime;
- ``weak-strong-tabulated.gamma1.4.manifest_hash``: the weak-strong-tabulated
  preset with ``law.gamma = 1.4``, a tail exponent whose potential takes the
  tail's power term c^(gamma - 1) at a power other than 1;
- ``preset.weak-strong-monotone.ref2.manifest_hash``: the weak-strong-monotone
  preset with ``ref.factor = 2``, so ``run_experiment`` takes its reference
  through ``make_reference``, ``run`` and ``reference_from_run`` on a grid
  twice as fine, which no preset does;
- ``residuals.weak-strong-monotone.manifest_hash``: the weak-strong-monotone
  preset with ``checks = continuity,renorm,momentum,compatibility``, so the
  residual checks run on a noisy four-member ensemble (constant-state's two
  members are identical);
- ``certify.<case>.csv_sha256``: ``certificates.csv`` written by
  ``cmd_certify`` for the weak-strong-bump law with ``law.gamma = 1.4``, for
  the weak-strong-tabulated law with ``law.gamma = 1.4`` (its grid reaches
  rho = 10, past the table's last sample at 4, so through the tail's power
  term), for the weak-strong-monotone power law with ``law.gamma = 1`` (B's
  x log x branch, and the h bound's general increment path) and for the
  weak-strong-tabulated law, on r in [0.5, 2];
- ``convergence.<case>.csv_sha256``: ``convergence.csv`` of the
  convergence-pulse preset at levels 64,128,256, as shipped and with the
  benchmark's seeded ``init.center_frac`` at seeds 501 and 502, and of the
  delta-sequence preset (a stack whose rows differ in delta and finish
  apart, so the live rows' deltas are laid out anew);
- ``<workload>.seed<S>.*``: ``n_steps``, ``n_trials``, ``min_step_slack``
  and a sha256 over the sampled rho, u, energy and dissipation of the
  ``budget-solve`` and ``tabulated-solve`` benchmark inputs at seeds 501
  and 502;
- ``budget-solve.a1.5-gamma2.seed<S>.*`` and
  ``budget-solve.a0.7-gamma1.4.seed<S>.*``: the same four lines for the
  ``budget-solve`` inputs run under ``PowerLawH(a=1.5, gamma=2.0)`` and
  ``PowerLawH(a=0.7, gamma=1.4)``, the power-law branches with a != 1 that
  no preset or workload takes;
- ``tabulated-solve.rho_max1.1012.seed501.trajectory_sha256``: the
  ``tabulated-solve`` input at seed 501 under a table whose last sample,
  rho = 1.1012, lies inside the densities' range: the top of that range
  falls below it during the run, so the pressure potential takes the
  tail's terms in the early calls and skips them in the later ones;
- ``ragged-groups.bump.rows_sha256``: one ragged ``run_stack`` on the
  weak-strong-bump law with mixed deltas, its rows on grids of
  n = 48, 48, 32, 96, 96, 32, so rows of one n lie side by side in groups
  out of sorted order (the convergence stacks' rows all differ in n): a
  sha256 over one text line per row, holding that row's trajectory sha256,
  ``n_steps``, ``n_trials`` and ``min_step_slack``;
- ``cli.ensemble-bump.seed501.manifest_hash`` and
  ``cli.convergence-pulse.seed501.csv_sha256``: one ``op`` of each CLI
  workload at seed 501, which calls ``cli.main`` with the benchmark's argv,
  and the manifest hash or the sha256 of ``convergence.csv`` it writes.

mvflow is imported from ``--src`` (default: ``src/`` next to this script's
directory), so running it on two checkouts and diffing the outputs compares
them; the inputs come from ``perfbench/workloads.py`` next to this script.
It takes about 5 s on a 2-core x86-64 machine.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (501, 502)
BUMP_SEEDS = tuple(range(501, 511))


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _trajectory_sha256(traj) -> str:
    h = hashlib.sha256()
    for arr in (traj.rho, traj.u, traj.energy, traj.cum_dissipation):
        h.update(arr.tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the mvflow package to check")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))

    import numpy as np

    import mvflow.experiments
    from mvflow.configio import format_kv
    from mvflow.experiments import (cmd_certify, cmd_convergence, law_from_config,
                                    presets, run_experiment, spec_from_config)
    from mvflow.pressure import PowerLawH, PressureLaw, TabulatedH
    from mvflow.solver import (Grid1D, SolverConfig, perturb_density,
                               pulse_flow_init, run_stack)
    from workloads import WORKLOADS

    stacked = []  # the rows of every run_stack call an experiment makes
    real_run_stack = mvflow.experiments.run_stack

    def recording_run_stack(*args, **kwargs):
        rows = real_run_stack(*args, **kwargs)
        stacked.extend(rows)
        return rows

    mvflow.experiments.run_stack = recording_run_stack

    def print_counters(key: str, rows) -> None:
        for k, traj in enumerate(rows):
            print(f"{key}.row{k}.n_steps {traj.n_steps}")
            print(f"{key}.row{k}.n_trials {traj.n_trials}")
            print(f"{key}.row{k}.min_step_slack {traj.min_step_slack!r}")

    with tempfile.TemporaryDirectory() as tmp:
        counter = itertools.count()

        def fresh_dir() -> str:
            return os.path.join(tmp, str(next(counter)))

        for name, cfg in sorted(presets().items()):
            stacked.clear()
            m = run_experiment(spec_from_config(cfg), out_dir=fresh_dir())
            print(f"preset.{name}.manifest_hash {m.manifest_hash}")
            print_counters(f"preset.{name}", stacked)

        bump = spec_from_config(presets()["weak-strong-bump"])
        for seed in BUMP_SEEDS:
            stacked.clear()
            m = run_experiment(dataclasses.replace(bump, seed=seed),
                               out_dir=fresh_dir())
            print(f"ensemble-bump.seed{seed}.manifest_hash {m.manifest_hash}")
            if seed in SEEDS:
                print_counters(f"ensemble-bump.seed{seed}", stacked)

        bump14 = dict(presets()["weak-strong-bump"], **{"law.gamma": "1.4"})
        tab14 = dict(presets()["weak-strong-tabulated"], **{"law.gamma": "1.4"})
        bump_a2 = dict(presets()["weak-strong-bump"],
                       **{"law.bump.A": "2.0", "init.base": "1.6"})
        ref2 = dict(presets()["weak-strong-monotone"], **{"ref.factor": "2"})
        residuals = dict(presets()["weak-strong-monotone"],
                         checks="continuity,renorm,momentum,compatibility")
        for name, cfg in (("ensemble-bump.gamma1.4", bump14),
                          ("ensemble-bump.A2-base1.6", bump_a2),
                          ("weak-strong-tabulated.gamma1.4", tab14),
                          ("preset.weak-strong-monotone.ref2", ref2),
                          ("residuals.weak-strong-monotone", residuals)):
            m = run_experiment(spec_from_config(cfg), out_dir=fresh_dir())
            print(f"{name}.manifest_hash {m.manifest_hash}")

        certify = {"certify.r_min": "0.5", "certify.r_max": "2.0"}
        power1 = dict(presets()["weak-strong-monotone"], **{"law.gamma": "1.0"})
        for case, cfg in (("bump-gamma1.4", bump14), ("tabulated-gamma1.4", tab14),
                          ("power-gamma1", power1),
                          ("tabulated", presets()["weak-strong-tabulated"])):
            path = os.path.join(tmp, f"certify-{case}.spec")
            with open(path, "w") as fh:
                fh.write(format_kv(dict(cfg, **certify)))
            csv, _, _ = cmd_certify(path, out=fresh_dir())
            print(f"certify.{case}.csv_sha256 {_sha256_file(csv)}")

        conv = WORKLOADS["convergence-pulse"]()
        cases = [("preset", presets()["convergence-pulse"])]
        for seed in SEEDS:
            d = fresh_dir()
            os.makedirs(d)
            conv.prepare(seed, d)
            cases.append((f"seed{seed}", conv.spec))
        cases.append(("delta-sequence", presets()["delta-sequence"]))
        for case, spec in cases:
            if isinstance(spec, dict):
                path = os.path.join(tmp, f"convergence-{case}.spec")
                with open(path, "w") as fh:
                    fh.write(format_kv(spec))
                spec = path
            csv, _, _ = cmd_convergence(spec, levels=(64, 128, 256),
                                        out=fresh_dir())
            print(f"convergence.{case}.csv_sha256 {_sha256_file(csv)}")

        # the budget-solve inputs also run under power laws with a != 1, whose
        # value, slope and potential take the multiply by a that a = 1 skips
        # (and at gamma 1.4, the power rho^(gamma - 1) and the divide)
        cases = [("budget-solve", "budget-solve", None),
                 ("tabulated-solve", "tabulated-solve", None),
                 ("budget-solve.a1.5-gamma2", "budget-solve", PowerLawH(a=1.5, gamma=2.0)),
                 ("budget-solve.a0.7-gamma1.4", "budget-solve", PowerLawH(a=0.7, gamma=1.4))]
        for name, wname, h_part in cases:
            w = WORKLOADS[wname]()
            for seed in SEEDS:
                w.prepare(seed, tmp)
                if h_part is not None:
                    w.cfg = dataclasses.replace(w.cfg, law=PressureLaw(h_part=h_part))
                traj = w.op(tmp)
                key = f"{name}.seed{seed}"
                print(f"{key}.n_steps {traj.n_steps}")
                print(f"{key}.n_trials {traj.n_trials}")
                print(f"{key}.min_step_slack {traj.min_step_slack!r}")
                print(f"{key}.trajectory_sha256 {_trajectory_sha256(traj)}")

        w = WORKLOADS["tabulated-solve"]()
        w.prepare(501, tmp)
        r = np.linspace(0.0, 1.1012, 9)
        w.cfg = dataclasses.replace(w.cfg, law=PressureLaw(h_part=TabulatedH(
            tuple(r), tuple(r**2 + 0.1 * r), gamma_tail=1.4)))
        print("tabulated-solve.rho_max1.1012.seed501.trajectory_sha256 "
              f"{_trajectory_sha256(w.op(tmp))}")

        # rows of one n side by side, in groups out of sorted order, under
        # deltas that differ: the rows finish apart, so the stack is laid
        # out anew from ragged groups down to uniform rows
        ns, deltas = (48, 48, 32, 96, 96, 32), (0.0, 1e-3, 0.05, 0.0, 0.05, 1e-3)
        base = SolverConfig(law=law_from_config(presets()["weak-strong-bump"]),
                            lam=0.1, T=0.02, n_samples=5)
        init = pulse_flow_init(1.0, base=1.1, u_amp=0.3)
        rng = np.random.default_rng(7)
        grids = [Grid1D(n=n, length=1.0) for n in ns]
        states = [perturb_density(init, 1.0, 0.2, rng).sample(g) for g in grids]
        rows = run_stack([dataclasses.replace(base, delta=d) for d in deltas], states, grids)
        text = "".join(f"row{k} {_trajectory_sha256(t)} {t.n_steps} {t.n_trials} "
                       f"{t.min_step_slack!r}\n" for k, t in enumerate(rows))
        print("ragged-groups.bump.rows_sha256 "
              f"{hashlib.sha256(text.encode()).hexdigest()}")

        for wname in ("ensemble-bump", "convergence-pulse"):
            w = WORKLOADS[wname]()
            spec_dir, out = fresh_dir(), fresh_dir()
            os.makedirs(spec_dir)
            w.prepare(501, spec_dir)
            ok, why, record = w.check(w.op(out), out)
            if not ok:
                raise SystemExit(f"{wname}: {why}")
            if wname == "ensemble-bump":
                print(f"cli.{wname}.seed501.manifest_hash {record['manifest_hash']}")
            else:
                print(f"cli.{wname}.seed501.csv_sha256 "
                      f"{_sha256_file(os.path.join(out, 'convergence.csv'))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
