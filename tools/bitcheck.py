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
- ``certify.<case>.csv_sha256``: ``certificates.csv`` written by
  ``cmd_certify`` for the weak-strong-bump law with ``law.gamma = 1.4``, for
  the weak-strong-monotone power law with ``law.gamma = 1`` (B's x log x
  branch, and the h bound's general increment path) and for the
  weak-strong-tabulated law, on r in [0.5, 2];
- ``convergence.<case>.csv_sha256``: ``convergence.csv`` of the
  convergence-pulse preset at levels 64,128,256, as shipped and with the
  benchmark's seeded ``init.center_frac`` at seeds 501 and 502;
- ``<workload>.seed<S>.*``: ``n_steps``, ``n_trials``, ``min_step_slack``
  and a sha256 over the sampled rho, u, energy and dissipation of the
  ``budget-solve`` and ``tabulated-solve`` benchmark inputs at seeds 501
  and 502.

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

    import mvflow.experiments
    from mvflow.configio import format_kv
    from mvflow.experiments import (cmd_certify, cmd_convergence, presets,
                                    run_experiment, spec_from_config)
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
        m = run_experiment(spec_from_config(bump14), out_dir=fresh_dir())
        print(f"ensemble-bump.gamma1.4.manifest_hash {m.manifest_hash}")

        certify = {"certify.r_min": "0.5", "certify.r_max": "2.0"}
        power1 = dict(presets()["weak-strong-monotone"], **{"law.gamma": "1.0"})
        for case, cfg in (("bump-gamma1.4", bump14), ("power-gamma1", power1),
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
        for case, spec in cases:
            if isinstance(spec, dict):
                path = os.path.join(tmp, "convergence-pulse.spec")
                with open(path, "w") as fh:
                    fh.write(format_kv(spec))
                spec = path
            csv, _, _ = cmd_convergence(spec, levels=(64, 128, 256),
                                        out=fresh_dir())
            print(f"convergence.{case}.csv_sha256 {_sha256_file(csv)}")

        for wname in ("budget-solve", "tabulated-solve"):
            w = WORKLOADS[wname]()
            for seed in SEEDS:
                w.prepare(seed, tmp)
                traj = w.op(tmp)
                key = f"{wname}.seed{seed}"
                print(f"{key}.n_steps {traj.n_steps}")
                print(f"{key}.n_trials {traj.n_trials}")
                print(f"{key}.min_step_slack {traj.min_step_slack!r}")
                print(f"{key}.trajectory_sha256 {_trajectory_sha256(traj)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
