"""Print the numbers a bit-neutral change must leave as they are.

    python3 tools/bitcheck.py [--src DIR] > bits.txt

Each line is ``<key> <value>``:

- ``preset.<name>.manifest_hash``: every built-in preset through
  ``run_experiment`` with its own seed;
- ``ensemble-bump.seed<S>.manifest_hash``: the weak-strong-bump preset at the
  benchmark seeds 501-510;
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
It takes about 10 s.
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

    from mvflow.configio import format_kv
    from mvflow.experiments import (cmd_convergence, presets, run_experiment,
                                    spec_from_config)
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as tmp:
        counter = itertools.count()

        def fresh_dir() -> str:
            return os.path.join(tmp, str(next(counter)))

        for name, cfg in sorted(presets().items()):
            m = run_experiment(spec_from_config(cfg), out_dir=fresh_dir())
            print(f"preset.{name}.manifest_hash {m.manifest_hash}")

        bump = spec_from_config(presets()["weak-strong-bump"])
        for seed in BUMP_SEEDS:
            m = run_experiment(dataclasses.replace(bump, seed=seed),
                               out_dir=fresh_dir())
            print(f"ensemble-bump.seed{seed}.manifest_hash {m.manifest_hash}")

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
