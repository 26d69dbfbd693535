"""Compare two trees on the benchmark, in alternating fresh-process pairs.

    python3 tools/pairbench.py --base REV_OR_DIR --change REV_OR_DIR \\
        --workload budget-solve [--workload ...] [--seed 501 ...] \\
        [--seconds 8] [--pairs 10]

Each side is a git revision of this repository, exported with
``git archive``, or a directory (a working tree), copied without its
``__pycache__``, ``.git`` and ``perfbench/out``.  For every workload and
seed, pair i runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each copy, the base first in even pairs and the change
first in odd ones, under ``PYTHONDONTWRITEBYTECODE=1``, so every process
compiles mvflow from source as a fresh checkout does.  Each run's last
line of standard output is its JSON result.

One line per workload, seed and metric gives each side's median and
quartiles, the pairs the change won (better in the direction
BENCHMARK.json gives the metric; lower when it names none) and whether the
gain rule holds: the change wins at least 9 of every 10 pairs and its
median is better than the base's by more than the base's interquartile
range.  For a metric BENCHMARK.json gives a ``bound``, taken as a share of
the base's median, the line ends with a regression verdict: ``within`` when
the change's median is worse than the base's by no more than the bound,
``worse`` when by more, and ``unresolved`` when the base's interquartile
range is wider than the bound, unless every run of the change is better
than every run of the base (then ``within``).  A run that fails, or an op
that fails its gates, stops the script.  Only the standard library is
used; nothing under perfbench/ is changed.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP = shutil.ignore_patterns("__pycache__", ".git", ".hypothesis", ".pytest_cache")


def export(side: str, dest: str) -> str:
    """A copy of side, a directory or a revision, at dest, without bytecode."""
    if os.path.isdir(side):
        shutil.copytree(side, dest, ignore=SKIP)
        shutil.rmtree(os.path.join(dest, "perfbench", "out"), ignore_errors=True)
    else:
        tar = subprocess.run(["git", "-C", ROOT, "archive", side], check=True,
                             capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
            tf.extractall(dest, filter="data")
    return dest


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """perfbench/run.py in tree; its metrics as {name: value}."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: {workload} seed {seed} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-300:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: {result['failed']} of {result['attempted']} "
                         f"{workload} ops failed their gates")
    return {k: v["value"] for k, v in result["metrics"].items()}


def metrics() -> tuple[dict, dict]:
    """From BENCHMARK.json: +1 where a metric is better higher and -1 where
    lower, and each end-to-end metric's regression bound."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except OSError:
        return {}, {}
    listed = spec.get("end_to_end", []) + spec.get("per_layer", [])
    return ({m["name"]: 1 if m.get("better") == "higher" else -1 for m in listed},
            {m["name"]: float(m["bound"]) for m in listed if "bound" in m})


def quartiles(xs: list) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base: list, change: list, sign: int, bound: float) -> str:
    """Whether the change's median is worse than the base's by no more
    than bound, a share of the base's median: within or worse, and
    unresolved where the base's IQR is wider than the bound, unless every
    change run is better than every base run."""
    b1, b2, b3 = quartiles(base)
    allowed = bound * abs(b2)
    if min(sign * c for c in change) > max(sign * b for b in base):
        return "within"
    if b3 - b1 > allowed:
        return "unresolved"
    return "worse" if sign * (b2 - quartiles(change)[1]) > allowed else "within"


def summary(name: str, base: list, change: list, sign: int, bound=None) -> str:
    """One line: both sides' quartiles, the pairs the change won, the gain
    rule and, given a bound, the regression verdict."""
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    gap = sign * (c2 - b2)
    holds = wins * 10 >= 9 * len(base) and gap > b3 - b1
    line = (f"{name}: base {b2:.6g} [{b1:.6g}, {b3:.6g}]  change {c2:.6g} [{c1:.6g}, {c3:.6g}]"
            f"  {100 * (c2 / b2 - 1) if b2 else 0.0:+.1f}%  won {wins}/{len(base)}"
            f"  rule {'holds' if holds else 'fails'}")
    if bound is not None:
        line += f"  bound {bound:g} {verdict(base, change, sign, bound)}"
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision or directory")
    ap.add_argument("--change", required=True, help="git revision or directory")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    sign, bound = metrics()
    with tempfile.TemporaryDirectory(prefix="pairbench-") as tmp:
        trees = (export(args.base, os.path.join(tmp, "base")),
                 export(args.change, os.path.join(tmp, "change")))
        for workload in args.workload:
            for seed in args.seed or [501]:
                runs: tuple[list, list] = ([], [])
                for i in range(args.pairs):
                    for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                        runs[side].append(run_once(trees[side], workload, seed, args.seconds))
                    print(f"{workload} seed {seed} pair {i + 1}: " + "  ".join(
                        f"{k} {runs[0][-1][k]:.6g} -> {runs[1][-1][k]:.6g}" for k in runs[0][-1]),
                        flush=True)
                for key in runs[0][0]:
                    print(summary(f"{workload} seed {seed} {key}", [r[key] for r in runs[0]],
                                  [r[key] for r in runs[1]], sign.get(key, -1),
                                  bound.get(key)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
