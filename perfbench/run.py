"""mvflow benchmark: one workload, closed loop, one op at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload ensemble-bump --seed 1 --seconds 25 --trace 0

One client sends the next op only after the previous one has returned
(closed loop, concurrency 1, ``--jobs 1``, BLAS/OpenMP pinned to one
thread).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced ops and reports the per-layer metrics.
The last line of standard output is one JSON object; human-readable lines,
including the environment record and the exact counts, come before it.
Details and the files written under perfbench/out/ are in
perfbench/README.md.
"""
from __future__ import annotations

import os

# Pin native thread pools before numpy is first imported.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)
os.environ.pop("MVFLOW_OUT", None)

import argparse  # noqa: E402
import gzip  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from tracer import TRACED_MODULES, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5
TAIL_BEYOND = 10
# setup_s is reported at a fixed machine speed: the one at which the
# reference kernel takes this long (see README, "Noise").
REFERENCE_NOMINAL_S = 0.025

END_TO_END_UNITS = {"op_rel_p50": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "solver.trial_steps": "count", "solver.accepted_steps": "count",
    "solver.accept_ratio": "ratio", "solver.dt_over_cfl": "ratio",
    "solver.step_us": "us", "solver.admissible_dt_calls": "count",
    "solver.energy_calls": "count", "solver.energy_us": "us",
    "solver.controller_s": "s", "solver.run_s": "s",
    "solver.reference_s": "s", "solver.self_s": "s",
    "pressure.quad_calls": "count", "pressure.potential_calls": "count",
    "pressure.potential_s": "s", "pressure.certify_s": "s",
    "pressure.bregman_s": "s", "pressure.self_s": "s",
    "measures.assemble_s": "s", "measures.defect_s": "s",
    "measures.energy_slack_s": "s", "measures.residual_calls": "count",
    "measures.residual_s": "s", "measures.self_s": "s",
    "relative_energy.remainder_s": "s", "relative_energy.verdict_s": "s",
    "relative_energy.series_s": "s", "relative_energy.self_s": "s",
    "experiments.self_s": "s", "experiments.files_written": "count",
    "experiments.bytes_written": "bytes",
    "trace.overhead_frac": "ratio", "trace.accounted_frac": "ratio",
    "trace.spans": "count",
}
# Traced counts that must repeat exactly for one seed; a bit-neutral change
# to the program must leave them, and the gate records, as they are.
EXACT_COUNTS = ("solver.trial_steps", "solver.accepted_steps",
                "pressure.quad_calls", "measures.residual_calls")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and generate the inputs, then exit "
                        "(one fresh-process set-up probe)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import scipy
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV}, "jobs": 1,
        "load": "closed loop: one client, one op at a time, next op sent "
                "after the previous one returns",
    }


def measure_setup(args) -> list[tuple[float, float]]:
    """(wall seconds, reference seconds) per fresh set-up process.

    Each probe imports mvflow and builds the inputs in a new interpreter.
    The reference kernel is timed before and after each probe, as for ops.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1"]
    out = []
    reference_seconds()  # first call pays numpy's one-off costs
    ref = reference_seconds()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        ref_after = reference_seconds()
        out.append((wall, 0.5 * (ref + ref_after)))
        ref = ref_after
    return out


def reference_seconds() -> float:
    """Wall time of a fixed piece of work that does not touch mvflow.

    Small numpy operations in a Python loop, like the ops themselves.  It is
    timed right before each op, so op / reference cancels most of the drift
    in the machine's speed (see README, "Noise").
    """
    t0 = time.perf_counter()
    y = np.linspace(0.0, 1.0, 256)
    acc = 0.0
    for i in range(4000):
        y = 0.5 * (y + np.sin(y))
        d = {j: 1.5 * j for j in range(20)}
        acc += float(y[i % 256]) + d[i % 20]
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite result")
    return elapsed


def tail(times: list[float]):
    """Highest percentile with at least TAIL_BEYOND ops beyond it, if above
    the median: (value, percentile, op count), else None."""
    n = len(times)
    if n <= 2 * TAIL_BEYOND:
        return None
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


class Runner:
    """Runs ops of one workload, times them and applies its gates."""

    def __init__(self, wl, workdir: str, admissible_dt=None):
        self.wl = wl
        self.workdir = workdir
        # unwrapped solver.admissible_dt, for the initial CFL dt of traced runs
        self.admissible_dt = admissible_dt
        self.attempted = 0
        self.failures: list[str] = []
        self.records: list[dict] = []

    def run_op(self, tracer=None):
        """One op: returns (wall seconds, spans or None, passed)."""
        out_dir = os.path.join(self.workdir, f"op{self.attempted}")
        os.makedirs(out_dir)
        self.attempted += 1
        spans = None
        if tracer is not None:
            tracer.install(on_return=self.on_return)
        try:
            root = tracer.open_op() if tracer is not None else None
            t0 = time.perf_counter()
            try:
                result = self.wl.op(out_dir)
            finally:
                wall = time.perf_counter() - t0
                if tracer is not None:
                    spans = tracer.close_op(root)
        except Exception:
            self.failures.append(traceback.format_exc(limit=3))
            shutil.rmtree(out_dir, ignore_errors=True)
            return wall, None, False
        finally:
            if tracer is not None:
                tracer.restore()
        try:
            ok, detail, record = self.wl.check(result, out_dir)
        except Exception:
            ok, detail, record = False, traceback.format_exc(limit=3), {}
        shutil.rmtree(out_dir, ignore_errors=True)
        if not ok:
            self.failures.append(detail)
        self.records.append(record)
        return wall, spans, ok

    def on_return(self, name, args, result):
        if name != "solver.run":
            return None
        cfg, state, grid = args[:3]
        n = int(result.n_steps)
        return {"n_steps": n, "dt_cfl0": self.admissible_dt(state, cfg, grid),
                "dt_mean": float(result.times[-1]) / n if n else 0.0}


def repeats(rows: list[dict]) -> dict:
    """For each key: its value over the run's ops and whether it repeated."""
    out = {}
    for key in sorted({k for r in rows for k in r}):
        vals = {r[key] for r in rows if key in r}
        out[key] = {"value": min(vals), "repeated": len(vals) == 1}
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mvflow", "__init__.py")):
        print(f"error: mvflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            wl.prepare(args.seed, workdir)
            return 0
        return _bench(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(args, wl, workdir) -> int:
    setup = measure_setup(args)
    wl.prepare(args.seed, workdir)
    env = environment()

    tracer = admissible_dt = None
    if args.trace:
        tracer = Tracer({m: importlib.import_module(m) for m in TRACED_MODULES})
        tracer.check_unwrapped()
        admissible_dt = tracer.modules["mvflow.solver"].admissible_dt
    runner = Runner(wl, workdir, admissible_dt)

    runner.run_op()  # warm-up: lazy imports and first-call caches
    plain: list[float] = []
    traced: list[float] = []
    rel: dict[bool, list[float]] = {False: [], True: []}
    per_op: list[dict] = []
    dump = io.BytesIO()
    t_start = time.perf_counter()
    refs = [reference_seconds()]
    with gzip.GzipFile(fileobj=dump, mode="wb") as gz:
        # a traced run needs one op of each kind, unless ops are failing
        while time.perf_counter() - t_start < args.seconds or \
                (args.trace and not (plain and traced) and not runner.failures):
            use_trace = bool(args.trace) and len(plain) > len(traced)
            wall, spans, ok = runner.run_op(tracer if use_trace else None)
            refs.append(reference_seconds())  # after this op, before the next
            if not ok:
                continue
            rel[use_trace].append(wall / (0.5 * (refs[-2] + refs[-1])))
            if not use_trace:
                plain.append(wall)
                continue
            traced.append(wall)
            m = layer_metrics(spans)
            rec = runner.records[-1]
            m["experiments.files_written"] = rec.get("files_written", 0)
            m["experiments.bytes_written"] = rec.get("bytes_written", 0)
            per_op.append(m)
            op_id = len(traced)
            for s in spans:
                gz.write((json.dumps([op_id, s[0], s[1], s[2], s[3] - spans[0][3],
                                      s[4] - spans[0][3], s[5]]) + "\n").encode())
    if tracer is not None:
        tracer.check_unwrapped()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = len(runner.failures)
    if not plain or (args.trace and not traced):
        print(f"error: no op of {args.workload} passed its gates; first "
              f"failure: {runner.failures[0] if runner.failures else '-'}",
              file=sys.stderr)
        return 1
    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "env": env,
              "setup_probes_wall_ref_s": setup, "op_s": plain, "op_rel": rel[False],
              "reference_s": refs,
              "traced_op_s": traced,
              "attempted": runner.attempted, "failed": failed,
              "failures": runner.failures[:5]}

    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{runner.attempted} ops attempted (1 warm-up), {failed} failed")
    for msg in runner.failures[:3]:
        print("failure: " + msg.strip().replace("\n", " | "))
    print(f"failed_frac = {failed / runner.attempted:.6g} [ratio] "
          f"({failed}/{runner.attempted} ops)")

    metrics: dict[str, float] = {}
    if not args.trace:
        metrics["op_rel_p50"] = statistics.median(rel[False])
        metrics["setup_s"] = REFERENCE_NOMINAL_S * statistics.median(
            wall / ref for wall, ref in setup)
        metrics["peak_rss_mb"] = rss_mb
        units = END_TO_END_UNITS
        print(f"op_s_p50 = {statistics.median(plain):.6g} s "
              f"(median wall seconds per op, {len(plain)} ops)")
        print(f"setup_wall_s = {statistics.median(w for w, _ in setup):.6g} s "
              f"(median wall seconds of {len(setup)} set-up processes)")
        result["op_s_p50"] = statistics.median(plain)
        t = tail(plain)
        if t is None:
            print(f"op_s_tail: omitted, {len(plain)} timed ops leave no "
                  f"percentile above the median with {TAIL_BEYOND} ops beyond")
        else:
            print(f"op_s_tail = {t[0]:.6g} s (p{t[1]:.1f} of {t[2]} ops)")
            result["op_s_tail"] = {"value": t[0], "percentile": t[1], "ops": t[2]}
    else:
        units = PER_LAYER_UNITS
        for key in PER_LAYER_UNITS:
            if key != "trace.overhead_frac":
                metrics[key] = statistics.median(m[key] for m in per_op)
        metrics["trace.overhead_frac"] = \
            statistics.median(rel[True]) / statistics.median(rel[False]) - 1.0
        result["per_op_layers"] = per_op
    counts = repeats(runner.records)
    counts.update(repeats([{k: m[k] for k in EXACT_COUNTS} for m in per_op]))
    result["exact_counts"] = counts
    for key, c in counts.items():
        print(f"count {key} = {c['value']} "
              f"({'repeated' if c['repeated'] else 'VARIED'} over the run)")
    for key, v in metrics.items():
        print(f"{key} = {v:.6g} [{units[key]}]")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", tag + ".json"), "w") as fh:
        json.dump(dict(result, metrics=metrics), fh, indent=1, sort_keys=True)
    if args.trace:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        with open(os.path.join(OUT, "spans", tag + ".jsonl.gz"), "wb") as fh:
            fh.write(dump.getvalue())

    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
