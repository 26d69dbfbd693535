"""Self-tests for the benchmark harness.

    python3 perfbench/selftest.py

- self-time arithmetic on a synthetic span tree;
- the tracer wraps every lookup site while installed, and an untraced call
  afterwards runs the original, unwrapped functions;
- smoke: one traced op per workload passes its gates and yields every
  per-layer metric.
"""
from __future__ import annotations

import os
import shutil
import sys
import tempfile
import unittest

import run  # pins BLAS threads before numpy loads
from tracer import (METHOD_TARGETS, MODULE_TARGETS, TRACED_MODULES, Tracer,
                    is_wrapper, layer_metrics, outermost, self_times)
from workloads import WORKLOADS

sys.path.insert(0, run.SRC)


def _span(sid, parent, name, t0, t1, attrs=None):
    return [sid, parent, name, t0, t1, attrs]


class SelfTimeArithmetic(unittest.TestCase):
    # op [0, 100] > experiments [5, 95] > solver.run [10, 60] (steps [12, 20]
    # and [30, 50]) and pressure.certify [60, 90] (bregman [62, 75], [78, 88])
    TREE = [
        _span(0, -1, "bench.op", 0, 100),
        _span(1, 0, "experiments.cli_main", 5, 95),
        _span(2, 1, "solver.run", 10, 60,
              {"n_steps": 4, "dt_cfl0": 0.5, "dt_mean": 0.25}),
        _span(3, 2, "solver.step", 12, 20),
        _span(4, 2, "solver.step", 30, 50),
        _span(5, 1, "pressure.certify", 60, 90),
        _span(6, 5, "pressure.bregman", 62, 75),
        _span(7, 5, "pressure.bregman", 78, 88),
    ]

    def test_self_times(self):
        selfs = self_times(self.TREE)
        self.assertEqual(selfs, [10, 10, 22, 8, 20, 7, 13, 10])
        self.assertEqual(sum(selfs), 100)

    def test_children_are_clipped_and_merged(self):
        # overlapping children count once; a child that sticks out of its
        # parent counts only inside it
        spans = [_span(0, -1, "bench.op", 0, 30),
                 _span(1, 0, "pressure.bregman", 2, 15),
                 _span(2, 0, "pressure.bregman", 10, 20),
                 _span(3, 0, "pressure.bregman", 25, 40)]
        self.assertEqual(self_times(spans)[0], 30 - 18 - 5)

    def test_layer_self_times_account_for_the_op(self):
        m = layer_metrics(self.TREE)
        self.assertAlmostEqual(m["experiments.self_s"], 10e-9)
        self.assertAlmostEqual(m["solver.self_s"], 50e-9)
        self.assertAlmostEqual(m["pressure.self_s"], 30e-9)
        # bench.op keeps 10 of 100 ns as harness time
        self.assertAlmostEqual(m["trace.accounted_frac"], 0.9)
        self.assertEqual(m["solver.trial_steps"], 2)
        self.assertEqual(m["solver.accepted_steps"], 4)
        self.assertAlmostEqual(m["solver.accept_ratio"], 2.0)
        self.assertAlmostEqual(m["solver.dt_over_cfl"], 0.5)
        self.assertAlmostEqual(m["solver.step_us"], 14e-3)
        self.assertAlmostEqual(m["solver.controller_s"], 22e-9)
        self.assertAlmostEqual(m["solver.run_s"], 50e-9)
        self.assertAlmostEqual(m["pressure.certify_s"], 30e-9)
        self.assertAlmostEqual(m["pressure.bregman_s"], 23e-9)

    def test_outermost_skips_nested_spans_of_the_same_kind(self):
        spans = [_span(0, -1, "bench.op", 0, 10),
                 _span(1, 0, "pressure.P", 1, 9),
                 _span(2, 1, "pressure.quad", 2, 3),
                 _span(3, 1, "pressure.P", 4, 5)]
        self.assertEqual([s[0] for s in outermost(spans, {"pressure.P"})], [1])


class TracerRestoresOriginals(unittest.TestCase):
    def test_install_wraps_and_restore_unwraps(self):
        import importlib
        mods = {m: importlib.import_module(m) for m in TRACED_MODULES}
        originals = [(owner, attr, owner.__dict__[attr])
                     for owner, attr, _ in Tracer(mods).targets()]
        self.assertEqual(len(originals),
                         len(MODULE_TARGETS) + len(METHOD_TARGETS))
        self.assertFalse(any(is_wrapper(o) for _, _, o in originals))

        tracer = Tracer(mods)
        solver, pressure = mods["mvflow.solver"], mods["mvflow.pressure"]
        grid = solver.Grid1D(n=16)
        cfg = solver.SolverConfig(
            law=pressure.PressureLaw(h_part=pressure.PowerLawH(a=1.0, gamma=2.0)),
            lam=0.1, T=1e-3)
        state = solver.smooth_pulse_init(1.0).sample(grid)

        tracer.install()
        try:
            for owner, attr, _ in originals:
                self.assertTrue(is_wrapper(owner.__dict__[attr]), attr)
            root = tracer.open_op()
            solver.run(cfg, state, grid)
            spans = tracer.close_op(root)
        finally:
            tracer.restore()
        names = {s[2] for s in spans}
        self.assertTrue({"solver.run", "solver.step", "solver.total_energy",
                         "solver.admissible_dt", "pressure.P"} <= names)

        for owner, attr, orig in originals:
            self.assertIs(owner.__dict__[attr], orig, attr)
        solver.run(cfg, state, grid)
        self.assertEqual(tracer.spans, [])


class Smoke(unittest.TestCase):
    def test_one_traced_op_per_workload(self):
        import importlib
        tracer = Tracer({m: importlib.import_module(m) for m in TRACED_MODULES})
        adm = tracer.modules["mvflow.solver"].admissible_dt
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                os.makedirs(run.OUT, exist_ok=True)
                workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
                try:
                    wl = cls()
                    wl.prepare(0, workdir)
                    runner = run.Runner(wl, workdir, adm)
                    wall, spans, ok = runner.run_op(tracer)
                    self.assertTrue(ok, runner.failures)
                    m = layer_metrics(spans)
                    missing = set(run.PER_LAYER_UNITS) - set(m) - {
                        "trace.overhead_frac", "experiments.files_written",
                        "experiments.bytes_written"}
                    self.assertEqual(missing, set())
                    self.assertGreater(m["solver.trial_steps"], 0)
                    self.assertGreater(m["trace.accounted_frac"], 0.99)
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
        tracer.check_unwrapped()


if __name__ == "__main__":
    os.chdir(run.ROOT)
    unittest.main(verbosity=2)
