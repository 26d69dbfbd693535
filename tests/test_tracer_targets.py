"""The benchmark tracer's target names exist in mvflow, and a run calls them.

perfbench/tracer.py wraps mvflow functions by name from outside the
package.  A name it lists that mvflow no longer has would only surface when
the benchmark runs; these tests load the tracer's tables (without installing
anything) and fail as soon as such a name is removed or renamed.  The
benchmark's counts also need a run to look those names up at call time:
one step call per stack trial at solver.step and one CFL bound per fresh
step at solver.admissible_dt.
"""
import collections
import importlib
import importlib.util
import os

import pytest

from mvflow import solver
from mvflow.pressure import PowerLawH, PressureLaw

TRACER_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_module_target_exists(tracer):
    # the tracer looks each name up in the module's own namespace
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracer.MODULE_TARGETS
               if attr not in vars(importlib.import_module(mod))]
    assert missing == []


def test_every_method_target_exists(tracer):
    missing = [f"{mod}.{cls}.{meth}" for mod, cls, meth, _ in tracer.METHOD_TARGETS
               if meth not in vars(getattr(importlib.import_module(mod), cls, object))]
    assert missing == []


def test_one_run_calls_the_traced_seams(monkeypatch):
    # count the calls made through the module and class attributes the
    # tracer wraps while one single-row run rejects some of its trials
    calls = collections.Counter()

    def count(owner, name):
        real = vars(owner)[name]

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("step", "admissible_dt", "total_energy"):
        count(solver, name)
    count(PressureLaw, "P")
    grid = solver.Grid1D(n=32, length=1.0)
    cfg = solver.SolverConfig(law=PressureLaw(h_part=PowerLawH(a=1.0, gamma=2.0)),
                              lam=0.1, T=0.05, n_samples=4)
    traj = solver.run(cfg, solver.pulse_flow_init(1.0).sample(grid), grid)
    assert traj.n_trials > traj.n_steps > 0
    assert calls["admissible_dt"] == traj.n_steps  # one CFL bound per fresh step
    assert traj.n_steps <= calls["step"] <= traj.n_trials  # one call per trial or two
    assert calls["total_energy"] > 0 and calls["P"] > 0

    # a ragged two-row stack reaches every seam too: one step call serves
    # every live row (and both rungs), and each call after a retry-only one
    # reuses its CFL bounds
    calls.clear()
    grids = [solver.Grid1D(n=n, length=1.0) for n in (32, 48)]
    trajs = solver.run_stack([cfg, cfg], [solver.pulse_flow_init(1.0).sample(g) for g in grids],
                             grids)
    assert all(calls[name] > 0 for name in ("step", "admissible_dt", "total_energy", "P"))
    assert max(t.n_steps for t in trajs) <= calls["step"] <= sum(t.n_trials for t in trajs)
    assert calls["admissible_dt"] <= calls["step"]


def test_the_certificate_names_are_aliases_of_certify():
    # the tracer wraps these two names; each must stay the one certify pass,
    # not grow back into a second code path
    from mvflow import experiments, pressure

    assert experiments.certify_lower_bound is experiments.certify_h_bound \
        is pressure.certify
