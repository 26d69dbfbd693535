"""Production paths load no scipy package and no heavy numpy subpackage.

A fresh interpreter pays about 0.3 s and 20 MB for ``import scipy.linalg``
and as much again for ``scipy.interpolate``; mvflow takes only compiled
routines from scipy and keeps the packages as test oracles.
"""
import importlib.machinery
import os
import re
import subprocess
import sys

import pytest

import mvflow
from mvflow import solver

SCENARIO = """
import sys
import numpy as np
import mvflow.cli
from mvflow.pressure import CompactBump, PowerLawH, PressureLaw, TabulatedH, certify
from mvflow.solver import Grid1D, SolverConfig, pulse_flow_init, run

law = PressureLaw(PowerLawH(1.0, 2.0), CompactBump(q1=0.9, q2=1.3, amp=-0.2))
grid = Grid1D(16)
traj = run(SolverConfig(law=law, lam=0.1, T=0.02), pulse_flow_init(grid.length).sample(grid),
           grid)
assert traj.times[-1] == 0.02 and traj.complete
table = TabulatedH((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 3.0, 6.0))
rho = np.linspace(0.0, 4.0, 9)
table.value(rho), table.slope(rho)
rho_grid = np.linspace(0.0, 8.0, 64)
assert certify(law, (0.5, 1.5), rho_grid).c_min > 0.0
print(" ".join(sorted(sys.modules)))
"""

NOT_LOADED = ("scipy.linalg", "scipy.interpolate", "scipy.integrate", "scipy._lib._array_api",
              "numpy.f2py", "numpy.ma", "numpy.polynomial")


def test_run_tabulate_and_certify_load_no_heavy_package():
    src = os.path.dirname(os.path.dirname(mvflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", SCENARIO], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "scipy.linalg._flapack" in loaded
    assert [m for m in NOT_LOADED if m in loaded] == []


def test_scipy_linalg_reuses_the_loaded_lapack_module():
    from scipy.linalg import lapack

    assert lapack.dgtsv is solver.dgtsv


def test_missing_lapack_extension_names_its_path(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(solver.importlib.util, "find_spec", lambda name: spec)
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg" / "_flapack"))):
        solver._load_flapack()
