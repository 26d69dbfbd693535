"""A small cosine mode on a fluid at rest, against the linearised flow.

Linearised about rest at rho0, a mode eps cos(k x), k = pi j, with u = 0
evolves as rho_hat(t) = eps (s1 e^(s2 t) - s2 e^(s1 t)) / (s1 - s2), where
s1 and s2 are the roots of s^2 + (lam k^2 / rho0) s + p'(rho0) k^2 = 0; it
starts at eps with zero slope.  Where p'(rho0) < 0 (the non-monotone band)
s1 > 0 and the mode grows; where p'(rho0) > 0 the roots are complex with
real part -lam k^2 / (2 rho0) and the mode decays as it oscillates.

The scheme is first order in time, so its mode grows a little slower than
the linear one, by a share that falls with dt.  The bounds below sit a few
percent outside what the scheme gives (see CHANGES.md for the table).
"""
import numpy as np
import pytest

from mvflow.pressure import CompactBump, PowerLawH, PressureLaw
from mvflow.solver import FluidState, Grid1D, SolverConfig, run

RHO0 = 1.7795  # where the band law's p' is least (-2.590)
LAM, EPS, N, T = 0.1, 1e-5, 256, 0.2


def _law(amp: float) -> PressureLaw:
    return PressureLaw(h_part=PowerLawH(a=1.0, gamma=2.0),
                       bump=CompactBump(q1=1.0, q2=2.0, amp=amp))


def _mode(law: PressureLaw, j: int, cfl: float):
    """The scheme's and the linearised mode amplitudes at the 21 samples,
    and the linearised rate s1."""
    grid = Grid1D(n=N, length=1.0)
    wave = np.cos(np.pi * j * grid.centers)
    cfg = SolverConfig(law=law, lam=LAM, T=T, n_samples=21, cfl=cfl)
    traj = run(cfg, FluidState(rho=RHO0 + EPS * wave, m=np.zeros(N)), grid)
    amp = 2.0 / N * ((traj.rho - RHO0) @ wave)
    k2 = (np.pi * j) ** 2
    b, c = LAM * k2 / RHO0, float(law.dp(RHO0)) * k2
    root = np.sqrt(complex(b * b - 4.0 * c))
    s1, s2 = (root - b) / 2.0, (-root - b) / 2.0
    t = traj.times
    linear = (EPS * (s1 * np.exp(s2 * t) - s2 * np.exp(s1 * t)) / (s1 - s2)).real
    return amp, linear, s1


@pytest.mark.parametrize("j, least_ratio", [(2, 0.93), (4, 0.80)])
def test_band_mode_grows_at_close_to_the_linear_rate(j, least_ratio):
    amp, linear, s1 = _mode(_law(2.0), j, cfl=0.1)
    assert s1.real > 0.0
    assert np.all(np.diff(amp) > 0.0)
    ratio = amp[1:] / linear[1:]
    assert np.all(ratio <= 1.0) and np.all(ratio >= least_ratio), ratio


def test_monotone_twin_mode_decays_with_the_linear_flow():
    amp, linear, s1 = _mode(_law(0.05), 2, cfl=0.4)
    assert s1.real < 0.0 and s1.imag > 0.0
    assert np.max(np.abs(amp - linear)) <= 0.01 * EPS
    # past T/2 the mode stays below the linear envelope there
    assert np.max(np.abs(amp[10:])) < EPS * np.exp(s1.real * T / 2.0)
