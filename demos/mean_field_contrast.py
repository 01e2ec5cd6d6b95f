"""Why signal sourcing beats mean-field sourcing.

The mean-field (state-sourced) Newton equation makes a single particle
fall toward its own wavepacket and evolves two operationally identical
ensembles apart -- the nonlinearity that enables faster-than-light
signalling.  The monitored model keeps the unconditional evolution exactly
linear and its emergent potential exerts no self force.
"""

import dataclasses

import numpy as np

from collapsesim import LatticeGrid, ParticleSet, build_model, run_ensemble
from collapsesim.analysis import linearity_witness, trace_distance
from collapsesim.models import ModelSpec

grid = LatticeGrid((16,), 1.0)
one = ParticleSet([1.0])
x = grid.axis_coordinates[0]
psi0 = (0.9 * np.exp(-((x - 5.0) ** 2) / 4.0)
        + 0.45 * np.exp(-((x - 10.0) ** 2) / 4.0)).astype(complex)
psi0 /= np.linalg.norm(psi0)
dt, steps, G = 1e-4, 4000, 0.3

print("== self force on an asymmetric packet ==")
m_sn = build_model(ModelSpec(kind="sn", grid=grid, particles=one, G=G))
m_free = build_model(ModelSpec(kind="sn", grid=grid, particles=one, G=0.0))
mon = build_model(ModelSpec(kind="csl", grid=grid, particles=one,
                            sigma=1.0, gamma=1.0, G=G))
m_novg = dataclasses.replace(mon, backaction=np.zeros_like(mon.backaction))
rho0 = np.outer(psi0, psi0.conj())


def final_x(initial, model, **options):
    """<x> after the run, read from its last record."""
    (rec,) = run_ensemble(initial, model, dt, steps, [0], record_every=steps, **options)
    return rec.positions[-1, 0]


print(f"<x>(t=0.4)  free evolution:        {final_x(psi0, m_free):.6f}")
print(f"<x>(t=0.4)  state-sourced gravity: {final_x(psi0, m_sn):.6f}"
      f"   <- pulled toward its own mass")
rho_x = final_x(rho0, mon, unconditional=True)
novg_x = final_x(rho0, m_novg, unconditional=True, monitor_positivity=False)
print(f"<x>(t=0.4)  monitored, with and without the emergent potential: "
      f"{rho_x:.6f} / {novg_x:.6f}   <- identical: no self force")

print("\n== ensemble (non)linearity ==")
grid12 = LatticeGrid((12,), 1.0)
x12 = grid12.axis_coordinates[0]
a = np.exp(-((x12 - 3.0) ** 2) / 2.0).astype(complex)
a /= np.linalg.norm(a)
b = np.exp(-((x12 - 9.0) ** 2) / 2.0).astype(complex)
b = b - (a.conj() @ b) * a
b /= np.linalg.norm(b)
sup = [(0.5, (a + b) / np.sqrt(2)), (0.5, (a - b) / np.sqrt(2))]
mix = [(0.5, a), (0.5, b)]

sn = build_model(ModelSpec(kind="sn", grid=grid12, particles=one, G=0.5))
rep_sn = linearity_witness(sn, sup, mix, t=0.3, dt=1e-4)
print(f"state-sourced: trace distance between the two evolved ensembles = "
      f"{rep_sn.distance:.3f}  (same initial density matrix!)")

grid8 = LatticeGrid((8,), 1.0)
x8 = grid8.axis_coordinates[0]
a8 = np.exp(-((x8 - 2.0) ** 2) / 2.0).astype(complex)
a8 /= np.linalg.norm(a8)
b8 = np.exp(-((x8 - 6.0) ** 2) / 2.0).astype(complex)
b8 = b8 - (a8.conj() @ b8) * a8
b8 /= np.linalg.norm(b8)
sup8 = [(0.5, (a8 + b8) / np.sqrt(2)), (0.5, (a8 - b8) / np.sqrt(2))]
mix8 = [(0.5, a8), (0.5, b8)]
mon8 = build_model(ModelSpec(kind="csl", grid=grid8, particles=one,
                             sigma=1.0, gamma=1.0, G=0.2))
rep_mon = linearity_witness(mon8, sup8, mix8, t=0.1, dt=1e-4, n_samples=200)
print(f"monitored:     trace distance = {rep_mon.distance:.3f}  "
      f"(Monte Carlo tolerance {rep_mon.tolerance:.3f})")
print("\nsourcing gravity with the measurement signal instead of the quantum")
print("average preserves the statistical interpretation of the state")
