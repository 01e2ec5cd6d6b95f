"""Emergence of the Newton pair potential from measurement feedback.

Two particles sit on the axis of a periodic 64^3 lattice.  Their smeared
mass density is continuously monitored and the signal sources a classical
Newton field that is fed back as a potential.  The deterministic part of
that feedback is computed per configuration and compared with the bare
-G m1 m2 / d law after removing the periodic-image contribution (Ewald).
At short distance the smeared source cuts the law off: the continuum
potential is -G m1 m2 erf(d / (sqrt(2) sigma_eff)) / d, with sigma_eff =
sigma for point feedback and sigma sqrt(2) for smeared feedback.

Also shown: the single-particle potential is a configuration constant
(no self force), independent of the monitoring strength.
"""

import math

import numpy as np

from collapsesim import LatticeGrid, ParticleSet, build_backaction_hamiltonian
from collapsesim.kernels import periodic_image_correction
from collapsesim.models import ModelSpec

n, G, sigma = 64, 1.0, 1.0
grid = LatticeGrid((n, n, n), 1.0)
pair = ParticleSet([1.0, 1.0])
spec = ModelSpec(kind="csl", grid=grid, particles=pair, sigma=sigma, G=G)

print("== single particle: no dynamical self-interaction ==")
one = ModelSpec(kind="csl", grid=LatticeGrid((8, 8, 8), 1.0),
                particles=ParticleSet([1.0]), sigma=sigma, G=G)
v_one = build_backaction_hamiltonian(one)
print(f"potential spread over all 512 positions: {v_one.spread():.2e}")
for gamma in (0.1, 10.0):
    v_g = build_backaction_hamiltonian(
        ModelSpec(kind="csl", grid=one.grid, particles=one.particles,
                  sigma=sigma, G=G, gamma=gamma))
    print(f"  gamma = {gamma:5.1f}: max |difference| vs gamma = 1 build: "
          f"{np.abs(v_g.values - v_one.values).max():.1e}")

print("\n== two particles: emergent pair potential ==")
ds = [1, 2, 4, 8, 10, 12, 14, 16]
configs = [[0, grid.site_index((d, 0, 0))] for d in ds]
v_pair = build_backaction_hamiltonian(spec, configs=configs).values
v_self = 2.0 * build_backaction_hamiltonian(
    ModelSpec(kind="csl", grid=grid, particles=ParticleSet([1.0]),
              sigma=sigma, G=G), configs=[[0]]).values[0]
sigma_eff = sigma * math.sqrt(2.0) if spec.feedback_smearing else sigma
print(f"{'d':>4} {'V_inter':>12} {'V_corrected':>12} {'-G/d':>12} {'rel err':>9} "
      f"{'erf law':>12} {'rel err':>9}")
for d, v in zip(ds, v_pair):
    v_corr = (v - v_self) + G * periodic_image_correction(float(d), float(n))
    target = -G / d
    cutoff = target * math.erf(d / (math.sqrt(2.0) * sigma_eff))
    print(f"{d:4d} {v - v_self:12.6f} {v_corr:12.6f} {target:12.6f} "
          f"{abs(v_corr - target) / abs(target):9.2%} {cutoff:12.6f} "
          f"{abs(v_corr - cutoff) / abs(cutoff):9.2%}")
print("\nthe corrected values track -G m1 m2 / d: gravity emerged from the")
print("feedback loop without any pair interaction being put in by hand;")
print(f"below a few sigma_eff = {sigma_eff:g} the source's smearing cuts the")
print("law off, as the erf column shows")
