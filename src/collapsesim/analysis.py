"""Quantitative observables: decoherence rates, scans, linearity witnesses.

Because every monitored and fed-back operator is position diagonal, the
off-diagonal element rho_xy decays under the noise-averaged generator at
the exact closed-form rate

    Gamma(x, y) = (1/8) Q_gamma(Delta rho_sigma, Delta rho_sigma)
                + (1/2) Q_gamma^-1(Delta Phi, Delta Phi)

with Delta f = f(.; x) - f(.; y) and Q the kernel quadratic forms.  Rates
from the generator are the primary observable; trajectory and master
equation fits are a consistency layer on top.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .engine import ensemble_mean, me_step, run_ensemble
from .kernels import coulomb_multiplier, smear_multiplier, smeared_point_profile
from .models import Model, ModelSpec, kappa_decoherence_coefficient


@dataclass(frozen=True)
class RateEntry:
    separation: float
    intrinsic: float
    backaction: float

    @property
    def total(self) -> float:
        return self.intrinsic + self.backaction


@dataclass(frozen=True)
class DecoherenceProfile:
    """Rate-versus-separation table split by contribution."""

    separations: np.ndarray
    intrinsic: np.ndarray
    backaction: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.intrinsic + self.backaction


def _config_fields(spec: ModelSpec, config) -> tuple[np.ndarray, np.ndarray]:
    """(smeared density, feedback potential) fields of one configuration."""
    grid, particles = spec.grid, spec.particles
    config = np.asarray(config, int).reshape(particles.count)
    prof_sig = smeared_point_profile(grid, spec.sigma)
    prof_sharp = smeared_point_profile(grid, 0.0)
    dens = np.zeros(grid.dims)
    sharp = np.zeros(grid.dims)
    for n, m in enumerate(particles.masses):
        shift = grid.site_multi(config[n])
        dens += m * np.roll(prof_sig, shift, axis=tuple(range(grid.ndim)))
        sharp += m * np.roll(prof_sharp, shift, axis=tuple(range(grid.ndim)))
    mult = coulomb_multiplier(grid, spec.G)
    if spec.resolved_feedback_smearing:
        mult = mult * smear_multiplier(grid, spec.sigma)
    phi = grid.apply_multiplier(sharp, mult)
    return dens, phi


def closed_form_rate(spec: ModelSpec, x_config, y_config) -> RateEntry:
    """Decay rate of rho_xy under the noise-averaged generator, from the
    kernel quadratic forms of the field differences between the two
    configurations."""
    from .kernels import CorrelationKernel

    kernel = CorrelationKernel(kind=spec.resolved_kernel_kind, grid=spec.grid,
                               gamma=spec.gamma, kappa=spec.kappa, G=spec.G)
    dens_x, phi_x = _config_fields(spec, x_config)
    dens_y, phi_y = _config_fields(spec, y_config)
    ddens = dens_x - dens_y
    dphi = phi_x - phi_y
    intrinsic = 0.125 * kernel.quad(ddens, ddens)
    backaction = 0.5 * kernel.quad_inverse(dphi, dphi)
    x = np.asarray(x_config, int).reshape(-1)
    y = np.asarray(y_config, int).reshape(-1)
    sep = _embedded_distance(spec, x, y)
    return RateEntry(separation=sep, intrinsic=intrinsic, backaction=backaction)


def _embedded_distance(spec: ModelSpec, x, y) -> float:
    grid = spec.grid
    tot = 0.0
    for n in range(len(x)):
        dx = np.array(grid.site_multi(x[n])) - np.array(grid.site_multi(y[n]))
        for ax in range(grid.ndim):
            dx[ax] = int(round(grid.minimal_image(dx[ax] * grid.spacing[ax], ax) / grid.spacing[ax]))
        tot += float(np.sum((dx * np.array(grid.spacing)) ** 2))
    return float(np.sqrt(tot))


def united_dp_rate(spec: ModelSpec, x_config, y_config) -> float:
    """Total rate from the united local form: (kappa/4 + 1/kappa)/(8 pi G)
    times the gradient-squared quadratic form of the smeared potential
    difference.  Equals the split intrinsic+backaction sum exactly with the
    spectral Poisson solver (Parseval)."""
    if spec.resolved_kernel_kind != "dp":
        raise ValueError("the united form applies to the Coulomb-correlated kernel")
    if not spec.resolved_feedback_smearing:
        raise ValueError("the united form needs the smeared potential")
    grid = spec.grid
    _, phi_x = _config_fields(spec, x_config)
    _, phi_y = _config_fields(spec, y_config)
    F = grid.fft(phi_x - phi_y)
    grad_sq = float(np.sum(grid.k_squared * np.abs(F) ** 2).real
                    * grid.cell_volume / grid.n_sites)
    return kappa_decoherence_coefficient(spec.kappa) / (8.0 * np.pi * spec.G) * grad_sq


def decoherence_profile(spec: ModelSpec, separations, axis: int = 0) -> DecoherenceProfile:
    """Single-particle rate profile: configurations at 0 and d along one axis."""
    if spec.particles.count != 1:
        raise ValueError("profiles are defined for a single particle")
    grid = spec.grid
    intr, back = [], []
    for d in separations:
        multi = [0] * grid.ndim
        multi[axis] = int(d)
        entry = closed_form_rate(spec, [0], [grid.site_index(multi)])
        intr.append(entry.intrinsic)
        back.append(entry.backaction)
    seps = np.asarray(separations, float) * grid.spacing[axis]
    return DecoherenceProfile(separations=seps, intrinsic=np.array(intr),
                              backaction=np.array(back))


def fit_offdiagonal_decay(times: np.ndarray, offdiagonal: np.ndarray,
                          floor: float = 1e-13) -> float:
    """Exponential decay rate of |rho_xy(t)| by least squares on the log."""
    times = np.asarray(times, float)
    mag = np.abs(np.asarray(offdiagonal))
    keep = mag > floor
    if keep.sum() < 2:
        raise ValueError("off-diagonal signal below the noise floor")
    slope = np.polyfit(times[keep], np.log(mag[keep]), 1)[0]
    return -float(slope)


def me_offdiagonal_series(model: Model, rho0: np.ndarray, x: int, y: int,
                          dt: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """|rho_xy(t)| under the noise-averaged master equation."""
    rho = np.asarray(rho0, complex).copy()
    times = dt * np.arange(steps + 1)
    series = np.empty(steps + 1)
    series[0] = abs(rho[x, y])
    for i in range(1, steps + 1):
        rho = me_step(rho, model.hamiltonian, model.monitoring, model.feedback, dt,
                      backaction=model.backaction, step=i)
        series[i] = abs(rho[x, y])
    return times, series


def kappa_scan(spec: ModelSpec, kappas, separation: int, axis: int = 0):
    """Total single-particle rate at one separation versus kappa.

    Returns (list of (kappa, rate), argmin kappa).  The kappa dependence
    factorizes exactly as kappa/4 + 1/kappa times a geometry factor.
    """
    rows = []
    for kappa in kappas:
        s = replace(spec, kappa=float(kappa))
        prof = decoherence_profile(s, [separation], axis=axis)
        rows.append((float(kappa), float(prof.total[0])))
    best = min(rows, key=lambda r: r[1])[0]
    return rows, best


def trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """(1/2) tr |rho_a - rho_b|."""
    w = np.linalg.eigvalsh(rho_a - rho_b)
    return 0.5 * float(np.abs(w).sum())


@dataclass(frozen=True)
class LinearityReport:
    """Trace distance between the evolved averages of two pure-state
    ensembles prepared with identical density matrices."""

    distance: float
    tolerance: float
    n_samples: int
    time: float

    @property
    def linear(self) -> bool:
        return self.distance < self.tolerance


def _ensemble_average_monitored(model: Model, members, t: float, dt: float,
                                n_samples: int, seed0: int) -> np.ndarray:
    steps = int(round(t / dt))
    dim = len(members[0][1])
    avg = np.zeros((dim, dim), complex)
    seed = seed0
    for weight, psi in members:
        rho0 = np.outer(psi, np.conj(psi))
        avg += weight * ensemble_mean(model, rho0, dt, steps,
                                      seeds=range(seed, seed + n_samples))
        seed += n_samples
    return avg


def _ensemble_average_meanfield(model: Model, members, t: float, dt: float) -> np.ndarray:
    steps = int(round(t / dt))
    dim = len(members[0][1])
    avg = np.zeros((dim, dim), complex)
    for weight, psi in members:
        rec = run_ensemble(psi, model, dt, steps, [0], record_every=steps,
                           snapshot_every=steps)[0]
        state = rec.snapshots[-1][1]
        avg += weight * np.outer(state, state.conj())
    return avg


def linearity_witness(model: Model, ensemble_a, ensemble_b, t: float, dt: float,
                      n_samples: int = 200, seed0: int = 0) -> LinearityReport:
    """Evolve two ensembles with equal initial density matrix and compare
    their evolved averages.

    Monitored models average seeded conditional trajectories (Monte Carlo
    tolerance 5/sqrt(total samples)); the mean-field baseline is
    deterministic per member, witnessing its ensemble nonlinearity.
    """
    rho_a = sum(w * np.outer(p, np.conj(p)) for w, p in ensemble_a)
    rho_b = sum(w * np.outer(p, np.conj(p)) for w, p in ensemble_b)
    if trace_distance(rho_a, rho_b) > 1e-10:
        raise ValueError("ensembles must prepare identical density matrices")
    if model.kind == "sn":
        a = _ensemble_average_meanfield(model, ensemble_a, t, dt)
        b = _ensemble_average_meanfield(model, ensemble_b, t, dt)
        tol = 1e-9
        total = len(ensemble_a) + len(ensemble_b)
    else:
        a = _ensemble_average_monitored(model, ensemble_a, t, dt, n_samples, seed0)
        b = _ensemble_average_monitored(model, ensemble_b, t, dt, n_samples,
                                        seed0 + 10_000_000)
        total = n_samples * len(ensemble_a)
        tol = 5.0 / np.sqrt(total)
    return LinearityReport(distance=trace_distance(a, b), tolerance=tol,
                           n_samples=total, time=t)


@dataclass(frozen=True)
class PairPotentialRow:
    separation: float
    potential: float  # inter-particle part, raw torus value
    corrected: float  # after removing the periodic-image contribution
    newton_ratio: float  # corrected * d / (-G m1 m2); 1 for the bare Newton law


def pair_potential_curve(spec: ModelSpec, separations, axis: int = 0,
                         corrected: bool = True) -> list[PairPotentialRow]:
    """Emergent two-particle potential versus separation along one axis.

    Self-energy constants are removed by subtracting the single-particle
    potentials; on a cubic 3d grid the periodic-image contribution can be
    removed with the Ewald Green function, exposing the bare Newton law.
    """
    from .kernels import periodic_image_correction
    from .models import ModelSpec as _MS, build_backaction_hamiltonian
    from .lattice import ParticleSet

    grid, particles = spec.grid, spec.particles
    if particles.count != 2:
        raise ValueError("pair potential curves need exactly two particles")
    m1, m2 = particles.masses
    self_energy = 0.0
    for m in (m1, m2):
        one = _MS(kind=spec.kind, grid=grid, particles=ParticleSet([m]),
                  sigma=spec.sigma, gamma=spec.gamma, kappa=spec.kappa, G=spec.G,
                  feedback_smearing=spec.feedback_smearing, kernel_kind=spec.kernel_kind)
        self_energy += build_backaction_hamiltonian(one, configs=[[0]]).values[0]
    box = grid.dims[axis] * grid.spacing[axis]
    cubic3d = grid.ndim == 3 and len(set(grid.dims)) == 1 and len(set(grid.spacing)) == 1
    rows = []
    for d in separations:
        multi = [0] * grid.ndim
        multi[axis] = int(d)
        cfg = [[0, grid.site_index(multi)]]
        v = build_backaction_hamiltonian(spec, configs=cfg).values[0] - self_energy
        sep = float(d) * grid.spacing[axis]
        vc = v
        if corrected and cubic3d and sep > 0:
            vc = v + spec.G * m1 * m2 * periodic_image_correction(sep, box)
        ratio = vc * sep / (-spec.G * m1 * m2) if sep > 0 and spec.G > 0 else np.nan
        rows.append(PairPotentialRow(separation=sep, potential=float(v),
                                     corrected=float(vc), newton_ratio=float(ratio)))
    return rows


def backaction_prefactor_report(gamma: float) -> dict:
    """The delta-kernel back-action damping prefactors: the generator used
    here carries 1/(2 gamma) in front of the potential double commutator
    (slope 2 pi G^2 m^2 / gamma per unit distance); the explicit
    single-particle evaluation published for the same model quotes
    G^2 m^2/(8 gamma), a factor 4 smaller.  Reported, not asserted."""
    return {
        "generator_prefactor": 1.0 / (2.0 * gamma),
        "published_explicit_prefactor": 1.0 / (8.0 * gamma),
        "ratio": 4.0,
        "linear_slope_per_G2m2": 2.0 * np.pi / gamma,
    }
