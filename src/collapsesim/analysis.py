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

from .engine import ensemble_mean, run_ensemble
from .kernels import periodic_image_correction
from .lattice import ParticleSet
from .models import (Model, ModelSpec, build_backaction_hamiltonian, config_families,
                     kappa_decoherence_coefficient)


@dataclass(frozen=True)
class RateEntry:
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


def closed_form_rate(spec: ModelSpec, x_config, y_config) -> RateEntry:
    """Decay rate of rho_xy under the noise-averaged generator, from the
    kernel quadratic forms of the field differences between the two
    configurations."""
    ((ddens, dphi),) = _field_differences(spec, x_config, [y_config])
    return _rate(spec, ddens, dphi)


def _field_differences(spec: ModelSpec, x_config, y_configs):
    """(Delta rho_sigma, Delta Phi) on the grid between configuration x and
    each of y_configs, from one config_families call."""
    dens, phi = config_families(spec, [x_config, *y_configs])
    dims = spec.grid.dims
    return [((dens[:, 0] - dens[:, i]).reshape(dims), (phi[:, 0] - phi[:, i]).reshape(dims))
            for i in range(1, dens.shape[1])]


def _rate(spec: ModelSpec, ddens: np.ndarray, dphi: np.ndarray) -> RateEntry:
    """The rate from the field differences; only this reads the kernel
    strengths, the fields do not."""
    return RateEntry(intrinsic=0.125 * spec.kernel.quad(ddens),
                     backaction=0.5 * spec.kernel.quad_inverse(dphi))


def united_dp_rate(spec: ModelSpec, x_config, y_config) -> float:
    """Total rate from the united local form: (kappa/4 + 1/kappa)/(8 pi G)
    times the gradient-squared quadratic form of the smeared potential
    difference.  Equals the split intrinsic+backaction sum exactly with the
    spectral Poisson solver (Parseval)."""
    if spec.kind != "dp":
        raise ValueError("the united form applies to the Coulomb-correlated kernel")
    if not spec.feedback_smearing:
        raise ValueError("the united form needs the smeared potential")
    grid = spec.grid
    _, phi = config_families(spec, [x_config, y_config])
    F = grid.fft((phi[:, 0] - phi[:, 1]).reshape(grid.dims))
    grad_sq = float(np.sum(grid.k_squared * np.abs(F) ** 2).real
                    * grid.cell_volume / grid.n_sites)
    return kappa_decoherence_coefficient(spec.kappa) / (8.0 * np.pi * spec.G) * grad_sq


def decoherence_profile(spec: ModelSpec, separations, axis: int = 0) -> DecoherenceProfile:
    """Single-particle rate profile: configurations at 0 and d along one axis."""
    entries = [_rate(spec, *diffs) for diffs in _profile_differences(spec, separations, axis)]
    seps = np.asarray(separations, float) * spec.grid.spacing[axis]
    return DecoherenceProfile(separations=seps,
                              intrinsic=np.array([e.intrinsic for e in entries]),
                              backaction=np.array([e.backaction for e in entries]))


def _profile_differences(spec: ModelSpec, separations, axis: int):
    """The field differences between the single-particle configurations at
    site 0 and d sites along the axis, for each separation d."""
    if spec.particles.count != 1:
        raise ValueError("profiles are defined for a single particle")
    return _field_differences(spec, [0], [[spec.grid.axis_site(d, axis)] for d in separations])


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


def kappa_scan(spec: ModelSpec, kappas, separation: int, axis: int = 0):
    """Total single-particle rate at one separation versus kappa.

    Returns (list of (kappa, rate), argmin kappa).  The kappa dependence
    factorizes exactly as kappa/4 + 1/kappa times a geometry factor.  The
    fields do not depend on kappa, so they are built once per scan.
    """
    (diffs,) = _profile_differences(spec, [separation], axis)
    rows = [(float(kappa), float(_rate(replace(spec, kappa=float(kappa)), *diffs).total))
            for kappa in kappas]
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
    time: float

    @property
    def linear(self) -> bool:
        return self.distance < self.tolerance


def _ensemble_average(model: Model, members, t: float, dt: float,
                      n_samples: int, seed0: int) -> np.ndarray:
    """sum_k w_k rho_k(t) over the members (w_k, psi_k): a monitored model averages
    n_samples seeds from seed0 + k * n_samples, the mean-field baseline runs once."""
    steps = int(round(t / dt))
    dim = len(members[0][1])
    avg = np.zeros((dim, dim), complex)
    for k, (weight, psi) in enumerate(members):
        if model.spec.kind == "sn":
            state = run_ensemble(psi, model, dt, steps, [0], record_every=steps,
                                 snapshot_every=steps)[0].snapshots[-1][1]
            avg += weight * np.outer(state, state.conj())
        else:
            seeds = range(seed0 + k * n_samples, seed0 + (k + 1) * n_samples)
            avg += weight * ensemble_mean(model, np.outer(psi, np.conj(psi)), dt, steps, seeds)
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
    a = _ensemble_average(model, ensemble_a, t, dt, n_samples, seed0)
    b = _ensemble_average(model, ensemble_b, t, dt, n_samples, seed0 + 10_000_000)
    if model.spec.kind == "sn":
        tol = 1e-9
    else:
        total = n_samples * len(ensemble_a)
        tol = 5.0 / np.sqrt(total)
    return LinearityReport(distance=trace_distance(a, b), tolerance=tol, time=t)


@dataclass(frozen=True)
class PairPotentialRow:
    separation: float
    potential: float  # inter-particle part, raw torus value
    corrected: float  # after removing the periodic-image contribution
    newton_ratio: float  # corrected * d / (-G m1 m2); 1 for the bare Newton law


def pair_potential_curve(spec: ModelSpec, separations, axis: int = 0) -> list[PairPotentialRow]:
    """Emergent two-particle potential versus separation along one axis.

    Self-energy constants are removed by subtracting the single-particle
    potentials; on a cubic 3d grid at d > 0 the periodic-image contribution
    is removed with the Ewald Green function, exposing the bare Newton law.
    """
    grid, particles = spec.grid, spec.particles
    if particles.count != 2:
        raise ValueError("pair potential curves need exactly two particles")
    m1, m2 = particles.masses
    self_energy = 0.0
    for m in (m1, m2):
        one = replace(spec, kind="sn", particles=ParticleSet([m]))  # 'pair' needs 2 particles
        self_energy += build_backaction_hamiltonian(one, configs=[[0]]).values[0]
    box = grid.dims[axis] * grid.spacing[axis]
    cubic3d = grid.ndim == 3 and len(set(grid.dims)) == 1 and len(set(grid.spacing)) == 1
    configs = [[0, grid.axis_site(d, axis)] for d in separations]
    pair = build_backaction_hamiltonian(spec, configs=configs).values
    rows = []
    for d, v in zip(separations, pair - self_energy):
        sep = float(d) * grid.spacing[axis]
        vc = v
        if cubic3d and sep > 0:
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
