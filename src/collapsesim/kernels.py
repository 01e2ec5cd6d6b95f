"""Smearing, Coulomb solver, monitoring correlation kernels and noise fields.

All kernels are translation invariant and act by spectral multiplication,
so convolution inverses are exact on the retained modes.  Spectral
conventions (multipliers are the continuum Fourier transforms of the
kernels):

    gaussian smearing of width sigma   exp(-sigma^2 k^2 / 2)
    Coulomb potential (grav. const G)  -4 pi G / k^2, zero mode -> 0
    delta-correlated monitoring        gamma                  (constant)
    Coulomb-correlated monitoring      4 pi kappa G / k^2     (zero mode dropped)

The zero-mode policy -- k = 0 excluded from the potential and from the
Coulomb-correlated noise -- means the potential is defined up to a
constant and the total-mass component of the signal is deterministic.

Strengths and G are never defaulted here: models.ModelSpec sets them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import LatticeGrid


def smear_multiplier(grid: LatticeGrid, sigma: float) -> np.ndarray:
    if sigma < 0:
        raise ValueError("smearing width must be >= 0")
    return np.exp(-0.5 * sigma**2 * grid.k_squared)


def smear(field: np.ndarray, grid: LatticeGrid, sigma: float) -> np.ndarray:
    """Convolve with a normalized Gaussian of width sigma (mass preserving)."""
    if sigma == 0:
        return np.asarray(field, float).copy()
    return grid.apply_multiplier(np.asarray(field, float), smear_multiplier(grid, sigma))


def smeared_point_profile(grid: LatticeGrid, sigma: float) -> np.ndarray:
    """Unit point mass at the origin site, smeared: the lattice g_sigma."""
    prof = np.zeros(grid.dims)
    prof[(0,) * grid.ndim] = 1.0 / grid.cell_volume
    return smear(prof, grid, sigma)


def coulomb_multiplier(grid: LatticeGrid, G: float) -> np.ndarray:
    k2 = grid.k_squared
    mult = np.zeros_like(k2)
    nz = k2 > 0
    mult[nz] = -4.0 * np.pi * G / k2[nz]
    return mult


def coulomb_potential(density: np.ndarray, grid: LatticeGrid, G: float) -> np.ndarray:
    """Solve laplacian(Phi) = 4 pi G rho spectrally; mean of Phi set to zero."""
    return grid.apply_multiplier(np.asarray(density, float), coulomb_multiplier(grid, G))


@dataclass(frozen=True)
class CorrelationKernel:
    """Monitoring correlation kernel gamma_rs and its inverse, spectrally.

    kind 'csl': gamma_rs = gamma * delta(r-s), constant multiplier.
    kind 'dp':  gamma_rs = kappa G / |r-s|, multiplier 4 pi kappa G / k^2;
                the inverse is quasi-local, k^2/(4 pi kappa G), and the k=0
                mode is excluded on the torus (gamma is singular there).
    """

    kind: str
    grid: LatticeGrid
    gamma: float | None = None  # csl strength; None: not given
    kappa: float | None = None  # dp dimensionless strength
    G: float | None = None  # gravitational constant, dp only

    def __post_init__(self):
        if self.kind not in ("csl", "dp"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        read = (self.gamma,) if self.kind == "csl" else (self.kappa, self.G)
        if not all(s is not None and 0 < s < np.inf for s in read):  # nan fails too
            raise ValueError("csl strength gamma needs a finite gamma > 0" if self.kind == "csl"
                             else "dp strength kappa G needs finite kappa > 0 and G > 0")

    @cached_property
    def multiplier(self) -> np.ndarray:
        """Spectral multiplier of gamma (zero on excluded modes)."""
        k2 = self.grid.k_squared
        if self.kind == "csl":
            return np.full_like(k2, self.gamma)
        mult = np.zeros_like(k2)
        nz = k2 > 0
        mult[nz] = 4.0 * np.pi * self.kappa * self.G / k2[nz]
        return mult

    @cached_property
    def inverse_multiplier(self) -> np.ndarray:
        k2 = self.grid.k_squared
        if self.kind == "csl":
            return np.full_like(k2, 1.0 / self.gamma)
        return k2 / (4.0 * np.pi * self.kappa * self.G)

    @cached_property
    def retained(self) -> np.ndarray:
        """Mask of modes on which gamma o gamma^-1 = identity."""
        return self.multiplier > 0

    @cached_property
    def noise_amplitude(self) -> np.ndarray:
        """Spectral filter sqrt(1/gamma~) of the noise (zero on excluded modes)."""
        amp = np.zeros_like(self.multiplier)
        amp[self.retained] = 1.0 / np.sqrt(self.multiplier[self.retained])
        return amp

    def apply(self, f: np.ndarray) -> np.ndarray:
        """(gamma o f)(r) = integral ds gamma(r-s) f(s)."""
        return self.grid.apply_multiplier(np.asarray(f, float), self.multiplier)

    def apply_inverse(self, f: np.ndarray) -> np.ndarray:
        return self.grid.apply_multiplier(np.asarray(f, float), self.inverse_multiplier)

    def _quad(self, f, mult) -> float:
        grid = self.grid
        F = grid.fft(np.asarray(f, float))
        s = np.sum(mult * F.conj() * F).real
        return float(s * grid.cell_volume / grid.n_sites)

    def quad(self, f: np.ndarray) -> float:
        """Q(f, f) = integral dr ds gamma_rs f(r) f(s), lattice measure."""
        return self._quad(f, self.multiplier)

    def quad_inverse(self, f: np.ndarray) -> float:
        return self._quad(f, self.inverse_multiplier)

    def sample_noise(self, dt: float, rng: np.random.Generator, size=()) -> np.ndarray:
        """Gaussian field(s) with covariance gamma^-1(r-s)/dt, shape size + dims.

        White site noise of variance 1/(cell_volume*dt) is filtered by the
        multiplier sqrt(1/gamma~); modes with gamma~ = 0 carry no noise.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        grid = self.grid
        shape = tuple(size) + grid.dims
        white = rng.standard_normal(shape) / np.sqrt(grid.cell_volume * dt)
        amp = self.noise_amplitude
        if self.kind == "csl":
            return white * amp.flat[0]  # delta kernel: no filtering needed
        return grid.apply_multiplier(white, amp)


@dataclass(frozen=True)
class MatrixKernel:
    """Explicit finite correlation matrix gamma_{nu mu} for a small set of
    monitored observables (the discrete-index form of the same formalism).

    Sums over the index play the role of integrals (unit measure).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, float))
        if m.shape[0] != m.shape[1] or np.abs(m - m.T).max() > 1e-12:
            raise ValueError("correlation matrix must be symmetric")
        w = np.linalg.eigvalsh(m)
        if w.min() < -1e-12 * max(1.0, w.max()):
            raise ValueError("correlation matrix must be positive semidefinite")
        object.__setattr__(self, "matrix", m)

    @cached_property
    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)

    @cached_property
    def _noise_chol(self) -> np.ndarray:
        return np.linalg.cholesky(self.inverse)

    def apply(self, f: np.ndarray) -> np.ndarray:
        return np.asarray(f, float) @ self.matrix.T

    def apply_inverse(self, f: np.ndarray) -> np.ndarray:
        return np.asarray(f, float) @ self.inverse.T

    def sample_noise(self, dt: float, rng: np.random.Generator, size=()) -> np.ndarray:
        if dt <= 0:
            raise ValueError("dt must be positive")
        n = self.matrix.shape[0]
        white = rng.standard_normal(tuple(size) + (n,))
        return (white @ self._noise_chol.T) / np.sqrt(dt)


def ewald_periodic_coulomb(r_vec, box: float) -> float:
    """Periodic continuum Coulomb Green function on a cubic box (with
    neutralizing background): sum over images of 1/|r+nL| split the Ewald
    way between real and reciprocal space, with the fixed splitting
    alpha = 5/L over 3 real-space and 8 reciprocal shells per axis.

    Approaches 1/|r| plus an O(1/L) image correction for |r| << L; the k=0
    background term matches the spectral solver's zero-mode policy.
    """
    from scipy.special import erfc

    r_vec = np.asarray(r_vec, float)
    L = float(box)
    alpha = 5.0 / L
    vol = L**3
    shifts = np.arange(-3, 4)
    sx, sy, sz = np.meshgrid(shifts, shifts, shifts, indexing="ij")
    images = r_vec + L * np.stack([sx, sy, sz], axis=-1).reshape(-1, 3)
    dist = np.linalg.norm(images, axis=1)
    dist = dist[dist > 0]
    total = float(np.sum(erfc(alpha * dist) / dist))
    ns = np.arange(-8, 9)
    nx, ny, nz = np.meshgrid(ns, ns, ns, indexing="ij")
    mask = (nx**2 + ny**2 + nz**2) > 0
    kvecs = (2.0 * np.pi / L) * np.stack([nx[mask], ny[mask], nz[mask]], axis=-1)
    k2 = np.sum(kvecs**2, axis=1)
    total += float((4.0 * np.pi / vol)
                   * np.sum(np.exp(-k2 / (4.0 * alpha**2)) / k2 * np.cos(kvecs @ r_vec)))
    total -= np.pi / (vol * alpha**2)
    return total


def periodic_image_correction(d: float, box: float) -> float:
    """G_per(d) - 1/d along an axis: what the torus adds to the bare
    Coulomb interaction at separation d."""
    return ewald_periodic_coulomb([d, 0.0, 0.0], box) - 1.0 / d


def axis_coulomb_3d(n: int, spacing: float, G: float) -> np.ndarray:
    """3d Coulomb Green function restricted to one axis of an n^3 periodic box.

    Solves spectrally on the auxiliary n x n x n lattice and returns the
    potential at displacements (j*spacing, 0, 0).  This is how a 1d chain
    embedded in 3d space sees the Newton potential, periodic images included.
    """
    aux = LatticeGrid((n, n, n), spacing)
    prof = aux.ifft(coulomb_multiplier(aux, G)).real / aux.cell_volume  # of a lattice delta
    return np.ascontiguousarray(prof[:, 0, 0])
