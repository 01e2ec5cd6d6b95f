"""Periodic lattice, particle content and position-diagonal operator algebra.

The configuration space of N distinguishable particles on a periodic grid
with M sites is the set of M^N joint position tuples.  Every operator that
is diagonal in the position basis (mass densities, Newton potentials,
feedback potentials) is stored as a real array over that configuration
space, never as a dense matrix.  Density matrices are dense complex arrays
over the same basis.

Lattice dictionary used consistently by all modules:

    integral   (d^3 r) f(r)      ->  cell_volume * sum over sites
    delta      (r - s)           ->  kronecker(r, s) / cell_volume
    wavenumber k per axis        ->  2*pi*fftfreq(n, d=spacing)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

HBAR_SI = 1.054571817e-34  # J s


class GuardError(RuntimeError):
    """A numerical guard tripped (step size, norm collapse, ...)."""

    def __init__(self, guard: str, step: int | None = None, detail: str = ""):
        self.guard = guard
        self.step = step
        msg = f"guard '{guard}' tripped"
        if step is not None:
            msg += f" at step {step}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


@dataclass(frozen=True)
class LatticeGrid:
    """Periodic d-dimensional lattice. ``dims`` sites per axis, physical ``spacing``."""

    dims: tuple[int, ...]
    spacing: tuple[float, ...]

    def __init__(self, dims, spacing=1.0):
        dims = tuple(int(n) for n in np.atleast_1d(dims))
        if any(n < 2 for n in dims):
            raise ValueError("each axis needs at least 2 sites")
        sp = np.broadcast_to(np.atleast_1d(np.asarray(spacing, float)), (len(dims),))
        if np.any(sp <= 0):
            raise ValueError("spacing must be positive")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", tuple(float(a) for a in sp))

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @cached_property
    def n_sites(self) -> int:
        return int(np.prod(self.dims))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @cached_property
    def k_axes(self) -> tuple[np.ndarray, ...]:
        """Angular wavenumbers per axis, fftfreq ordering."""
        return tuple(
            2.0 * np.pi * np.fft.fftfreq(n, d=a)
            for n, a in zip(self.dims, self.spacing)
        )

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|k|^2 on the full mode grid (shape ``dims``)."""
        ks = np.meshgrid(*self.k_axes, indexing="ij")
        return sum(k * k for k in ks)

    @cached_property
    def axis_coordinates(self) -> tuple[np.ndarray, ...]:
        return tuple(np.arange(n) * a for n, a in zip(self.dims, self.spacing))

    def site_index(self, multi) -> int:
        """Flatten a per-axis site tuple into a single site index."""
        return int(np.ravel_multi_index(tuple(int(i) for i in np.atleast_1d(multi)), self.dims))

    def site_multi(self, index: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.unravel_index(int(index), self.dims))

    def fft(self, f: np.ndarray) -> np.ndarray:
        """Unnormalized FFT over the trailing grid axes (leading axes = batch)."""
        axes = tuple(range(f.ndim - self.ndim, f.ndim))
        return np.fft.fftn(f, axes=axes)

    def ifft(self, F: np.ndarray) -> np.ndarray:
        axes = tuple(range(F.ndim - self.ndim, F.ndim))
        return np.fft.ifftn(F, axes=axes)

    def apply_multiplier(self, f: np.ndarray, mult: np.ndarray) -> np.ndarray:
        """Circular convolution by a kernel given as a spectral multiplier."""
        out = self.ifft(self.fft(f) * mult)
        return out.real if np.isrealobj(f) and np.isrealobj(mult) else out

    def minimal_image(self, delta: np.ndarray, axis: int) -> np.ndarray:
        """Wrap a coordinate difference into (-L/2, L/2] along one axis."""
        L = self.dims[axis] * self.spacing[axis]
        return delta - L * np.round(np.asarray(delta) / L)


@dataclass(frozen=True)
class ParticleSet:
    """Masses and single-particle options for N distinguishable particles."""

    masses: tuple[float, ...]
    kinetic: tuple[bool, ...] = None  # free Laplacian on/off per particle
    external: tuple = None  # optional per-site potential per particle

    def __init__(self, masses, kinetic=None, external=None):
        masses = tuple(float(m) for m in np.atleast_1d(masses))
        if any(m <= 0 for m in masses):
            raise ValueError("all masses must be positive")
        n = len(masses)
        if kinetic is None:
            kinetic = (True,) * n
        else:
            kinetic = tuple(bool(k) for k in np.atleast_1d(kinetic))
        if len(kinetic) != n:
            raise ValueError("kinetic flags must match particle count")
        if external is not None:
            external = tuple(None if v is None else np.asarray(v, float) for v in external)
            if len(external) != n:
                raise ValueError("external potentials must match particle count")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "kinetic", kinetic)
        object.__setattr__(self, "external", external)

    @property
    def count(self) -> int:
        return len(self.masses)

    @property
    def total_mass(self) -> float:
        return float(sum(self.masses))


def n_configs(grid: LatticeGrid, particles: ParticleSet) -> int:
    return grid.n_sites ** particles.count


def config_sites(grid: LatticeGrid, particles: ParticleSet) -> np.ndarray:
    """Site index of each particle for every joint configuration.

    Returns an integer array of shape (n_configs, N); configuration index is
    the C-order flattening of the per-particle site indices.
    """
    M, N = grid.n_sites, particles.count
    idx = np.indices((M,) * N).reshape(N, -1).T
    return np.ascontiguousarray(idx)


@dataclass(frozen=True)
class DiagonalField:
    """Real function on joint configuration space (a position-diagonal operator).

    values[x] is the operator's eigenvalue on configuration x.  Products of
    diagonal operators are pointwise products of their value arrays.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, float)
        if not np.all(np.isfinite(v)):
            raise ValueError("diagonal field must be finite everywhere")
        object.__setattr__(self, "values", v)

    def __add__(self, other):
        return DiagonalField(self.values + _field_values(other))

    def __sub__(self, other):
        return DiagonalField(self.values - _field_values(other))

    def __mul__(self, other):
        return DiagonalField(self.values * _field_values(other))

    __rmul__ = __mul__

    def spread(self) -> float:
        return float(self.values.max() - self.values.min())


def _field_values(f) -> np.ndarray:
    return f.values if isinstance(f, DiagonalField) else np.asarray(f)


def displacement_index(grid: LatticeGrid, a, b) -> np.ndarray:
    """Flat site index of the displacement (a - b) mod dims between the
    sites with flat indices a and b (integer arrays, broadcast together)."""
    am = np.unravel_index(np.asarray(a, int), grid.dims)
    bm = np.unravel_index(np.asarray(b, int), grid.dims)
    return np.ravel_multi_index(tuple(p - q for p, q in zip(am, bm)), grid.dims, mode="wrap")


def mass_density_field(grid: LatticeGrid, particles: ParticleSet, site) -> DiagonalField:
    """Point mass density at one lattice site, as a configuration diagonal.

    Value on configuration (x_1..x_N) is sum_n m_n delta(site, x_n)/cell_volume.
    """
    if not np.isscalar(site):
        site = grid.site_index(site)
    if site < 0 or site >= grid.n_sites:
        raise ValueError("site index out of range")
    sites = config_sites(grid, particles)
    vals = np.zeros(sites.shape[0])
    for n, m in enumerate(particles.masses):
        vals += m * (sites[:, n] == site)
    return DiagonalField(vals / grid.cell_volume)


def _single_particle_kinetic(grid: LatticeGrid, mass: float) -> np.ndarray:
    """Dense one-particle kinetic matrix k^2/(2m) in the site basis (spectral)."""
    M = grid.n_sites
    mult = grid.k_squared / (2.0 * mass)
    # columns of F^dagger diag(mult) F: apply the multiplier to each site delta
    eye = np.eye(M).reshape(grid.dims + (M,))
    cols = grid.apply_multiplier(np.moveaxis(eye, -1, 0), mult)
    h = cols.reshape(M, M).T
    return 0.5 * (h + h.T)  # symmetrize away FFT roundoff


def kinetic_hamiltonian(grid: LatticeGrid, particles: ParticleSet) -> np.ndarray:
    """Free many-body Hamiltonian: sum_n k_n^2/(2 m_n), spectral discretization.

    Dense Hermitian matrix over the configuration basis; particles with the
    kinetic flag off contribute nothing.  Each one-particle matrix is added in
    place into the entries where every other particle stays put.
    """
    M, N = grid.n_sites, particles.count
    H = np.zeros((M**N, M**N))
    for n, m in enumerate(particles.masses):
        if particles.kinetic[n]:
            a, b = M**n, M ** (N - n - 1)  # configurations before and after slot n
            s = H.reshape(a, M, b, a, M, b).strides
            # block[i, j] is the (M, M) slab H[(i, :, j), (i, :, j)]
            block = as_strided(H, (a, b, M, M), (s[0] + s[3], s[2] + s[5], s[1], s[4]))
            block += _single_particle_kinetic(grid, m)
    return H


def external_potential_diagonal(grid: LatticeGrid, particles: ParticleSet) -> np.ndarray:
    """Diagonal of sum_n V_ext,n(x_n) over configurations (zeros if none set)."""
    sites = config_sites(grid, particles)
    diag = np.zeros(sites.shape[0])
    if particles.external is None:
        return diag
    for n, v in enumerate(particles.external):
        if v is not None:
            diag += v.reshape(-1)[sites[:, n]]
    return diag


def apply_double_commutator(D, rho: np.ndarray, other=None, weight: float = 1.0) -> np.ndarray:
    """-w [D, [D', rho]] for diagonal D, D' (D' defaults to D), element-wise.

    Element (x, y) is -w (D(x)-D(y)) (D'(x)-D'(y)) rho_xy; this is the
    single-kernel decoherence increment (per unit rate) of the master
    equations integrated by the engine.
    """
    d = _field_values(D).astype(float)
    d2 = d if other is None else _field_values(other).astype(float)
    if d.shape[-1] != rho.shape[-1] or d2.shape[-1] != rho.shape[-1]:
        raise ValueError("field and density matrix dimensions do not match")
    dd = d[..., :, None] - d[..., None, :]
    dd2 = dd if other is None else d2[..., :, None] - d2[..., None, :]
    return -weight * dd * dd2 * rho


def check_density_matrix(rho: np.ndarray, tol: float = 1e-9) -> None:
    """Raise if rho is not Hermitian, unit-trace and positive within tol."""
    if np.abs(rho - rho.conj().T).max() > tol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol:
        raise ValueError("density matrix trace is not 1")
    w = np.linalg.eigvalsh(rho)
    if w.min() < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {w.min():g}")


@dataclass(frozen=True)
class LatticeUnits:
    """Conversion between SI and lattice units (hbar = 1).

    Fixing a length unit ell (m) and mass unit mu (kg) fixes the time unit
    tau = mu ell^2 / hbar.  Dimensionless lattice values follow from
    X_lat = X_SI * ell^-a mu^-b tau^-c for X of dimension L^a M^b T^c.
    """

    length_m: float
    mass_kg: float

    @property
    def time_s(self) -> float:
        return self.mass_kg * self.length_m**2 / HBAR_SI

    def gravity_constant(self, G_si: float) -> float:
        # [G] = L^3 M^-1 T^-2
        return G_si * self.mass_kg * self.time_s**2 / self.length_m**3

    def monitoring_strength(self, gamma_over_hbar2_si: float) -> float:
        # the SME carries gamma/hbar^2, of dimension L^3 M^-2 T^-1
        return gamma_over_hbar2_si * self.mass_kg**2 * self.time_s / self.length_m**3

    def length(self, x_m: float) -> float:
        return x_m / self.length_m

    def time(self, t_s: float) -> float:
        return t_s / self.time_s
