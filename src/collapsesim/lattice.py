"""Periodic lattice, particle content and position-diagonal operator algebra.

The configuration space of N distinguishable particles on a periodic grid
with M sites is the set of M^N joint position tuples.  Every operator that
is diagonal in the position basis (mass densities, Newton potentials,
feedback potentials) is stored as a real array over that configuration
space, never as a dense matrix.  Density matrices are dense complex arrays
over the same basis.  The many-body Hamiltonian is the kinetic sum of
one-particle matrices alone, with no diagonal potential.  It is applied to
state vectors particle by particle (ManyBodyHamiltonian), with the bytes of
the dense product; its dense matrix is built only when density matrices, or
state vectors of one kinetic particle, whose every row is dense, need it.

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

# The one contraction of the package.  With optimize off, np.einsum only
# returns c_einsum(*operands), so calling it directly gives the same bytes
# without about 0.8 us of Python dispatch per call.
try:
    from numpy._core.multiarray import c_einsum as einsum
except ImportError:  # numpy 1.x has no numpy._core
    einsum = np.einsum

FFT_CHUNK_BYTES = 1 << 18  # complex FFT buffer per chunk of configurations or kernel columns


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
        if not np.all((0 < sp) & (sp < np.inf)):  # nan fails too
            raise ValueError("spacing must be positive and finite")
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

    def axis_site(self, d: int, axis: int = 0) -> int:
        """Flat index of the site d steps from the origin along one axis."""
        multi = [0] * self.ndim
        multi[axis] = int(d)
        return self.site_index(multi)

    def fft(self, f: np.ndarray) -> np.ndarray:
        """Unnormalized FFT over the trailing grid axes (leading axes = batch)."""
        axes = tuple(range(f.ndim - self.ndim, f.ndim))
        return np.fft.fftn(f, axes=axes)

    def ifft(self, F: np.ndarray) -> np.ndarray:
        axes = tuple(range(F.ndim - self.ndim, F.ndim))
        return np.fft.ifftn(F, axes=axes)

    def fft_chunks(self, count: int) -> list[slice]:
        """Slices of count fields over the grid, each at least one field and
        otherwise at most FFT_CHUNK_BYTES of complex spectra.  FFTs treat the
        fields of a batch one by one, so the chunks change no bits."""
        step = max(1, FFT_CHUNK_BYTES // (16 * self.n_sites))
        return [slice(s, min(s + step, count)) for s in range(0, count, step)]

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

    def __init__(self, masses, kinetic=None):
        masses = tuple(float(m) for m in np.atleast_1d(masses))
        if not all(0 < m < np.inf for m in masses):  # nan fails too
            raise ValueError("all masses must be positive and finite")
        n = len(masses)
        if kinetic is None:
            kinetic = (True,) * n
        else:
            kinetic = tuple(bool(k) for k in np.atleast_1d(kinetic))
        if len(kinetic) != n:
            raise ValueError("kinetic flags must match particle count")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "kinetic", kinetic)

    @property
    def count(self) -> int:
        return len(self.masses)


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

    values[x] is the operator's eigenvalue on configuration x.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, float)
        if not np.all(np.isfinite(v)):
            raise ValueError("diagonal field must be finite everywhere")
        object.__setattr__(self, "values", v)

    def spread(self) -> float:
        return float(self.values.max() - self.values.min())


def displacement_index(grid: LatticeGrid, a, b) -> np.ndarray:
    """Flat site index of the displacement (a - b) mod dims between the
    sites with flat indices a and b (integer arrays, broadcast together)."""
    a, b = np.asarray(a, int), np.asarray(b, int)
    # unravel flat copies: numpy 2.4's unravel_index returns wrong sites for
    # an (n, 1) array with n > 8192, one iterator buffer
    am = [i.reshape(a.shape) for i in np.unravel_index(a.ravel(), grid.dims)]
    bm = [i.reshape(b.shape) for i in np.unravel_index(b.ravel(), grid.dims)]
    return np.ravel_multi_index(tuple(p - q for p, q in zip(am, bm)), grid.dims, mode="wrap")


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


class ManyBodyHamiltonian:
    """The many-body Hamiltonian kinetic_hamiltonian(grid, particles), the
    kinetic sum alone with no diagonal potential, applied to state vectors:
    by einsum over the dense H where every row of it is dense (one particle,
    kinetic: rows_dense), else particle by particle without it.

    dense is a zero-argument callable that returns the same H as a dense
    matrix; it is called on first use.
    """

    def __init__(self, grid: LatticeGrid, particles: ParticleSet, dense):
        self.grid, self.particles = grid, particles
        self.kinetic = [p for p, k in enumerate(particles.kinetic) if k]
        self.rows_dense = particles.count == 1 and self.kinetic == [0]
        self._dense = dense
        self._cast = {}  # dtype -> _terms

    @cached_property
    def dense(self) -> np.ndarray:
        return self._dense()

    def _terms(self, dtype):
        """(p, 0.0 + h_p) per kinetic particle, cast to dtype, and the diagonal
        of H, summed in kinetic_hamiltonian's order, in the _front layout;
        built on the first per-particle apply of each dtype."""
        if dtype not in self._cast:
            masses = self.particles.masses
            matrices = [(p, 0.0 + _single_particle_kinetic(self.grid, masses[p]))
                        for p in self.kinetic]
            diag = np.zeros(self.grid.n_sites ** self.particles.count)
            for p, h in matrices:
                self._view(diag, p)[...] += np.diagonal(h)[:, None]
            diag = self._front(diag).reshape(diag.shape)
            self._cast[dtype] = [(p, h.astype(dtype)) for p, h in matrices], diag
        return self._cast[dtype]

    def _view(self, a: np.ndarray, p: int) -> np.ndarray:
        """(..., M^p, M, M^(N-p-1)) view of a's configuration axis."""
        M, N = self.grid.n_sites, self.particles.count
        return a.reshape(a.shape[:-1] + (M**p, M, M ** (N - p - 1)))

    def _front(self, a: np.ndarray) -> np.ndarray:
        """(..., M, M^q, M^(N-q-1)) view of a's configuration axis, q the last
        kinetic particle, whose axis is swapped with the block of particles
        0 to q - 1 before it."""
        M, N, q = self.grid.n_sites, self.particles.count, self.kinetic[-1]
        return a.reshape(a.shape[:-1] + (M ** q, M, M ** (N - q - 1))).swapaxes(-3, -2)

    def _sweep(self, out: np.ndarray, psi: np.ndarray, p: int, h: np.ndarray, lower: bool):
        """out += the strict lower (or upper) triangle of h on particle p's
        axis times psi, one triangle column per multiply-add, in ascending
        column order."""
        o, s = self._view(out, p), self._view(psi, p)
        for j in range(self.grid.n_sites - 1) if lower else range(1, self.grid.n_sites):
            rows = slice(j + 1, None) if lower else slice(None, j)
            part = o[..., rows, :]  # += on a name skips the write-back of o[...] += x
            part += h[rows, j, None] * s[..., j:j + 1, :]

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """H psi for state vectors (..., M^N), bit for bit equal to
        np.einsum("xy,...y->...x", dense, psi) on finite input.

        einsum adds row x's products in ascending column order.  The columns
        where row x is nonzero differ from x in one particle's site j, so in
        ascending order they are particle 0's j < x_0, then particle 1's
        j < x_1, ..., the diagonal, then the last particle's j > x_(N-1),
        ..., particle 0's j > x_0.  Below, each term is one multiply-add of
        a triangle column into a view of the accumulator, in that order.
        The accumulator starts at +0 and so never holds -0, which makes the
        zero products einsum adds in between change no finite sum; with no
        kinetic particle H = 0 and the +0 accumulator is the result.

        The last kinetic particle q's terms (lower triangle, diagonal, upper
        triangle) come one after another in every row's order, so they run
        on the accumulator and psi with q's axis moved to the front (copies
        for q > 0, views for q = 0): each multiply-add then broadcasts over
        a trailing axis of M^(N-1) sites, not over M^(N-q-1), which is 1
        for the last particle.
        """
        if self.rows_dense:
            return einsum("xy,...y->...x", self.dense, psi)
        out = np.zeros(psi.shape, np.result_type(psi, float))
        if not self.kinetic:
            return out
        matrices, diagonal = self._terms(out.dtype)
        for p, h in matrices[:-1]:
            self._sweep(out, psi, p, h, lower=True)
        h, front = matrices[-1][1], self._front(out)
        o, s = front.reshape(psi.shape), self._front(psi).reshape(psi.shape)
        self._sweep(o, s, 0, h, lower=True)
        o += diagonal * s
        self._sweep(o, s, 0, h, lower=False)
        if self.kinetic[-1]:
            front[...] = o.reshape(front.shape)  # o is a copy: write it back
        for p, h in reversed(matrices[:-1]):
            self._sweep(out, psi, p, h, lower=False)
        return out

