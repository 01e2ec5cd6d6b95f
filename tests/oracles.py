"""Independent oracles for the test suite.

Every routine here deliberately avoids the code paths it is used to check:
dense matrix algebra instead of element-wise field updates, scalar
arithmetic instead of vectorized engine steps, Kronecker sums instead of
in-place many-body assembly, chained expressions instead of in-place
step arithmetic, real-space sums and scipy
quadrature instead of spectral multiplication, a damped mode sum
instead of the packaged erfc-split Ewald green function, and the matrix
exponential of the master equation's generator instead of Euler steps,
the witness ensembles written out line by line instead of one call,
and Python's csv module, one formatted cell at a time, instead of one
np.savetxt call over the stacked columns.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh, expm
from scipy.special import erf, erfc

from collapsesim.engine import _commutator, _diag
from collapsesim.kernels import coulomb_potential
from collapsesim.lattice import _single_particle_kinetic, config_sites
from collapsesim.models import mean_density


# -- dense matrix oracles -----------------------------------------------------

def dense_double_commutator(d1: np.ndarray, d2: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """-[D1, [D2, rho]] with literal dense matrices."""
    D1, D2 = np.diag(d1), np.diag(d2)
    inner = D2 @ rho - rho @ D2
    return -(D1 @ inner - inner @ D1)


def dense_hcal(d: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """{D - <D>, rho} with literal dense matrices."""
    mean = np.trace(np.diag(d) @ rho).real
    X = np.diag(d) - mean * np.eye(len(d))
    return X @ rho + rho @ X


def einsum_apply(H: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """H psi over the dense matrix for state vectors with leading batch axes."""
    return np.einsum("xy,...y->...x", H, psi)


def spectral_propagator(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) by exact diagonalization."""
    w, v = eigh(H)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _kron_embed(grid, particles, op: np.ndarray, n: int) -> np.ndarray:
    """Kronecker-embed a one-particle operator at particle slot n."""
    M, N = grid.n_sites, particles.count
    out = np.array([[1.0]])
    for j in range(N):
        out = np.kron(out, op if j == n else np.eye(M))
    return out


def kron_sum_hamiltonian(grid, particles) -> np.ndarray:
    """Free many-body Hamiltonian as sum_n kron(I, .., h_n, .., I), in the
    same particle order and from a zeroed H, so its bytes are comparable."""
    n_cfg = grid.n_sites ** particles.count
    H = np.zeros((n_cfg, n_cfg))
    for n, m in enumerate(particles.masses):
        if particles.kinetic[n]:
            H += _kron_embed(grid, particles, _single_particle_kinetic(grid, m), n)
    return H


def momentum_operator(grid, particles, axis: int = 0) -> np.ndarray:
    """Total momentum along one axis: sum_n k_axis(n), spectral, Hermitian."""
    M = grid.n_sites
    ks = np.meshgrid(*grid.k_axes, indexing="ij")
    mult = ks[axis]
    eye = np.eye(M).reshape(grid.dims + (M,))
    cols = grid.ifft(grid.fft(np.moveaxis(eye, -1, 0)) * mult)
    p1 = cols.reshape(M, M).T
    p1 = 0.5 * (p1 + p1.conj().T)
    n_cfg = grid.n_sites ** particles.count
    P = np.zeros((n_cfg, n_cfg), complex)
    for n in range(particles.count):
        P += _kron_embed(grid, particles, p1, n)
    return P


# -- scalar two-level oracle --------------------------------------------------

def scalar_sme_step_2x2(rho, h, a, gamma, dA, dt):
    """One Euler step of the single-observable conditional master equation
    on a two-level system, written out element by element in plain Python.

    rho: ((r00, r01), (r10, r11)) complex entries; h: 2x2 Hermitian entries;
    a: (a0, a1) observable eigenvalues; dA: the signal noise value.
    """
    r00, r01 = rho[0]
    r10, r11 = rho[1]
    h00, h01 = h[0]
    h10, h11 = h[1]
    a0, a1 = a
    mean = (a0 * r00 + a1 * r11).real

    # -i [H, rho]
    c00 = -1j * (h00 * r00 + h01 * r10 - r00 * h00 - r01 * h10)
    c01 = -1j * (h00 * r01 + h01 * r11 - r00 * h01 - r01 * h11)
    c10 = -1j * (h10 * r00 + h11 * r10 - r10 * h00 - r11 * h10)
    c11 = -1j * (h10 * r01 + h11 * r11 - r10 * h01 - r11 * h11)

    # -(gamma/8) [A, [A, rho]]: only off-diagonals, factor (a0 - a1)^2
    dsq = (a0 - a1) ** 2
    d01 = -(gamma / 8.0) * dsq * r01
    d10 = -(gamma / 8.0) * dsq * r10

    # +(gamma/2) {A - <A>, rho} dA
    s00 = (gamma / 2.0) * (2.0 * (a0 - mean)) * r00 * dA
    s01 = (gamma / 2.0) * (a0 + a1 - 2.0 * mean) * r01 * dA
    s10 = (gamma / 2.0) * (a0 + a1 - 2.0 * mean) * r10 * dA
    s11 = (gamma / 2.0) * (2.0 * (a1 - mean)) * r11 * dA

    return np.array([
        [r00 + dt * (c00 + s00), r01 + dt * (c01 + d01 + s01)],
        [r10 + dt * (c10 + d10 + s10), r11 + dt * (c11 + s11)],
    ])


# -- expression-form density-matrix steps --------------------------------------
# The engine's Euler steps as chained numpy expressions, one fresh temporary
# per operation and without the step guard (which changes no value).  The
# engine computes the same operations in place; these pin its bytes.  Their
# left operands are the engine's, although every product here has a real or
# purely imaginary factor, whose order changes no byte (TestOperandOrder).
# They take [H, rho] from engine._commutator, which TestCommutator pins
# against numpy's H @ rho - rho @ H.

def kernel_column_chunks(self, fam: np.ndarray, inverse: bool):
    """(slice, gamma o f or gamma^-1 o f) per chunk of the columns of an
    (n_obs, n_cols) stack; on a grid the chunks are grid.fft_chunks.  The
    kernel column path with its own grid reshape, kept as the bytes
    reference of _DiagonalFamily._kernel_column_chunks (self is the family)."""
    op = self.kernel.apply_inverse if inverse else self.kernel.apply
    if self.grid is None:
        yield slice(0, fam.shape[1]), op(fam.T).T
        return
    for sl in self.grid.fft_chunks(fam.shape[1]):
        cols = np.moveaxis(fam[:, sl].reshape(self.grid.dims + (-1,)), -1, 0)
        yield sl, np.moveaxis(op(cols), 0, -1).reshape(len(fam), -1)


def expression_conditioning(rho, c):
    cmean = np.einsum("...x,...x->...", c, _diag(rho).real)
    shifted = c[..., :, None] + c[..., None, :] - 2.0 * cmean[..., None, None]
    return 0.5 * shifted * rho


def expression_free_increment(rho, H, spec, field, dt):
    inc = -1j * dt * _commutator(H, rho)
    inc = inc - dt * 0.125 * spec.pair_rate * rho
    return inc + dt * expression_conditioning(rho, field)


def expression_sme_step(rho, H, spec, noise, dt, field=None):
    if field is None:
        field = spec.conditioning_field(noise)
    inc = expression_free_increment(rho, H, spec, field, dt)
    return rho + inc


def expression_combined_step(rho, H, spec, fb, noise, dt, field=None, signal=None):
    if fb is None:
        return expression_sme_step(rho, H, spec, noise, dt, field=field)
    if field is None:
        field = spec.conditioning_field(noise)
    if signal is None:
        signal = spec.means(rho) + noise
    free = expression_free_increment(rho, H, spec, field, dt)
    v = fb.potential(signal)
    vd = v[..., :, None] - v[..., None, :]
    inc = free - 1j * dt * vd * (rho + free) - 0.5 * dt * dt * vd * vd * rho
    return rho + inc


def expression_me_step(rho, H, spec, fb, dt, backaction=None):
    """fb None: the step without any feedback term, whose bytes me_step
    gives on a csl model with G = 0."""
    inc = -1j * dt * _commutator(H, rho)
    rate = 0.125 * spec.pair_rate
    if fb is not None:
        inc = inc - 1j * dt * (backaction[..., :, None] - backaction[..., None, :]) * rho
        rate = rate + 0.5 * fb.pair_rate_inverse
    inc = inc - dt * rate * rho
    return rho + inc


def exact_master(H, monitoring, feedback, backaction, rho0, t):
    """rho(t) of the noise-averaged master equation that me_step integrates,
    exactly: expm of its n^2 x n^2 generator -i(H (x) I - I (x) H^T) - diag(D)
    on rho0 in row-major vec, with D = 0.125 pair_rate + 0.5 pair_rate_inverse
    + i(b(x) - b(y)) (b the back-action diagonal, backaction)."""
    H, rho0, b = np.asarray(H), np.asarray(rho0), backaction
    n = len(rho0)
    if n > 16:
        raise ValueError(f"the dense generator is meant for n <= 16; got n = {n}")
    D = (0.125 * monitoring.pair_rate + 0.5 * feedback.pair_rate_inverse
         + 1j * (b[:, None] - b[None, :]))
    eye = np.eye(n)
    generator = -1j * (np.kron(H, eye) - np.kron(eye, H.T)) - np.diag(D.reshape(-1))
    return (expm(t * generator) @ rho0.reshape(-1)).reshape(n, n)


def expression_pair_step(rho, model, dt):
    """The pair baseline's density-matrix step, as its own chained expression."""
    v = model.pair_potential
    inc = -1j * dt * _commutator(model.hamiltonian, rho)
    inc = inc - 1j * dt * (v[:, None] - v[None, :]) * rho
    return rho + inc


def expression_vector_step(psi, H, v, dt):
    """The unitary state-vector Euler step under H + diag(v), renormalized."""
    out = psi - 1j * dt * (H.apply(psi) + v * psi)
    return out / np.linalg.norm(out, axis=-1, keepdims=True)


def expression_sn_step(psi, model, dt):
    """The mean-field step: the potential sourced by <rho> of psi, then
    expression_vector_step."""
    grid, particles = model.spec.grid, model.spec.particles
    prob = (psi.conj() * psi).real
    phi = coulomb_potential(mean_density(grid, particles, prob), grid, model.spec.G)
    phi_flat = phi.reshape(prob.shape[:-1] + (-1,))
    sites = config_sites(grid, particles)
    v = np.zeros(prob.shape)
    for n, m in enumerate(particles.masses):
        v += m * phi_flat[..., sites[:, n]]
    return expression_vector_step(psi, model.hamiltonian_operator, v, dt)


# -- member-by-member records --------------------------------------------------

def member_record(rec, j, istep, state, last_signal, wmin, model, pure, pairs,
                  snapshot_t=None):
    """Record j of one member of run_ensemble from its own state, last signal
    and smallest eigenvalue, one member at a time: the bytes reference of
    engine._record, which computes the same quantities for the whole batch."""
    xs, ys = np.asarray(pairs, int).reshape(-1, 2).T
    p = (state * state.conj()).real if pure else np.diagonal(state).real
    tr = p.sum()
    rec.trace[j] = tr
    rec.purity[j] = 1.0 if pure else np.einsum("xy,yx->", state, state).real / (tr * tr)
    rec.positions[j] = model.position_coordinates @ p / tr
    if rec.signals is not None:
        rec.signals[j] = last_signal if last_signal is not None else model.monitoring.family @ p
    if rec.offdiagonals is not None:
        coherences = state[xs] * state[ys].conj() if pure else state[xs, ys]
        rec.offdiagonals[j] = [abs(v) for v in coherences]
    if rec.min_eigenvalue is not None:
        rec.min_eigenvalue[j] = wmin
        if wmin < -1e-8:
            rec.positivity_warnings.append((istep, wmin))
    if snapshot_t is not None:
        rec.snapshots.append((snapshot_t, state.copy()))


# -- real-space lattice oracles -----------------------------------------------

def circular_convolution(f: np.ndarray, g: np.ndarray, cell_volume: float) -> np.ndarray:
    """Direct O(M^2) circular convolution (integral dictionary measure)."""
    dims = f.shape
    out = np.zeros(dims)
    for idx in np.ndindex(dims):
        acc = 0.0
        for jdx in np.ndindex(dims):
            kdx = tuple((i - j) % n for i, j, n in zip(idx, jdx, dims))
            acc += f[jdx] * g[kdx]
        out[idx] = acc * cell_volume
    return out


def coulomb_double_sum(f: np.ndarray, g: np.ndarray, spacing: float,
                       strength: float, shells: int = 1) -> float:
    """Direct double sum of strength/|r-s| over the box and its periodic
    images out to the given shell count (r = s excluded).

    Meaningful for zero-mean f and g, where the conditionally convergent
    background of the image sum drops out."""
    import itertools

    dims = f.shape
    coords = np.stack(np.meshgrid(*[np.arange(n) * spacing for n in dims],
                                  indexing="ij"), axis=-1).reshape(-1, len(dims))
    box = np.array([n * spacing for n in dims])
    fv = f.reshape(-1)
    gv = g.reshape(-1)
    dvol = spacing ** len(dims)
    total = 0.0
    for shift in itertools.product(range(-shells, shells + 1), repeat=len(dims)):
        off = box * np.asarray(shift)
        for i in range(len(fv)):
            d = coords - coords[i] + off
            r = np.linalg.norm(d, axis=1)
            r[r == 0] = np.inf
            total += fv[i] * np.sum(gv / r)
    return strength * total * dvol * dvol


# -- continuum quadrature oracles ---------------------------------------------

def delta_inverse_r_squared_integral(d: float, r_max_factor: float = 50.0) -> float:
    """integral d^3r (1/|r| - 1/|r - d zhat|)^2 by radial quadrature.

    The angular integrals are analytic; the radial integrand has an
    integrable log singularity at r = d and a (4 pi / 3) d^2 / r^2 tail
    which is added in closed form.  The exact value is 4 pi d.
    """
    def integrand(r):
        if r == 0.0:
            return 4.0 * np.pi
        cross = 8.0 * np.pi * min(1.0, r / d)
        mid = (2.0 * np.pi * r / d) * np.log((r + d) / abs(r - d)) if r != d else 0.0
        return 4.0 * np.pi + mid - cross

    R = r_max_factor * d
    val, _ = quad(integrand, 0.0, R, points=[d], limit=400)
    val += (4.0 * np.pi / 3.0) * d**2 / R  # analytic tail
    return val


def smeared_coulomb_profile(d: float, width: float) -> float:
    """(1/|.| * gaussian_width)(d): radial quadrature of the shell average.

    Returns the positive convolution; the smeared attractive potential of a
    unit mass is -G times this.  Closed form erf(d/(sqrt(2) width))/d is
    recovered but never used here.
    """
    def g(r):
        return (2.0 * np.pi * width**2) ** -1.5 * np.exp(-(r * r) / (2.0 * width**2))

    if d == 0.0:
        val, _ = quad(lambda r: 4.0 * np.pi * r * g(r), 0.0, 12.0 * width, limit=200)
        return val
    inner, _ = quad(lambda r: 4.0 * np.pi * r * r * g(r) / d, 0.0, d, limit=200)
    outer, _ = quad(lambda r: 4.0 * np.pi * r * g(r), d, d + 12.0 * width, limit=200)
    return inner + outer


# -- periodic continuum oracles -----------------------------------------------

def periodic_coulomb_modesum(r_vec, box: float, width: float | None = None,
                             n_max: int | None = None) -> float:
    """Continuum periodic Coulomb green function (neutralizing background),
    from the Gaussian-damped mode sum plus the analytic point/smeared
    difference.  Independent of the erfc-split Ewald implementation."""
    L = float(box)
    if width is None:
        width = L / 20.0
    if n_max is None:
        n_max = int(np.ceil(5.0 * L / (2.0 * np.pi * width)))
    r_vec = np.asarray(r_vec, float)
    r = np.linalg.norm(r_vec)
    ns = np.arange(-n_max, n_max + 1)
    nx, ny, nz = np.meshgrid(ns, ns, ns, indexing="ij")
    mask = (nx**2 + ny**2 + nz**2) > 0
    k = (2.0 * np.pi / L) * np.stack([nx[mask], ny[mask], nz[mask]], axis=-1)
    k2 = np.sum(k * k, axis=1)
    damped = (4.0 * np.pi / L**3) * np.sum(
        np.exp(-0.5 * width**2 * k2) * np.cos(k @ r_vec) / k2)
    # periodic images of the smeared-vs-point difference are erfc-small;
    # subtracting its cell average keeps the zero-average convention
    desmear = float(erfc(r / (np.sqrt(2.0) * width)) / r)
    return damped + desmear - 2.0 * np.pi * width**2 / L**3


def periodic_delta_phi_squared(d: float, box: float,
                               n_values=(60, 90, 120, 160, 200)) -> float:
    """integral over one cell of (Phi_per(r) - Phi_per(r - d xhat))^2 for unit
    point sources on a periodic box: mode sum (32 pi^2/V) sum (1-cos k_x d)/k^4
    with a fitted a/N + b/N^2 tail.

    Approaches 4 pi d as box -> infinity; the difference from 4 pi d is the
    periodic-image correction of the back-action damping rate."""
    L = float(box)
    xi = d / L
    partial = []
    for N in n_values:
        ns = np.arange(-N, N + 1)
        nx, ny, nz = np.meshgrid(ns, ns, ns, indexing="ij")
        n2 = nx**2 + ny**2 + nz**2
        mask = n2 > 0
        partial.append(np.sum((1.0 - np.cos(2.0 * np.pi * nx[mask] * xi))
                              / n2[mask].astype(float) ** 2))
    n_arr = np.asarray(n_values, float)
    A = np.vstack([np.ones(len(n_values)), 1.0 / n_arr, 1.0 / n_arr**2]).T
    coef, *_ = np.linalg.lstsq(A, np.asarray(partial), rcond=None)
    return float((2.0 * L / np.pi**2) * coef[0])


def erf_profile(d: float, width: float) -> float:
    """Closed-form smeared Coulomb kernel erf(d / (sqrt(2) w)) / d."""
    if d == 0.0:
        return float(np.sqrt(2.0 / np.pi) / width)
    return float(erf(d / (np.sqrt(2.0) * width)) / d)


def erf_pair_potential(d: float, G: float, m1: float, m2: float, sigma: float,
                       smeared: bool) -> float:
    """Continuum Newton pair potential with the short-distance cut-off,
    -G m1 m2 erf(d / (sqrt(2) sigma_eff)) / d: the monitored density is
    smeared with width sigma, and smeared feedback smears the potential's
    source as well, so sigma_eff = sigma for point feedback and sigma sqrt(2)
    for smeared feedback."""
    width = sigma * np.sqrt(2.0) if smeared else sigma
    return -G * m1 * m2 * erf_profile(d, width)


# -- linearity witness ensembles ------------------------------------------------

def inline_cat_ensembles(a: np.ndarray, b: np.ndarray):
    """The superposition and mixture ensembles on normalized a and b, built
    line by line as the linearity command and demo built them before
    analysis.cat_ensembles: the bit-for-bit reference."""
    # orthonormalize so superposition and mixture prepare the same average exactly
    b = b - (a.conj() @ b) * a
    b = b / np.linalg.norm(b)
    plus = (a + b) / np.sqrt(2.0)
    minus = (a - b) / np.sqrt(2.0)
    ens_sup = [(0.5, plus), (0.5, minus)]
    ens_mix = [(0.5, a), (0.5, b)]
    return ens_sup, ens_mix


# -- output files -------------------------------------------------------------

def csv_writer_table(path, header, rows) -> None:
    """A CSV table as csv.writer writes it: the header row, then each row's
    floats with 17 significant digits, rows ending in CRLF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{float(v):.17g}" for v in row])


if __name__ == "__main__":
    # regeneration of the frozen constants used by the acceptance suite
    print("periodic_delta_phi_squared, box=32:")
    for d in range(3, 9):
        print(f"  d={d}: {periodic_delta_phi_squared(d, 32.0):.6f}")
    print("smeared_coulomb_profile, width=2:")
    for d in (0, 2, 4, 6, 8):
        print(f"  d={d}: {smeared_coulomb_profile(float(d), 2.0):.8f}")
    print("delta_inverse_r_squared_integral / (4 pi d):")
    for d in (1.0, 3.0, 7.0):
        print(f"  d={d}: {delta_inverse_r_squared_integral(d) / (4 * np.pi * d):.8f}")
