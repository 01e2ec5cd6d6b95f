"""Conditional stochastic master equation engine with Markovian feedback.

Implements Ito Euler steps of the monitored dynamics

    drho = -i[H, rho] dt
           - (1/8) iint gamma_rs [A_r, [A_s, rho]] dr ds dt
           + (1/2) iint gamma_rs {A_r - <A_r>, rho} dnoise_s dr ds dt

together with the feedback-completed equation (combined_step composes the
free increment with the expansion of the signal-potential conjugation; its
noise average carries the emergent (1/2) int A_r B_r dr Hamiltonian and
the inverse-kernel double commutator in the B fields), its noise-averaged
linear master equation, and the pure-state diffusive unravelling.  Every
monitored or fed-back observable is position diagonal, so all
non-Hamiltonian terms act element-wise on the density matrix, the
conditioning term is traceless at finite step size, and standalone
feedback is an exact diagonal phase conjugation.

States and noise may carry leading batch axes (rho: (..., n, n); noise:
flat (..., n_obs), as MonitoringSpec.sample_noise_flat draws it).  A field,
signal or back-action broadcasts against rho's leading axes; one with more
leading entries than rho raises numpy's broadcast ValueError.  The H of a
density-matrix step is a dense array or a DenseHamiltonian.

run_ensemble is the one stepping loop: it draws each seed's noise in blocks
of NOISE_BLOCK steps and computes a block's state-independent conditioning
field once; only combined_step and sme_step compute it when not handed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .lattice import GuardError, LatticeGrid, ManyBodyHamiltonian, einsum

STEP_GUARD_FRACTION = 0.1  # reject Euler steps with |increment|_1 above this fraction of |rho|_1
NOISE_BLOCK = 256  # steps of noise drawn per seed in one call
BATCH_BYTES = 1 << 25  # states plus noise blocks that run_ensemble steps at once
REAL_SPLIT_MAX_N = 16  # largest n whose real-split commutator matches zgemm's bytes (tested)
TILE_BYTES = 1 << 17  # increment rows, or commutator tiles, handled at once


def _diag(rho: np.ndarray) -> np.ndarray:
    return rho.diagonal(0, -2, -1)  # the method: no Python wrapper on the step path


@dataclass(frozen=True)
class _DiagonalFamily:
    """Diagonal observables family[nu, x] (observable nu on configuration
    x) with their correlation kernel.  On a lattice nu runs over grid sites
    and integrals carry the cell volume; for an explicit finite observable
    set (MatrixKernel) sums carry unit weight."""

    family: np.ndarray  # (n_obs, n_configs)
    kernel: object  # CorrelationKernel | MatrixKernel
    grid: LatticeGrid | None = None  # set when observables live on grid sites

    def __post_init__(self):
        fam = np.asarray(self.family, float)
        if fam.ndim != 2:
            raise ValueError("family must have shape (n_obs, n_configs)")
        if self.grid is not None and fam.shape[0] != self.grid.n_sites:
            raise ValueError("family rows must match the grid site count")
        object.__setattr__(self, "family", fam)

    @property
    def weight(self) -> float:
        """Measure of the observable index: cell volume on a grid, else 1."""
        return self.grid.cell_volume if self.grid is not None else 1.0

    def apply_kernel_flat(self, vec: np.ndarray, inverse: bool = False) -> np.ndarray:
        """gamma o v, or gamma^-1 o v when inverse, on flat observable vectors
        (batched on leading axes)."""
        op = self.kernel.apply_inverse if inverse else self.kernel.apply
        if self.grid is None:
            return op(vec)
        return op(vec.reshape(vec.shape[:-1] + self.grid.dims)).reshape(vec.shape)

    def _kernel_column_chunks(self, fam: np.ndarray, inverse: bool):
        """(slice, gamma o f or gamma^-1 o f) per chunk of the columns of an
        (n_obs, n_cols) stack; on a grid the chunks are grid.fft_chunks."""
        n = fam.shape[1]
        for sl in [slice(0, n)] if self.grid is None else self.grid.fft_chunks(n):
            yield sl, self.apply_kernel_flat(fam[:, sl].T, inverse).T

    def _pair_rate_table(self, inverse: bool) -> np.ndarray:
        """Q(F(., x) - F(., y)) for all configuration pairs, from the Gram
        matrix of the family with its kernel-applied columns."""
        applied = np.empty(self.family.shape)
        for sl, cols in self._kernel_column_chunks(self.family, inverse):
            applied[:, sl] = cols
        gram = self.weight * self.family.T @ applied
        del applied  # not held through the n_configs^2 temporaries below
        d = np.diag(gram)
        return d[:, None] + d[None, :] - gram - gram.T


@dataclass(frozen=True)
class MonitoringSpec(_DiagonalFamily):
    """Simultaneously monitored diagonal observables (on a lattice, the
    smeared mass density A_r at every site r) and their correlation."""

    sigma: float = 0.0  # smearing width used to build the family (record)

    @cached_property
    def pair_rate(self) -> np.ndarray:
        """Q_gamma(A(., x) - A(., y)), the double-commutator rate table, built
        on first use (the pure-state unravelling never reads it)."""
        return self._pair_rate_table(inverse=False)

    @cached_property
    def symmetric(self) -> bool:
        """Whether pair_rate equals its transpose bit for bit.  Its two Gram
        entries subtract in opposite orders on the two sides of the diagonal,
        so a lattice table is symmetric on some grids and not on others."""
        return _self_adjoint(self.pair_rate)

    @cached_property
    def self_quadratic(self) -> np.ndarray:
        """Q_gamma(A(., x), A(., x)) per configuration; each column's sum
        reads no other column, so the chunks change no bits."""
        out = np.empty(self.family.shape[1])
        for sl, applied in self._kernel_column_chunks(self.family, inverse=False):
            out[sl] = einsum("ox,ox->x", self.family[:, sl], applied)
        return self.weight * out

    def conditioning_field(self, noise_flat: np.ndarray) -> np.ndarray:
        """c(x) = int dr A_r(x) (gamma o dnoise)(r), the state-independent part
        of the conditioning term, (..., n_obs) -> (..., n_configs); each leading
        index is transformed alone, so a block of steps gives the per-step bits."""
        noise_flat = np.asarray(noise_flat)
        if noise_flat.shape[-1:] != self.family.shape[:1]:
            raise ValueError(f"noise must be flat, (..., {self.family.shape[0]}); "
                             f"got shape {noise_flat.shape}")
        w = self.apply_kernel_flat(noise_flat)
        return self.weight * einsum("ox,...o->...x", self.family, w)

    def sample_noise_flat(self, dt: float, rng, size=()) -> np.ndarray:
        """Signal noise with covariance gamma^-1/dt, flat observable index."""
        raw = self.kernel.sample_noise(dt, rng, size)
        return raw.reshape(tuple(size) + (self.family.shape[0],))

    def means(self, rho: np.ndarray) -> np.ndarray:
        """<A_nu> for every monitored observable."""
        return einsum("ox,...x->...o", self.family, _diag(rho).real)


@dataclass(frozen=True)
class FeedbackSpec(_DiagonalFamily):
    """Diagonal feedback operators B_nu paired index-by-index with the
    monitored observables; owns the back-action decoherence rate table
    (inverse-kernel weighted, built on first use: only the noise-averaged
    step reads it)."""

    @cached_property
    def pair_rate_inverse(self) -> np.ndarray:
        return self._pair_rate_table(inverse=True)

    def potential(self, signal_flat: np.ndarray) -> np.ndarray:
        """Diagonal of int signal_nu B_nu: the fed-back potential."""
        return self.weight * einsum("ox,...o->...x", self.family, signal_flat)

    def backaction_diagonal(self, monitoring: MonitoringSpec) -> np.ndarray:
        """Diagonal of (1/2) int A_nu B_nu: the emergent deterministic potential."""
        return 0.5 * self.weight * einsum("ox,ox->x", monitoring.family, self.family)


def _step_guard(inc, ref, step):
    """Trip unless inc <= STEP_GUARD_FRACTION * ref for each member, inc and
    ref the |.|_1 of the increment and of rho.  nan compares False, so it
    trips too; an inf in rho reaches the increment of every step as nan
    (0 * inf in the complex product of a real rate or field with rho)."""
    ok = inc <= STEP_GUARD_FRACTION * ref  # each member against its own |rho|_1
    if ok.all():
        return
    k = np.argmin(ok.ravel())
    inc_k, ref_k = inc.ravel()[k], ref.ravel()[k]
    if not np.isfinite(inc_k + ref_k):
        raise GuardError("step-size", step, "non-finite state or increment")
    raise GuardError(
        "step-size", step,
        f"|increment|_1 = {inc_k:.3g} exceeds {STEP_GUARD_FRACTION:g} * |rho|_1 = "
        f"{STEP_GUARD_FRACTION * ref_k:.3g}; reduce dt")


def _normalize(out, step, what):
    """out / |out| per state vector; the norm-collapse guard trips on a
    norm below 0.1 or a non-finite one."""
    norm = np.linalg.norm(out, axis=-1, keepdims=True)
    if not np.all(np.isfinite(norm)):
        raise GuardError("norm-collapse", step, f"{what} made the state non-finite")
    if np.any(norm < 0.1):
        raise GuardError("norm-collapse", step, f"{what} collapsed the norm below 0.1")
    return out / norm


def _pair_sums(half, rows=slice(None), out=None) -> np.ndarray:
    """h(x) + h(y) on the given rows, for a half field h (..., n) that may
    carry leading step or batch axes."""
    return np.add(half[..., rows, None], half[..., None, :], out=out)


def _conditioning(rho, sums, cmean, out) -> np.ndarray:
    """(1/2) iint gamma_rs {A_r - <A_r>, rho} dnoise_s, element-wise, written
    to out (rho's shape) as (sums - <c>) * rho.  sums = h(x) + h(y) are the
    _pair_sums of the half field h = c / 2 of the conditioning field c =
    MonitoringSpec.conditioning_field(noise), on the rows that rho holds,
    and <c> = sum_x c(x) rho_xx for each member of the whole state.  sums
    may be out itself.

    These are the bytes of 0.5 * (c(x) + c(y) - 2 <c>) * rho: scaling by 2
    or 0.5 is exact in binary floating point and commutes with rounding,
    save for values within a factor 2 of the subnormal range and overflow.
    Exactly traceless path-wise: h(x) + h(y) - <c> contracts to zero
    against the diagonal of rho.
    """
    shifted = np.subtract(sums, cmean[..., None, None], out=out)
    return np.multiply(shifted, rho, out=shifted)


class DenseHamiltonian:
    """A dense H as the density-matrix steps read it: its complex128 copy
    and its exact self-adjointness are each taken on first use and held,
    so a caller that steps many states with one H pays for them once
    (Model.density_hamiltonian).  A bare array H is wrapped per call."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    @cached_property
    def complex(self) -> np.ndarray:
        """matrix as complex128: the operand that numpy's promotion of a real
        H casts on every product, so the products' bytes do not change."""
        return self.matrix.astype(np.complex128, copy=False)

    @cached_property
    def self_adjoint(self) -> bool:
        return _self_adjoint(self.matrix)


def _commutator(H, rho, hermitian: bool = False):
    """[H, rho] = H @ rho - rho @ H in numpy's bytes, save that an exactly
    zero entry may take the other sign; H a dense array or a
    DenseHamiltonian.  A real H with n <= REAL_SPLIT_MAX_N runs as real
    dgemms on the float views of rho and rho^T, not as numpy's promoted
    zgemm.  Above that n a real H meets a complex rho as its held complex
    copy.  A symmetric real H and an exactly Hermitian rho take one
    product, X = H @ rho, and X - X^dagger is written over X: rho @ H =
    X^dagger adds the same products in the same order (README, performance
    notes).  hermitian says that both hold without a test: only a run that
    _certified passes it; above REAL_SPLIT_MAX_N the step otherwise tests
    both itself, at n <= REAL_SPLIT_MAX_N it takes the two products."""
    if not isinstance(H, DenseHamiltonian):
        H = DenseHamiltonian(H)
    h = H.matrix
    real_h = h.dtype == np.float64 and rho.dtype == np.complex128
    if real_h and rho.shape[-1] <= REAL_SPLIT_MAX_N:
        out = (h @ np.ascontiguousarray(rho).view(np.float64)).view(np.complex128)
        if hermitian:  # X - X^dagger whole: no wider than the second product it saves
            out -= np.conjugate(out).swapaxes(-1, -2)
            return out
        right_t = h.T @ np.ascontiguousarray(rho.swapaxes(-1, -2)).view(np.float64)
        out -= right_t.view(np.complex128).swapaxes(-1, -2)
        return out
    if real_h:
        h = H.complex
    out = h @ rho
    # rho first: a state that stopped being exactly Hermitian usually fails on its first tile
    if real_h and (hermitian or _self_adjoint(rho) and H.self_adjoint):
        _subtract_adjoint(out)
    else:
        out -= rho @ h
    return out


def _tiles(a):
    """(rows, cols) slices of a's square tiles on and above the diagonal,
    each at most TILE_BYTES across the batch: with its mirror below the
    diagonal, a short cached traversal instead of a full transpose."""
    n = a.shape[-1]
    side = max(1, math.isqrt(TILE_BYTES * n * n // a.nbytes))
    for i in range(0, n, side):
        for j in range(i, n, side):
            yield slice(i, i + side), slice(j, j + side)


def _self_adjoint(a) -> bool:
    """a == conj(a)^T for every member, each tile against its mirror."""
    return all((a[..., r, c] == a[..., c, r].swapaxes(-1, -2).conj()).all()
               for r, c in _tiles(a))


def _subtract_adjoint(x) -> None:
    """x - x^dagger written over x, tile by tile; a tile and its mirror are
    both computed from their original values (a diagonal tile is its own)."""
    for r, c in _tiles(x):
        tile, mirror = x[..., r, c], x[..., c, r]
        adjoint = np.conjugate(tile).swapaxes(-1, -2)
        if r != c:
            tile -= np.conjugate(mirror).swapaxes(-1, -2)
        mirror -= adjoint


# The increments below are built with the operations, their order and their
# left operands of the expressions in their docstrings, in place: numpy's
# complex product uses FMA, so a * b and b * a can differ in the last bit
# (README, performance notes).  Each product here has a real or a purely
# imaginary factor, whose order changes no byte (TestOperandOrder), so the
# left-operand rule binds none of them today.  Every term but the commutator
# is element-wise, so a block of rows gets the bytes that the whole state would.

def _whole(rho) -> bool:
    """Whether _euler handles rho whole: its complex increment fits in
    TILE_BYTES across the batch."""
    return 16 * rho.size <= TILE_BYTES


def _euler(H, rho, dt: float, step, terms, args, hermitian: bool = False) -> np.ndarray:
    """rho plus the Euler increment -1j * dt * [H, rho], completed in place
    by terms(inc, rho, rows, dt, args) with the step's other terms, once
    _step_guard passes it.  args holds what the step function forms once
    per step, not per block: the rate tables or what their rows are formed
    from, and for the monitored steps <c> of _conditioning and the feedback
    potential.  hermitian goes to _commutator.  The increment is the
    commutator's own array when that is complex.  It is built one block of
    rows at a time, at most TILE_BYTES of increment across the batch, so
    each block's terms and its share of the guard's |inc|_1 and |rho|_1 run
    in cache; a state that fits in one block is handled whole (_whole),
    with no slicing."""
    comm = _commutator(H, rho, hermitian)
    inc = comm if comm.dtype.kind == "c" else np.empty(comm.shape, np.result_type(-1j * dt, comm))
    if _whole(comm):
        np.multiply(-1j * dt, comm, out=inc)
        terms(inc, rho, slice(None), dt, args)
        size, ref = np.abs(inc).sum(axis=(-2, -1)), np.abs(rho).sum(axis=(-2, -1))
    else:
        n = rho.shape[-1]
        rows = max(1, TILE_BYTES * n // (16 * comm.size))
        size = ref = 0.0
        for start in range(0, n, rows):
            r = slice(start, start + rows)
            inc_r = np.multiply(-1j * dt, comm[..., r, :], out=inc[..., r, :])
            terms(inc_r, rho[..., r, :], r, dt, args)
            size = size + np.abs(inc_r).sum(axis=(-2, -1))
            ref = ref + np.abs(rho[..., r, :]).sum(axis=(-2, -1))
    _step_guard(size, ref, step)
    return np.add(rho, inc, out=inc)


def sme_step(rho: np.ndarray, H: np.ndarray, spec: MonitoringSpec, noise, dt: float,
             field=None) -> np.ndarray:
    """One Ito Euler step of the monitored dynamics without feedback
    (field as in combined_step)."""
    return combined_step(rho, H, spec, None, noise, dt, field=field)


def feedback_step(rho_free: np.ndarray, potential, dt: float) -> np.ndarray:
    """Exact conjugation by exp(-i V dt) for a real diagonal potential V."""
    phase = np.exp(-1j * dt * np.asarray(potential))
    return phase[..., :, None] * rho_free * phase.conj()[..., None, :]


def combined_step(rho: np.ndarray, H: np.ndarray, spec: MonitoringSpec,
                  fb: FeedbackSpec | None, noise, dt: float,
                  step: int | None = None, field=None, signal=None,
                  tables=None) -> np.ndarray:
    """One step of the feedback-completed conditional master equation.

    Implements the equation the way it is derived: the free monitored Euler
    increment followed by the second-order expansion of the feedback
    conjugation exp(-i V dt) . exp(+i V dt) with the full signal potential
    V = int signal_r B_r dr, keeping the quadratic noise products path-wise.
    Their Ito means reproduce the printed form exactly -- the emergent
    (1/2) int A B Hamiltonian and the inverse-kernel-weighted double
    commutator in the B fields -- while path-wise the step agrees with the
    exact conjugation to O(dt^{3/2}).  Hermiticity and the unit trace are
    preserved identically (every feedback term is a commutator).

    noise is flat, (..., n_obs).  With fb None this is sme_step.
    field (spec.conditioning_field(noise)) and signal (spec.means(rho) +
    noise) may be passed in when the caller already holds them; otherwise
    they are computed here.  tables = (rate, sums, hermitian) is what
    run_ensemble forms per run and per noise block.  rate =
    _monitored_rate(spec.pair_rate, dt) and sums = _pair_sums(field / 2)
    are given for a state that _euler handles whole, and None otherwise;
    the terms then form them per step, or per block of rows.  hermitian is
    run_ensemble's _certified: rho is exactly Hermitian and H exactly
    self-adjoint, so _commutator takes one product without a test.  None
    stands for (None, None, False).
    """
    if field is None:
        field = spec.conditioning_field(noise)
    v = None
    if fb is not None:
        if signal is None:
            signal = spec.means(rho) + noise
        v = fb.potential(signal)
    cmean = einsum("...x,...x->...", field, _diag(rho).real)
    rate, sums, hermitian = tables or (None, None, False)
    half = 0.5 * field if sums is None else None
    return _euler(H, rho, dt, step, _monitored_terms,
                  (rate, sums, spec.pair_rate, half, cmean, v), hermitian)


def _monitored_rate(pair_rate, dt: float, rows=slice(None)) -> np.ndarray:
    """dt * 0.125 * pair_rate on the given rows: the dt-scaled rate table of
    the monitored steps."""
    return dt * 0.125 * pair_rate[rows]


def _monitored_terms(inc, rho, rows, dt: float, args) -> None:
    """inc - rate * rho + dt * _conditioning(rho, sums, <field>) on the given
    rows of the state, rate = _monitored_rate and sums the _pair_sums of the
    half field h; then, with a feedback potential v, free -> free - 1j * dt
    * vd * (rho + free) - 0.5 * dt * dt * vd * vd * rho with vd = v(x) -
    v(y).  args = (rate, sums, pair_rate, h, <field>, v): rate and sums of
    the whole state, or None to form the rows' tables here from pair_rate
    and h; v None without feedback."""
    rate, sums, pair_rate, half, cmean, v = args
    if rate is None:
        rate = _monitored_rate(pair_rate, dt, rows)
    term = np.multiply(rate, rho)
    inc -= term
    if sums is None:
        sums = _pair_sums(half, rows, out=term)
    inc += np.multiply(dt, _conditioning(rho, sums, cmean, term), out=term)
    if v is None:
        return
    vd = v[..., rows, None] - v[..., None, :]
    kick = np.multiply(1j * dt, vd)
    np.multiply(kick, np.add(rho, inc), out=kick)
    inc -= kick
    curvature = np.multiply(0.5 * dt * dt, vd)
    curvature *= vd
    inc -= np.multiply(curvature, rho, out=kick)


def me_step(rho: np.ndarray, H: np.ndarray, spec: MonitoringSpec, fb: FeedbackSpec,
            dt: float, backaction, step: int | None = None) -> np.ndarray:
    """Noise-averaged step: deterministic, linear, trace preserving and
    completely positive (double commutators with nonnegative kernels).  The
    increment is -1j * dt * [H, rho] - 1j * dt * (b(x) - b(y)) * rho
    - dt * rate * rho with rate = 0.125 * pair_rate + 0.5 * pair_rate_inverse
    and b the back-action diagonal.  Monitoring without feedback is a csl
    model with G = 0, whose feedback terms are exactly zero."""
    return _euler(H, rho, dt, step, _master_terms,
                  (spec.pair_rate, fb.pair_rate_inverse, backaction))


def _master_terms(inc, rho, rows, dt: float, args) -> None:
    """me_step's terms after the commutator; args = (pair_rate,
    pair_rate_inverse, backaction)."""
    pair_rate, pair_rate_inverse, backaction = args
    rate = 0.125 * pair_rate[rows]
    term = _potential_terms(inc, rho, rows, dt, backaction)
    rate += 0.5 * pair_rate_inverse[rows]
    np.multiply(dt, rate, out=rate)
    inc -= np.multiply(rate, rho, out=term)


def _potential_terms(inc, rho, rows, dt: float, v) -> np.ndarray:
    """inc - 1j * dt * (v(x) - v(y)) * rho on the given rows, for a real
    diagonal potential v; returns the term's array."""
    term = (1j * dt * (v[..., rows, None] - v[..., None, :])) * rho
    inc -= term
    return term


def hamiltonian_step(state: np.ndarray, H, v, dt: float, step: int | None = None) -> np.ndarray:
    """One unitary Euler step under H + diag(v), v a real potential over the
    configurations (the pair and mean-field baselines).  H gives the
    representation: a ManyBodyHamiltonian steps state vectors and
    renormalizes them; a dense H steps density matrices by the increment
    -1j * dt * [H, rho] - 1j * dt * (v(x) - v(y)) * rho."""
    if isinstance(H, ManyBodyHamiltonian):
        return _normalize(state - 1j * dt * (H.apply(state) + v * state), step, "Hamiltonian step")
    return _euler(H, state, dt, step, _potential_terms, v)


def hfb_identity_check(A, B, rho: np.ndarray, tol: float = 1e-12) -> bool:
    """Check -(i/2)[B, {A, rho}] == -(i/4)[{A, B}, rho] with dense matrices.

    The rewriting of the feedback cross term as a pure Hamiltonian one
    needs the tensor symmetry A (x) B = B (x) A of the summed observable
    pairs, not just commutativity: for a single diagonal pair it holds iff
    A and B are proportional (up to constants).  The physically paired
    families satisfy it through the symmetry of the Newton kernel; use
    hfb_family_identity_check for that statement.
    """
    a, b = np.diag(np.asarray(A)), np.diag(np.asarray(B))
    anti = a @ rho + rho @ a
    lhs = -0.5j * (b @ anti - anti @ b)
    ab = a @ b + b @ a
    rhs = -0.25j * (ab @ rho - rho @ ab)
    return bool(np.abs(lhs - rhs).max() <= tol)


def hfb_family_identity_check(spec: MonitoringSpec, fb: FeedbackSpec,
                              rho: np.ndarray, tol: float = 1e-12) -> bool:
    """Check -(i/2) int dr [B_r, {A_r, rho}] == -i [V, rho] with
    V = (1/2) int dr A_r B_r, summed over the paired families.

    This is the identity that makes the deterministic part of the feedback
    Hamiltonian; it holds because int A_r(x) B_r(y) dr is symmetric in
    (x, y) for density/potential pairs built from one symmetric kernel.
    """
    w = spec.weight
    lhs = np.zeros_like(np.asarray(rho, complex))
    for nu in range(spec.family.shape[0]):
        a, b = np.diag(spec.family[nu]), np.diag(fb.family[nu])
        anti = a @ rho + rho @ a
        lhs += -0.5j * w * (b @ anti - anti @ b)
    vg = np.diag(fb.backaction_diagonal(spec))
    rhs = -1j * (vg @ rho - rho @ vg)
    return bool(np.abs(lhs - rhs).max() <= tol)


def sse_step(psi: np.ndarray, H: ManyBodyHamiltonian, spec: MonitoringSpec,
             fb: FeedbackSpec, noise, dt: float, field, step: int | None = None) -> np.ndarray:
    """Norm-preserving diffusive unravelling step.

    Drift and diffusion are the pure-state transcription of the monitored
    master equation (so projectors agree with the density-matrix step to
    O(dt^{3/2})); feedback is composed afterwards as an exact diagonal
    phase built from the full signal, exactly like the operational
    definition.  The state is renormalized each step.  H applies the
    Hamiltonian (a model's hamiltonian_operator).  field is the step's
    spec.conditioning_field(noise).
    """
    prob = (psi.conj() * psi).real
    means = einsum("ox,...x->...o", spec.family, prob)
    # -(1/8) Q_gamma(A - <A>, A - <A>) evaluated per configuration
    applied_means = spec.apply_kernel_flat(means)
    cross = spec.weight * einsum("ox,...o->...x", spec.family, applied_means)
    qmm = spec.weight * einsum("...o,...o->...", means, applied_means)
    quad = spec.self_quadratic - 2.0 * cross + qmm[..., None]
    # +(1/2) (gamma o dnoise) contracted with (A - <A>)
    cmean = einsum("...x,...x->...", field, prob)
    dpsi = -1j * dt * H.apply(psi)
    dpsi = dpsi + dt * (-0.125 * quad + 0.5 * (field - cmean[..., None])) * psi
    out = np.exp(-1j * dt * fb.potential(means + noise)) * (psi + dpsi)
    return _normalize(out, step, "unravelling step")


@dataclass
class TrajectoryRecord:
    """Time series of one seeded run plus integrity diagnostics.  State
    vectors are recorded in O(n); their purity is 1 by definition."""

    seed: int
    times: np.ndarray
    trace: np.ndarray
    purity: np.ndarray
    positions: np.ndarray  # (n_rec, n_particles): <x_n> along grid axis 0
    signals: np.ndarray | None = None  # (n_rec, n_obs) signal of the step just taken
    offdiagonals: np.ndarray | None = None  # (n_rec, n_pairs) |rho_xy|
    min_eigenvalue: np.ndarray | None = None
    snapshots: list = dc_field(default_factory=list)
    positivity_warnings: list = dc_field(default_factory=list)


def _record(batch, j, istep, state, signal, wmins, model, pure: bool, pairs,
            snapshot_t=None) -> None:
    """Write record j, taken after step istep, of each member of batch (its
    TrajectoryRecords) from the states, signals (None: the observable means)
    and smallest eigenvalues that stack on the leading axis, and snapshot
    the states at time snapshot_t unless it is None.  Trace, purity,
    positions and means are computed once for the whole batch, in the
    bytes of the member-by-member forms (tests/oracles.member_record); a
    coherence keeps the scalar abs(), whose last bit numpy's array abs does
    not always match."""
    p = (state * state.conj()).real if pure else _diag(state).real
    tr = p.sum(-1)
    if pure:  # a projector's tr rho^2 is (tr rho)^2: never build rho for a state vector
        purity = np.ones(len(batch))
    else:
        purity = einsum("...xy,...yx->...", state, state).real / (tr * tr)
    positions = (model.position_coordinates @ p[..., None])[..., 0] / tr[:, None]
    rec0 = batch[0]
    if rec0.signals is not None and signal is None:
        means = (model.monitoring.family @ p[..., None])[..., 0]
    if rec0.offdiagonals is not None:
        xs, ys = pairs.T
        coherences = state[:, xs] * state[:, ys].conj() if pure else state[:, xs, ys]
    for k, rec in enumerate(batch):
        rec.trace[j], rec.purity[j], rec.positions[j] = tr[k], purity[k], positions[k]
        if rec.signals is not None:
            rec.signals[j] = means[k] if signal is None else signal[k]
        if rec.offdiagonals is not None:
            rec.offdiagonals[j] = [abs(v) for v in coherences[k]]
        if rec.min_eigenvalue is not None:
            rec.min_eigenvalue[j] = wmin = float(wmins[k])
            if wmin < -1e-8:
                rec.positivity_warnings.append((istep, wmin))
        if snapshot_t is not None:
            rec.snapshots.append((snapshot_t, state[k].copy()))


def _certified(model, initial) -> bool:
    """Whether every state of a conditional density run of model from
    initial stays exactly Hermitian, so that each step's _commutator may
    take one product without testing rho.  It does when model.monitoring's
    pair_rate is exactly symmetric, initial exactly Hermitian and the
    dense H exactly self-adjoint: combined_step then maps an exactly
    Hermitian rho to an exactly Hermitian one, because
    - X - X^dagger is exactly anti-Hermitian, so -1j * dt times it is
      Hermitian;
    - the rate table, a scaled copy of pair_rate, is symmetric, and so are
      the pair sums h(x) + h(y) and their shift by <c>;
    - vd = v(x) - v(y) is antisymmetric, so the feedback kick 1j * dt * vd
      times the Hermitian rho + free is Hermitian, and the curvature
      0.5 * dt * dt * vd * vd is symmetric;
    - every add, subtract and product works entry by entry, each factor
      real, purely imaginary or a conjugate pair across the diagonal, and
      an operation on (y, x) rounds to the conjugate of its result on
      (x, y).
    An exactly zero entry may take the other sign, which == does not see."""
    return (model.monitoring.symmetric and _self_adjoint(initial)
            and model.density_hamiltonian.self_adjoint)


def run_ensemble(initial: np.ndarray, model, dt: float, steps: int, seeds,
                 record_every: int = 1, record_signal: bool = False, offdiagonal_pairs=(),
                 snapshot_every: int = 0, monitor_positivity: bool = True,
                 unconditional: bool = False) -> list[TrajectoryRecord]:
    """Integrate one seeded trajectory per seed of a built model (records
    in seed order); the package's one stepping loop.

    initial may be a state vector (pure-state unravelling for monitored
    models; required for the mean-field baseline) or a density matrix.
    unconditional runs the noise-averaged step instead, Model.advance with
    noise None (the seeds are then irrelevant; recorded signals are the
    observable means).
    Members advance together, one Model.advance call per step, in batches
    of at most BATCH_BYTES of states, noise and conditioning fields.
    Member k draws NOISE_BLOCK steps of noise per call from the Philox
    stream of seeds[k], and the block's conditioning fields are computed
    right after the draw.  Where _euler handles a density matrix whole, a
    conditional step's dt-scaled rate table is formed once per run and its
    pair sums once per block (Model.advance's tables).  A conditional
    density run is tested once for _certified, and a certified run's every
    commutator takes one product with no test of rho; an uncertified run's
    steps test rho as they always have.
    Block draws, block fields and these tables equal per-step ones bit for
    bit, the one product equals the two, and each step acts on every member
    alone, so record k is fully determined by (model, initial, dt, steps,
    seeds[k]).
    State vectors are recorded in O(n) from |psi_x|^2 and psi_x psi_y*,
    with purity 1 by definition.  monitor_positivity records the smallest
    eigenvalue of a density matrix with n <= 128, and of no other state.
    """
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be a positive finite number; got {dt!r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if snapshot_every < 0:
        raise ValueError("snapshot_every must be >= 0 (0: no snapshots)")
    seeds = list(seeds)
    initial = np.asarray(initial, complex)
    n = model.position_coordinates.shape[1]
    if initial.shape not in ((n,), (n, n)):
        raise ValueError(f"initial must have shape ({n},) or ({n}, {n}), n the model's "
                         f"configuration count; got shape {initial.shape}")
    pure = initial.ndim == 1
    monitor_positivity = monitor_positivity and not pure and n <= 128
    draws = model.monitoring is not None and not unconditional
    n_obs = 0 if model.monitoring is None else model.monitoring.family.shape[0]

    rec_steps = sorted(set(range(0, steps + 1, record_every)) | {steps})
    times = dt * np.asarray(rec_steps, float)
    n_rec = len(rec_steps)
    pairs = np.asarray(offdiagonal_pairs, int).reshape(-1, 2)

    def new_record(seed):
        return TrajectoryRecord(
            seed=seed, times=times, trace=np.empty(n_rec), purity=np.empty(n_rec),
            positions=np.empty((n_rec, model.spec.particles.count)),
            signals=np.empty((n_rec, n_obs)) if (record_signal and n_obs) else None,
            offdiagonals=np.empty((n_rec, len(pairs))) if len(pairs) else None,
            min_eigenvalue=np.empty(n_rec) if monitor_positivity else None)

    records = []
    block_bytes = 8 * NOISE_BLOCK * (n_obs + initial.shape[-1]) if draws else 0
    width = max(1, BATCH_BYTES // (initial.nbytes + block_bytes))
    # A conditional density step that _euler handles whole takes its
    # dt-scaled rate table, formed here once, and the pair sums of its half
    # field, formed per noise block in chunks of steps that hold at most
    # TILE_BYTES.  The first batch is the widest.
    rate = None
    certified = draws and not pure and _certified(model, initial)
    first = np.broadcast_to(initial, (min(width, len(seeds)),) + initial.shape)
    if draws and not pure and _whole(first):
        rate = _monitored_rate(model.monitoring.pair_rate, dt)
    for start in range(0, len(seeds), width):
        batch = [new_record(seed) for seed in seeds[start:start + width]]
        rngs = [np.random.Generator(np.random.Philox(rec.seed)) for rec in batch]
        state = np.broadcast_to(initial, (len(batch),) + initial.shape).copy()
        chunk = max(1, TILE_BYTES // (8 * state.size))  # steps of pair sums at once
        j = 0
        signal = noise = field = None
        tables = (None, None, certified)
        for i in range(steps + 1):
            if i > 0:
                if draws:
                    b = (i - 1) % NOISE_BLOCK
                    if b == 0:
                        noises = np.stack([model.monitoring.sample_noise_flat(
                            dt, rng, (min(NOISE_BLOCK, steps - i + 1),)) for rng in rngs], axis=1)
                        fields = model.monitoring.conditioning_field(noises)
                    noise, field = noises[b], fields[b]
                    if rate is not None:
                        if b % chunk == 0:
                            sums = _pair_sums(0.5 * fields[b:b + chunk])
                        tables = (rate, sums[b % chunk], certified)
                state, signal = model.advance(state, dt, noise, step=i, pure=pure, field=field,
                                              tables=tables)
            if i == rec_steps[j]:
                # one batched call, each member's eigenvalues bit for bit its own
                wmins = np.linalg.eigvalsh(state).min(axis=-1) if monitor_positivity else None
                snap = snapshot_every and (i % snapshot_every == 0 or i == steps)
                _record(batch, j, i, state, signal, wmins, model, pure, pairs,
                        i * dt if snap else None)
                j += 1
        records += batch
    for rec in records:
        if rec.positivity_warnings:
            import logging  # on first use: most runs have nothing to log
            logging.getLogger("collapsesim").warning(
                "density matrix dipped below the positivity floor at steps %s "
                "(min eigenvalue %.2e)", [s for s, _ in rec.positivity_warnings][:5],
                min(w for _, w in rec.positivity_warnings))
    return records


def run_trajectory(initial: np.ndarray, model, dt: float, steps: int, seed: int,
                   **record_options) -> TrajectoryRecord:
    """Integrate one seeded trajectory: run_ensemble with the single seed
    (record_options as there)."""
    return run_ensemble(initial, model, dt, steps, [seed], **record_options)[0]


def ensemble_mean(model, rho0: np.ndarray, dt: float, steps: int, seeds,
                  chunk: int = 256) -> np.ndarray:
    """Mean density matrix over seeded conditional trajectories.

    Each seed owns its counter-based stream; run_ensemble steps up to chunk
    trajectories at a time, and final states are summed member by member
    in seed order, so the result does not depend on the chunk size, bit
    for bit.
    """
    if np.ndim(rho0) != 2 or rho0.shape[0] != rho0.shape[1]:
        raise ValueError(f"rho0 must be an (n, n) density matrix; got shape {np.shape(rho0)}")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must not be empty: the mean of no trajectories")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    acc = np.zeros(rho0.shape, complex)
    for start in range(0, len(seeds), chunk):
        for rec in run_ensemble(rho0, model, dt, steps, seeds[start:start + chunk],
                                record_every=steps, snapshot_every=steps,
                                monitor_positivity=False):
            acc += rec.snapshots[-1][1]
    return acc / len(seeds)
