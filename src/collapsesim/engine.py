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
flat (..., n_obs), as MonitoringSpec.sample_noise_flat draws it); all step
functions broadcast over them.

run_ensemble is the one stepping loop: it draws each seed's noise in blocks
of NOISE_BLOCK steps and computes a block's state-independent conditioning
field once; the step functions compute it themselves when not handed it.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .lattice import GuardError, LatticeGrid, ManyBodyHamiltonian, _field_values

STEP_GUARD_FRACTION = 0.1  # reject Euler steps with |increment|_1 above this fraction of |rho|_1
NOISE_BLOCK = 256  # steps of noise drawn per seed in one call
BATCH_BYTES = 1 << 25  # states plus noise blocks that run_ensemble steps at once


def _diag(rho: np.ndarray) -> np.ndarray:
    return np.diagonal(rho, axis1=-2, axis2=-1)


def expectation(rho: np.ndarray, observable):
    """<D> = sum_x D(x) rho_xx for a diagonal observable."""
    d = _field_values(observable)
    p = _diag(rho).real
    out = np.einsum("...x,x->...", p, d)
    return float(out) if out.ndim == 0 else out


def hcal_apply(observable, rho: np.ndarray) -> np.ndarray:
    """{D - <D>, rho}: the traceless, Hermiticity-preserving conditioning map."""
    d = _field_values(observable)
    mean = np.asarray(expectation(rho, d))
    shifted = d[:, None] + d[None, :] - 2.0 * mean[..., None, None]
    return shifted * rho


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

    def apply_kernel_columns(self, fam: np.ndarray, inverse: bool = False) -> np.ndarray:
        """gamma o f (or gamma^-1 o f) column-by-column for an (n_obs, n_cols) stack."""
        op = self.kernel.apply_inverse if inverse else self.kernel.apply
        if self.grid is None:
            return op(fam.T).T
        cols = np.moveaxis(fam.reshape(self.grid.dims + (-1,)), -1, 0)
        return np.moveaxis(op(cols), 0, -1).reshape(fam.shape)

    def _pair_rate_table(self, inverse: bool) -> np.ndarray:
        """Q(F(., x) - F(., y)) for all configuration pairs, from the Gram matrix."""
        gram = self.weight * self.family.T @ self.apply_kernel_columns(self.family, inverse)
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
    def self_quadratic(self) -> np.ndarray:
        """Q_gamma(A(., x), A(., x)) per configuration."""
        applied = self.apply_kernel_columns(self.family)
        return self.weight * np.einsum("ox,ox->x", self.family, applied)

    def apply_kernel_flat(self, vec: np.ndarray) -> np.ndarray:
        """gamma o v on flat observable vectors (batched on leading axes)."""
        if self.grid is None:
            return self.kernel.apply(vec)
        shaped = vec.reshape(vec.shape[:-1] + self.grid.dims)
        return self.kernel.apply(shaped).reshape(vec.shape)

    def conditioning_field(self, noise_flat: np.ndarray) -> np.ndarray:
        """c(x) = int dr A_r(x) (gamma o dnoise)(r), the state-independent part
        of the conditioning term, (..., n_obs) -> (..., n_configs); each leading
        index is transformed alone, so a block of steps gives the per-step bits."""
        noise_flat = np.asarray(noise_flat)
        if noise_flat.shape[-1:] != self.family.shape[:1]:
            raise ValueError(f"noise must be flat, (..., {self.family.shape[0]}); "
                             f"got shape {noise_flat.shape}")
        w = self.apply_kernel_flat(noise_flat)
        return self.weight * np.einsum("ox,...o->...x", self.family, w)

    def sample_noise_flat(self, dt: float, rng, size=()) -> np.ndarray:
        """Signal noise with covariance gamma^-1/dt, flat observable index."""
        raw = self.kernel.sample_noise(dt, rng, size)
        return raw.reshape(tuple(size) + (self.family.shape[0],))

    def means(self, rho: np.ndarray) -> np.ndarray:
        """<A_nu> for every monitored observable."""
        return np.einsum("ox,...x->...o", self.family, _diag(rho).real)


@dataclass(frozen=True)
class FeedbackSpec(_DiagonalFamily):
    """Diagonal feedback operators B_nu paired index-by-index with the
    monitored observables; owns the back-action decoherence rate table
    (inverse-kernel weighted, built on first use: only the noise-averaged
    step reads it)."""

    smeared: bool = False  # whether the optional smearing was applied

    @cached_property
    def pair_rate_inverse(self) -> np.ndarray:
        return self._pair_rate_table(inverse=True)

    def potential(self, signal_flat: np.ndarray) -> np.ndarray:
        """Diagonal of int signal_nu B_nu: the fed-back potential."""
        return self.weight * np.einsum("ox,...o->...x", self.family, signal_flat)

    def backaction_diagonal(self, monitoring: MonitoringSpec) -> np.ndarray:
        """Diagonal of (1/2) int A_nu B_nu: the emergent deterministic potential."""
        return 0.5 * self.weight * np.einsum("ox,ox->x", monitoring.family, self.family)


def generate_signal(rho: np.ndarray, spec: MonitoringSpec, dt: float, rng, size=()):
    """Signal = <A_nu> + noise and the noise itself; rng None is the
    zero-noise testing hook."""
    means = spec.means(rho)
    if rng is None:
        noise = np.zeros(tuple(size) + (spec.family.shape[0],))
    else:
        noise = spec.sample_noise_flat(dt, rng, size)
    return means + noise, noise


def _step_guard(rho, increment, step):
    """Trip unless |increment|_1 <= STEP_GUARD_FRACTION * |rho|_1 for each
    member.  nan compares False, so it trips too; an inf in rho reaches the
    increment of every step as nan (0 * inf in a complex product)."""
    inc = np.ravel(np.abs(increment).sum(axis=(-2, -1)))
    ref = np.ravel(np.abs(rho).sum(axis=(-2, -1)))
    ok = inc <= STEP_GUARD_FRACTION * ref  # each member against its own |rho|_1
    k = np.argmin(ok)
    if not ok[k]:
        if not np.isfinite(inc[k] + ref[k]):
            raise GuardError("step-size", step, "non-finite state or increment")
        raise GuardError(
            "step-size", step,
            f"|increment|_1 = {inc[k]:.3g} exceeds {STEP_GUARD_FRACTION:g} * |rho|_1 = "
            f"{STEP_GUARD_FRACTION * ref[k]:.3g}; reduce dt")


def _normalize(out, step, what):
    """out / |out| per state vector; the norm-collapse guard trips on a
    norm below 0.1 or a non-finite one."""
    norm = np.linalg.norm(out, axis=-1, keepdims=True)
    if not np.all(np.isfinite(norm)):
        raise GuardError("norm-collapse", step, f"{what} made the state non-finite")
    if np.any(norm < 0.1):
        raise GuardError("norm-collapse", step, f"{what} collapsed the norm below 0.1")
    return out / norm


def _conditioning(rho, c) -> np.ndarray:
    """(1/2) iint gamma_rs {A_r - <A_r>, rho} dnoise_s, element-wise, from
    the conditioning field c = MonitoringSpec.conditioning_field(noise).

    Exactly traceless path-wise: c(x) + c(y) - 2<c> contracts to zero
    against the diagonal of rho.
    """
    cmean = np.einsum("...x,...x->...", c, _diag(rho).real)
    shifted = c[..., :, None] + c[..., None, :] - 2.0 * cmean[..., None, None]
    return 0.5 * shifted * rho


def _commutator(H, rho):
    return H @ rho - rho @ H


def _free_increment(rho, H, spec: MonitoringSpec, field, dt: float) -> np.ndarray:
    """Ito Euler increment of the monitored dynamics without feedback."""
    inc = -1j * dt * _commutator(H, rho)
    inc = inc - dt * 0.125 * spec.pair_rate * rho
    return inc + dt * _conditioning(rho, field)


def sme_step(rho: np.ndarray, H: np.ndarray, spec: MonitoringSpec, noise, dt: float,
             step: int | None = None, field=None) -> np.ndarray:
    """One Ito Euler step of the monitored dynamics without feedback
    (field as in combined_step)."""
    if field is None:
        field = spec.conditioning_field(noise)
    inc = _free_increment(rho, H, spec, field, dt)
    _step_guard(rho, inc, step)
    return rho + inc


def feedback_step(rho_free: np.ndarray, potential, dt: float) -> np.ndarray:
    """Exact conjugation by exp(-i V dt) for a real diagonal potential V."""
    v = _field_values(potential)
    phase = np.exp(-1j * dt * v)
    return phase[..., :, None] * rho_free * phase.conj()[..., None, :]


def combined_step(rho: np.ndarray, H: np.ndarray, spec: MonitoringSpec,
                  fb: FeedbackSpec | None, noise, dt: float,
                  step: int | None = None, field=None, signal=None) -> np.ndarray:
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

    noise is flat, (..., n_obs).  With fb None this reduces to sme_step.
    field (spec.conditioning_field(noise)) and signal (spec.means(rho) +
    noise) may be passed in when the caller already holds them; otherwise
    they are computed here.
    """
    if fb is None:
        return sme_step(rho, H, spec, noise, dt, step, field=field)
    if field is None:
        field = spec.conditioning_field(noise)
    if signal is None:
        signal = spec.means(rho) + noise
    free = _free_increment(rho, H, spec, field, dt)
    v = fb.potential(signal)
    vd = v[..., :, None] - v[..., None, :]
    inc = free - 1j * dt * vd * (rho + free) - 0.5 * dt * dt * vd * vd * rho
    _step_guard(rho, inc, step)
    return rho + inc


def me_step(rho: np.ndarray, H: np.ndarray, spec: MonitoringSpec,
            fb: FeedbackSpec | None, dt: float,
            backaction=None, step: int | None = None) -> np.ndarray:
    """Noise-averaged step: deterministic, linear, trace preserving and
    completely positive (double commutators with nonnegative kernels)."""
    inc = -1j * dt * _commutator(H, rho)
    rate = 0.125 * spec.pair_rate
    if fb is not None:
        if backaction is None:
            backaction = fb.backaction_diagonal(spec)
        inc = inc - 1j * dt * (backaction[..., :, None] - backaction[..., None, :]) * rho
        rate = rate + 0.5 * fb.pair_rate_inverse
    inc = inc - dt * rate * rho
    _step_guard(rho, inc, step)
    return rho + inc


def hfb_identity_check(A, B, rho: np.ndarray, tol: float = 1e-12) -> bool:
    """Check -(i/2)[B, {A, rho}] == -(i/4)[{A, B}, rho] with dense matrices.

    The rewriting of the feedback cross term as a pure Hamiltonian one
    needs the tensor symmetry A (x) B = B (x) A of the summed observable
    pairs, not just commutativity: for a single diagonal pair it holds iff
    A and B are proportional (up to constants).  The physically paired
    families satisfy it through the symmetry of the Newton kernel; use
    hfb_family_identity_check for that statement.
    """
    a, b = np.diag(_field_values(A)), np.diag(_field_values(B))
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
             fb: FeedbackSpec | None, noise, dt: float,
             step: int | None = None, field=None) -> np.ndarray:
    """Norm-preserving diffusive unravelling step.

    Drift and diffusion are the pure-state transcription of the monitored
    master equation (so projectors agree with the density-matrix step to
    O(dt^{3/2})); feedback is composed afterwards as an exact diagonal
    phase built from the full signal, exactly like the operational
    definition.  The state is renormalized each step.  H applies the
    Hamiltonian (a model's hamiltonian_operator).  field, when given, is
    the step's precomputed spec.conditioning_field(noise).
    """
    if field is None:
        field = spec.conditioning_field(noise)
    prob = (psi.conj() * psi).real
    means = np.einsum("ox,...x->...o", spec.family, prob)
    # -(1/8) Q_gamma(A - <A>, A - <A>) evaluated per configuration
    applied_means = spec.apply_kernel_flat(means)
    cross = spec.weight * np.einsum("ox,...o->...x", spec.family, applied_means)
    qmm = spec.weight * np.einsum("...o,...o->...", means, applied_means)
    quad = spec.self_quadratic - 2.0 * cross + qmm[..., None]
    # +(1/2) (gamma o dnoise) contracted with (A - <A>)
    cmean = np.einsum("...x,...x->...", field, prob)
    dpsi = -1j * dt * H.apply(psi)
    dpsi = dpsi + dt * (-0.125 * quad + 0.5 * (field - cmean[..., None])) * psi
    out = psi + dpsi
    if fb is not None:
        out = np.exp(-1j * dt * fb.potential(means + noise)) * out
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
    density_means: np.ndarray | None = None  # (n_rec, n_obs)
    signals: np.ndarray | None = None  # (n_rec, n_obs) signal of the step just taken
    offdiagonals: np.ndarray | None = None  # (n_rec, n_pairs) |rho_xy|
    min_eigenvalue: np.ndarray | None = None
    snapshots: list = dc_field(default_factory=list)
    positivity_warnings: list = dc_field(default_factory=list)


def run_ensemble(initial: np.ndarray, model, dt: float, steps: int, seeds,
                 record_every: int = 1, record_density: bool = False,
                 record_signal: bool = False, offdiagonal_pairs=(),
                 snapshot_every: int = 0, monitor_positivity: bool | None = None,
                 unconditional: bool = False) -> list[TrajectoryRecord]:
    """Integrate one seeded trajectory per seed of a built model (records
    in seed order); the package's one stepping loop.

    initial may be a state vector (pure-state unravelling for monitored
    models; required for the mean-field baseline) or a density matrix.
    unconditional runs the noise-averaged master equation instead (the
    seeds are then irrelevant; recorded signals are the observable means).
    Members advance together, one Model.advance call per step, in batches
    of at most BATCH_BYTES of states, noise and conditioning fields.
    Member k draws NOISE_BLOCK steps of noise per call from the Philox
    stream of seeds[k], and the block's conditioning fields are computed
    right after the draw.  Block draws and block fields equal per-step
    ones bit for bit and each step acts on every member alone, so record
    k is fully determined by (model, initial, dt, steps, seeds[k]).
    State vectors are recorded in O(n) from |psi_x|^2 and psi_x psi_y*,
    with purity 1 by definition; monitor_positivity needs a density matrix.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    seeds = list(seeds)
    initial = np.asarray(initial, complex)
    pure = initial.ndim == 1
    if monitor_positivity and pure:
        raise ValueError("monitor_positivity needs a density matrix: projectors are positive")
    if monitor_positivity is None:
        monitor_positivity = (not pure) and initial.shape[-1] <= 128
    draws = model.monitoring is not None and not unconditional
    n_obs = 0 if model.monitoring is None else model.monitoring.family.shape[0]

    rec_steps = sorted(set(range(0, steps + 1, record_every)) | {steps})
    times = dt * np.asarray(rec_steps, float)
    n_rec = len(rec_steps)
    xs, ys = np.asarray(offdiagonal_pairs, int).reshape(-1, 2).T

    def new_record(seed):
        return TrajectoryRecord(
            seed=seed, times=times, trace=np.empty(n_rec), purity=np.empty(n_rec),
            positions=np.empty((n_rec, model.particles.count)),
            density_means=np.empty((n_rec, n_obs)) if (record_density and n_obs) else None,
            signals=np.empty((n_rec, n_obs)) if (record_signal and n_obs) else None,
            offdiagonals=np.empty((n_rec, len(xs))) if len(xs) else None,
            min_eigenvalue=np.empty(n_rec) if monitor_positivity else None)

    def record(rec, j, istep, state, last_signal):
        p = (state * state.conj()).real if pure else np.diagonal(state).real
        tr = p.sum()
        rec.trace[j] = tr
        # a projector's tr rho^2 is (tr rho)^2: never build rho for a state vector
        rec.purity[j] = 1.0 if pure else np.einsum("xy,yx->", state, state).real / (tr * tr)
        rec.positions[j] = model.position_coordinates @ p / tr
        if rec.density_means is not None:
            rec.density_means[j] = model.monitoring.family @ p
        if rec.signals is not None:
            rec.signals[j] = last_signal if last_signal is not None else model.monitoring.family @ p
        if rec.offdiagonals is not None:
            coherences = state[xs] * state[ys].conj() if pure else state[xs, ys]
            rec.offdiagonals[j] = [abs(v) for v in coherences]
        if rec.min_eigenvalue is not None:
            wmin = float(np.linalg.eigvalsh(state).min())
            rec.min_eigenvalue[j] = wmin
            if wmin < -1e-8:
                rec.positivity_warnings.append((istep, wmin))
        if snapshot_every and (istep % snapshot_every == 0 or istep == steps):
            rec.snapshots.append((istep * dt, state.copy()))

    records = []
    block_bytes = 8 * NOISE_BLOCK * (n_obs + initial.shape[-1]) if draws else 0
    width = max(1, BATCH_BYTES // (initial.nbytes + block_bytes))
    for start in range(0, len(seeds), width):
        batch = [new_record(seed) for seed in seeds[start:start + width]]
        rngs = [np.random.Generator(np.random.Philox(rec.seed)) for rec in batch]
        state = np.broadcast_to(initial, (len(batch),) + initial.shape).copy()
        j = 0
        for i in range(steps + 1):
            if i == 0:
                signal = None
            elif unconditional:
                state, signal = model.advance_unconditional(state, dt, step=i, pure=pure)
            elif not draws:
                state, signal = model.advance(state, dt, None, step=i, pure=pure)
            else:
                b = (i - 1) % NOISE_BLOCK
                if b == 0:
                    noise = np.stack([model.monitoring.sample_noise_flat(
                        dt, rng, (min(NOISE_BLOCK, steps - i + 1),)) for rng in rngs], axis=1)
                    fields = model.monitoring.conditioning_field(noise)
                state, signal = model.advance(state, dt, noise[b], step=i, pure=pure,
                                              field=fields[b])
            if i == rec_steps[j]:
                for k, rec in enumerate(batch):
                    record(rec, j, i, state[k], None if signal is None else signal[k])
                j += 1
        records += batch
    level, frame = 2, sys._getframe(1)  # warn at the first caller outside this module
    while frame.f_globals.get("__name__") == __name__:
        level, frame = level + 1, frame.f_back
    for rec in records:
        if rec.positivity_warnings:
            warnings.warn(
                f"density matrix dipped below the positivity floor at steps "
                f"{[s for s, _ in rec.positivity_warnings][:5]} (min eigenvalue "
                f"{min(w for _, w in rec.positivity_warnings):.2e})", RuntimeWarning,
                stacklevel=level)
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
    seeds = list(seeds)
    acc = np.zeros(rho0.shape, complex)
    for start in range(0, len(seeds), chunk):
        for rec in run_ensemble(rho0, model, dt, steps, seeds[start:start + chunk],
                                record_every=steps, snapshot_every=steps,
                                monitor_positivity=False):
            acc += rec.snapshots[-1][1]
    return acc / len(seeds)
