"""Monitored-gravity model assembly and the contrast baselines.

A built model bundles the many-body Hamiltonian, the monitored mass-density
observables with their correlation kernel, the Newton-potential feedback
operators, and the emergent deterministic back-action potential

    V(x) = (1/2) int dr rho_sigma(r; x) Phi_(sigma)(r; x)

which is independent of the monitoring strength and reduces to the Newton
pair potential between distinct particles (self terms are configuration
independent constants on a periodic lattice).

Model kinds:

    'csl'      delta-correlated monitoring, feedback through the sharp
               Newton potential (no extra smearing).
    'dp'       Coulomb-correlated monitoring (dimensionless strength kappa,
               default 2), feedback through the smeared Newton potential.
    'generic'  explicit kernel choice and smearing flag.
    'sn'       deterministic mean-field sourcing (nonlinear baseline).
    'pair'     plain unitary dynamics with the exact Newton pair potential.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .engine import (FeedbackSpec, MonitoringSpec, _normalize, _step_guard, combined_step,
                     me_step, sse_step)
from .kernels import (CorrelationKernel, axis_profile_3d, coulomb_multiplier,
                      coulomb_potential, smear_multiplier, smeared_point_profile)
from .lattice import (DiagonalField, LatticeGrid, LatticeUnits, ManyBodyHamiltonian,
                      ParticleSet, config_sites, displacement_index,
                      external_potential_diagonal, kinetic_hamiltonian)

MONITORED_KINDS = ("generic", "csl", "dp")
MODEL_KINDS = MONITORED_KINDS + ("sn", "pair")


@dataclass(frozen=True)
class ModelSpec:
    """Parameters selecting one of the monitored-gravity models or a baseline."""

    kind: str
    grid: LatticeGrid
    particles: ParticleSet
    sigma: float = 1.0  # monitoring resolution (lattice length units)
    gamma: float = 1.0  # csl monitoring strength
    kappa: float = 2.0  # dp dimensionless strength (2 minimizes decoherence)
    G: float = 1.0  # gravitational constant (lattice units)
    feedback_smearing: bool | None = None  # None: off for csl, on for dp
    kernel_kind: str | None = None  # generic only: 'csl' or 'dp'
    embedded_3d: bool | None = None  # pair kind on 1d chains: use the 3d kernel on the axis

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind in MONITORED_KINDS:
            if self.sigma <= 0:
                raise ValueError(
                    "monitored models need sigma > 0: the smeared density keeps "
                    "the feedback potential finite")
            if self.gamma <= 0 or self.kappa <= 0:
                raise ValueError("kernel strengths must be positive")
        if self.G < 0:
            raise ValueError("G must be >= 0")
        if self.kind == "pair" and self.particles.count < 2:
            raise ValueError("the pair-potential baseline needs at least 2 particles")
        if self.kind == "generic" and self.kernel_kind not in ("csl", "dp"):
            raise ValueError("generic models must name kernel_kind 'csl' or 'dp'")

    @property
    def resolved_kernel_kind(self) -> str:
        return self.kernel_kind if self.kind == "generic" else self.kind

    @property
    def resolved_feedback_smearing(self) -> bool:
        if self.feedback_smearing is not None:
            return self.feedback_smearing
        return self.resolved_kernel_kind == "dp"


def config_fields(spec: ModelSpec, configs=None) -> tuple[np.ndarray, np.ndarray]:
    """Smeared mass density rho_sigma(.; x) and the Newton potential Phi(.; x)
    it sources, for each configuration x; each of shape (n, *grid.dims).

    configs: optional (n, N) array of per-particle site indices; default is
    every joint configuration.  Phi is slaved to the sharp density and is
    convolved with g_sigma when spec.resolved_feedback_smearing (required
    for the Coulomb-correlated kernel).  The package's one builder of both
    fields: the families, V(x) and the closed-form rates all read it.
    """
    grid, particles = spec.grid, spec.particles
    if configs is None:
        configs = config_sites(grid, particles)
    configs = np.asarray(configs, int).reshape(-1, particles.count)
    shape = (configs.shape[0],) + grid.dims
    profile = smeared_point_profile(grid, spec.sigma).reshape(-1)
    point = smeared_point_profile(grid, 0.0).reshape(-1)
    dens = np.zeros((configs.shape[0], grid.n_sites))
    sharp = np.zeros_like(dens)
    r = np.arange(grid.n_sites)
    for n, m in enumerate(particles.masses):
        shifted = displacement_index(grid, r, configs[:, n, None])  # site of r - x_n
        dens += m * profile[shifted]
        sharp += m * point[shifted]
    mult = coulomb_multiplier(grid, spec.G)
    if spec.resolved_feedback_smearing:
        mult = mult * smear_multiplier(grid, spec.sigma)
    phi = grid.apply_multiplier(sharp.reshape(shape), mult)
    return dens.reshape(shape), np.ascontiguousarray(phi)


def density_family(grid: LatticeGrid, particles: ParticleSet, sigma: float) -> np.ndarray:
    """Diagonal values of the (smeared) mass density at every site.

    Returns F with F[r, x] = sum_n m_n g_sigma(r - x_n) for configuration x;
    sigma = 0 gives the sharp point density.  A view of config_fields.
    """
    # kind 'sn' accepts any sigma; config_fields reads only the field parameters
    dens = config_fields(ModelSpec(kind="sn", grid=grid, particles=particles, sigma=sigma))[0]
    return np.ascontiguousarray(dens.reshape(len(dens), -1).T)


def newton_family(grid: LatticeGrid, particles: ParticleSet, G: float,
                  smeared: bool, sigma: float) -> np.ndarray:
    """Diagonal values of the Newton potential operator at every site, in
    the layout of density_family; a view of config_fields."""
    phi = config_fields(ModelSpec(kind="sn", grid=grid, particles=particles, sigma=sigma,
                                  G=G, feedback_smearing=smeared))[1]
    return np.ascontiguousarray(phi.reshape(len(phi), -1).T)


def build_backaction_hamiltonian(spec: ModelSpec, configs=None) -> DiagonalField:
    """Emergent deterministic potential V(x), evaluated literally per
    configuration: contract the smeared density of x with the potential it
    sources (config_fields; configs as there).  The result never depends on
    the kernel strength parameters gamma and kappa.
    """
    dens, phi = config_fields(spec, configs)
    n = dens.shape[0]
    vals = 0.5 * spec.grid.cell_volume * np.sum(
        dens.reshape(n, -1) * phi.reshape(n, -1), axis=1)
    return DiagonalField(vals)


def kappa_decoherence_coefficient(kappa: float) -> float:
    """Total Coulomb-kernel decoherence coefficient kappa/4 + 1/kappa
    (minimum 1 at kappa = 2, symmetric under kappa -> 4/kappa)."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return kappa / 4.0 + 1.0 / kappa


def pair_potential_diagonal(grid: LatticeGrid, particles: ParticleSet, G: float,
                            embedded_3d: bool) -> np.ndarray:
    """Exact inter-particle Newton pair potential over configurations.

    On 1d chains the 3d-form kernel is evaluated at embedded 3d distances
    (the chain is one axis of a periodic 3d box); otherwise the grid's own
    spectral Coulomb Green function is used.
    """
    if embedded_3d:
        if grid.ndim != 1:
            raise ValueError("embedded_3d applies to 1d chains only")
        w_axis = axis_profile_3d(grid.dims[0], grid.spacing[0],
                                 lambda aux: coulomb_multiplier(aux, G))
    else:
        delta = np.zeros(grid.dims)
        delta[(0,) * grid.ndim] = 1.0 / grid.cell_volume
        w_axis = coulomb_potential(delta, grid, G).reshape(-1)
    sites = config_sites(grid, particles)
    vals = np.zeros(sites.shape[0])
    for n in range(particles.count):
        for p in range(n + 1, particles.count):
            d = displacement_index(grid, sites[:, n], sites[:, p])
            vals += particles.masses[n] * particles.masses[p] * w_axis[d]
    return vals


def dense_hamiltonian(grid: LatticeGrid, particles: ParticleSet, ext: np.ndarray) -> np.ndarray:
    """The many-body H as a dense matrix: kinetic part plus the external
    potential diagonal ext."""
    H = kinetic_hamiltonian(grid, particles)
    if np.any(ext):
        H.reshape(-1)[:: len(ext) + 1] += ext  # same bits as H + diag(ext): H holds no -0.0
    return H


@dataclass
class Model:
    """A fully wired model, shareable across workers.  Its fields are fixed
    at build; the dense Hamiltonian is built on first use."""

    spec: ModelSpec
    hamiltonian_operator: ManyBodyHamiltonian
    monitoring: MonitoringSpec | None
    feedback: FeedbackSpec | None
    backaction: np.ndarray | None
    position_coordinates: np.ndarray  # (n_particles, n_configs), axis-0 coordinate
    pair_potential: np.ndarray | None = None

    @cached_property
    def hamiltonian(self) -> np.ndarray:
        """Dense H, shared with hamiltonian_operator.  Density-matrix steps
        read it; state vectors read it only where einsum is the faster apply."""
        return self.hamiltonian_operator.dense

    @property
    def kind(self) -> str:
        return self.spec.kind

    @property
    def grid(self) -> LatticeGrid:
        return self.spec.grid

    @property
    def particles(self) -> ParticleSet:
        return self.spec.particles

    def advance(self, state: np.ndarray, dt: float, noise, step: int | None = None,
                pure: bool | None = None, field=None):
        """One step; returns (state', signal or None).  Dispatches on the
        model kind and on pure: whether the states, which may carry leading
        batch axes, are state vectors (default: only a 1-d state is).  noise
        is the step's flat signal noise, (..., n_obs); baselines take None.
        field: the step's monitoring.conditioning_field(noise), if known."""
        if pure is None:
            pure = state.ndim == 1
        if self.kind in MONITORED_KINDS:
            spec = self.monitoring
            if pure:
                prob = (state.conj() * state).real
                means = (spec.family @ prob[..., None])[..., 0]
                new = sse_step(state, self.hamiltonian_operator, spec, self.feedback, noise, dt,
                               step=step, field=field)
                return new, means + noise
            signal = spec.means(state) + noise
            new = combined_step(state, self.hamiltonian, spec, self.feedback, noise, dt,
                                step=step, field=field, signal=signal)
            return new, signal
        if self.kind == "sn":
            if not pure:
                raise ValueError("the mean-field baseline evolves state vectors")
            return sn_step(state, self, dt, step=step), None
        # exact pair baseline: plain unitary Euler
        if pure:
            k = self.hamiltonian_operator.apply(state) + self.pair_potential * state
            return _normalize(state - 1j * dt * k, step, "pair step"), None
        return exact_pair_step(state, self, dt, step=step), None

    def advance_unconditional(self, state: np.ndarray, dt: float, step: int | None = None,
                              pure: bool | None = None):
        """Noise-averaged step: the linear master equation for monitored
        kinds, the (already deterministic) baseline step otherwise."""
        if pure is None:
            pure = state.ndim == 1
        if self.kind in MONITORED_KINDS:
            if pure:
                raise ValueError("the unconditional evolution needs a density matrix")
            new = me_step(state, self.hamiltonian, self.monitoring, self.feedback,
                          dt, backaction=self.backaction, step=step)
            return new, self.monitoring.means(new)
        return self.advance(state, dt, None, step=step, pure=pure)


def build_model(spec: ModelSpec) -> Model:
    """Wire monitored observables, kernel, feedback and baselines per spec."""
    grid, particles = spec.grid, spec.particles
    ext = external_potential_diagonal(grid, particles)
    H = ManyBodyHamiltonian(grid, particles, ext, partial(dense_hamiltonian, grid, particles, ext))

    sites = config_sites(grid, particles)
    coords0 = grid.axis_coordinates[0]
    multi0 = np.array(np.unravel_index(np.arange(grid.n_sites), grid.dims))[0]
    pos = np.stack([coords0[multi0[sites[:, n]]] for n in range(particles.count)])

    monitoring = feedback = backaction = pair_diag = None
    if spec.kind in MONITORED_KINDS:
        kk = spec.resolved_kernel_kind
        kernel = CorrelationKernel(kind=kk, grid=grid, gamma=spec.gamma,
                                   kappa=spec.kappa, G=spec.G)
        monitoring = MonitoringSpec(family=density_family(grid, particles, spec.sigma),
                                    kernel=kernel, grid=grid, sigma=spec.sigma)
        smeared = spec.resolved_feedback_smearing
        feedback = FeedbackSpec(family=newton_family(grid, particles, spec.G, smeared, spec.sigma),
                                kernel=kernel, grid=grid, smeared=smeared)
        backaction = feedback.backaction_diagonal(monitoring)
    elif spec.kind == "pair":
        embedded = spec.embedded_3d
        if embedded is None:
            embedded = grid.ndim == 1
        pair_diag = pair_potential_diagonal(grid, particles, spec.G, embedded)

    model = Model(spec=spec, hamiltonian_operator=H, monitoring=monitoring, feedback=feedback,
                  backaction=backaction, position_coordinates=pos, pair_potential=pair_diag)
    if H.dense_is_faster(ext.shape):
        model.hamiltonian  # a single state's apply reads it too: build it with the model
    return model


def mean_density(grid: LatticeGrid, particles: ParticleSet, prob: np.ndarray) -> np.ndarray:
    """<rho(r)> of a configuration distribution: per-particle position
    marginals stacked into a mass density field.  prob may carry leading
    batch axes: (..., n_configs) -> (..., *grid.dims)."""
    sites = config_sites(grid, particles)
    rows = prob.reshape(-1, prob.shape[-1])
    offset = grid.n_sites * np.arange(rows.shape[0])[:, None]  # row b: bins b*M .. b*M+M-1
    dens = np.zeros(rows.shape[0] * grid.n_sites)
    for n, m in enumerate(particles.masses):
        dens += m * np.bincount((sites[:, n] + offset).ravel(), weights=rows.ravel(),
                                minlength=dens.size)
    return dens.reshape(prob.shape[:-1] + grid.dims) / grid.cell_volume


def sn_step(psi: np.ndarray, model: Model, dt: float, step: int | None = None) -> np.ndarray:
    """Mean-field (state-sourced) step: the Newton potential is sourced by
    <rho> of the current state, making the evolution nonlinear in psi.

    Euler step with the resulting single-particle potential; the norm is
    restored exactly afterwards (Euler preserves it to O(dt^2)).  psi may
    carry leading batch axes."""
    grid, particles = model.grid, model.particles
    prob = (psi.conj() * psi).real
    phi = coulomb_potential(mean_density(grid, particles, prob), grid, model.spec.G)
    phi_flat = phi.reshape(prob.shape[:-1] + (-1,))
    sites = config_sites(grid, particles)
    v = np.zeros(prob.shape)
    for n, m in enumerate(particles.masses):
        v += m * phi_flat[..., sites[:, n]]
    knew = model.hamiltonian_operator.apply(psi) + v * psi
    return _normalize(psi - 1j * dt * knew, step, "mean-field step")


def exact_pair_step(rho: np.ndarray, model: Model, dt: float,
                    step: int | None = None) -> np.ndarray:
    """Unitary Euler step with the exact (unsmeared, inter-particle only)
    Newton pair potential; the reference interacting baseline."""
    v = model.pair_potential
    inc = -1j * dt * (model.hamiltonian @ rho - rho @ model.hamiltonian)
    inc = inc - 1j * dt * (v[:, None] - v[None, :]) * rho
    _step_guard(rho, inc, step)
    return rho + inc


# -- documentation-grade physical parameter presets ---------------------------

G_SI = 6.67430e-11  # m^3 kg^-1 s^-2

PRESETS = {
    "grw-csl": {
        "name": "grw-csl",
        "description": "delta-correlated monitoring at the historical strength",
        "sigma_m": 1.0e-7,
        "gamma_over_hbar2_si": 1.0e16,  # m^3 kg^-2 s^-1 (equals 1e16 cm^3 g^-2 s^-1)
        "gamma_note": "gamma ~ hbar^2 x 1e16 cm^3 g^-2 s^-1",
        "kappa": None,
        "G_si": G_SI,
    },
    "dp": {
        "name": "dp",
        "description": "Coulomb-correlated monitoring tied to gravity, kappa = 2",
        "sigma_m": 1.0e-14,
        "gamma_over_hbar2_si": None,
        "gamma_note": "strength fixed by kappa G; no free rate parameter",
        "kappa": 2.0,
        "G_si": G_SI,
    },
}

LATTICE_MAPPING_FORMULA = (
    "with length unit ell (m), mass unit mu (kg) and hbar = 1: "
    "tau = mu ell^2 / hbar;  sigma_lat = sigma / ell;  "
    "G_lat = G mu^3 ell / hbar^2;  gamma_lat = (gamma/hbar^2) mu^3 / (hbar ell)"
)


def preset_lattice_values(preset: dict, length_m: float, mass_kg: float) -> dict:
    """Map a physical preset to dimensionless lattice values."""
    units = LatticeUnits(length_m, mass_kg)
    out = {
        "length_unit_m": length_m,
        "mass_unit_kg": mass_kg,
        "time_unit_s": units.time_s,
        "sigma_lattice": units.length(preset["sigma_m"]),
        "G_lattice": units.gravity_constant(preset["G_si"]),
    }
    if preset["gamma_over_hbar2_si"] is not None:
        out["gamma_lattice"] = units.monitoring_strength(preset["gamma_over_hbar2_si"])
    if preset["kappa"] is not None:
        out["kappa"] = preset["kappa"]
    return out
