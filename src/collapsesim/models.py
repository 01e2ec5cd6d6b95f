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
    'sn'       deterministic mean-field sourcing (nonlinear baseline).
    'pair'     plain unitary dynamics with the exact Newton pair potential.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .engine import (DenseHamiltonian, FeedbackSpec, MonitoringSpec, combined_step,
                     hamiltonian_step, me_step, sse_step)
from .kernels import (CorrelationKernel, axis_coulomb_3d, coulomb_multiplier,
                      coulomb_potential, smear_multiplier, smeared_point_profile)
from .lattice import (DiagonalField, LatticeGrid, LatticeUnits, ManyBodyHamiltonian,
                      ParticleSet, config_sites, displacement_index, kinetic_hamiltonian)

MONITORED_KINDS = ("csl", "dp")
MODEL_KINDS = MONITORED_KINDS + ("sn", "pair")


@dataclass(frozen=True)
class ModelSpec:
    """Parameters selecting one of the monitored-gravity models or a baseline,
    each resolved once, here; a built Model reads them from its spec."""

    kind: str
    grid: LatticeGrid
    particles: ParticleSet
    sigma: float = 1.0  # monitoring resolution (lattice length units)
    gamma: float = 1.0  # csl monitoring strength
    kappa: float = 2.0  # dp dimensionless strength (2 minimizes decoherence)
    G: float = 1.0  # gravitational constant (lattice units)
    feedback_smearing: bool | None = None  # None resolves to off for csl, on for dp

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind in MONITORED_KINDS:
            if not 0 < self.sigma < np.inf:  # nan fails every comparison
                raise ValueError(
                    "monitored models need a finite sigma > 0: the smeared density "
                    "keeps the feedback potential finite")
            self.kernel  # the kernel checks the strengths it reads
        elif not 0 <= self.sigma < np.inf:
            raise ValueError("sigma must be finite and >= 0")
        if not 0 <= self.G < np.inf:
            raise ValueError("G must be finite and >= 0")
        if self.kind == "pair" and self.particles.count < 2:
            raise ValueError("the pair-potential baseline needs at least 2 particles")
        if self.feedback_smearing is None:
            object.__setattr__(self, "feedback_smearing", self.kind == "dp")

    @cached_property
    def kernel(self) -> CorrelationKernel:
        """The monitoring correlation kernel of a monitored kind, built with
        the spec; the model and the closed-form rates both read it."""
        return CorrelationKernel(kind=self.kind, grid=self.grid, gamma=self.gamma,
                                 kappa=self.kappa, G=self.G)


def _field_chunks(spec: ModelSpec, configs: np.ndarray):
    """(slice, density, potential) per chunk of the (n, N) site array
    configs, the fields flat, (c, n_sites); grid.fft_chunks sizes the
    chunks.  Each configuration's gather, sum over particles and FFT reads
    no other configuration, so the fields do not depend on the chunks."""
    grid, particles = spec.grid, spec.particles
    profile = smeared_point_profile(grid, spec.sigma).reshape(-1)
    point = smeared_point_profile(grid, 0.0).reshape(-1)
    mult = coulomb_multiplier(grid, spec.G)
    if spec.feedback_smearing:
        mult = mult * smear_multiplier(grid, spec.sigma)
    r = np.arange(grid.n_sites)
    for sl in grid.fft_chunks(len(configs)):
        dens = np.zeros((sl.stop - sl.start, grid.n_sites))
        sharp = np.zeros_like(dens)
        for n, m in enumerate(particles.masses):
            shifted = displacement_index(grid, r, configs[sl, n, None])  # site of r - x_n
            dens += m * profile[shifted]
            sharp += m * point[shifted]
        phi = grid.apply_multiplier(sharp.reshape((len(dens),) + grid.dims), mult)
        yield sl, dens, phi.reshape(len(dens), -1)


def _sites(spec: ModelSpec, configs) -> np.ndarray:
    """configs as an (n, N) site array; every configuration when None."""
    if configs is None:
        return config_sites(spec.grid, spec.particles)
    return np.asarray(configs, int).reshape(-1, spec.particles.count)


def config_families(spec: ModelSpec, configs=None) -> tuple[np.ndarray, np.ndarray]:
    """Smeared mass density rho_sigma(.; x) and the Newton potential Phi(.; x)
    it sources, in family layout F[r, x] (grid site r, configuration x).

    configs: optional (n, N) array of per-particle site indices; default is
    every joint configuration.  Phi is slaved to the sharp density and is
    convolved with g_sigma when spec.feedback_smearing (required
    for the Coulomb-correlated kernel).  The families, V(x) and the
    closed-form rates all read _field_chunks, the package's one field path.
    """
    configs = _sites(spec, configs)
    dfam = np.empty((spec.grid.n_sites, len(configs)))
    nfam = np.empty_like(dfam)
    for sl, d, p in _field_chunks(spec, configs):
        dfam[:, sl], nfam[:, sl] = d.T, p.T
    return dfam, nfam


def density_family(grid: LatticeGrid, particles: ParticleSet, sigma: float) -> np.ndarray:
    """Diagonal values of the (smeared) mass density at every site.

    Returns F with F[r, x] = sum_n m_n g_sigma(r - x_n) for configuration x;
    sigma = 0 gives the sharp point density.  The density of config_families.
    """
    # kind 'sn' accepts any sigma; the fields read only the field parameters
    return config_families(ModelSpec(kind="sn", grid=grid, particles=particles, sigma=sigma))[0]


def newton_family(grid: LatticeGrid, particles: ParticleSet, G: float,
                  smeared: bool, sigma: float) -> np.ndarray:
    """Diagonal values of the Newton potential operator at every site, in
    the layout of density_family; the potential of config_families."""
    return config_families(ModelSpec(kind="sn", grid=grid, particles=particles,
                                     sigma=sigma, G=G, feedback_smearing=smeared))[1]


def build_backaction_hamiltonian(spec: ModelSpec, configs=None) -> DiagonalField:
    """Emergent deterministic potential V(x), evaluated literally per
    configuration: contract the smeared density of x with the potential it
    sources (config_families; configs as there).  The result never depends on
    the kernel strength parameters gamma and kappa.
    """
    configs = _sites(spec, configs)
    vals = np.empty(len(configs))
    for sl, dens, phi in _field_chunks(spec, configs):
        vals[sl] = 0.5 * spec.grid.cell_volume * np.sum(dens * phi, axis=1)
    return DiagonalField(vals)


def kappa_decoherence_coefficient(kappa: float) -> float:
    """Total Coulomb-kernel decoherence coefficient kappa/4 + 1/kappa
    (minimum 1 at kappa = 2, symmetric under kappa -> 4/kappa)."""
    if not 0 < kappa < np.inf:  # nan fails too
        raise ValueError("kappa must be positive and finite")
    return kappa / 4.0 + 1.0 / kappa


def pair_potential_diagonal(grid: LatticeGrid, particles: ParticleSet, G: float) -> np.ndarray:
    """Exact inter-particle Newton pair potential over configurations.

    The grid picks the Green function: a 1d chain is one axis of a periodic
    3d box and reads the 3d one at embedded distances (axis_coulomb_3d);
    any other grid reads its own spectral one, the potential of a point mass.
    """
    if grid.ndim == 1:
        w_axis = axis_coulomb_3d(grid.dims[0], grid.spacing[0], G)
    else:
        w_axis = coulomb_potential(smeared_point_profile(grid, 0.0), grid, G).reshape(-1)
    sites = config_sites(grid, particles)
    vals = np.zeros(sites.shape[0])
    for n in range(particles.count):
        for p in range(n + 1, particles.count):
            d = displacement_index(grid, sites[:, n], sites[:, p])
            vals += particles.masses[n] * particles.masses[p] * w_axis[d]
    return vals


@dataclass
class Model:
    """A fully wired model, shareable across workers.  Its fields are fixed
    at build.  The dense Hamiltonian is built on first use, and so are its
    complex copy and its symmetry test, on the first density-matrix step
    that reads them (density_hamiltonian)."""

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
        read it; state vectors only where hamiltonian_operator.rows_dense."""
        return self.hamiltonian_operator.dense

    @cached_property
    def density_hamiltonian(self) -> DenseHamiltonian:
        """The dense H as every density-matrix step of the model reads it:
        one complex copy and one symmetry test per model, not per step."""
        return DenseHamiltonian(self.hamiltonian)

    def advance(self, state: np.ndarray, dt: float, noise=None, step: int | None = None, *,
                pure: bool, field=None, tables=None):
        """One step; returns (state', signal or None).  Dispatches on the
        model kind, on noise and on pure: whether the states, which may carry
        leading batch axes, are state vectors.
        noise is the step's flat signal noise, (..., n_obs); on a monitored
        kind None takes the noise-averaged step, the linear master equation,
        whose signal is the observable means of the new density matrix.
        Baselines take None.  field: monitoring.conditioning_field(noise);
        a state-vector step needs it, a density step forms it.  tables:
        combined_step's (rate, sums, hermitian) for a conditional density
        step, as run_ensemble forms them: the state-independent tables of a
        state that the Euler step handles whole, and the run's certificate
        that every state stays exactly Hermitian.  Other steps ignore it."""
        if self.spec.kind in MONITORED_KINDS:
            spec = self.monitoring
            if noise is None:
                if pure:
                    raise ValueError("the unconditional evolution needs a density matrix")
                new = me_step(state, self.density_hamiltonian, spec, self.feedback, dt,
                              backaction=self.backaction, step=step)
                return new, spec.means(new)
            if pure:
                prob = (state.conj() * state).real
                means = (spec.family @ prob[..., None])[..., 0]
                new = sse_step(state, self.hamiltonian_operator, spec, self.feedback, noise, dt,
                               step=step, field=field)
                return new, means + noise
            signal = spec.means(state) + noise
            new = combined_step(state, self.density_hamiltonian, spec, self.feedback, noise, dt,
                                step=step, field=field, signal=signal, tables=tables)
            return new, signal
        if self.spec.kind == "sn":
            if not pure:
                raise ValueError("the mean-field baseline evolves state vectors")
            return sn_step(state, self, dt, step=step), None
        # exact pair baseline: plain unitary Euler
        H = self.hamiltonian_operator if pure else self.density_hamiltonian
        return hamiltonian_step(state, H, self.pair_potential, dt, step), None


def build_model(spec: ModelSpec) -> Model:
    """Wire monitored observables, kernel, feedback and baselines per spec."""
    grid, particles = spec.grid, spec.particles
    H = ManyBodyHamiltonian(grid, particles, partial(kinetic_hamiltonian, grid, particles))

    sites = config_sites(grid, particles)
    coords0 = grid.axis_coordinates[0]
    multi0 = np.array(np.unravel_index(np.arange(grid.n_sites), grid.dims))[0]
    pos = np.stack([coords0[multi0[sites[:, n]]] for n in range(particles.count)])

    monitoring = feedback = backaction = pair_diag = None
    if spec.kind in MONITORED_KINDS:
        dfam, nfam = config_families(spec, sites)
        monitoring = MonitoringSpec(family=dfam, kernel=spec.kernel, grid=grid, sigma=spec.sigma)
        feedback = FeedbackSpec(family=nfam, kernel=spec.kernel, grid=grid)
        backaction = feedback.backaction_diagonal(monitoring)
    elif spec.kind == "pair":
        pair_diag = pair_potential_diagonal(grid, particles, spec.G)

    model = Model(spec=spec, hamiltonian_operator=H, monitoring=monitoring, feedback=feedback,
                  backaction=backaction, position_coordinates=pos, pair_potential=pair_diag)
    if H.rows_dense:
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
    grid, particles = model.spec.grid, model.spec.particles
    prob = (psi.conj() * psi).real
    phi = coulomb_potential(mean_density(grid, particles, prob), grid, model.spec.G)
    phi_flat = phi.reshape(prob.shape[:-1] + (-1,))
    sites = config_sites(grid, particles)
    v = np.zeros(prob.shape)
    for n, m in enumerate(particles.masses):
        v += m * phi_flat[..., sites[:, n]]
    return hamiltonian_step(psi, model.hamiltonian_operator, v, dt, step)


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
