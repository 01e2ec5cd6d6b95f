import hashlib
import tracemalloc
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from collapsesim import (LatticeGrid, MatrixKernel, ParticleSet, build_backaction_hamiltonian,
                         build_model, hamiltonian_step, kappa_decoherence_coefficient,
                         me_step, run_ensemble, sn_step)
from collapsesim import engine, lattice
from collapsesim.engine import FeedbackSpec, MonitoringSpec
from collapsesim.kernels import axis_coulomb_3d
from collapsesim.lattice import config_sites, kinetic_hamiltonian
from collapsesim.models import (MODEL_KINDS, MONITORED_KINDS, ModelSpec, config_families,
                                density_family, mean_density, newton_family,
                                pair_potential_diagonal, preset_lattice_values, PRESETS)

from conftest import random_density_matrix, random_state
from oracles import (expression_pair_step, expression_sn_step, expression_vector_step,
                     kernel_column_chunks, momentum_operator, periodic_coulomb_modesum,
                     smeared_coulomb_profile)


def csl_spec(grid, particles, **kw):
    base = dict(kind="csl", grid=grid, particles=particles, sigma=1.0,
                gamma=1.0, G=1.0)
    base.update(kw)
    return ModelSpec(**base)


class TestBackactionHamiltonian:
    def test_single_particle_constant_on_periodic_grid(self):
        grid = LatticeGrid((8, 8, 8), 1.0)
        spec = csl_spec(grid, ParticleSet([1.3]), sigma=1.2)
        v = build_backaction_hamiltonian(spec)
        assert v.spread() < 1e-10

    def test_strength_independence_bitwise(self):
        grid = LatticeGrid((6, 6, 6), 1.0)
        parts = ParticleSet([1.0])
        builds = [build_backaction_hamiltonian(csl_spec(grid, parts, gamma=g)).values
                  for g in (0.1, 1.0, 10.0)]
        np.testing.assert_array_equal(builds[0], builds[1])
        np.testing.assert_array_equal(builds[0], builds[2])
        kappas = [build_backaction_hamiltonian(
            ModelSpec(kind="dp", grid=grid, particles=parts, sigma=1.0,
                      kappa=k, G=1.0)).values for k in (0.5, 2.0)]
        np.testing.assert_array_equal(kappas[0], kappas[1])

    @pytest.mark.parametrize("kind", ["csl", "dp"])
    def test_three_masses_interact_pairwise(self, kind):
        # V of three particles is the sum of the three two-particle V's minus
        # one set of one-particle self constants: no three-body term and no
        # self term that depends on the configuration
        grid, masses = LatticeGrid((4, 4), 1.0), (0.7, 1.3, 2.1)

        def backaction(*ms):
            spec = ModelSpec(kind=kind, grid=grid, particles=ParticleSet(ms), sigma=1.0, G=1.0)
            return build_backaction_hamiltonian(spec).values

        sites = config_sites(grid, ParticleSet(masses))
        want = -sum(backaction(m)[0] for m in masses)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            want = want + backaction(masses[a], masses[b])[sites[:, a] * grid.n_sites
                                                           + sites[:, b]]
        got = backaction(*masses)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_two_particle_newton_tail(self):
        # d = 8 sigma on a 32^3 box; Ewald-corrected against -G m1 m2 / d
        n, d, G = 32, 8, 1.0
        grid = LatticeGrid((n, n, n), 1.0)
        spec = csl_spec(grid, ParticleSet([1.0, 1.0]), sigma=1.0, G=G)
        v_pair = build_backaction_hamiltonian(
            spec, configs=[[0, grid.site_index((d, 0, 0))]]).values[0]
        v_self = sum(build_backaction_hamiltonian(
            csl_spec(grid, ParticleSet([1.0]), sigma=1.0, G=G),
            configs=[[0]]).values[0] for _ in range(2))
        correction = periodic_coulomb_modesum([d, 0, 0], float(n)) - 1.0 / d
        v_corr = (v_pair - v_self) + G * correction
        assert v_corr == pytest.approx(-G / d, rel=0.02)

    def test_smeared_coulomb_profile_curve(self):
        # quadrature-oracle curve (frozen values) at d = 0, sigma, 2 sigma, ...
        # effective width = sigma: the monitored density carries the smearing,
        # the delta-kernel feedback potential stays sharp
        n, sigma = 32, 2.0
        grid = LatticeGrid((n, n, n), 1.0)
        spec = csl_spec(grid, ParticleSet([1.0, 1.0]), sigma=sigma)
        v_self = 2.0 * build_backaction_hamiltonian(
            csl_spec(grid, ParticleSet([1.0]), sigma=sigma), configs=[[0]]).values[0]
        # frozen from oracles.smeared_coulomb_profile(d, 2.0)
        profile = {0: 0.39894228, 2: 0.34134475, 4: 0.23862493,
                   6: 0.16621670, 8: 0.12499208}
        for d, prof in profile.items():
            cfg = [[0, grid.site_index((d, 0, 0))]]
            v = build_backaction_hamiltonian(spec, configs=cfg).values[0] - v_self
            if d == 0:
                offset = periodic_coulomb_modesum([1e-7, 0, 0], float(n)) - 1.0 / 1e-7
            else:
                offset = periodic_coulomb_modesum([d, 0, 0], float(n)) - 1.0 / d
            v_corr = v + offset  # G = m1 = m2 = 1
            assert v_corr == pytest.approx(-prof, rel=0.01), f"d={d}"
            assert smeared_coulomb_profile(float(max(d, 0)) or 0.0, sigma) == \
                pytest.approx(prof, abs=2e-8)


class TestBuildModel:
    def test_csl_without_gravity_reduces_to_bare_collapse(self, rng):
        grid = LatticeGrid((8,), 1.0)
        parts = ParticleSet([1.0])
        model = build_model(csl_spec(grid, parts, G=0.0))
        assert np.abs(model.feedback.family).max() == 0.0
        assert np.abs(model.backaction).max() == 0.0
        rho = random_density_matrix(rng, 8)
        noise = model.monitoring.sample_noise_flat(1e-3, rng)
        from collapsesim import combined_step, sme_step
        a = combined_step(rho, model.hamiltonian, model.monitoring,
                          model.feedback, noise, 1e-3)
        b = sme_step(rho, model.hamiltonian, model.monitoring, noise, 1e-3)
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_dp_split_and_united_generators_agree(self, rng):
        # Parseval identity: kernel-weighted density double commutators plus
        # inverse-kernel potential double commutators equal the united
        # (kappa/4 + 1/kappa)/(8 pi G) gradient form, exactly on the lattice
        grid = LatticeGrid((4, 4, 4), 1.0)
        spec = ModelSpec(kind="dp", grid=grid, particles=ParticleSet([1.0]),
                         sigma=1.1, kappa=2.0, G=1.0)
        model = build_model(spec)
        split_rate = 0.125 * model.monitoring.pair_rate \
            + 0.5 * model.feedback.pair_rate_inverse
        phi = model.feedback.family.reshape(grid.dims + (-1,))
        F = np.fft.fftn(phi, axes=(0, 1, 2)).reshape(-1, 64)
        w = grid.k_squared.reshape(-1, 1)
        gram = ((w * F).conj().T @ F).real * grid.cell_volume / grid.n_sites
        diag = np.diag(gram)
        united_rate = (kappa_decoherence_coefficient(2.0) / (8.0 * np.pi)
                       * (diag[:, None] + diag[None, :] - gram - gram.T))
        scale = np.abs(split_rate).max()
        for _ in range(20):
            rho = random_density_matrix(rng, 64)
            np.testing.assert_allclose(split_rate * rho, united_rate * rho,
                                       atol=1e-10 * scale)

    def test_dp_kappa_two_doubles_intrinsic_decoherence(self):
        grid = LatticeGrid((4, 4, 4), 1.0)
        spec = ModelSpec(kind="dp", grid=grid, particles=ParticleSet([1.0]),
                         sigma=1.1, kappa=2.0, G=1.0)
        model = build_model(spec)
        total = 0.125 * model.monitoring.pair_rate \
            + 0.5 * model.feedback.pair_rate_inverse
        intrinsic = 0.125 * model.monitoring.pair_rate
        np.testing.assert_allclose(total, 2.0 * intrinsic,
                                   atol=1e-10 * max(1e-300, np.abs(total).max()))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(MODEL_KINDS),
           strengths=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
                              min_size=3, max_size=3))
    def test_strength_rule_is_the_kernels(self, kind, strengths):
        # a spec raises exactly when a strength its kernel reads is 0: csl
        # reads gamma, dp kappa and G, the baselines none; feedback_smearing
        # resolves to kind == "dp" at construction
        gamma, kappa, G = strengths
        make = partial(ModelSpec, kind=kind, grid=LatticeGrid((4,), 1.0),
                       particles=ParticleSet([1.0, 1.0]), gamma=gamma, kappa=kappa, G=G)
        if 0.0 in {"csl": [gamma], "dp": [kappa, G]}.get(kind, []):
            with pytest.raises(ValueError, match="strength"):
                make()
        else:
            assert make() == make(feedback_smearing=kind == "dp")
            assert make().feedback_smearing is (kind == "dp")

    # the settings each kind reads, and whether 0 is in range for it
    ZERO_OK = {("csl", "sigma"): False, ("csl", "gamma"): False, ("csl", "G"): True,
               ("dp", "sigma"): False, ("dp", "kappa"): False, ("dp", "G"): False,
               ("sn", "sigma"): True, ("sn", "G"): True, ("pair", "G"): True}

    @settings(max_examples=120, deadline=None)
    @given(case=st.sampled_from(sorted(ZERO_OK)), data=st.data())
    def test_nonfinite_or_out_of_range_setting_raises(self, case, data):
        # only finite values in range build: nan, +-inf and values below the
        # range raise for every kind that reads the setting (nan compares
        # False both ways, so a check written `x <= 0` lets it through)
        kind, key = case
        below = (st.floats(max_value=-1e-300) if self.ZERO_OK[case]
                 else st.floats(max_value=0.0, allow_nan=False))
        bad = data.draw(st.one_of(st.sampled_from([np.nan, np.inf, -np.inf]), below))
        with pytest.raises(ValueError):
            ModelSpec(kind=kind, grid=LatticeGrid((4,), 1.0), particles=ParticleSet([1.0, 1.0]),
                      **{key: bad})

    def test_monitored_needs_positive_sigma(self):
        grid = LatticeGrid((4,), 1.0)
        with pytest.raises(ValueError, match="sigma"):
            ModelSpec(kind="dp", grid=grid, particles=ParticleSet([1.0]), sigma=0.0)

    def test_one_name_per_model(self):
        # the Python API has no 'generic' kind: a spec's kind names its kernel
        assert MODEL_KINDS == ("csl", "dp", "sn", "pair")
        grid, parts = LatticeGrid((4,), 1.0), ParticleSet([1.0])
        with pytest.raises(ValueError, match="unknown model kind 'generic'"):
            ModelSpec(kind="generic", grid=grid, particles=parts)
        for kind in MONITORED_KINDS:
            spec = ModelSpec(kind=kind, grid=grid, particles=parts)
            assert spec.kernel.kind == kind and spec.kernel is spec.kernel
            assert build_model(spec).monitoring.kernel is spec.kernel


class TestKappaCoefficient:
    def test_minimum_at_two(self):
        assert kappa_decoherence_coefficient(2.0) == pytest.approx(1.0)
        grid = np.linspace(0.2, 6.0, 200)
        vals = [kappa_decoherence_coefficient(k) for k in grid]
        assert min(vals) >= 1.0

    def test_values(self):
        assert kappa_decoherence_coefficient(1.0) == pytest.approx(1.25)
        assert kappa_decoherence_coefficient(4.0) == pytest.approx(1.25)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            kappa_decoherence_coefficient(0.0)


class TestMeanFieldBaseline:
    def test_without_gravity_matches_free_schroedinger(self):
        grid = LatticeGrid((8,), 1.0)
        parts = ParticleSet([1.0])
        model = build_model(ModelSpec(kind="sn", grid=grid, particles=parts, G=0.0))
        psi = np.exp(-((grid.axis_coordinates[0] - 4.0) ** 2) / 4.0).astype(complex)
        psi /= np.linalg.norm(psi)
        out = sn_step(psi, model, 1e-3)
        free = psi - 1e-3 * 1j * (model.hamiltonian @ psi)
        free /= np.linalg.norm(free)
        np.testing.assert_allclose(out, free, atol=1e-14)

    def test_self_attraction_versus_monitored_model(self):
        # asymmetric packet: the state-sourced potential pulls <x> away from
        # the free trajectory, while the monitored model's back-action
        # potential (a configuration constant) exerts no self force at all:
        # zeroing it does not change the evolution
        grid = LatticeGrid((16,), 1.0)
        parts = ParticleSet([1.0])
        x = grid.axis_coordinates[0]
        psi0 = (0.9 * np.exp(-((x - 5.0) ** 2) / 4.0)
                + 0.45 * np.exp(-((x - 10.0) ** 2) / 4.0)).astype(complex)
        psi0 /= np.linalg.norm(psi0)
        dt, steps, G = 1e-4, 4000, 0.3

        model_sn = build_model(ModelSpec(kind="sn", grid=grid, particles=parts, G=G))
        model_free = build_model(ModelSpec(kind="sn", grid=grid, particles=parts, G=0.0))
        mon = build_model(csl_spec(grid, parts, sigma=1.0, gamma=1.0, G=G))

        psi_sn, psi_free = psi0.copy(), psi0.copy()
        rho_me = np.outer(psi0, psi0.conj())
        rho_me_novg = rho_me.copy()
        zero_vg = np.zeros_like(mon.backaction)
        for i in range(steps):
            psi_sn = sn_step(psi_sn, model_sn, dt)
            psi_free = sn_step(psi_free, model_free, dt)
            rho_me = me_step(rho_me, mon.hamiltonian, mon.monitoring, mon.feedback,
                             dt, backaction=mon.backaction)
            rho_me_novg = me_step(rho_me_novg, mon.hamiltonian, mon.monitoring,
                                  mon.feedback, dt, backaction=zero_vg)
        x_sn = float(x @ (np.abs(psi_sn) ** 2))
        x_free = float(x @ (np.abs(psi_free) ** 2))
        x_me = float(np.real(np.diag(rho_me)) @ x)
        x_me_novg = float(np.real(np.diag(rho_me_novg)) @ x)
        assert abs(x_me - x_me_novg) < 1e-12  # no self force from the potential
        assert abs(x_sn - x_free) > 1e-4  # mean-field sourcing pulls on itself

    def test_ensemble_nonlinearity_witness(self):
        # two pure-state decompositions of one density matrix evolve to
        # different averages under state sourcing but the same under me_step
        grid = LatticeGrid((12,), 1.0)
        parts = ParticleSet([1.0])
        x = grid.axis_coordinates[0]
        a = np.exp(-((x - 3.0) ** 2) / 2.0).astype(complex)
        b = np.exp(-((x - 9.0) ** 2) / 2.0).astype(complex)
        a /= np.linalg.norm(a)
        b = b - (a.conj() @ b) * a
        b /= np.linalg.norm(b)
        plus, minus = (a + b) / np.sqrt(2), (a - b) / np.sqrt(2)

        model_sn = build_model(ModelSpec(kind="sn", grid=grid, particles=parts, G=0.5))
        dt, steps = 1e-4, 3000

        def evolve_avg(members):
            avg = np.zeros((12, 12), complex)
            for w, psi in members:
                s = psi.copy()
                for _ in range(steps):
                    s = sn_step(s, model_sn, dt)
                avg += w * np.outer(s, s.conj())
            return avg

        avg_mix = evolve_avg([(0.5, a), (0.5, b)])
        avg_sup = evolve_avg([(0.5, plus), (0.5, minus)])
        dist_sn = 0.5 * np.abs(np.linalg.eigvalsh(avg_mix - avg_sup)).sum()

        mon = build_model(csl_spec(grid, parts, G=0.5, sigma=1.0))
        rho = 0.5 * (np.outer(a, a.conj()) + np.outer(b, b.conj()))
        r1, r2 = rho.copy(), (0.5 * (np.outer(plus, plus.conj())
                                     + np.outer(minus, minus.conj())))
        for _ in range(steps):
            r1 = me_step(r1, mon.hamiltonian, mon.monitoring, mon.feedback, dt,
                         backaction=mon.backaction)
            r2 = me_step(r2, mon.hamiltonian, mon.monitoring, mon.feedback, dt,
                         backaction=mon.backaction)
        dist_me = 0.5 * np.abs(np.linalg.eigvalsh(r1 - r2)).sum()
        assert dist_me < 1e-10
        assert dist_sn > 0.1  # ensemble-distinguishable under state sourcing


class TestExactPairBaseline:
    def test_total_momentum_conserved(self):
        # conserved up to Umklapp leakage of the packet tails at the zone
        # boundary (the pair potential conserves lattice momentum mod 2 pi/a)
        grid = LatticeGrid((16,), 1.0)
        parts = ParticleSet([1.0, 1.5])
        model = build_model(ModelSpec(kind="pair", grid=grid, particles=parts, G=0.3))
        x = grid.axis_coordinates[0]
        p1 = np.exp(-((x - 4.0) ** 2) / 8.0 + 0.4j * x)
        p2 = np.exp(-((x - 11.0) ** 2) / 8.0 - 0.3j * x)
        psi = np.kron(p1, p2).astype(complex)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        P = momentum_operator(grid, parts)
        p_series = []
        for _ in range(50):
            p_series.append(np.trace(P @ rho).real)
            rho = hamiltonian_step(rho, model.hamiltonian, model.pair_potential, 1e-3)
            rho /= np.trace(rho).real
        assert np.abs(np.diff(p_series)).max() < 1e-8

    def test_matches_backaction_interparticle_tail(self):
        # far apart, the emergent potential equals the exact pair potential
        # up to the sharp kernel's own lattice ringing (a few percent at
        # mid-range distances, same budget as the bare point-mass test)
        from collapsesim import coulomb_potential

        n, sigma, d = 48, 1.0, 8
        grid = LatticeGrid((n, n, n), 1.0)
        parts = ParticleSet([1.0, 2.0])
        spec = ModelSpec(kind="csl", grid=grid, particles=parts, sigma=sigma, G=1.0)
        cfg = [0, grid.site_index((d, 0, 0))]
        v_ba = build_backaction_hamiltonian(spec, configs=[cfg]).values[0]
        v_self = sum(build_backaction_hamiltonian(
            ModelSpec(kind="csl", grid=grid, particles=ParticleSet([m]),
                      sigma=sigma, G=1.0), configs=[[0]]).values[0]
            for m in parts.masses)
        delta = np.zeros(grid.dims)
        delta[0, 0, 0] = 1.0 / grid.cell_volume
        pair_d = parts.masses[0] * parts.masses[1] * coulomb_potential(
            delta, grid, 1.0)[d, 0, 0]
        assert pair_d == pytest.approx(v_ba - v_self, rel=0.05)

    def test_chain_reads_the_embedded_3d_green_function(self):
        # a chain is one axis of a periodic 3d box: each pair of particles
        # adds m_n m_p times the 3d Coulomb potential at their distance
        grid, G = LatticeGrid((9,), 0.8), 0.6
        parts = ParticleSet([1.0, 2.0, 0.5])
        model = build_model(ModelSpec(kind="pair", grid=grid, particles=parts, G=G))
        w = axis_coulomb_3d(9, 0.8, G)
        expected = [sum(parts.masses[n] * parts.masses[q] * w[(x[n] - x[q]) % 9]
                        for n in range(3) for q in range(n + 1, 3))
                    for x in config_sites(grid, parts)]
        np.testing.assert_allclose(model.pair_potential, expected, rtol=1e-14, atol=0)

    def test_grid_reads_its_own_green_function(self):
        # any other grid: the pair potential is the grid's own Coulomb
        # potential of a point mass, read at the particles' displacement
        from collapsesim import coulomb_potential

        grid, G = LatticeGrid((6, 5), (1.0, 0.7)), 0.6
        parts = ParticleSet([1.0, 2.0])
        model = build_model(ModelSpec(kind="pair", grid=grid, particles=parts, G=G))
        point = np.zeros(grid.dims)
        point[0, 0] = 1.0 / grid.cell_volume
        phi = coulomb_potential(point, grid, G)
        expected = []
        for a, b in config_sites(grid, parts):
            (ia, ja), (ib, jb) = np.unravel_index(a, grid.dims), np.unravel_index(b, grid.dims)
            expected.append(2.0 * phi[(ia - ib) % 6, (ja - jb) % 5])
        np.testing.assert_allclose(model.pair_potential, expected, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("dims, spacing, masses, digest", [
        ((16,), 1.0, (1.0, 1.5),
         "ba1d13cbe1f1b7490976100a9ae15ff842b6d10328e26fc13ff50bb827e3cf0b"),
        ((12,), 0.7, (1.0, 0.5, 2.0),
         "8833ce409b9d509e776872c4cddd2d74c6dbf0a2fe0cf8b55d146f8d1680777c"),
        ((6, 5), 1.0, (1.0, 2.0),
         "37b3ec8b8b307531200befaf2fe16983909c723a30a1ff14c9570138b05c492a"),
        ((4, 4, 4), 1.0, (1.0, 1.0),
         "f6f5381323e502c2ec50bdd3d175b187cc27687ae5efd3520ba18680698d54a9"),
    ], ids=["chain-16", "chain-12-three", "grid-6x5", "grid-4x4x4"])
    def test_pair_potential_bytes(self, dims, spacing, masses, digest):
        # pinned: the diagonal's bytes at G = 0.8, recorded before the Green
        # function was chosen from the grid alone
        vals = pair_potential_diagonal(LatticeGrid(dims, spacing), ParticleSet(list(masses)), 0.8)
        assert hashlib.sha256(vals.tobytes()).hexdigest() == digest

    def test_without_gravity_is_free(self, rng):
        grid = LatticeGrid((6,), 1.0)
        parts = ParticleSet([1.0, 1.0])
        model = build_model(ModelSpec(kind="pair", grid=grid, particles=parts, G=0.0))
        rho = random_density_matrix(rng, 36)
        out = hamiltonian_step(rho, model.hamiltonian, model.pair_potential, 1e-3)
        H = model.hamiltonian
        np.testing.assert_allclose(out, rho - 1j * 1e-3 * (H @ rho - rho @ H),
                                   atol=1e-14)


# (grid dims, particle count): n_cfg from 4 to 144 on chains and 2-d grids
BASELINE_GRIDS = [((2,), 2), ((3,), 2), ((5,), 2), ((8,), 2), ((12,), 2), ((2,), 3), ((3,), 3),
                  ((5,), 3), ((2, 2), 2), ((2, 3), 2), ((3, 3), 2), ((3, 4), 2), ((2, 2), 3)]


class TestBaselineStepBytes:
    """The density and pure pair steps of Model.advance and sn_step all run
    through engine.hamiltonian_step; each must give the bytes of its
    chained-expression form, with no input modified.  Density matrices up
    to n_cfg 90 take _euler's whole-state path, larger ones its blocks of
    rows; exactly Hermitian ones above REAL_SPLIT_MAX_N take one product."""

    @pytest.mark.parametrize("step", ["advance_density", "advance_pure", "sn_step"])
    @settings(max_examples=25, deadline=None)
    @given(grid=st.sampled_from(BASELINE_GRIDS), batch=st.sampled_from([(), (3,)]),
           state=st.sampled_from(["hermitian", "nonhermitian", "real"]),
           G=st.floats(0.05, 2.0), seed=st.integers(0, 2**32 - 1))
    @example(grid=((2,), 2), batch=(), state="nonhermitian", G=0.3, seed=1)
    @example(grid=((12,), 2), batch=(), state="nonhermitian", G=0.3, seed=2)
    @example(grid=((3, 4), 2), batch=(3,), state="hermitian", G=0.3, seed=3)
    def test_bitwise_equal_to_expression_form(self, step, grid, batch, state, G, seed):
        dims, count = grid
        kind = "sn" if step == "sn_step" else "pair"
        model = build_model(ModelSpec(kind=kind, grid=LatticeGrid(dims, 1.0),
                                      particles=ParticleSet([1.0, 1.5, 0.7][:count]), G=G))
        n = model.spec.grid.n_sites ** count
        rng = np.random.default_rng(seed)
        shape = batch + ((n, n) if step == "advance_density" else (n,))
        x = rng.standard_normal(shape)
        if state != "real":
            x = x + 1j * rng.standard_normal(shape)
        if state == "hermitian" and step == "advance_density":
            x = x + x.conj().swapaxes(-1, -2)  # exactly Hermitian
        before = x.tobytes()
        # the increment stays near 2% of the state: quiet guards, every bit reaches it
        v = model.pair_potential if kind == "pair" else np.zeros(1)
        dt = 0.02 / (2.0 * np.abs(model.hamiltonian).sum(axis=1).max() + np.ptp(v) + 1e-3)
        if step == "advance_density":
            got, signal = model.advance(x, dt, None, step=1, pure=False)
            assert signal is None
            want = expression_pair_step(x, model, dt)
            direct = hamiltonian_step(x, model.hamiltonian, model.pair_potential, dt, step=1)
            assert direct.tobytes() == want.tobytes()
        elif step == "advance_pure":
            got, signal = model.advance(x, dt, None, step=1, pure=True)
            assert signal is None
            want = expression_vector_step(x, model.hamiltonian_operator, v, dt)
        else:
            got, want = sn_step(x, model, dt, step=1), expression_sn_step(x, model, dt)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert x.tobytes() == before


class TestTwoParticlePureDigests:
    # frozen SHA-256 of the records and final states of two-particle
    # state-vector runs, which step through the per-particle apply of H
    @staticmethod
    def digest(records):
        h = hashlib.sha256()
        for rec in records:
            for name in ("times", "trace", "purity", "positions", "signals", "offdiagonals"):
                value = getattr(rec, name)
                if value is not None:
                    h.update(np.ascontiguousarray(value).tobytes())
            h.update(rec.snapshots[-1][1].tobytes())
        return h.hexdigest()

    grid = LatticeGrid((6, 6), 1.0)

    def test_monitored_dp(self):
        model = build_model(ModelSpec(kind="dp", grid=self.grid, particles=ParticleSet([1.0, 2.5]),
                                      sigma=1.0, kappa=2.0, G=0.05))
        psi = random_state(np.random.default_rng(1), 1296)
        recs = run_ensemble(psi, model, 1e-3, 5, [3, 4], record_signal=True,
                            offdiagonal_pairs=[(0, 1), (5, 700)], snapshot_every=5)
        assert self.digest(recs) == (
            "cf96ebcbfe9277d5d67b6536fceff46d6bc2a9b118b89222bc8ae3343bbb5aef")

    def test_mean_field(self):
        model = build_model(ModelSpec(kind="sn", grid=self.grid,
                                      particles=ParticleSet([1.0, 1.0]), G=0.5))
        psi = random_state(np.random.default_rng(2), 1296)
        recs = run_ensemble(psi, model, 1e-3, 5, [0], snapshot_every=5)
        assert self.digest(recs) == (
            "6194e0477648540cec292af6de4e5fda1d2aabe78791ac570f69a85ef4554d35")

    def test_pair(self):
        model = build_model(ModelSpec(kind="pair", grid=self.grid, G=0.5,
                                      particles=ParticleSet([1.0, 2.0])))
        psi = random_state(np.random.default_rng(3), 1296)
        recs = run_ensemble(psi, model, 1e-3, 5, [0], snapshot_every=5)
        assert self.digest(recs) == (
            "558a6887ce7bff82c7f6fdbe003c715b21da4a9861ac45a04f8f664d4cc9a4d3")


class TestConfigFields:
    @settings(max_examples=40, deadline=None)
    @given(dims=st.lists(st.integers(2, 4), min_size=1, max_size=3),
           spacing=st.floats(0.5, 2.0),
           masses=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=2),
           sigma=st.floats(0.1, 2.0), G=st.floats(0.0, 3.0), smeared=st.booleans(),
           data=st.data())
    def test_one_path_bitwise(self, dims, spacing, masses, sigma, G, smeared, data):
        # the families are config_families' (build_model's from one call),
        # any subset of columns has the bits of the full batch, and V(x)
        # does not depend on the batch
        grid, parts = LatticeGrid(dims, spacing), ParticleSet(masses)
        spec = ModelSpec(kind="csl", grid=grid, particles=parts, sigma=sigma, G=G,
                         feedback_smearing=smeared)
        n_cfg = grid.n_sites ** parts.count
        idx = data.draw(st.lists(st.integers(0, n_cfg - 1), min_size=1, max_size=6))
        configs = config_sites(grid, parts)[idx]
        dens, phi = config_families(spec, configs)
        assert dens.shape == phi.shape == (grid.n_sites, len(idx))
        assert dens.flags.c_contiguous and phi.flags.c_contiguous
        dfam = density_family(grid, parts, sigma)
        nfam = newton_family(grid, parts, G, smeared, sigma)
        assert dfam.flags.c_contiguous and nfam.flags.c_contiguous
        assert dens.tobytes() == np.ascontiguousarray(dfam[:, idx]).tobytes()
        assert phi.tobytes() == np.ascontiguousarray(nfam[:, idx]).tobytes()
        model = build_model(spec)
        assert model.monitoring.family.tobytes() == dfam.tobytes()
        assert model.feedback.family.tobytes() == nfam.tobytes()
        batched = build_backaction_hamiltonian(spec, configs).values
        single = [build_backaction_hamiltonian(spec, [c]).values[0] for c in configs]
        assert batched.tobytes() == np.array(single).tobytes()


class TestChunks:
    @staticmethod
    def tables(spec, configs):
        model = build_model(spec)
        out = [*config_families(spec), *config_families(spec, configs),
               density_family(spec.grid, spec.particles, spec.sigma),
               newton_family(spec.grid, spec.particles, spec.G,
                             spec.feedback_smearing, spec.sigma),
               model.monitoring.family, model.feedback.family, model.backaction,
               build_backaction_hamiltonian(spec).values, model.monitoring.self_quadratic]
        if len(model.backaction) <= 1024:  # (n_cfg, n_cfg) tables
            out += [model.monitoring.pair_rate, model.feedback.pair_rate_inverse]
        return [a.tobytes() for a in out]

    # per_chunk counts configurations per chunk in units that keep a draw
    # to at most 64 chunks: a chunk costs about 1.5 ms, so two particles on
    # 4^3 (4,096 configurations) at one configuration per chunk take 3 s.
    # That largest case is also the explicit example, which every run checks.
    @settings(max_examples=30, deadline=None)
    @given(dims=st.lists(st.integers(2, 4), min_size=1, max_size=3),
           count=st.integers(1, 2), kind=st.sampled_from(["csl", "dp"]),
           sigma=st.floats(0.1, 2.0), smeared=st.booleans(), per_chunk=st.integers(1, 5),
           idx=st.lists(st.integers(0, 4095), min_size=1, max_size=6))
    @example(dims=[4, 4, 4], count=2, kind="dp", sigma=1.0, smeared=True, per_chunk=5,
             idx=[0, 1365, 4095])
    def test_tables_do_not_depend_on_chunk_size(self, dims, count, kind, sigma, smeared,
                                                per_chunk, idx):
        grid = LatticeGrid(dims, 1.0)
        spec = ModelSpec(kind=kind, grid=grid, particles=ParticleSet([1.0, 2.5][:count]),
                         sigma=sigma, G=0.7, feedback_smearing=smeared)
        n_cfg = grid.n_sites**count
        configs = config_sites(grid, spec.particles)[np.remainder(idx, n_cfg)]
        default = self.tables(spec, configs)
        # per_chunk units of configurations or kernel columns per chunk
        unit = -(-n_cfg // 64)
        with mock.patch.object(lattice, "FFT_CHUNK_BYTES", 16 * grid.n_sites * per_chunk * unit):
            assert self.tables(spec, configs) == default

    @settings(max_examples=30, deadline=None)
    @given(dims=st.lists(st.integers(2, 4), min_size=1, max_size=3),
           count=st.integers(1, 2), kind=st.sampled_from(["csl", "dp", "matrix"]),
           sigma=st.floats(0.1, 2.0), smeared=st.booleans(),
           per_chunk=st.sampled_from([None, 1, 2, 5]), seed=st.integers(0, 2**32 - 1))
    def test_kernel_columns_match_reference(self, dims, count, kind, sigma, smeared,
                                            per_chunk, seed):
        # the rate tables and self_quadratic against those that the reference
        # column path builds, bit for bit, at any chunk size
        grid = LatticeGrid(dims, 1.0)
        assume(grid.n_sites ** count <= 1024)  # (n_cfg, n_cfg) tables
        if kind == "matrix":
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((4, 4))
            kernel = MatrixKernel(a @ a.T + 0.5 * np.eye(4))
            mon = MonitoringSpec(family=rng.standard_normal((4, 6)), kernel=kernel)
            fb = FeedbackSpec(family=rng.standard_normal((4, 6)), kernel=kernel)
        else:
            model = build_model(ModelSpec(kind=kind, grid=grid,
                                          particles=ParticleSet([1.0, 2.5][:count]),
                                          sigma=sigma, G=0.7, feedback_smearing=smeared))
            mon, fb = model.monitoring, model.feedback
        chunk = lattice.FFT_CHUNK_BYTES if per_chunk is None else 16 * grid.n_sites * per_chunk
        with mock.patch.object(lattice, "FFT_CHUNK_BYTES", chunk):
            got = [mon.pair_rate, fb.pair_rate_inverse, mon.self_quadratic]
            with mock.patch.object(engine._DiagonalFamily, "_kernel_column_chunks",
                                   kernel_column_chunks):
                ref_mon, ref_fb = replace(mon), replace(fb)  # no cached tables
                want = [ref_mon.pair_rate, ref_fb.pair_rate_inverse, ref_mon.self_quadratic]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_set_up_memory_within_families(self):
        # two particles on 8x8 (n_cfg 4096): building the model and its
        # self_quadratic holds chunks of the fields, not whole copies
        spec = ModelSpec(kind="dp", grid=LatticeGrid((8, 8)), particles=ParticleSet([1.0, 1.0]),
                         sigma=1.0, G=0.05, feedback_smearing=True)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model = build_model(spec)
            model.monitoring.self_quadratic
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        families = model.monitoring.family.nbytes + model.feedback.family.nbytes
        assert peak <= families + 2 * 2**20


class TestDensityFamily:
    def test_total_mass_every_configuration(self):
        grid = LatticeGrid((6,), 1.0)
        parts = ParticleSet([1.0, 2.5])
        fam = density_family(grid, parts, sigma=1.0)
        totals = fam.sum(axis=0) * grid.cell_volume
        np.testing.assert_allclose(totals, sum(parts.masses), rtol=1e-12)

    def test_mean_density_from_marginals(self, rng):
        grid = LatticeGrid((5,), 1.0)
        parts = ParticleSet([1.0, 2.0])
        prob = rng.random(25)
        prob /= prob.sum()
        dens = mean_density(grid, parts, prob)
        fam = density_family(grid, parts, sigma=0.0)
        np.testing.assert_allclose(dens.reshape(-1), fam @ prob, atol=1e-12)


class TestPresets:
    def test_grw_sigma_meters(self):
        assert PRESETS["grw-csl"]["sigma_m"] == pytest.approx(1e-7)

    def test_dp_sigma_meters(self):
        assert PRESETS["dp"]["sigma_m"] == pytest.approx(1e-14)

    def test_lattice_conversion_roundtrip(self):
        vals = preset_lattice_values(PRESETS["grw-csl"], length_m=1e-7,
                                     mass_kg=1.66053906892e-27)
        assert vals["sigma_lattice"] == pytest.approx(1.0)
        # G_lat = G mu^3 ell / hbar^2
        expect = 6.67430e-11 * (1.66053906892e-27) ** 3 * 1e-7 / (1.054571817e-34) ** 2
        assert vals["G_lattice"] == pytest.approx(expect, rel=1e-9)


@st.composite
def claim_specs(draw, kinds=MONITORED_KINDS):
    """A random monitored model: a 1-d chain or a 2-d grid of 4-7 sites per
    axis, 2-3 particles of mass 0.5-2, sigma 0.3-1.5 and G 0.1-2, with at
    most 1,024 configurations."""
    count = draw(st.integers(2, 3))
    ndim = draw(st.integers(1, 2)) if count == 2 else 1  # 2-d, 3 particles: 4096+
    dims = draw(st.lists(st.integers(4, 7), min_size=ndim, max_size=ndim))
    assume(int(np.prod(dims)) ** count <= 1024)
    masses = draw(st.lists(st.floats(0.5, 2.0), min_size=count, max_size=count))
    return ModelSpec(kind=draw(st.sampled_from(kinds)), grid=LatticeGrid(tuple(dims), 1.0),
                     particles=ParticleSet(masses, kinetic=[False] * count),
                     sigma=draw(st.floats(0.3, 1.5)), G=draw(st.floats(0.1, 2.0)),
                     gamma=draw(st.floats(0.1, 3.0)), kappa=draw(st.floats(0.2, 8.0)))


class TestPaperClaims:
    """The paper's claims as properties over random models, beside the
    acceptance gate's hand-picked ones."""

    @settings(max_examples=40, deadline=None)
    @given(spec=claim_specs())
    def test_emergent_potential_is_the_newton_pair_potential(self, spec):
        # the emergent V(x) is the sum of pair terms m_i m_j W(x_i - x_j),
        # W the potential of two unit masses at displacement d relative to
        # d = 0; what is left is one constant: no self-interaction
        grid, masses = spec.grid, spec.particles.masses
        v = build_backaction_hamiltonian(spec).values
        pair = replace(spec, particles=ParticleSet([1.0, 1.0]))
        w = build_backaction_hamiltonian(
            pair, configs=[[0, d] for d in range(grid.n_sites)]).values
        w = w - w[0]
        sites = config_sites(grid, spec.particles)
        pairs = sum(masses[i] * masses[j] * w[lattice.displacement_index(grid, sites[:, i],
                                                                         sites[:, j])]
                    for i in range(len(masses)) for j in range(i + 1, len(masses)))
        rest = v - pairs
        assert np.ptp(rest) <= 1e-13 * np.abs(v).max()

    @settings(max_examples=40, deadline=None)
    @given(spec=claim_specs())
    def test_emergent_potential_is_independent_of_monitoring_strength(self, spec):
        # V does not read gamma or kappa: the same bytes at 3.7 gamma, 0.3 kappa
        v = build_model(spec).backaction
        scaled = replace(spec, gamma=3.7 * spec.gamma, kappa=0.3 * spec.kappa)
        assert build_model(scaled).backaction.tobytes() == v.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(kappa=st.floats(0.2, 10.0), sigma=st.floats(0.3, 1.5), G=st.floats(0.1, 2.0))
    def test_dp_rates_unify_with_kappa(self, kappa, sigma, G):
        # on a dp chain the total rate 0.125 R + 0.5 R^-1 is (kappa/4 +
        # 1/kappa) times its value at kappa = 2: intrinsic over back-action
        # is kappa^2 / 4, so at kappa = 2 feedback doubles decoherence
        def total(k):
            model = build_model(ModelSpec(kind="dp", grid=LatticeGrid((8,), 1.0),
                                          particles=ParticleSet([1.0]), sigma=sigma,
                                          kappa=k, G=G))
            return 0.125 * model.monitoring.pair_rate + 0.5 * model.feedback.pair_rate_inverse

        at_two = total(2.0)
        np.testing.assert_allclose(total(kappa), kappa_decoherence_coefficient(kappa) * at_two,
                                   rtol=0, atol=1e-13 * np.abs(at_two).max())
