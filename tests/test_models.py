import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collapsesim import (LatticeGrid, ParticleSet, build_backaction_hamiltonian,
                         build_model, exact_pair_step, expectation,
                         kappa_decoherence_coefficient, me_step, run_ensemble, sn_step)
from collapsesim.lattice import (config_sites, external_potential_diagonal,
                                kinetic_hamiltonian)
from collapsesim.models import (ModelSpec, config_fields, density_family, mean_density,
                                newton_family, pair_potential_diagonal,
                                preset_lattice_values, PRESETS)

from conftest import random_density_matrix, random_state
from oracles import momentum_operator, periodic_coulomb_modesum, smeared_coulomb_profile


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

    def test_monitored_needs_positive_sigma(self):
        grid = LatticeGrid((4,), 1.0)
        with pytest.raises(ValueError, match="sigma"):
            ModelSpec(kind="dp", grid=grid, particles=ParticleSet([1.0]), sigma=0.0)

    def test_generic_kind_explicit_kernel_choice(self):
        grid = LatticeGrid((6,), 1.0)
        parts = ParticleSet([1.0])
        gen = build_model(ModelSpec(kind="generic", kernel_kind="csl", grid=grid,
                                    particles=parts, sigma=1.0, gamma=0.7, G=0.2))
        ref = build_model(csl_spec(grid, parts, gamma=0.7, G=0.2))
        np.testing.assert_array_equal(gen.monitoring.pair_rate, ref.monitoring.pair_rate)
        np.testing.assert_array_equal(gen.feedback.family, ref.feedback.family)
        # the optional smearing flag overrides the kernel default
        smeared = build_model(ModelSpec(kind="generic", kernel_kind="csl",
                                        grid=grid, particles=parts, sigma=1.0,
                                        gamma=0.7, G=0.2, feedback_smearing=True))
        assert smeared.feedback.smeared
        assert np.abs(smeared.feedback.family - ref.feedback.family).max() > 1e-6

    def test_generic_requires_kernel_kind(self):
        grid = LatticeGrid((4,), 1.0)
        with pytest.raises(ValueError, match="kernel_kind"):
            ModelSpec(kind="generic", grid=grid, particles=ParticleSet([1.0]),
                      sigma=1.0)


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
            rho = exact_pair_step(rho, model, 1e-3)
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

    def test_pair_diagonal_matches_backaction_on_chain(self):
        # same comparison through the full diagonal on a dense-friendly chain
        grid = LatticeGrid((16,), 1.0)
        parts = ParticleSet([1.0, 1.0])
        pair = pair_potential_diagonal(grid, parts, G=1.0, embedded_3d=False)
        assert pair.shape == (256,)
        flat = 0 * 16 + 5
        delta = np.zeros(16)
        delta[0] = 1.0
        from collapsesim import coulomb_potential
        np.testing.assert_allclose(pair[flat], coulomb_potential(delta, grid, 1.0)[5],
                                   atol=1e-12)

    def test_without_gravity_is_free(self, rng):
        grid = LatticeGrid((6,), 1.0)
        parts = ParticleSet([1.0, 1.0])
        model = build_model(ModelSpec(kind="pair", grid=grid, particles=parts, G=0.0))
        rho = random_density_matrix(rng, 36)
        out = exact_pair_step(rho, model, 1e-3)
        H = model.hamiltonian
        np.testing.assert_allclose(out, rho - 1j * 1e-3 * (H @ rho - rho @ H),
                                   atol=1e-14)


class TestExternalPotential:
    def test_external_field_enters_hamiltonian_diagonal(self):
        grid = LatticeGrid((6,), 1.0)
        vext = np.linspace(0.0, 1.0, 6)
        parts = ParticleSet([1.0], kinetic=[False], external=[vext])
        model = build_model(ModelSpec(kind="sn", grid=grid, particles=parts, G=0.0))
        np.testing.assert_allclose(np.diag(model.hamiltonian), vext, atol=1e-14)
        np.testing.assert_allclose(model.hamiltonian - np.diag(vext), 0.0,
                                   atol=1e-14)

    def test_two_particle_external_sums_per_slot(self):
        grid = LatticeGrid((3,), 1.0)
        v1 = np.array([0.0, 1.0, 2.0])
        v2 = np.array([10.0, 20.0, 30.0])
        parts = ParticleSet([1.0, 1.0], kinetic=[False, False], external=[v1, v2])
        model = build_model(ModelSpec(kind="pair", grid=grid, particles=parts,
                                      G=0.0))
        diag = np.diag(model.hamiltonian)
        from collapsesim.lattice import config_sites
        sites = config_sites(grid, parts)
        expect = v1[sites[:, 0]] + v2[sites[:, 1]]
        np.testing.assert_allclose(diag, expect, atol=1e-14)

    def test_in_place_diagonal_bitwise(self):
        # kinetic particles with an external potential each: H is the kinetic
        # matrix plus diag(ext) bit for bit, zero signs included
        grid = LatticeGrid((4, 3), (1.0, 0.7))
        rng = np.random.default_rng(3)
        v1, v2 = rng.standard_normal(12), rng.standard_normal(12)
        v1[0] = -0.0
        parts = ParticleSet([1.0, 2.5], external=[v1, v2])
        model = build_model(ModelSpec(kind="csl", grid=grid, particles=parts,
                                      sigma=1.0, G=0.1))
        ext = external_potential_diagonal(grid, parts)
        expect = kinetic_hamiltonian(grid, parts) + np.diag(ext)
        assert model.hamiltonian.tobytes() == expect.tobytes()


class TestTwoParticlePureDigests:
    # frozen SHA-256 of the records and final states of two-particle
    # state-vector runs, which step through the per-particle apply of H
    @staticmethod
    def digest(records):
        h = hashlib.sha256()
        for rec in records:
            for name in ("times", "trace", "purity", "positions", "density_means",
                         "signals", "offdiagonals"):
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
        recs = run_ensemble(psi, model, 1e-3, 5, [3, 4], record_density=True,
                            record_signal=True, offdiagonal_pairs=[(0, 1), (5, 700)],
                            snapshot_every=5)
        assert self.digest(recs) == (
            "794eaf3accc5ecfb76fff4a8a74673a2440f37d0118a87bc4df1c6b994a878dc")

    def test_mean_field(self):
        model = build_model(ModelSpec(kind="sn", grid=self.grid,
                                      particles=ParticleSet([1.0, 1.0]), G=0.5))
        psi = random_state(np.random.default_rng(2), 1296)
        recs = run_ensemble(psi, model, 1e-3, 5, [0], snapshot_every=5)
        assert self.digest(recs) == (
            "6194e0477648540cec292af6de4e5fda1d2aabe78791ac570f69a85ef4554d35")

    def test_pair_with_external_potentials(self):
        ext = np.random.default_rng(5).standard_normal((2, 36))
        model = build_model(ModelSpec(kind="pair", grid=self.grid, G=0.5,
                                      particles=ParticleSet([1.0, 2.0], external=list(ext))))
        psi = random_state(np.random.default_rng(3), 1296)
        recs = run_ensemble(psi, model, 1e-3, 5, [0], snapshot_every=5)
        assert self.digest(recs) == (
            "047696a52179f8dc2dc06f8e87e35a6e07f4902b2a05db5f11dc7abfc5f99109")


class TestConfigFields:
    @settings(max_examples=40, deadline=None)
    @given(dims=st.lists(st.integers(2, 4), min_size=1, max_size=3),
           spacing=st.floats(0.5, 2.0),
           masses=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=2),
           sigma=st.floats(0.1, 2.0), G=st.floats(0.0, 3.0), smeared=st.booleans(),
           data=st.data())
    def test_one_path_bitwise(self, dims, spacing, masses, sigma, G, smeared, data):
        # the families are views of config_fields, any subset of rows has the
        # bits of the full batch, and V(x) does not depend on the batch
        grid, parts = LatticeGrid(dims, spacing), ParticleSet(masses)
        spec = ModelSpec(kind="csl", grid=grid, particles=parts, sigma=sigma, G=G,
                         feedback_smearing=smeared)
        n_cfg = grid.n_sites ** parts.count
        idx = data.draw(st.lists(st.integers(0, n_cfg - 1), min_size=1, max_size=6))
        configs = config_sites(grid, parts)[idx]
        dens, phi = config_fields(spec, configs)
        assert dens.shape == phi.shape == (len(idx),) + grid.dims
        assert dens.flags.c_contiguous and phi.flags.c_contiguous
        dfam = density_family(grid, parts, sigma)
        nfam = newton_family(grid, parts, G, smeared, sigma)
        assert dfam.flags.c_contiguous and nfam.flags.c_contiguous
        assert dens.tobytes() == np.ascontiguousarray(dfam[:, idx].T).tobytes()
        assert phi.tobytes() == np.ascontiguousarray(nfam[:, idx].T).tobytes()
        batched = build_backaction_hamiltonian(spec, configs).values
        single = [build_backaction_hamiltonian(spec, [c]).values[0] for c in configs]
        assert batched.tobytes() == np.array(single).tobytes()


class TestDensityFamily:
    def test_total_mass_every_configuration(self):
        grid = LatticeGrid((6,), 1.0)
        parts = ParticleSet([1.0, 2.5])
        fam = density_family(grid, parts, sigma=1.0)
        totals = fam.sum(axis=0) * grid.cell_volume
        np.testing.assert_allclose(totals, parts.total_mass, rtol=1e-12)

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
