import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collapsesim import (DiagonalField, LatticeGrid, ParticleSet,
                         apply_double_commutator, kinetic_hamiltonian,
                         mass_density_field)
from collapsesim.lattice import config_sites, n_configs, check_density_matrix
from collapsesim.models import ModelSpec, build_model

from conftest import random_density_matrix
from oracles import (dense_double_commutator, einsum_apply, kron_sum_hamiltonian,
                     momentum_operator)


class TestMassDensityField:
    def test_single_particle_delta(self):
        grid = LatticeGrid((6,), 1.0)
        parts = ParticleSet([1.0])
        f = mass_density_field(grid, parts, 3)
        expect = np.zeros(6)
        expect[3] = 1.0
        np.testing.assert_allclose(f.values, expect)

    def test_two_particles_same_site(self):
        grid = LatticeGrid((4,), 0.5)
        parts = ParticleSet([1.0, 2.0])
        f = mass_density_field(grid, parts, 2)
        sites = config_sites(grid, parts)
        both = (sites[:, 0] == 2) & (sites[:, 1] == 2)
        np.testing.assert_allclose(f.values[both], 3.0 / 0.5)

    def test_total_mass_summation(self):
        # summation oracle: cell_volume * sum_r field(r) = total mass, every config
        grid = LatticeGrid((3, 3), 0.7)
        parts = ParticleSet([1.5, 0.5])
        total = np.zeros(n_configs(grid, parts))
        for r in range(grid.n_sites):
            total += mass_density_field(grid, parts, r).values
        np.testing.assert_allclose(total * grid.cell_volume, parts.total_mass,
                                   rtol=1e-12)


class TestKineticHamiltonian:
    def test_plane_wave_eigenvalue(self):
        grid = LatticeGrid((8,), 1.0)
        parts = ParticleSet([2.0])
        H = kinetic_hamiltonian(grid, parts)
        k = grid.k_axes[0][3]
        psi = np.exp(1j * k * grid.axis_coordinates[0]) / np.sqrt(8)
        np.testing.assert_allclose(H @ psi, (k**2 / 4.0) * psi, atol=1e-12)

    def test_uniform_state_zero_energy(self):
        grid = LatticeGrid((4, 4), 1.0)
        H = kinetic_hamiltonian(grid, ParticleSet([1.0]))
        psi = np.ones(16) / 4.0
        np.testing.assert_allclose(H @ psi, 0.0, atol=1e-12)

    def test_hermitian(self):
        grid = LatticeGrid((4, 3), (1.0, 0.5))
        H = kinetic_hamiltonian(grid, ParticleSet([1.0, 2.0]))
        assert np.abs(H - H.conj().T).max() < 1e-12

    def test_kinetic_flag_off(self):
        grid = LatticeGrid((5,), 1.0)
        H = kinetic_hamiltonian(grid, ParticleSet([1.0], kinetic=[False]))
        assert np.abs(H).max() == 0.0

    def test_two_particle_embedding(self):
        grid = LatticeGrid((4,), 1.0)
        parts = ParticleSet([1.0, 3.0])
        H = kinetic_hamiltonian(grid, parts)
        h1 = kinetic_hamiltonian(grid, ParticleSet([1.0]))
        h2 = kinetic_hamiltonian(grid, ParticleSet([3.0]))
        expect = np.kron(h1, np.eye(4)) + np.kron(np.eye(4), h2)
        assert np.array_equal(H, expect)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dims=st.lists(st.integers(2, 6), min_size=1, max_size=3))
    def test_matches_kron_sum_bitwise(self, data, dims):
        # the in-place assembly equals the Kronecker sum byte for byte, zero signs included
        n_sites = int(np.prod(dims))
        n_particles = data.draw(st.integers(1, max(k for k in (1, 2, 3) if n_sites**k <= 512)))
        spacing = data.draw(st.lists(st.floats(0.3, 3.0), min_size=len(dims),
                                     max_size=len(dims)))
        masses = data.draw(st.lists(st.floats(0.1, 10.0), min_size=n_particles,
                                    max_size=n_particles))
        kinetic = data.draw(st.lists(st.booleans(), min_size=n_particles,
                                     max_size=n_particles))
        grid = LatticeGrid(dims, spacing)
        parts = ParticleSet(masses, kinetic=kinetic)
        got = kinetic_hamiltonian(grid, parts)
        assert got.tobytes() == kron_sum_hamiltonian(grid, parts).tobytes()

    def test_memory_one_copy_of_h(self):
        # two particles on 6x6 (n_cfg = 1296): no full-size temporary beside H
        grid = LatticeGrid((6, 6), 1.0)
        parts = ParticleSet([1.0, 2.0])
        kinetic_hamiltonian(grid, ParticleSet([1.0]))  # warm the grid's cached tables
        tracemalloc.start()
        try:
            H = kinetic_hamiltonian(grid, parts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * H.nbytes


class TestHamiltonianApply:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dims=st.lists(st.integers(2, 6), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1),
           batch=st.sampled_from([(), (1,), (3,), (2, 2)]))
    def test_matches_einsum_bitwise(self, data, dims, seed, batch):
        # the per-particle apply adds each row's nonzero products in einsum's
        # order: same bytes on either side of the selection rule
        n_sites = int(np.prod(dims))
        n_particles = data.draw(st.integers(1, max(k for k in (1, 2, 3, 4)
                                                   if n_sites**k <= 4096)))
        masses = data.draw(st.lists(st.floats(0.1, 10.0), min_size=n_particles,
                                    max_size=n_particles))
        kinetic = data.draw(st.lists(st.booleans(), min_size=n_particles,
                                     max_size=n_particles))
        rng = np.random.default_rng(seed)
        external = []
        for with_potential in data.draw(st.lists(st.booleans(), min_size=n_particles,
                                                 max_size=n_particles)):
            v = rng.standard_normal(n_sites) if with_potential else None
            if v is not None:
                v[rng.random(n_sites) < 0.3] = -0.0
            external.append(v)
        parts = ParticleSet(masses, kinetic=kinetic, external=external)
        model = build_model(ModelSpec(kind="sn", grid=LatticeGrid(dims), particles=parts))
        n = n_sites**n_particles
        psi = rng.standard_normal(batch + (n,)) + 1j * rng.standard_normal(batch + (n,))
        expect = einsum_apply(model.hamiltonian, psi).tobytes()
        op = model.hamiltonian_operator
        assert op.apply(psi).tobytes() == expect
        op.dense_is_faster = lambda shape: False  # the per-particle side on every shape
        assert op.apply(psi).tobytes() == expect

    def test_selection_sides(self):
        # one particle: every row is dense, einsum wins; two on 8x8: 127 of 4096
        one = build_model(ModelSpec(kind="sn", grid=LatticeGrid((8, 8)),
                                    particles=ParticleSet([1.0]))).hamiltonian_operator
        assert one.dense_is_faster((64,)) and one.dense_is_faster((16, 64))
        two = build_model(ModelSpec(kind="sn", grid=LatticeGrid((8, 8)),
                                    particles=ParticleSet([1.0, 1.0]))).hamiltonian_operator
        assert not two.dense_is_faster((4096,)) and not two.dense_is_faster((16, 4096))


class TestDoubleCommutator:
    def test_constant_field_vanishes(self, rng):
        rho = random_density_matrix(rng, 5)
        inc = apply_double_commutator(DiagonalField(np.full(5, 2.3)), rho)
        assert np.abs(inc).max() < 1e-14

    def test_diagonal_rho_unchanged(self, rng):
        d = rng.standard_normal(6)
        rho = np.diag(rng.random(6)).astype(complex)
        inc = apply_double_commutator(DiagonalField(d), rho)
        assert np.abs(inc).max() == 0.0

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_matches_dense_matrix_oracle(self, rng, n):
        d = rng.standard_normal(n)
        rho = random_density_matrix(rng, n)
        got = apply_double_commutator(DiagonalField(d), rho)
        np.testing.assert_allclose(got, dense_double_commutator(d, d, rho),
                                   atol=1e-12)

    def test_bilinear_with_weight(self, rng):
        d1, d2 = rng.standard_normal(5), rng.standard_normal(5)
        rho = random_density_matrix(rng, 5)
        got = apply_double_commutator(d1, rho, other=d2, weight=0.37)
        np.testing.assert_allclose(got, 0.37 * dense_double_commutator(d1, d2, rho),
                                   atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            apply_double_commutator(DiagonalField(np.ones(3)),
                                    random_density_matrix(rng, 4))


class TestFieldAlgebra:
    def test_products_commute_pointwise(self, rng):
        a = DiagonalField(rng.standard_normal(7))
        b = DiagonalField(rng.standard_normal(7))
        np.testing.assert_array_equal((a * b).values, (b * a).values)

    def test_product_matches_dense_diagonal(self, rng):
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        dense = np.diag(a) @ np.diag(b)
        np.testing.assert_allclose((DiagonalField(a) * DiagonalField(b)).values,
                                   np.diag(dense))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DiagonalField(np.array([1.0, np.inf]))


class TestValidators:
    def test_density_matrix_ok(self, rng):
        check_density_matrix(random_density_matrix(rng, 4))

    def test_density_matrix_bad_trace(self):
        with pytest.raises(ValueError):
            check_density_matrix(2.0 * np.eye(3) / 3.0)

    def test_positive_masses(self):
        with pytest.raises(ValueError):
            ParticleSet([1.0, -1.0])


class TestMomentum:
    def test_plane_wave_momentum(self):
        grid = LatticeGrid((8,), 1.0)
        parts = ParticleSet([1.0])
        P = momentum_operator(grid, parts)
        k = grid.k_axes[0][2]
        psi = np.exp(1j * k * grid.axis_coordinates[0]) / np.sqrt(8)
        np.testing.assert_allclose(P @ psi, k * psi, atol=1e-12)
