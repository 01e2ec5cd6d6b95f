import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collapsesim import (DiagonalField, LatticeGrid, MatrixKernel, MonitoringSpec,
                         ParticleSet, kinetic_hamiltonian)
from collapsesim.lattice import config_sites, displacement_index, einsum
from collapsesim.models import (ModelSpec, build_model, density_family,
                                kappa_decoherence_coefficient)

from conftest import random_density_matrix
from oracles import (dense_double_commutator, einsum_apply, kron_sum_hamiltonian,
                     momentum_operator)

SRC = Path(__file__).resolve().parents[1] / "src" / "collapsesim"
# the subscripts of the einsum calls in src, each through lattice.einsum
SUBSCRIPTS = ["ox,ox->x", "ox,...o->...x", "ox,...x->...o", "...x,...x->...",
              "...o,...o->...", "...xy,...yx->...", "xy,...y->...x"]


class TestMassDensityField:
    # the point mass density at one site as a configuration diagonal is a
    # row of the sigma = 0 density family
    def test_single_particle_delta(self):
        grid = LatticeGrid((6,), 1.0)
        parts = ParticleSet([1.0])
        f = density_family(grid, parts, 0.0)[3]
        expect = np.zeros(6)
        expect[3] = 1.0
        np.testing.assert_allclose(f, expect)

    def test_two_particles_same_site(self):
        grid = LatticeGrid((4,), 0.5)
        parts = ParticleSet([1.0, 2.0])
        f = density_family(grid, parts, 0.0)[2]
        sites = config_sites(grid, parts)
        both = (sites[:, 0] == 2) & (sites[:, 1] == 2)
        np.testing.assert_allclose(f[both], 3.0 / 0.5)

    def test_total_mass_summation(self):
        # summation oracle: cell_volume * sum_r field(r) = total mass, every config
        grid = LatticeGrid((3, 3), 0.7)
        parts = ParticleSet([1.5, 0.5])
        total = np.zeros(len(config_sites(grid, parts)))
        for row in density_family(grid, parts, 0.0):
            total += row
        np.testing.assert_allclose(total * grid.cell_volume, sum(parts.masses),
                                   rtol=1e-12)


class TestDisplacementIndex:
    def test_column_of_many_configurations(self):
        # numpy 2.4's unravel_index mislays sites of an (n, 1) array past
        # n = 8192; the wrapped displacement must not
        grid = LatticeGrid((5, 5, 5), 1.0)
        b = np.tile(np.arange(grid.n_sites), 80)[:, None]
        r = np.arange(grid.n_sites)
        got = displacement_index(grid, r, b)
        rm, bm = np.unravel_index(r, grid.dims), np.unravel_index(b[:, 0], grid.dims)
        multi = [(x[None, :] - y[:, None]) % n for x, y, n in zip(rm, bm, grid.dims)]
        expect = np.ravel_multi_index(multi, grid.dims)
        assert got.shape == (len(b), grid.n_sites)
        np.testing.assert_array_equal(got, expect)


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
        # order: the same bytes as einsum over the dense H
        n_sites = int(np.prod(dims))
        n_particles = data.draw(st.integers(1, max(k for k in (1, 2, 3, 4)
                                                   if n_sites**k <= 4096)))
        masses = data.draw(st.lists(st.floats(0.1, 10.0), min_size=n_particles,
                                    max_size=n_particles))
        kinetic = data.draw(st.lists(st.booleans(), min_size=n_particles,
                                     max_size=n_particles))
        rng = np.random.default_rng(seed)
        parts = ParticleSet(masses, kinetic=kinetic)
        model = build_model(ModelSpec(kind="sn", grid=LatticeGrid(dims), particles=parts))
        n = n_sites**n_particles
        psi = rng.standard_normal(batch + (n,)) + 1j * rng.standard_normal(batch + (n,))
        expect = einsum_apply(model.hamiltonian, psi).tobytes()
        op = model.hamiltonian_operator
        assert op.apply(psi).tobytes() == expect

    @pytest.mark.parametrize("batch", [(), (2, 2)])
    @pytest.mark.parametrize("kinetic", [(True, True, True), (True, True, False),
                                         (False, True, True), (True, False, False),
                                         (False, False, False)])
    def test_swapped_layout_three_particles(self, kinetic, batch):
        # the last kinetic particle (2, or 1 before a static one) works on
        # copies with its axis moved in front of particles 0 to q - 1,
        # kinetic or not; particle 0 works on views in that layout, and
        # with no kinetic particle H = 0
        rng = np.random.default_rng(15)
        grid = LatticeGrid((4, 4))
        parts = ParticleSet([0.7, 1.3, 2.1], kinetic=kinetic)
        model = build_model(ModelSpec(kind="sn", grid=grid, particles=parts))
        psi = rng.standard_normal(batch + (4096,)) + 1j * rng.standard_normal(batch + (4096,))
        op = model.hamiltonian_operator
        assert op.apply(psi).tobytes() == einsum_apply(model.hamiltonian, psi).tobytes()

    def test_zero_hamiltonian_is_plus_zero(self):
        # no kinetic particle: apply returns its +0 accumulator, einsum's
        # bytes over the zero H, with no -0 where psi is negative
        parts = ParticleSet([1.0, 2.0], kinetic=[False, False])
        op = build_model(ModelSpec(kind="sn", grid=LatticeGrid((3,)),
                                   particles=parts)).hamiltonian_operator
        rng = np.random.default_rng(4)
        for psi in (-np.abs(rng.standard_normal((4, 9))),
                    -np.abs(rng.standard_normal((2, 9))) * (1 - 1j)):
            out = op.apply(psi)
            assert out.tobytes() == einsum_apply(op.dense, psi).tobytes()
            assert not np.signbit(out.view(float)).any()

    def test_apply_memory(self):
        # two particles on 8x8: the accumulator, the copies of it and of psi
        # in the swapped layout, one product and numpy's ufunc buffer at a time
        op = build_model(ModelSpec(kind="sn", grid=LatticeGrid((8, 8)),
                                   particles=ParticleSet([1.0, 1.0]))).hamiltonian_operator
        rng = np.random.default_rng(0)
        psi = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        op.apply(psi)  # builds the terms
        tracemalloc.start()
        try:
            op.apply(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * psi.nbytes

    def test_dense_only_where_every_row_is(self):
        # one kinetic particle: every row of H is dense, the model holds it
        # and apply takes einsum over it; one static particle (a diagonal H)
        # and two particles on 8x8 (127 of 4096 per row) never build it
        rng = np.random.default_rng(0)
        for masses, kinetic, dense in [([1.0], [True], True), ([1.0], [False], False),
                                       ([1.0, 1.0], [True, True], False)]:
            op = build_model(ModelSpec(kind="sn", grid=LatticeGrid((8, 8)), particles=ParticleSet(
                masses, kinetic=kinetic))).hamiltonian_operator
            assert op.rows_dense == dense and ("dense" in vars(op)) == dense
            n = 64 ** len(masses)
            op.apply(rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
            assert ("dense" in vars(op)) == dense


class TestContraction:
    def test_subscripts_are_the_ones_src_uses(self):
        calls = [node for path in SRC.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "einsum"]
        assert {call.args[0].value for call in calls} == set(SUBSCRIPTS)

    def test_binding_is_numpys_c_contraction(self):
        multiarray = pytest.importorskip("numpy._core.multiarray")
        assert einsum is multiarray.c_einsum

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), subscripts=st.sampled_from(SUBSCRIPTS),
           batch=st.sampled_from([(), (3,), (2, 2)]),
           sizes=st.fixed_dictionaries({c: st.integers(1, 5) for c in "oxy"}),
           seed=st.integers(0, 2**32 - 1))
    def test_bytes_equal_np_einsum(self, data, subscripts, batch, sizes, seed):
        # with optimize off np.einsum returns the C contraction's result: the
        # same bytes for real and complex operands, contiguous or strided like
        # the .diagonal().real views and column slices that the steps pass
        rng = np.random.default_rng(seed)
        operands = []
        for term in subscripts.split("->")[0].split(","):
            core = tuple(sizes[c] for c in term.replace("...", ""))
            shape = (batch if term.startswith("...") else ()) + core
            is_complex, strided = data.draw(st.booleans()), data.draw(st.booleans())
            if strided and len(core) == 1:  # the diagonal of a complex matrix
                full = shape + core
            elif strided:  # every other column of a wider array
                full = shape[:-1] + (2 * shape[-1],)
            else:
                full = shape
            a = rng.standard_normal(full) + 1j * rng.standard_normal(full)
            if strided:
                a = a.diagonal(0, -2, -1) if len(core) == 1 else a[..., ::2]
            operands.append(a if is_complex else a.real)
        got, expect = einsum(subscripts, *operands), np.einsum(subscripts, *operands)
        assert type(got) is type(expect)
        assert (got.dtype, got.shape) == (expect.dtype, expect.shape)
        assert got.tobytes() == expect.tobytes()


def engine_double_commutator(families, matrix, rho):
    """-sum_ij K_ij [D_i, [D_j, rho]] as the engine applies it: the pair-rate
    table of the diagonal families under the kernel K, times rho."""
    spec = MonitoringSpec(family=np.atleast_2d(families), kernel=MatrixKernel(matrix))
    return -spec.pair_rate * rho


class TestDoubleCommutator:
    def test_constant_field_vanishes(self, rng):
        rho = random_density_matrix(rng, 5)
        inc = engine_double_commutator(np.full(5, 2.3), [[1.0]], rho)
        assert np.abs(inc).max() < 1e-14

    def test_diagonal_rho_unchanged(self, rng):
        d = rng.standard_normal(6)
        rho = np.diag(rng.random(6)).astype(complex)
        inc = engine_double_commutator(d, [[1.0]], rho)
        assert np.abs(inc).max() == 0.0

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_matches_dense_matrix_oracle(self, rng, n):
        d = rng.standard_normal(n)
        rho = random_density_matrix(rng, n)
        got = engine_double_commutator(d, [[1.0]], rho)
        np.testing.assert_allclose(got, dense_double_commutator(d, d, rho),
                                   atol=1e-12)

    def test_bilinear_with_weight(self, rng):
        # the kernel's off-diagonal entries weight the cross terms [D1, [D2, rho]]
        d1, d2 = rng.standard_normal(5), rng.standard_normal(5)
        rho = random_density_matrix(rng, 5)
        got = engine_double_commutator([d1, d2], 0.37 * np.array([[1.0, 0.5], [0.5, 1.0]]), rho)
        expect = (dense_double_commutator(d1, d1, rho) + dense_double_commutator(d2, d2, rho)
                  + 0.5 * dense_double_commutator(d1, d2, rho)
                  + 0.5 * dense_double_commutator(d2, d1, rho))
        np.testing.assert_allclose(got, 0.37 * expect, atol=1e-12)


class TestFieldAlgebra:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DiagonalField(np.array([1.0, np.inf]))


class TestValidators:
    def test_positive_masses(self):
        with pytest.raises(ValueError):
            ParticleSet([1.0, -1.0])

    @settings(max_examples=60, deadline=None)
    @given(bad=st.floats(max_value=0.0) | st.sampled_from([np.nan, np.inf]),
           good=st.floats(1e-3, 1e3), slot=st.integers(0, 1))
    def test_nonfinite_or_out_of_range_rejected(self, bad, good, slot):
        # nan fails every comparison, so each check admits only finite values
        # in range: spacings, masses and kappa alike
        values = [good, good]
        values[slot] = bad
        for build in (lambda v: LatticeGrid((4, 4), v), ParticleSet,
                      lambda v: kappa_decoherence_coefficient(v[slot])):
            with pytest.raises(ValueError):
                build(values)


class TestMomentum:
    def test_plane_wave_momentum(self):
        grid = LatticeGrid((8,), 1.0)
        parts = ParticleSet([1.0])
        P = momentum_operator(grid, parts)
        k = grid.k_axes[0][2]
        psi = np.exp(1j * k * grid.axis_coordinates[0]) / np.sqrt(8)
        np.testing.assert_allclose(P @ psi, k * psi, atol=1e-12)
