import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collapsesim import CorrelationKernel, LatticeGrid, coulomb_potential, smear
from collapsesim.engine import MonitoringSpec
from collapsesim.kernels import (MatrixKernel, axis_coulomb_3d, ewald_periodic_coulomb,
                                 periodic_image_correction, smeared_point_profile)

from oracles import circular_convolution, coulomb_double_sum, periodic_coulomb_modesum


class TestSmear:
    def test_zero_width_is_identity(self, rng):
        grid = LatticeGrid((8,), 1.0)
        f = rng.standard_normal(8)
        np.testing.assert_array_equal(smear(f, grid, 0.0), f)

    def test_gaussian_semigroup(self, rng):
        grid = LatticeGrid((16, 16), 0.5)
        f = rng.standard_normal((16, 16))
        twice = smear(smear(f, grid, 0.8), grid, 0.8)
        once = smear(f, grid, np.sqrt(2.0) * 0.8)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_mass_preserving(self, rng):
        grid = LatticeGrid((12,), 1.0)
        f = rng.standard_normal(12)
        assert smear(f, grid, 2.0).sum() == pytest.approx(f.sum(), abs=1e-12)

    def test_point_mass_matches_real_space_convolution(self):
        # oracle: direct periodic convolution with the same lattice gaussian
        grid = LatticeGrid((10,), 1.0)
        point = np.zeros(10)
        point[4] = 2.0
        kernel = smeared_point_profile(grid, 1.3) * grid.cell_volume  # unit-sum profile
        expect = circular_convolution(point, kernel, 1.0)
        np.testing.assert_allclose(smear(point, grid, 1.3), expect, atol=1e-12)

    @pytest.mark.parametrize("dims", [(16,), (8, 8, 8)])
    def test_point_profile_negative_below_two_spacings(self, dims):
        # the Gaussian multiplier cut off at the Brillouin zone rings: the
        # smeared point mass has negative lobes at sigma = 1 (16 sites:
        # -2.8e-4; 8^3: -8.3e-5) and none at sigma = 2, as the README states
        grid = LatticeGrid(dims, 1.0)
        assert smeared_point_profile(grid, 1.0).min() < 0
        assert smeared_point_profile(grid, 2.0).min() >= 0


class TestCoulomb:
    def test_uniform_density_zero_potential(self):
        grid = LatticeGrid((6, 6), 1.0)
        phi = coulomb_potential(np.full((6, 6), 3.0), grid, G=2.0)
        assert np.abs(phi).max() < 1e-12

    def test_linearity(self, rng):
        grid = LatticeGrid((8, 8), 1.0)
        a, b = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
        lhs = coulomb_potential(a + b, grid, 1.3)
        rhs = coulomb_potential(a, grid, 1.3) + coulomb_potential(b, grid, 1.3)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_point_mass_newton_law_midrange(self):
        # Ewald-corrected oracle: lattice potential matches -G m / r within 5%
        n, G, m = 24, 1.0, 1.0
        grid = LatticeGrid((n, n, n), 1.0)
        dens = np.zeros(grid.dims)
        dens[0, 0, 0] = m / grid.cell_volume
        phi = coulomb_potential(dens, grid, G)
        for d in range(3, n // 4 + 1):
            correction = -G * m * periodic_image_correction(float(d), float(n))
            corrected = phi[d, 0, 0] - correction
            assert corrected == pytest.approx(-G * m / d, rel=0.05)

    def test_poisson_residual(self, rng):
        # spectral consistency: applying k^2 returns 4 pi G rho on nonzero modes
        grid = LatticeGrid((8,), 1.0)
        dens = rng.standard_normal(8)
        dens -= dens.mean()
        phi = coulomb_potential(dens, grid, G=1.0)
        lap = grid.apply_multiplier(phi, -grid.k_squared)
        np.testing.assert_allclose(lap, 4.0 * np.pi * dens, atol=1e-10)


class TestSampleNoise:
    def test_csl_site_variance(self):
        grid = LatticeGrid((8,), 1.0)
        kern = CorrelationKernel("csl", grid, gamma=1.0)
        rng = np.random.Generator(np.random.Philox(5))
        samples = kern.sample_noise(dt=1.0, rng=rng, size=(100_000,))
        var = samples.var(axis=0)
        # target delta_rs / (gamma dV dt) = 1; allow 3 sigma_stat
        stat = np.sqrt(2.0 / 100_000)
        assert np.abs(var - 1.0).max() < 3.5 * stat

    def test_dp_zero_mode_noiseless(self):
        grid = LatticeGrid((4, 4, 4), 1.0)
        kern = CorrelationKernel("dp", grid, kappa=2.0, G=1.0)
        rng = np.random.Generator(np.random.Philox(6))
        noise = kern.sample_noise(dt=1e-3, rng=rng, size=(32,))
        totals = noise.sum(axis=(1, 2, 3))  # k = 0 amplitude
        assert np.abs(totals).max() < 1e-10

    def test_seed_determinism(self):
        grid = LatticeGrid((6,), 1.0)
        kern = CorrelationKernel("dp", grid, kappa=1.5, G=0.7)
        a = kern.sample_noise(0.1, np.random.Generator(np.random.Philox(42)))
        b = kern.sample_noise(0.1, np.random.Generator(np.random.Philox(42)))
        c = kern.sample_noise(0.1, np.random.Generator(np.random.Philox(43)))
        np.testing.assert_array_equal(a, b)
        assert np.abs(a - c).max() > 0

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["csl", "dp"]),
           dims=st.sampled_from([(2,), (8,), (6, 5), (4, 4, 4)]),
           n=st.integers(1, 600).filter(lambda n: n % 256 != 0),
           seed=st.integers(0, 2**32 - 1))
    def test_block_draw_equals_single_draws_bitwise(self, kind, dims, n, seed):
        # the ensemble loop draws many steps per call; the stream must not notice
        kern = CorrelationKernel(kind, LatticeGrid(dims, 1.0), gamma=0.7, kappa=2.0, G=0.3)
        block = kern.sample_noise(1e-3, np.random.Generator(np.random.Philox(seed)), size=(n,))
        rng = np.random.Generator(np.random.Philox(seed))
        singles = np.stack([kern.sample_noise(1e-3, rng) for _ in range(n)])
        assert block.tobytes() == singles.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["csl", "dp", "matrix"]),
           dims=st.sampled_from([(2,), (8,), (6, 5), (4, 4, 4)]),
           steps=st.integers(1, 300), members=st.integers(1, 4),
           n_configs=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
    def test_block_conditioning_field_equals_per_step_bitwise(self, kind, dims, steps,
                                                             members, n_configs, seed):
        # the ensemble loop computes a whole noise block's field at once
        grid = LatticeGrid(dims, 1.0)
        rng = np.random.Generator(np.random.Philox(seed))
        family = rng.random((grid.n_sites, n_configs))
        if kind == "matrix":  # explicit observables: one per site, no grid
            root = rng.standard_normal((grid.n_sites, grid.n_sites))
            spec = MonitoringSpec(family=family,
                                  kernel=MatrixKernel(root @ root.T + np.eye(grid.n_sites)))
        else:
            kern = CorrelationKernel(kind, grid, gamma=0.7, kappa=2.0, G=0.3)
            spec = MonitoringSpec(family=family, kernel=kern, grid=grid)
        block = spec.sample_noise_flat(1e-3, rng, (steps, members))
        per_step = np.stack([spec.conditioning_field(block[t]) for t in range(steps)])
        assert spec.conditioning_field(block).tobytes() == per_step.tobytes()

    def test_dp_covariance_matches_inverse_kernel(self):
        # Monte Carlo covariance oracle against gamma^-1 / dt
        grid = LatticeGrid((6,), 1.0)
        kern = CorrelationKernel("dp", grid, kappa=2.0, G=1.0)
        rng = np.random.Generator(np.random.Philox(7))
        dt = 0.5
        n = 200_000
        samples = kern.sample_noise(dt, rng, size=(n,))
        emp = samples.T @ samples / n
        target = np.empty((6, 6))
        gm1 = grid.ifft(kern.inverse_multiplier).real / grid.cell_volume / dt
        for i in range(6):
            for j in range(6):
                target[i, j] = gm1[(i - j) % 6]
        scale = np.abs(target).max()
        assert np.abs(emp - target).max() < 5.0 * scale / np.sqrt(n) * 3.0


class TestQuadraticForm:
    def test_zero_fields(self):
        grid = LatticeGrid((8,), 1.0)
        kern = CorrelationKernel("csl", grid, gamma=2.0)
        assert kern.quad(np.zeros(8)) == 0.0

    def test_csl_reduces_to_weighted_overlap(self, rng):
        grid = LatticeGrid((4, 4), 0.5)
        kern = CorrelationKernel("csl", grid, gamma=1.7)
        f = rng.standard_normal((4, 4))
        expect = 1.7 * grid.cell_volume * np.sum(f * f)
        assert kern.quad(f) == pytest.approx(expect, rel=1e-10)

    def test_dp_matches_real_space_double_sum(self):
        # O(M^2) oracle with the 1/|r-s| kernel (one image shell, zero-mean
        # fields); 10% discretization tolerance on the tiny 4^3 grid.  The
        # cross term Q(f, g) by polarization, since the oracle leaves out r = s
        grid = LatticeGrid((4, 4, 4), 1.0)
        kern = CorrelationKernel("dp", grid, kappa=2.0, G=1.0)
        f = smear(np.eye(64)[0].reshape(4, 4, 4) * 8.0, grid, 1.0)
        g = smear(np.eye(64)[42].reshape(4, 4, 4) * 8.0, grid, 1.0)
        f -= f.mean()
        g -= g.mean()
        direct = coulomb_double_sum(f, g, 1.0, strength=2.0, shells=1)
        cross = 0.25 * (kern.quad(f + g) - kern.quad(f - g))
        assert cross == pytest.approx(direct, rel=0.10)

    def test_nonnegative(self, rng):
        grid = LatticeGrid((8,), 1.0)
        kern = CorrelationKernel("dp", grid, kappa=1.0, G=1.0)
        assert kern.quad(rng.standard_normal(8)) >= 0.0


class TestKernelInvariants:
    @pytest.mark.parametrize("kind,params", [("csl", dict(gamma=0.8)),
                                             ("dp", dict(kappa=2.0, G=1.3))])
    def test_inverse_roundtrip(self, rng, kind, params):
        grid = LatticeGrid((8, 8), 1.0)
        kern = CorrelationKernel(kind, grid, **params)
        f = rng.standard_normal((8, 8))
        back = kern.apply_inverse(kern.apply(f))
        retained = grid.ifft(grid.fft(f) * kern.retained).real
        np.testing.assert_allclose(back, retained, atol=1e-12)

    @pytest.mark.parametrize("kind,params", [
        ("csl", {}), ("csl", dict(gamma=np.nan)), ("csl", dict(gamma=np.inf)),
        ("dp", dict(kappa=2.0)), ("dp", dict(G=1.0)), ("dp", dict(kappa=np.nan, G=1.0)),
        ("dp", dict(kappa=2.0, G=np.inf)),
    ], ids=["csl-none", "csl-nan", "csl-inf", "dp-no-G", "dp-no-kappa", "dp-nan", "dp-inf"])
    def test_strength_missing_or_nonfinite_raises(self, kind, params):
        # the kernel defaults no strength: each one its kind reads is given,
        # finite and > 0, and one it does not read may be left out
        with pytest.raises(ValueError, match="strength"):
            CorrelationKernel(kind, LatticeGrid((4,), 1.0), **params)

    def test_multipliers_nonnegative(self):
        grid = LatticeGrid((6, 6), 1.0)
        for kern in (CorrelationKernel("csl", grid, gamma=0.5),
                     CorrelationKernel("dp", grid, kappa=2.0, G=1.0)):
            assert kern.multiplier.min() >= 0.0
            assert kern.inverse_multiplier.min() >= 0.0

    def test_csl_parseval_consistency(self, rng):
        # spectral quad vs real-space definition of the same delta kernel
        grid = LatticeGrid((16,), 0.5)
        kern = CorrelationKernel("csl", grid, gamma=2.2)
        f = rng.standard_normal(16)
        spectral = kern.quad(f)
        real = 2.2 * grid.cell_volume * float(f @ f)
        assert abs(spectral - real) < 1e-10 * max(1.0, abs(real))

    def test_noise_covariance_rate(self):
        # empirical covariance converges ~ 1/sqrt(samples)
        grid = LatticeGrid((4,), 1.0)
        kern = CorrelationKernel("csl", grid, gamma=1.0)
        errs = []
        for n in (1000, 16000):
            rng = np.random.Generator(np.random.Philox(11))
            s = kern.sample_noise(1.0, rng, size=(n,))
            errs.append(np.abs(s.var(axis=0) - 1.0).max())
        assert errs[1] < errs[0]


class TestMatrixKernel:
    def test_apply_inverse_round_trip(self, rng):
        kern = MatrixKernel(np.array([[2.0, 0.3], [0.3, 1.0]]))
        f = rng.standard_normal(2)
        np.testing.assert_allclose(kern.apply_inverse(kern.apply(f)), f, atol=1e-12)

    def test_noise_covariance(self):
        kern = MatrixKernel([[4.0]])
        rng = np.random.Generator(np.random.Philox(3))
        s = kern.sample_noise(0.5, rng, size=(200_000,))
        assert s.var() == pytest.approx(1.0 / 4.0 / 0.5, rel=0.02)

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            MatrixKernel([[1.0, 2.0], [2.0, 1.0]])


class TestEwald:
    def test_matches_modesum_oracle(self):
        for d in (3.0, 8.0, 12.0):
            ours = ewald_periodic_coulomb([d, 0, 0], 32.0)
            oracle = periodic_coulomb_modesum([d, 0, 0], 32.0)
            assert ours == pytest.approx(oracle, abs=1e-7)

    def test_image_correction_shrinks_with_box(self):
        # small box correction shrinks with the box
        c32 = periodic_image_correction(3.0, 32.0)
        c64 = periodic_image_correction(3.0, 64.0)
        assert abs(c64) < abs(c32)


class TestAxisProfile:
    def test_matches_direct_3d_solve(self):
        n = 8
        prof = axis_coulomb_3d(n, 1.0, 0.6)
        grid = LatticeGrid((n, n, n), 1.0)
        dens = np.zeros(grid.dims)
        dens[0, 0, 0] = 1.0 / grid.cell_volume
        phi = coulomb_potential(dens, grid, 0.6)
        np.testing.assert_allclose(prof, phi[:, 0, 0], atol=1e-12)
