import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collapsesim import (LatticeGrid, MatrixKernel, ParticleSet, build_model,
                         combined_step, ensemble_mean, expectation,
                         feedback_step, generate_signal, hcal_apply,
                         hfb_identity_check, me_step, run_ensemble, run_trajectory,
                         sme_step, sse_step)
from collapsesim import engine
from collapsesim.engine import (FeedbackSpec, MonitoringSpec, _step_guard,
                                hfb_family_identity_check)
from collapsesim.kernels import CorrelationKernel
from collapsesim.lattice import GuardError
from collapsesim.models import ModelSpec, density_family, newton_family

from conftest import DenseOperator, random_density_matrix, random_state
from oracles import (dense_expectation, dense_hcal, scalar_sme_step_2x2,
                     spectral_propagator)


def toy_monitoring(a_values, gamma=1.0):
    """Single monitored observable on a two-level system (explicit kernel)."""
    return MonitoringSpec(family=np.array([a_values], float),
                          kernel=MatrixKernel([[gamma]]))


def grid_specs(n=8, sigma=1.0, gamma=1.0, G=0.2, smear_fb=False):
    grid = LatticeGrid((n,), 1.0)
    parts = ParticleSet([1.0])
    kernel = CorrelationKernel("csl", grid, gamma=gamma)
    mon = MonitoringSpec(family=density_family(grid, parts, sigma),
                         kernel=kernel, grid=grid, sigma=sigma)
    fb = FeedbackSpec(family=newton_family(grid, parts, G, smear_fb, sigma),
                      kernel=kernel, grid=grid, smeared=smear_fb)
    return grid, mon, fb


class TestExpectation:
    def test_constant_observable(self, rng):
        rho = random_density_matrix(rng, 5)
        assert expectation(rho, np.full(5, 3.2)) == pytest.approx(3.2, abs=1e-12)

    def test_position_eigenstate(self, rng):
        d = rng.standard_normal(6)
        rho = np.zeros((6, 6), complex)
        rho[2, 2] = 1.0
        assert expectation(rho, d) == pytest.approx(d[2], abs=1e-14)

    def test_matches_dense_trace_oracle(self, rng):
        d = rng.standard_normal(9)
        rho = random_density_matrix(rng, 9)
        assert expectation(rho, d) == pytest.approx(dense_expectation(d, rho),
                                                    abs=1e-12)


class TestHcal:
    def test_traceless(self, rng):
        d = rng.standard_normal(7)
        rho = random_density_matrix(rng, 7)
        assert abs(np.trace(hcal_apply(d, rho))) < 1e-12

    def test_constant_gives_zero(self, rng):
        rho = random_density_matrix(rng, 4)
        assert np.abs(hcal_apply(np.full(4, 1.3), rho)).max() < 1e-13

    def test_matches_dense_anticommutator_oracle(self, rng):
        d = rng.standard_normal(8)
        rho = random_density_matrix(rng, 8)
        np.testing.assert_allclose(hcal_apply(d, rho), dense_hcal(d, rho),
                                   atol=1e-12)


class TestGenerateSignal:
    def test_zero_noise_hook(self, rng):
        _, mon, _ = grid_specs()
        rho = random_density_matrix(rng, 8)
        signal, noise = generate_signal(rho, mon, dt=1e-3, rng=None)
        assert np.abs(noise).max() == 0.0
        np.testing.assert_allclose(signal, mon.means(rho), atol=1e-14)

    def test_ensemble_mean_of_signal(self, rng):
        _, mon, _ = grid_specs()
        rho = random_density_matrix(rng, 8)
        n = 10_000
        signal, _ = generate_signal(rho, mon, dt=1.0, rng=rng, size=(n,))
        err = np.abs(signal.mean(axis=0) - mon.means(rho)).max()
        assert err < 5.0 / np.sqrt(n)

    def test_csl_distinct_sites_uncorrelated(self, rng):
        _, mon, _ = grid_specs(gamma=1.0)
        rho = random_density_matrix(rng, 8)
        n = 10_000
        _, noise = generate_signal(rho, mon, dt=1.0, rng=rng, size=(n,))
        a, b = noise[:, 1], noise[:, 5]
        corr = np.mean(a * b) / (a.std() * b.std())
        assert abs(corr) < 4.0 / np.sqrt(n)


class TestSmeStep:
    def test_zero_kernel_zero_noise_is_unitary_euler(self, rng):
        spec = MonitoringSpec(family=np.zeros((1, 4)), kernel=MatrixKernel([[1.0]]))
        H = rng.standard_normal((4, 4))
        H = H + H.T
        rho = random_density_matrix(rng, 4)
        got = sme_step(rho, H, spec, np.zeros(1), dt=1e-3)
        expect = rho - 1j * 1e-3 * (H @ rho - rho @ H)
        np.testing.assert_allclose(got, expect, atol=1e-15)

    def test_pathwise_trace_preservation(self, rng):
        _, mon, _ = grid_specs()
        rho = random_density_matrix(rng, 8)
        H = np.zeros((8, 8))
        for _ in range(20):
            noise = mon.sample_noise_flat(1e-3, rng)
            rho = sme_step(rho, H, mon, noise, 1e-3)
            assert abs(np.trace(rho).real - 1.0) < 1e-12

    def test_matches_scalar_two_level_oracle(self, rng):
        a = (0.7, -0.4)
        gamma = 1.6
        spec = toy_monitoring(a, gamma)
        H = np.array([[0.2, 0.1 - 0.3j], [0.1 + 0.3j, -0.5]])
        rho = random_density_matrix(rng, 2)
        dA = 0.83
        got = sme_step(rho, H, spec, np.array([dA]), dt=2e-3)
        expect = scalar_sme_step_2x2(((rho[0, 0], rho[0, 1]), (rho[1, 0], rho[1, 1])),
                                     ((H[0, 0], H[0, 1]), (H[1, 0], H[1, 1])),
                                     a, gamma, dA, 2e-3)
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_step_guard_trips(self, rng):
        spec = toy_monitoring((50.0, -50.0), gamma=10.0)
        rho = random_density_matrix(rng, 2)
        with pytest.raises(GuardError, match="step-size"):
            sme_step(rho, np.zeros((2, 2)), spec, np.array([5.0]), dt=0.1)

    def test_step_guard_judges_each_member_alone(self):
        # a large |rho|_1 elsewhere in the batch must not cover a member's step
        diag = np.eye(8, dtype=complex) / 8.0  # |rho|_1 = 1
        coherent = np.full((8, 8), 1.0 / 8.0, complex)  # |rho|_1 = 8
        inc = np.zeros((8, 8), complex)
        inc[0, 0] = 0.125
        with pytest.raises(GuardError, match="step-size"):
            _step_guard(diag, inc, 1)
        with pytest.raises(GuardError, match="step-size"):
            _step_guard(np.stack([diag, coherent]), np.stack([inc, np.zeros_like(inc)]), 1)
        _step_guard(np.stack([diag, coherent]), np.stack([0.5 * inc, 4.0 * inc]), 1)


class TestFeedbackStep:
    def test_constant_potential_is_global_phase(self, rng):
        rho = random_density_matrix(rng, 5)
        np.testing.assert_allclose(feedback_step(rho, np.full(5, 2.0), 0.3), rho,
                                   atol=1e-15)

    def test_diagonal_rho_unchanged(self, rng):
        rho = np.diag(rng.random(6)).astype(complex)
        v = rng.standard_normal(6)
        np.testing.assert_allclose(feedback_step(rho, v, 0.1), rho, atol=1e-15)

    def test_composition_agrees_at_three_halves_order(self, rng):
        # Richardson order-of-convergence oracle: same unit noise rescaled per dt
        mon = toy_monitoring((0.25, -0.15))
        fb = FeedbackSpec(family=np.array([[0.18, -0.12]]), kernel=mon.kernel)
        rho0 = random_density_matrix(rng, 2)
        H = np.array([[0.3, 0.2], [0.2, -0.1]])
        dts = np.array([1e-2, 1e-3, 1e-4])
        diffs = np.zeros(3)
        for trial in range(8):
            xi = mon.sample_noise_flat(1.0, rng)  # unit-covariance draw
            for i, dt in enumerate(dts):
                noise = xi / np.sqrt(dt)
                direct = combined_step(rho0, H, mon, fb, noise, dt)
                free = sme_step(rho0, H, mon, noise, dt)
                signal = mon.means(rho0) + noise
                composed = feedback_step(free, fb.potential(signal), dt)
                diffs[i] += np.linalg.norm(direct - composed)
        slope = np.polyfit(np.log(dts), np.log(diffs / 8.0), 1)[0]
        assert slope == pytest.approx(1.5, abs=0.2)

    def test_grid_composition_same_order(self, rng):
        # same convergence oracle on a lattice model with weak couplings
        _, mon, fb = grid_specs(G=0.05, gamma=0.5)
        rho0 = random_density_matrix(rng, 8)
        H = np.zeros((8, 8))
        dts = np.array([1e-3, 1e-4, 1e-5])
        diffs = np.zeros(3)
        for trial in range(6):
            xi = mon.sample_noise_flat(1.0, rng)
            for i, dt in enumerate(dts):
                noise = xi / np.sqrt(dt)
                direct = combined_step(rho0, H, mon, fb, noise, dt)
                free = sme_step(rho0, H, mon, noise, dt)
                signal = mon.means(rho0) + noise
                composed = feedback_step(free, fb.potential(signal), dt)
                diffs[i] += np.linalg.norm(direct - composed)
        slope = np.polyfit(np.log(dts), np.log(diffs / 6.0), 1)[0]
        assert slope == pytest.approx(1.5, abs=0.2)


class TestCombinedStep:
    def test_zero_feedback_family_reduces_to_sme(self, rng):
        grid, mon, _ = grid_specs()
        fb0 = FeedbackSpec(family=np.zeros_like(mon.family), kernel=mon.kernel,
                           grid=grid)
        rho = random_density_matrix(rng, 8)
        H = rng.standard_normal((8, 8))
        H = H + H.T
        noise = mon.sample_noise_flat(1e-3, np.random.Generator(np.random.Philox(2)))
        a = combined_step(rho, H, mon, fb0, noise, 1e-3)
        b = sme_step(rho, H, mon, noise, 1e-3)
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_hermiticity_preserved(self, rng):
        _, mon, fb = grid_specs()
        rho = random_density_matrix(rng, 8)
        for _ in range(10):
            noise = mon.sample_noise_flat(1e-4, rng)
            rho = combined_step(rho, np.zeros((8, 8)), mon, fb, noise, 1e-4)
            assert np.abs(rho - rho.conj().T).max() < 1e-12

    def test_pathwise_trace_preservation_with_feedback(self, rng):
        _, mon, fb = grid_specs()
        rho = random_density_matrix(rng, 8)
        H = np.zeros((8, 8))
        for _ in range(20):
            noise = mon.sample_noise_flat(1e-4, rng)
            rho = combined_step(rho, H, mon, fb, noise, 1e-4)
            assert abs(np.trace(rho).real - 1.0) < 1e-12


@pytest.mark.parametrize("step", ["sme", "combined", "sse"])
def test_grid_shaped_noise_is_rejected(step, rng):
    # noise is flat, (..., n_obs); a (4, 4) field on a 16-site 2-d grid is not
    spec = ModelSpec(kind="csl", grid=LatticeGrid((4, 4), 1.0), particles=ParticleSet([1.0]),
                     G=0.2)
    model = build_model(spec)
    mon, fb, H = model.monitoring, model.feedback, model.hamiltonian
    noise = mon.kernel.sample_noise(1e-3, rng)
    assert noise.shape == (4, 4)
    psi = random_state(rng, 16)
    rho = np.outer(psi, psi.conj())
    calls = {"sme": lambda: sme_step(rho, H, mon, noise, 1e-3),
             "combined": lambda: combined_step(rho, H, mon, fb, noise, 1e-3),
             "sse": lambda: sse_step(psi, model.hamiltonian_operator, mon, fb, noise, 1e-3)}
    with pytest.raises(ValueError, match="noise must be flat"):
        calls[step]()


class TestHfbIdentity:
    def test_equal_fields(self, rng):
        a = rng.standard_normal(6)
        assert hfb_identity_check(a, a, random_density_matrix(rng, 6))

    def test_proportional_fields(self, rng):
        a = rng.standard_normal(6)
        assert hfb_identity_check(a, -2.5 * a, random_density_matrix(rng, 6))

    @pytest.mark.parametrize("n", [4, 16])
    def test_paired_families_identity(self, rng, n):
        # the summed-pair identity that builds the deterministic potential
        grid, mon, fb = grid_specs(n=n)
        rho = random_density_matrix(rng, n)
        assert hfb_family_identity_check(mon, fb, rho, tol=1e-12)

    def test_unpaired_single_fields_negative_control(self, rng):
        # a lone non-proportional diagonal pair violates the tensor symmetry
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        b = b - (b @ a) / (a @ a) * a + 0.1  # make it genuinely non-proportional
        assert not hfb_identity_check(a, b, random_density_matrix(rng, 4))

    def test_noncommuting_dense_negative_control(self, rng):
        # the identity needs [A, B] = 0; dense non-commuting pair violates it
        n = 4
        rho = random_density_matrix(rng, n)
        A = rng.standard_normal((n, n))
        A = A + A.T
        B = rng.standard_normal((n, n))
        B = B + B.T
        anti = A @ rho + rho @ A
        lhs = -0.5j * (B @ anti - anti @ B)
        ab = A @ B + B @ A
        rhs = -0.25j * (ab @ rho - rho @ ab)
        assert np.abs(lhs - rhs).max() > 1e-6


class TestMeStep:
    def test_linearity(self, rng):
        _, mon, fb = grid_specs()
        r1 = random_density_matrix(rng, 8)
        r2 = random_density_matrix(rng, 8)
        H = rng.standard_normal((8, 8))
        H = H + H.T
        alpha = 0.3
        lhs = me_step(alpha * r1 + (1 - alpha) * r2, H, mon, fb, 1e-3)
        rhs = (alpha * me_step(r1, H, mon, fb, 1e-3)
               + (1 - alpha) * me_step(r2, H, mon, fb, 1e-3))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_zero_kernel_zero_fb_is_unitary_euler(self, rng):
        spec = MonitoringSpec(family=np.zeros((1, 4)), kernel=MatrixKernel([[1.0]]))
        H = rng.standard_normal((4, 4))
        H = H + H.T
        rho = random_density_matrix(rng, 4)
        got = me_step(rho, H, spec, None, 1e-3)
        np.testing.assert_allclose(got, rho - 1j * 1e-3 * (H @ rho - rho @ H),
                                   atol=1e-15)

    def test_ensemble_average_approaches_me(self):
        # Monte Carlo vs deterministic oracle, light version
        grid = LatticeGrid((2,), 1.0)
        spec = ModelSpec(kind="csl", grid=grid, particles=ParticleSet([1.0]),
                         sigma=0.8, gamma=1.0, G=0.5)
        model = build_model(spec)
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        rho0 = np.outer(psi, psi)
        n_traj, steps, dt = 400, 250, 1e-3
        mean = ensemble_mean(model, rho0, dt, steps, seeds=range(n_traj))
        rho_me = rho0.astype(complex)
        for i in range(steps):
            rho_me = me_step(rho_me, model.hamiltonian, model.monitoring,
                             model.feedback, dt, backaction=model.backaction)
        dist = 0.5 * np.abs(np.linalg.eigvalsh(mean - rho_me)).sum()
        assert dist < 5.0 / np.sqrt(n_traj)

    def test_ensemble_mean_chunk_independent_bitwise(self):
        grid = LatticeGrid((2,), 1.0)
        spec = ModelSpec(kind="csl", grid=grid, particles=ParticleSet([1.0]),
                         sigma=0.35, gamma=0.6, G=0.15)
        model = build_model(spec)
        psi = np.array([1.0, 1.0], complex) / np.sqrt(2.0)
        rho0 = np.outer(psi, psi.conj())
        n = 40
        ref = ensemble_mean(model, rho0, 1e-3, 30, seeds=range(n), chunk=1)
        for chunk in (7, n):
            got = ensemble_mean(model, rho0, 1e-3, 30, seeds=range(n), chunk=chunk)
            assert got.tobytes() == ref.tobytes()


class TestSseStep:
    def test_norm_exactly_one(self, rng):
        _, mon, fb = grid_specs()
        psi = random_state(rng, 8)
        noise = mon.sample_noise_flat(1e-4, rng)
        out = sse_step(psi, DenseOperator(np.zeros((8, 8))), mon, fb, noise, 1e-4)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-14)

    def test_projector_purity_stays_one(self, rng):
        _, mon, fb = grid_specs()
        psi = random_state(rng, 8)
        for _ in range(50):
            noise = mon.sample_noise_flat(1e-4, rng)
            psi = sse_step(psi, DenseOperator(np.zeros((8, 8))), mon, fb, noise, 1e-4)
        rho = np.outer(psi, psi.conj())
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_projector_tracks_combined_step(self, rng):
        # strong one-step consistency of the unravelling: the projector and
        # the matrix step share every noise-linear term, so their difference
        # vanishes at least linearly in dt (the residual is the zero-mean
        # quadratic-noise fluctuation that only averages out over paths)
        mon = toy_monitoring((0.25, -0.15))
        fb = FeedbackSpec(family=np.array([[0.18, -0.12]]), kernel=mon.kernel)
        psi0 = random_state(rng, 2)
        rho0 = np.outer(psi0, psi0.conj())
        H = np.array([[0.3, 0.2], [0.2, -0.1]])
        dts = np.array([1e-2, 1e-3, 1e-4])
        diffs = np.zeros(3)
        for trial in range(8):
            xi = mon.sample_noise_flat(1.0, rng)
            for i, dt in enumerate(dts):
                noise = xi / np.sqrt(dt)
                psi1 = sse_step(psi0, DenseOperator(H), mon, fb, noise, dt)
                rho_sse = np.outer(psi1, psi1.conj())
                rho_dm = combined_step(rho0, H, mon, fb, noise, dt)
                rho_dm = rho_dm / np.trace(rho_dm).real
                diffs[i] += np.linalg.norm(rho_sse - rho_dm)
        slope = np.polyfit(np.log(dts), np.log(diffs / 8.0), 1)[0]
        assert slope >= 0.8

    def test_unravelling_mean_matches_master_equation(self):
        # weak consistency: averaged projectors reproduce the linear evolution
        grid = LatticeGrid((2,), 1.0)
        spec = ModelSpec(kind="csl", grid=grid, particles=ParticleSet([1.0]),
                         sigma=0.8, gamma=1.0, G=0.5)
        model = build_model(spec)
        psi0 = np.array([1.0, 1.0], complex) / np.sqrt(2.0)
        n_traj, steps, dt = 300, 200, 1e-3
        acc = np.zeros((2, 2), complex)
        for seed in range(n_traj):
            rec = run_trajectory(psi0, model, dt, steps, seed=seed,
                                 record_every=steps, snapshot_every=steps)
            _, psi = rec.snapshots[-1]
            acc += np.outer(psi, psi.conj())
        mean = acc / n_traj
        rho_me = np.outer(psi0, psi0.conj())
        for _ in range(steps):
            rho_me = me_step(rho_me, model.hamiltonian, model.monitoring,
                             model.feedback, dt, backaction=model.backaction)
        dist = 0.5 * np.abs(np.linalg.eigvalsh(mean - rho_me)).sum()
        assert dist < 5.0 / np.sqrt(n_traj)


class TestRunTrajectory:
    def test_seed_determinism_bitwise(self):
        grid = LatticeGrid((8,), 1.0)
        spec = ModelSpec(kind="csl", grid=grid, particles=ParticleSet([1.0]),
                         sigma=1.0, gamma=1.0, G=0.1)
        model = build_model(spec)
        psi = np.zeros(8, complex)
        psi[3] = psi[5] = 2**-0.5
        rho = np.outer(psi, psi.conj())
        a = run_trajectory(rho, model, 1e-4, 100, seed=11, record_signal=True,
                           record_density=True, offdiagonal_pairs=[(3, 5)])
        b = run_trajectory(rho, model, 1e-4, 100, seed=11, record_signal=True,
                           record_density=True, offdiagonal_pairs=[(3, 5)])
        c = run_trajectory(rho, model, 1e-4, 100, seed=12)
        np.testing.assert_array_equal(a.purity, b.purity)
        np.testing.assert_array_equal(a.signals, b.signals)
        np.testing.assert_array_equal(a.offdiagonals, b.offdiagonals)
        assert np.abs(a.purity - c.purity).max() > 0

    def test_negligible_kernel_matches_spectral_propagator(self):
        # Euler unitary error stays under 1e-8 for a slow (heavy) particle
        grid = LatticeGrid((16,), 1.0)
        parts = ParticleSet([2000.0])
        spec = ModelSpec(kind="csl", grid=grid, particles=parts,
                         sigma=1.0, gamma=1e-20, G=0.0)
        model = build_model(spec)
        k = grid.k_axes[0]
        psi0 = np.exp(1j * k[1] * grid.axis_coordinates[0]
                      - (grid.axis_coordinates[0] - 8.0) ** 2 / 8.0)
        psi0 = psi0 / np.linalg.norm(psi0)
        rho0 = np.outer(psi0, psi0.conj())
        rec = run_trajectory(rho0, model, 1e-4, 10_000, seed=0, record_every=10_000,
                             snapshot_every=10_000)
        U = spectral_propagator(model.hamiltonian, 1.0)
        expect = U @ rho0 @ U.conj().T
        _, final = rec.snapshots[-1]
        assert np.abs(final - expect).max() < 1e-8

    def test_purity_loss_bounded_by_dt(self):
        # without feedback a pure state stays pure up to the Euler dt error
        grid = LatticeGrid((8,), 1.0)
        spec = ModelSpec(kind="csl", grid=grid, particles=ParticleSet([1.0]),
                         sigma=1.0, gamma=1.0, G=0.0)
        model = build_model(spec)
        psi = np.zeros(8, complex)
        psi[2] = psi[6] = 2**-0.5
        rho = np.outer(psi, psi.conj())
        dt = 1e-3
        rec = run_trajectory(rho, model, dt, 1000, seed=4, record_every=1000)
        assert 1.0 - rec.purity[-1] < 10.0 * dt


RECORD_FIELDS = ("times", "trace", "purity", "positions", "density_means", "signals",
                 "offdiagonals", "min_eigenvalue")


def assert_records_bitwise_equal(a, b):
    assert a.seed == b.seed
    for name in RECORD_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.tobytes() == y.tobytes(), name
    assert [t for t, _ in a.snapshots] == [t for t, _ in b.snapshots]
    for (_, x), (_, y) in zip(a.snapshots, b.snapshots):
        assert x.tobytes() == y.tobytes()
    assert a.positivity_warnings == b.positivity_warnings


class TestRunEnsemble:
    # 300 steps: one full noise block and a partial one
    steps, dt = 300, 1e-4
    options = dict(record_every=7, record_signal=True, record_density=True,
                   offdiagonal_pairs=[(3, 5)], snapshot_every=100)

    @staticmethod
    def cat_model():
        grid = LatticeGrid((8,), 1.0)
        spec = ModelSpec(kind="csl", grid=grid, particles=ParticleSet([1.0]),
                         sigma=1.0, gamma=1.0, G=0.1)
        psi = np.zeros(8, complex)
        psi[3] = psi[5] = 2**-0.5
        return build_model(spec), psi

    @pytest.mark.parametrize("representation", ["density", "pure"])
    def test_member_equals_run_trajectory_bitwise(self, representation, monkeypatch):
        model, psi = self.cat_model()
        initial = psi if representation == "pure" else np.outer(psi, psi.conj())
        seeds = [11, 3, 12]
        batched = run_ensemble(initial, model, self.dt, self.steps, seeds, **self.options)
        monkeypatch.setattr(engine, "BATCH_BYTES", 1)  # one member per batch
        split = run_ensemble(initial, model, self.dt, self.steps, seeds, **self.options)
        for seed, a, b in zip(seeds, batched, split):
            one = run_trajectory(initial, model, self.dt, self.steps, seed, **self.options)
            assert_records_bitwise_equal(a, one)
            assert_records_bitwise_equal(b, one)

    def test_blocked_noise_matches_per_step_draws(self):
        # reference loop: a fresh single draw every step, as the stream is read
        model, psi = self.cat_model()
        rho0 = np.outer(psi, psi.conj())
        seed = 5
        rec = run_ensemble(rho0, model, self.dt, self.steps, [seed],
                           record_every=self.steps, record_signal=True,
                           snapshot_every=self.steps)[0]
        rng = np.random.Generator(np.random.Philox(seed))
        mon = model.monitoring
        rho = rho0
        for i in range(1, self.steps + 1):
            noise = mon.sample_noise_flat(self.dt, rng)
            signal = mon.means(rho) + noise
            rho = combined_step(rho, model.hamiltonian, mon, model.feedback, noise, self.dt,
                                step=i)
        assert rec.snapshots[-1][1].tobytes() == rho.tobytes()
        assert rec.signals[-1].tobytes() == signal.tobytes()

    def test_one_kernel_apply_per_noise_block(self, monkeypatch):
        # the conditioning field of a noise block is computed once, not per step
        model, psi = self.cat_model()
        rho0 = np.outer(psi, psi.conj())
        model.monitoring.pair_rate  # the rate table is built on first use, outside the count
        calls = []
        apply = CorrelationKernel.apply

        def counting_apply(kernel, f):
            calls.append(np.shape(f))
            return apply(kernel, f)

        monkeypatch.setattr(CorrelationKernel, "apply", counting_apply)
        run_ensemble(rho0, model, self.dt, 600, [4], record_every=600,
                     monitor_positivity=False)
        assert len(calls) == -(-600 // engine.NOISE_BLOCK) == 3

    def test_rate_tables_built_on_first_use(self):
        model, psi = self.cat_model()
        run_trajectory(psi, model, self.dt, 20, 0)
        assert "pair_rate" not in vars(model.monitoring)  # the pure path never reads it
        assert "pair_rate_inverse" not in vars(model.feedback)
        run_trajectory(np.outer(psi, psi.conj()), model, self.dt, 20, 0,
                       monitor_positivity=False)
        assert "pair_rate" in vars(model.monitoring)
        assert "pair_rate_inverse" not in vars(model.feedback)  # only me_step reads it

    @pytest.mark.parametrize("kind", ["sn", "pair"])
    def test_deterministic_baselines_batch(self, kind):
        grid = LatticeGrid((8,), 1.0)
        spec = ModelSpec(kind=kind, grid=grid, particles=ParticleSet([1.0, 1.0]), G=0.3)
        model = build_model(spec)
        psi = np.kron(random_state(np.random.default_rng(1), 8),
                      random_state(np.random.default_rng(2), 8))
        recs = run_ensemble(psi, model, 1e-3, 20, [0, 1], snapshot_every=20)
        a, b = (r.snapshots[-1][1] for r in recs)
        assert a.tobytes() == b.tobytes()  # no noise: every seed agrees
        state = psi
        for i in range(1, 21):
            state, _ = model.advance(state, 1e-3, None, step=i)
        np.testing.assert_allclose(a, state, atol=1e-14)


class TestPureRecord:
    """State vectors are recorded from psi itself: every field equals the
    projector formulas bit for bit, and purity is 1 by definition."""

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["csl", "dp"]),
           dims=st.sampled_from([(8,), (6, 5), (4, 4, 4)]),
           G=st.floats(0.01, 0.5), state_seed=st.integers(0, 2**32 - 1),
           seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
           record_every=st.integers(1, 3), data=st.data())
    def test_fields_match_projector_formulas(self, kind, dims, G, state_seed, seeds,
                                             record_every, data):
        grid = LatticeGrid(dims, 1.0)
        model = build_model(ModelSpec(kind=kind, grid=grid, particles=ParticleSet([1.0]),
                                      sigma=1.0, G=G))
        n = grid.n_sites
        psi = random_state(np.random.default_rng(state_seed), n)
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        pairs = data.draw(st.lists(pair, min_size=1, max_size=4))
        x = data.draw(st.integers(0, n - 1))
        pairs += [(x, x), pairs[0], pairs[0][::-1]]

        stepped = []  # (states, signals) after every step, seen through Model.advance
        advance = model.advance

        def spy(*args, **kwargs):
            out = advance(*args, **kwargs)
            stepped.append(tuple(a.copy() for a in out))
            return out

        model.advance = spy
        steps = 5
        recs = run_ensemble(psi, model, 1e-3, steps, seeds, record_every=record_every,
                            record_density=True, record_signal=True,
                            offdiagonal_pairs=pairs)
        rec_steps = sorted(set(range(0, steps + 1, record_every)) | {steps})
        family = model.monitoring.family
        for k, rec in enumerate(recs):
            assert rec.purity.tobytes() == np.ones(len(rec_steps)).tobytes()
            assert rec.min_eigenvalue is None
            for j, i in enumerate(rec_steps):
                state = psi if i == 0 else stepped[i - 1][0][k]
                rho = np.outer(state, state.conj())
                p = np.diagonal(rho).real
                tr = p.sum()
                assert rec.trace[j].tobytes() == tr.tobytes()
                positions = model.position_coordinates @ p / tr
                assert rec.positions[j].tobytes() == positions.tobytes()
                assert rec.density_means[j].tobytes() == (family @ p).tobytes()
                signal = family @ p if i == 0 else stepped[i - 1][1][k]
                assert rec.signals[j].tobytes() == signal.tobytes()
                expect = np.array([abs(rho[a, b]) for a, b in pairs])
                assert rec.offdiagonals[j].tobytes() == expect.tobytes()

    def test_positivity_monitoring_needs_density_matrix(self):
        model, psi = TestRunEnsemble.cat_model()
        with pytest.raises(ValueError, match="density matrix"):
            run_trajectory(psi, model, 1e-4, 5, 0, monitor_positivity=True)

    def test_record_memory_below_one_projector(self):
        # n_cfg = 1024: a projector would take 16 MiB; the run must not build one
        grid = LatticeGrid((32, 32), 1.0)
        model = build_model(ModelSpec(kind="csl", grid=grid, particles=ParticleSet([1.0]),
                                      sigma=1.0, G=0.1))
        n = grid.n_sites
        psi = random_state(np.random.default_rng(0), n)
        model.monitoring.self_quadratic  # a (n_obs, n) table built on first use, outside the count
        tracemalloc.start()
        try:
            run_trajectory(psi, model, 1e-3, 4, 0, record_density=True, record_signal=True,
                           offdiagonal_pairs=[(0, 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * n

    def test_two_particle_pure_run_below_dense_hamiltonian(self):
        # n_cfg = 1296: the dense H would take 8 n^2 bytes; neither the build
        # nor a pure run of two particles makes it
        grid = LatticeGrid((6, 6), 1.0)
        n = grid.n_sites**2
        psi = random_state(np.random.default_rng(0), n)
        tracemalloc.start()
        try:
            model = build_model(ModelSpec(kind="dp", grid=grid, particles=ParticleSet([1.0, 1.0]),
                                          sigma=1.0, G=0.05))
            run_trajectory(psi, model, 1e-3, 4, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's own notes on inf and nan
class TestNonFiniteGuards:
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_step_size_guard(self, rng, bad):
        _, mon, fb = grid_specs()
        rho = random_density_matrix(rng, 8)
        rho[2, 5] = bad
        noise = mon.sample_noise_flat(1e-4, rng)
        with pytest.raises(GuardError, match="'step-size' tripped at step 4: non-finite"):
            combined_step(rho, np.zeros((8, 8)), mon, fb, noise, 1e-4, step=4)

    @pytest.mark.parametrize("kind", ["csl", "sn", "pair"])
    def test_norm_collapse_guard(self, kind):
        # sse_step, sn_step and the pair step: a NaN entry stops the run at step 1
        model = build_model(ModelSpec(kind=kind, grid=LatticeGrid((4,), 1.0),
                                      particles=ParticleSet([1.0, 1.0]), G=0.1))
        psi = random_state(np.random.default_rng(0), 16)
        psi[3] = np.nan
        with pytest.raises(GuardError, match="'norm-collapse' tripped at step 1: .* non-finite"):
            run_trajectory(psi, model, 1e-3, 3, 0)
