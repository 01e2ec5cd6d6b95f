import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from collapsesim import (LatticeGrid, ParticleSet, build_model, combined_step,
                         closed_form_rate, decoherence_profile,
                         fit_offdiagonal_decay, kappa_scan, linearity_witness,
                         pair_potential_curve, run_ensemble, trace_distance)
from collapsesim.analysis import backaction_prefactor_report, cat_ensembles, united_dp_rate
from collapsesim.kernels import periodic_image_correction
from collapsesim.models import ModelSpec

from oracles import (delta_inverse_r_squared_integral, erf_pair_potential,
                     inline_cat_ensembles, periodic_delta_phi_squared)


def me_offdiagonal_series(model, rho0, x, y, dt, steps):
    """|rho_xy(t)| under the noise-averaged master equation."""
    rec = run_ensemble(rho0, model, dt, steps, [0], unconditional=True,
                       offdiagonal_pairs=[(x, y)], monitor_positivity=False)[0]
    return rec.times, rec.offdiagonals[:, 0]


def one_particle_spec(kind="csl", n=16, ndim=1, **kw):
    grid = LatticeGrid((n,) * ndim, 1.0)
    base = dict(kind=kind, grid=grid, particles=ParticleSet([1.0], kinetic=[False]),
                sigma=1.0, gamma=1.0, kappa=2.0, G=1.0)
    base.update(kw)
    return ModelSpec(**base)


class TestClosedFormRate:
    def test_equal_configurations_zero(self):
        spec = one_particle_spec()
        entry = closed_form_rate(spec, [3], [3])
        assert entry.intrinsic == pytest.approx(0.0, abs=1e-14)
        assert entry.backaction == pytest.approx(0.0, abs=1e-14)

    # frozen: oracles.periodic_delta_phi_squared(d, 32.0) for d = 3..8
    IMAGE_INTEGRAL_32 = {3: 34.340590, 4: 44.293114, 5: 53.502027,
                         6: 61.963570, 7: 69.626090, 8: 76.501822}

    def test_csl_backaction_linear_in_distance(self):
        # single particle, m = G = gamma = 1 on a 32^3 box.  The raw torus
        # rate carries the periodic-image contribution; removing it with the
        # frozen mode-sum oracle values exposes the linear continuum law
        # Gamma_ba(d) = (1/(2 gamma)) * 4 pi G^2 m^2 d up to the sharp
        # kernel's lattice deficit (largest at d = 3).
        spec = one_particle_spec(n=32, ndim=3)
        grid = spec.grid
        ratios = []
        for d, i_per in self.IMAGE_INTEGRAL_32.items():
            entry = closed_form_rate(spec, [0], [grid.site_index((d, 0, 0))])
            corrected = entry.backaction - 0.5 * (i_per - 4.0 * np.pi * d)
            ratios.append(corrected / d)
        ratios = np.array(ratios)
        assert np.abs(ratios / ratios.mean() - 1.0).max() < 0.05
        # slope consistent with the 1/(2 gamma) generator (the published
        # explicit 1/(8 gamma) value would sit at a quarter of this)
        assert ratios.mean() == pytest.approx(2.0 * np.pi, rel=0.10)

    def test_quadrature_identity_oracle(self):
        for d in (2.0, 5.0):
            val = delta_inverse_r_squared_integral(d)
            assert val == pytest.approx(4.0 * np.pi * d, rel=0.01)

    def test_dp_total_doubles_intrinsic_at_kappa_two(self):
        spec = one_particle_spec(kind="dp", n=8, ndim=3, sigma=1.1)
        grid = spec.grid
        entry = closed_form_rate(spec, [0], [grid.site_index((3, 0, 0))])
        assert entry.total == pytest.approx(2.0 * entry.intrinsic,
                                            rel=0.0, abs=1e-10 * entry.total)

    def test_united_form_matches_split(self):
        spec = one_particle_spec(kind="dp", n=8, ndim=3, sigma=1.1, kappa=1.3)
        grid = spec.grid
        entry = closed_form_rate(spec, [1], [grid.site_index((2, 1, 0))])
        united = united_dp_rate(spec, [1], [grid.site_index((2, 1, 0))])
        assert united == pytest.approx(entry.total, rel=1e-12)


class TestFitOffdiagonalDecay:
    def test_me_fit_matches_closed_form(self):
        spec = one_particle_spec(n=16, G=0.4)
        grid = spec.grid
        model = build_model(spec)
        x, y = 2, 6
        rate = closed_form_rate(spec, [x], [y]).total
        dt = 0.005 / rate
        psi = np.zeros(16, complex)
        psi[x] = psi[y] = 2**-0.5
        rho0 = np.outer(psi, psi.conj())
        times, series = me_offdiagonal_series(model, rho0, x, y, dt, 200)
        fitted = fit_offdiagonal_decay(times, series)
        assert fitted == pytest.approx(rate, rel=0.01)

    def test_negligible_kernel_rate_zero(self):
        spec = one_particle_spec(n=8, gamma=1e-18, G=0.0)
        model = build_model(spec)
        psi = np.zeros(8, complex)
        psi[1] = psi[5] = 2**-0.5
        rho0 = np.outer(psi, psi.conj())
        times, series = me_offdiagonal_series(model, rho0, 1, 5, 1e-3, 100)
        assert abs(fit_offdiagonal_decay(times, series)) < 1e-6

    def test_trajectory_ensemble_rate_consistent(self):
        # Monte Carlo oracle: mean of conditional trajectories decays at the
        # closed-form rate within a few standard errors
        spec = one_particle_spec(n=8, G=0.0)
        grid = spec.grid
        model = build_model(spec)
        x, y = 1, 5
        rate = closed_form_rate(spec, [x], [y]).total
        dt = 1.6e-3  # keeps the per-step conditioning kick well under the guard
        steps = 1300
        psi = np.zeros(8, complex)
        psi[x] = psi[y] = 2**-0.5
        rho0 = np.outer(psi, psi.conj())
        n_traj, n_groups = 480, 8
        rates = []
        for g in range(n_groups):
            batch = n_traj // n_groups
            rhos = np.broadcast_to(rho0, (batch, 8, 8)).copy()
            rngs = [np.random.Generator(np.random.Philox(g * batch + i))
                    for i in range(batch)]
            series = np.empty(steps + 1)
            series[0] = abs(rho0[x, y])
            for s in range(1, steps + 1):
                noise = np.stack([model.monitoring.kernel.sample_noise(dt, r)
                                  for r in rngs])
                rhos = combined_step(rhos, model.hamiltonian, model.monitoring,
                                     model.feedback, noise, dt)
                series[s] = abs(rhos[:, x, y].mean())
            rates.append(fit_offdiagonal_decay(dt * np.arange(steps + 1), series))
        rates = np.array(rates)
        se = rates.std(ddof=1) / np.sqrt(n_groups)
        assert abs(rates.mean() - rate) < 3.0 * se


class TestKappaScan:
    def test_minimum_at_two(self):
        spec = one_particle_spec(kind="dp", n=8, ndim=3, sigma=1.1)
        rows, best = kappa_scan(spec, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0], 3)
        assert best == 2.0

    def test_ratio_factorizes_exactly(self):
        spec = one_particle_spec(kind="dp", n=8, ndim=3, sigma=1.1)
        rows, _ = kappa_scan(spec, [0.5, 1.0, 2.0, 3.0], 2)
        rates = dict(rows)
        for k, r in rates.items():
            expect = (k / 4.0 + 1.0 / k) / 1.0
            assert r / rates[2.0] == pytest.approx(expect, rel=1e-12)

    def test_symmetry_under_kappa_to_four_over_kappa(self):
        spec = one_particle_spec(kind="dp", n=8, ndim=3, sigma=1.1)
        rows, _ = kappa_scan(spec, [1.0, 4.0], 3)
        assert rows[0][1] == pytest.approx(rows[1][1], rel=1e-12)

    def test_fields_built_once_per_scan(self, monkeypatch):
        # the fields do not depend on kappa: one config_families call per
        # scan, and each row is the profile's total at that kappa, bit for bit
        from dataclasses import replace

        from collapsesim import analysis

        spec = one_particle_spec(kind="dp", n=8, ndim=3, sigma=1.1)
        kappas = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
        want = [decoherence_profile(replace(spec, kappa=k), [3], axis=1).total[0]
                for k in kappas]
        calls, families = [], analysis.config_families

        def spy(*args, **kwargs):
            calls.append(args)
            return families(*args, **kwargs)

        monkeypatch.setattr(analysis, "config_families", spy)
        rows, _ = kappa_scan(spec, kappas, 3, axis=1)
        assert len(calls) == 1
        assert [r for _, r in rows] == [float(w) for w in want]


def density(ensemble):
    return sum(w * np.outer(p, p.conj()) for w, p in ensemble)


class TestCatEnsembles:
    @settings(max_examples=100, deadline=None)
    @given(parts=st.integers(2, 16).flatmap(lambda n: arrays(
        np.float64, (4, n), elements=st.floats(-1.0, 1.0))))
    def test_equals_inline_construction_bitwise(self, parts):
        # the one library construction gives the bytes of the inline one it replaced
        a, b = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
        assume(min(np.linalg.norm(a), np.linalg.norm(b)) > 1e-3)
        a = a / np.linalg.norm(a)
        assume(np.linalg.norm(b - (a.conj() @ b) * a) > 0.1 * np.linalg.norm(b))
        ours, reference = cat_ensembles(a, b), inline_cat_ensembles(a, b)
        for got, want in zip(ours, reference):
            assert [w for w, _ in got] == [w for w, _ in want] == [0.5, 0.5]
            assert all(p.tobytes() == q.tobytes() for (_, p), (_, q) in zip(got, want))
        # superposition and mixture prepare one density matrix
        np.testing.assert_allclose(density(ours[0]), density(ours[1]), rtol=0, atol=1e-15)


class TestLinearityWitness:
    @staticmethod
    def _ensembles(n):
        grid = LatticeGrid((n,), 1.0)
        x = grid.axis_coordinates[0]
        a = np.exp(-((x - n / 4.0) ** 2) / 2.0).astype(complex)
        a /= np.linalg.norm(a)
        b = np.exp(-((x - 3.0 * n / 4.0) ** 2) / 2.0).astype(complex)
        b = b - (a.conj() @ b) * a
        b /= np.linalg.norm(b)
        plus, minus = (a + b) / np.sqrt(2), (a - b) / np.sqrt(2)
        return grid, [(0.5, plus), (0.5, minus)], [(0.5, a), (0.5, b)]

    def test_identical_ensembles_same_seeds_distance_zero(self):
        from collapsesim.analysis import _ensemble_average

        grid, sup, _ = self._ensembles(8)
        spec = ModelSpec(kind="csl", grid=grid, particles=ParticleSet([1.0]),
                         sigma=1.0, gamma=1.0, G=0.2)
        model = build_model(spec)
        a = _ensemble_average(model, sup, t=0.02, dt=1e-4, n_samples=20, seed0=5)
        b = _ensemble_average(model, sup, t=0.02, dt=1e-4, n_samples=20, seed0=5)
        assert trace_distance(a, b) == 0.0

    def test_monitored_model_is_ensemble_linear(self):
        grid, sup, mix = self._ensembles(8)
        spec = ModelSpec(kind="csl", grid=grid, particles=ParticleSet([1.0]),
                         sigma=1.0, gamma=1.0, G=0.2)
        model = build_model(spec)
        report = linearity_witness(model, sup, mix, t=0.1, dt=1e-4,
                                   n_samples=150, seed0=0)
        assert report.linear
        assert report.distance < report.tolerance

    @pytest.mark.xfail(strict=True, reason=(
        "the Euler sn step renormalizes (1 - i dt (H + V)) psi by a state-dependent "
        "norm, so plain Schroedinger evolution (G = 0) reads nonlinear: distance 1.6e-8 "
        "against the sn tolerance 1e-9; the fix is an exact-phase step, exp(-i dt v) "
        "applied to U psi with U = exp(-i H dt), which keeps the norm without renormalizing"))
    def test_state_sourced_baseline_without_coupling_is_linear(self):
        # criterion 9's 12-site ensembles, at t = 0.1 and dt = 1e-4
        grid, sup, mix = self._ensembles(12)
        model = build_model(ModelSpec(kind="sn", grid=grid, particles=ParticleSet([1.0]), G=0.0))
        assert linearity_witness(model, sup, mix, t=0.1, dt=1e-4).linear

    def test_state_sourced_baseline_is_not(self):
        grid, sup, mix = self._ensembles(12)
        spec = ModelSpec(kind="sn", grid=grid, particles=ParticleSet([1.0]), G=0.5)
        model = build_model(spec)
        # time picked by the pilot scan in the acceptance suite
        report = linearity_witness(model, sup, mix, t=0.3, dt=1e-4)
        assert not report.linear
        assert report.distance > 0.1


class TestRateInvariants:
    def test_rate_equals_me_log_derivative_all_kinds(self):
        for kind, ndim, n in (("csl", 1, 12), ("dp", 3, 6)):
            spec = one_particle_spec(kind=kind, n=n, ndim=ndim, sigma=1.1, G=0.5)
            grid = spec.grid
            model = build_model(spec)
            x = 1
            y = grid.site_index((3,) + (0,) * (ndim - 1))
            rate = closed_form_rate(spec, [x], [y]).total
            dt = 1e-3 / rate
            psi = np.zeros(grid.n_sites, complex)
            psi[x] = psi[y] = 2**-0.5
            rho0 = np.outer(psi, psi.conj())
            times, series = me_offdiagonal_series(model, rho0, x, y, dt, 50)
            log_deriv = (np.log(series[1]) - np.log(series[0])) / dt
            assert -log_deriv == pytest.approx(rate, rel=1e-3)

    def test_csl_intrinsic_shape_ratios(self):
        # quadratic at short distance, saturating at long distance
        spec_short = one_particle_spec(n=32, ndim=3, sigma=8.0)
        grid = spec_short.grid
        g1 = closed_form_rate(spec_short, [0], [grid.site_index((2, 0, 0))]).intrinsic
        g2 = closed_form_rate(spec_short, [0], [grid.site_index((4, 0, 0))]).intrinsic
        assert 3.8 <= g2 / g1 <= 4.0
        spec_long = one_particle_spec(n=32, ndim=3, sigma=2.0)
        s1 = closed_form_rate(spec_long, [0], [grid.site_index((8, 0, 0))]).intrinsic
        s2 = closed_form_rate(spec_long, [0], [grid.site_index((16, 0, 0))]).intrinsic
        assert 1.0 <= s2 / s1 <= 1.1

    def test_backaction_rate_scales_inversely_with_gamma(self):
        vals = []
        for gamma in (0.5, 1.0, 4.0):
            spec = one_particle_spec(n=12, gamma=gamma)
            entry = closed_form_rate(spec, [2], [7])
            vals.append(entry.backaction * gamma)
        assert np.abs(np.diff(vals)).max() < 1e-10 * abs(vals[0])

    def test_rate_profile_entries(self):
        spec = one_particle_spec(n=12)
        prof = decoherence_profile(spec, [0, 1, 2, 3])
        assert prof.intrinsic[0] == 0.0 and prof.backaction[0] == 0.0
        assert np.all(np.diff(prof.total) > 0)

    def test_profile_builds_each_configuration_once(self, monkeypatch):
        # one config_families call over site 0 and every separation's site,
        # and each entry is the two-configuration closed-form rate, bit for bit
        from collapsesim import analysis

        spec = one_particle_spec(kind="dp", n=8, ndim=3, sigma=1.1)
        seps = list(range(8))
        want = [closed_form_rate(spec, [0], [spec.grid.axis_site(d, 1)]) for d in seps]
        calls, families = [], analysis.config_families

        def spy(spec, configs):
            calls.append(len(configs))
            return families(spec, configs)

        monkeypatch.setattr(analysis, "config_families", spy)
        prof = decoherence_profile(spec, seps, axis=1)
        assert calls == [len(seps) + 1]
        assert prof.intrinsic.tolist() == [e.intrinsic for e in want]
        assert prof.backaction.tolist() == [e.backaction for e in want]


class TestPairPotentialCurve:
    def test_newton_ratio_with_correction(self):
        grid = LatticeGrid((32, 32, 32), 1.0)
        spec = ModelSpec(kind="csl", grid=grid,
                         particles=ParticleSet([1.0, 1.0]), sigma=1.0, G=1.0)
        rows = pair_potential_curve(spec, [8])
        assert rows[0].newton_ratio == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("dims, spacing", [
        ((8, 8), 1.0), ((8, 8, 6), 1.0), ((6, 6, 6), (1.0, 1.0, 2.0))])
    def test_no_correction_off_cubic_3d_grids(self, dims, spacing):
        spec = ModelSpec(kind="csl", grid=LatticeGrid(dims, spacing),
                         particles=ParticleSet([1.0, 2.0]), sigma=1.0, G=0.5)
        rows = pair_potential_curve(spec, [0, 1, 2, 3])
        assert all(row.corrected == row.potential for row in rows)

    def test_cubic_correction_is_the_image_term(self):
        spec = ModelSpec(kind="csl", grid=LatticeGrid((8, 8, 8), 1.5),
                         particles=ParticleSet([1.0, 2.0]), sigma=1.0, G=0.5)
        zero, *rows = pair_potential_curve(spec, [0, 1, 2, 3])
        assert zero.corrected == zero.potential
        for row in rows:
            image = 0.5 * 1.0 * 2.0 * periodic_image_correction(row.separation, 12.0)
            assert row.corrected == row.potential + image
            assert image != 0.0


    @pytest.mark.parametrize("kind, sigma, bound", [
        ("csl", 1.0, 0.005), ("csl", 2.0, 0.01), ("dp", 1.0, 0.005), ("dp", 2.0, 0.02)])
    def test_short_distance_cutoff_is_the_erf_law(self, kind, sigma, bound):
        # below a few sigma the pair potential follows the smeared-source law
        # -G m1 m2 erf(d / (sqrt(2) sigma_eff)) / d, not -G m1 m2 / d; csl
        # feeds back the point potential, dp smears it.  The bounds hold at
        # L = 32 and grow with sigma / L.
        spec = ModelSpec(kind=kind, grid=LatticeGrid((32, 32, 32), 1.0),
                         particles=ParticleSet([1.0, 1.0]), sigma=sigma, G=1.0)
        smeared = spec.feedback_smearing
        assert smeared == (kind == "dp")
        rows = pair_potential_curve(spec, range(1, 9))
        errors = [abs(row.corrected / erf_pair_potential(row.separation, 1.0, 1.0, 1.0, sigma,
                                                         smeared) - 1.0) for row in rows]
        assert max(errors) < bound
        assert abs(rows[0].corrected / (-1.0 / rows[0].separation) - 1.0) > 0.25


class TestPrefactorReport:
    def test_discrepancy_reported(self):
        rep = backaction_prefactor_report(gamma=2.0)
        assert rep["generator_prefactor"] == pytest.approx(0.25)
        assert rep["published_explicit_prefactor"] == pytest.approx(1.0 / 16.0)
        assert rep["ratio"] == pytest.approx(4.0)


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        a = np.zeros((3, 3), complex)
        a[0, 0] = 1.0
        b = np.zeros((3, 3), complex)
        b[1, 1] = 1.0
        assert trace_distance(a, b) == pytest.approx(1.0)
