"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Quantitative comparisons against continuum laws use the independent
oracles in oracles.py (Ewald-style mode sums, radial quadrature); values
that are expensive to regenerate are frozen with their provenance noted.
"""

import time

import numpy as np
import pytest

from collapsesim import (LatticeGrid, MatrixKernel, ParticleSet,
                         build_backaction_hamiltonian, build_model,
                         combined_step, ensemble_mean, feedback_step,
                         hfb_identity_check, me_step, run_trajectory, sme_step,
                         trace_distance)
from collapsesim.analysis import (backaction_prefactor_report, closed_form_rate,
                                  kappa_scan, linearity_witness)
from collapsesim.engine import FeedbackSpec, MonitoringSpec, hfb_family_identity_check
from collapsesim.kernels import CorrelationKernel
from collapsesim.models import (ModelSpec, density_family,
                                kappa_decoherence_coefficient, newton_family,
                                sn_step)

from conftest import random_density_matrix
from oracles import (delta_inverse_r_squared_integral, periodic_coulomb_modesum)


def report(num, text):
    print(f"\nACCEPTANCE {num:2d} PASS: {text}")


def test_criterion_01_pair_potential_emergence():
    # two particles on a 64-site chain embedded in a periodic 3d box,
    # sigma = 1 spacing: the emergent potential reproduces -G m1 m2 / d
    # within 2% for d in [8 sigma, L/4] after removing the periodic-image
    # contribution (independent mode-sum oracle)
    t0 = time.perf_counter()
    n, G = 64, 1.0
    grid = LatticeGrid((n, n, n), 1.0)
    pair = ParticleSet([1.0, 1.0])
    spec = ModelSpec(kind="csl", grid=grid, particles=pair, sigma=1.0, G=G)
    ds = list(range(8, n // 4 + 1))
    configs = [[0, grid.site_index((d, 0, 0))] for d in ds]
    v_pair = build_backaction_hamiltonian(spec, configs=configs).values
    v_self = 2.0 * build_backaction_hamiltonian(
        ModelSpec(kind="csl", grid=grid, particles=ParticleSet([1.0]),
                  sigma=1.0, G=G), configs=[[0]]).values[0]
    worst = 0.0
    for d, v in zip(ds, v_pair):
        correction = periodic_coulomb_modesum([d, 0, 0], float(n)) - 1.0 / d
        v_corr = (v - v_self) + G * correction
        rel = abs(v_corr - (-G / d)) / (G / d)
        worst = max(worst, rel)
        assert rel < 0.02, f"d={d}: relative error {rel:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"Newton pair potential within {worst:.2%} of -G m1 m2/d over "
              f"d in [8, {n//4}] ({elapsed:.1f} s)")


def test_criterion_02_no_dynamical_self_interaction():
    grid = LatticeGrid((8, 8, 8), 1.0)
    one = ParticleSet([1.0])
    spec = ModelSpec(kind="csl", grid=grid, particles=one, sigma=1.2, G=1.0)
    v = build_backaction_hamiltonian(spec)
    assert v.spread() < 1e-10
    builds = [build_backaction_hamiltonian(
        ModelSpec(kind="csl", grid=grid, particles=one, sigma=1.2, G=1.0,
                  gamma=g)).values for g in (0.1, 1.0, 10.0)]
    assert np.abs(builds[1] - builds[0]).max() <= 1e-14
    assert np.abs(builds[2] - builds[0]).max() <= 1e-14
    report(2, f"single-particle potential spread {v.spread():.2e}; "
              f"rebuilds under gamma in (0.1, 1, 10) identical")


def test_criterion_03_csl_backaction_linearity():
    t0 = time.perf_counter()
    n = 32
    grid = LatticeGrid((n, n, n), 1.0)
    spec = ModelSpec(kind="csl", grid=grid, particles=ParticleSet([1.0], kinetic=[False]),
                     sigma=1.0, gamma=1.0, G=1.0)
    # frozen: oracles.periodic_delta_phi_squared(d, 32.0), d = 3..8
    image_integral = {3: 34.340590, 4: 44.293114, 5: 53.502027,
                      6: 61.963570, 7: 69.626090, 8: 76.501822}
    ratios = []
    for d, i_per in image_integral.items():
        entry = closed_form_rate(spec, [0], [grid.site_index((d, 0, 0))])
        corrected = entry.backaction - 0.5 * (i_per - 4.0 * np.pi * d)
        ratios.append(corrected / d)
    ratios = np.array(ratios)
    deviation = np.abs(ratios / ratios.mean() - 1.0).max()
    assert deviation < 0.05
    # independent radial quadrature confirms the continuum identity
    for d in (3.0, 8.0):
        quad = delta_inverse_r_squared_integral(d)
        assert quad == pytest.approx(4.0 * np.pi * d, rel=0.01)
    rep = backaction_prefactor_report(gamma=1.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, f"Gamma_ba(d)/d constant to {deviation:.2%} over d in [3, 8]; "
              f"quadrature identity 4 pi d confirmed to 1%; prefactor used "
              f"{rep['generator_prefactor']:.3g}/gamma vs published explicit "
              f"{rep['published_explicit_prefactor']:.3g}/gamma (reported, not "
              f"asserted; ratio {rep['ratio']:.0f}) ({elapsed:.1f} s)")


def test_criterion_04_csl_intrinsic_rate_shape():
    n = 64
    grid = LatticeGrid((n, n, n), 1.0)
    one = ParticleSet([1.0], kinetic=[False])

    def intrinsic(sigma, d):
        spec = ModelSpec(kind="csl", grid=grid, particles=one, sigma=sigma,
                         gamma=1.0, G=1.0)
        return closed_form_rate(spec, [0], [grid.site_index((d, 0, 0))]).intrinsic

    # d = sigma/4: quadratic regime
    r_short = intrinsic(8.0, 4) / intrinsic(8.0, 2)
    assert 3.8 <= r_short <= 4.0
    # d = 8 sigma: saturated regime
    r_long = intrinsic(2.0, 32) / intrinsic(2.0, 16)
    assert 1.0 <= r_long <= 1.1
    report(4, f"Gamma(2d)/Gamma(d) = {r_short:.3f} at d = sigma/4 and "
              f"{r_long:.6f} at d = 8 sigma")


def test_criterion_05_dp_unification_and_kappa():
    rng = np.random.Generator(np.random.Philox(2024))
    grid = LatticeGrid((4, 4, 4), 1.0)
    one = ParticleSet([1.0], kinetic=[False])
    spec = ModelSpec(kind="dp", grid=grid, particles=one, sigma=1.1,
                     kappa=2.0, G=1.0)
    model = build_model(spec)
    split_rate = (0.125 * model.monitoring.pair_rate
                  + 0.5 * model.feedback.pair_rate_inverse)
    # united local form from the gradient quadratic form of the smeared
    # potential family (Parseval route)
    phi = model.feedback.family.reshape(grid.dims + (-1,))
    F = np.fft.fftn(phi, axes=(0, 1, 2)).reshape(-1, 64)
    w = grid.k_squared.reshape(-1, 1)
    gram = ((w * F).conj().T @ F).real * grid.cell_volume / grid.n_sites
    diag = np.diag(gram)
    united_rate = (kappa_decoherence_coefficient(2.0) / (8.0 * np.pi * spec.G)
                   * (diag[:, None] + diag[None, :] - gram - gram.T))
    worst = 0.0
    for _ in range(20):
        rho = random_density_matrix(rng, 64)
        diff = np.abs(split_rate * rho - united_rate * rho).max()
        worst = max(worst, diff)
        assert diff < 1e-10
    # kappa scan: exact minimum at 2 on the stated grid
    rows, best = kappa_scan(spec, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0], 2)
    assert best == 2.0
    entry = closed_form_rate(spec, [0], [grid.site_index((2, 0, 0))])
    assert entry.total == pytest.approx(2.0 * entry.intrinsic,
                                        abs=1e-10 * entry.total)
    report(5, f"split vs united generator agree to {worst:.1e}; kappa scan "
              f"minimum at 2; total rate = 2 x intrinsic at kappa = 2")


def test_criterion_06_ensemble_me_equivalence():
    t0 = time.perf_counter()
    grid = LatticeGrid((2,), 1.0)
    spec = ModelSpec(kind="csl", grid=grid, particles=ParticleSet([1.0]),
                     sigma=0.35, gamma=0.6, G=0.15)
    model = build_model(spec)
    psi = np.array([1.0, 1.0], complex) / np.sqrt(2.0)
    rho0 = np.outer(psi, psi.conj())
    n_traj, steps, dt = 2000, 1000, 1e-3
    mean = ensemble_mean(model, rho0, dt, steps, seeds=range(n_traj), chunk=250)
    rho_me = rho0.copy()
    for i in range(steps):
        rho_me = me_step(rho_me, model.hamiltonian, model.monitoring,
                         model.feedback, dt, backaction=model.backaction)
    dist = trace_distance(mean, rho_me)
    tol = 5.0 / np.sqrt(n_traj)
    elapsed = time.perf_counter() - t0
    assert dist < tol
    assert elapsed < 120.0
    report(6, f"2000-trajectory mean vs master equation: trace distance "
              f"{dist:.4f} < {tol:.4f} at t = 1 ({elapsed:.0f} s)")


def test_criterion_07_conditional_purity_scaling():
    # the *mean* purity deficit at t = 1 shrinks linearly with the step; its
    # path-wise scatter is sqrt(dt)-sized, so each dt needs an ensemble.
    # (The Euler deficit comes out slightly negative -- a transient purity
    # overshoot -- so the fit is on its magnitude.)
    grid = LatticeGrid((2,), 1.0)
    spec = ModelSpec(kind="csl", grid=grid, particles=ParticleSet([1.0]),
                     sigma=0.35, gamma=0.3, G=0.0)
    model = build_model(spec)
    amp = 1.0 / np.sqrt(spec.gamma * grid.cell_volume)
    psi = np.array([1.0, 1.0], complex) / np.sqrt(2.0)
    rho0 = np.outer(psi, psi.conj())
    dts = np.array([1e-2, 1e-3, 1e-4])
    ensembles = (2000, 2000, 3000)
    deficits, errors = [], []
    for dt, n_traj in zip(dts, ensembles):
        steps = int(round(1.0 / dt))
        collected = []
        for start in range(0, n_traj, 500):
            b = min(500, n_traj - start)
            noise = np.empty((b, steps, 2))
            for i in range(b):
                rng = np.random.Generator(np.random.Philox(5000 + start + i))
                noise[i] = rng.standard_normal((steps, 2)) * amp / np.sqrt(dt)
            rhos = np.broadcast_to(rho0, (b, 2, 2)).copy()
            for s in range(steps):
                if s % 1000 == 0:  # state-independent conditioning fields, 1000 steps at once
                    fields = model.monitoring.conditioning_field(
                        noise[:, s:s + 1000].transpose(1, 0, 2))
                rhos = sme_step(rhos, model.hamiltonian, model.monitoring,
                                noise[:, s], dt, field=fields[s % 1000])
            tr = np.einsum("bxx->b", rhos).real
            purity = np.einsum("bxy,byx->b", rhos, rhos).real / tr**2
            collected.append(1.0 - purity)
        d = np.concatenate(collected)
        deficits.append(float(d.mean()))
        errors.append(float(d.std() / np.sqrt(n_traj)))
        assert abs(d.mean()) > 4.0 * errors[-1]  # resolved above Monte Carlo noise
    slope = np.polyfit(np.log(dts), np.log(np.abs(deficits)), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.2)
    report(7, f"|1 - purity| at t = 1 scales as dt^{slope:.2f} "
              f"(mean deficits {deficits[0]:.2e}, {deficits[1]:.2e}, "
              f"{deficits[2]:.2e})")


def test_criterion_08_feedback_composition_order():
    rng = np.random.Generator(np.random.Philox(99))
    mon = MonitoringSpec(family=np.array([[0.25, -0.15]]),
                         kernel=MatrixKernel([[1.0]]))
    fb = FeedbackSpec(family=np.array([[0.18, -0.12]]), kernel=mon.kernel)
    rho0 = random_density_matrix(rng, 2)
    H = np.array([[0.3, 0.2], [0.2, -0.1]])
    dts = np.array([1e-2, 1e-3, 1e-4])
    diffs = np.zeros(3)
    for trial in range(10):
        xi = mon.sample_noise_flat(1.0, rng)
        for i, dt in enumerate(dts):
            noise = xi / np.sqrt(dt)
            direct = combined_step(rho0, H, mon, fb, noise, dt)
            free = sme_step(rho0, H, mon, noise, dt)
            composed = feedback_step(free, fb.potential(mon.means(rho0) + noise), dt)
            diffs[i] += np.linalg.norm(direct - composed)
    slope = np.polyfit(np.log(dts), np.log(diffs / 10.0), 1)[0]
    assert slope == pytest.approx(1.5, abs=0.2)
    report(8, f"one-step composition difference scales as dt^{slope:.2f}")


def test_criterion_09_linearity_witness():
    grid = LatticeGrid((8,), 1.0)
    x = grid.axis_coordinates[0]
    a = np.exp(-((x - 2.0) ** 2) / 2.0).astype(complex)
    a /= np.linalg.norm(a)
    b = np.exp(-((x - 6.0) ** 2) / 2.0).astype(complex)
    b = b - (a.conj() @ b) * a
    b /= np.linalg.norm(b)
    plus, minus = (a + b) / np.sqrt(2.0), (a - b) / np.sqrt(2.0)
    sup = [(0.5, plus), (0.5, minus)]
    mix = [(0.5, a), (0.5, b)]

    spec = ModelSpec(kind="csl", grid=grid, particles=ParticleSet([1.0]),
                     sigma=1.0, gamma=1.0, G=0.2)
    monitored = build_model(spec)
    rep_mon = linearity_witness(monitored, sup, mix, t=0.1, dt=1e-4,
                                n_samples=400, seed0=0)
    assert rep_mon.linear

    # mean-field baseline: pilot scan picks the most distinguishing time,
    # then the calibrated 0.1 threshold is asserted there
    grid12 = LatticeGrid((12,), 1.0)
    x12 = grid12.axis_coordinates[0]
    a2 = np.exp(-((x12 - 3.0) ** 2) / 2.0).astype(complex)
    a2 /= np.linalg.norm(a2)
    b2 = np.exp(-((x12 - 9.0) ** 2) / 2.0).astype(complex)
    b2 = b2 - (a2.conj() @ b2) * a2
    b2 /= np.linalg.norm(b2)
    sup2 = [(0.5, (a2 + b2) / np.sqrt(2.0)), (0.5, (a2 - b2) / np.sqrt(2.0))]
    mix2 = [(0.5, a2), (0.5, b2)]
    sn = build_model(ModelSpec(kind="sn", grid=grid12,
                               particles=ParticleSet([1.0]), G=0.5))
    pilot = {t: linearity_witness(sn, sup2, mix2, t=t, dt=1e-3).distance
             for t in (0.1, 0.2, 0.3)}
    t_star = max(pilot, key=pilot.get)
    rep_sn = linearity_witness(sn, sup2, mix2, t=t_star, dt=1e-4)
    assert not rep_sn.linear
    assert rep_sn.distance > 0.1
    report(9, f"monitored model linear (distance {rep_mon.distance:.3f} < "
              f"{rep_mon.tolerance:.3f}); state-sourced baseline distance "
              f"{rep_sn.distance:.3f} > 0.1 at t = {t_star}")


def test_criterion_10_invariant_suite():
    rng = np.random.Generator(np.random.Philox(7))
    grid = LatticeGrid((8,), 1.0)
    parts = ParticleSet([1.0])
    kernel = CorrelationKernel("csl", grid, gamma=0.5)
    mon = MonitoringSpec(family=density_family(grid, parts, 1.0), kernel=kernel,
                         grid=grid, sigma=1.0)
    fb = FeedbackSpec(family=newton_family(grid, parts, 0.05, False, 1.0),
                      kernel=kernel, grid=grid)
    H = np.zeros((8, 8))
    rho = random_density_matrix(rng, 8)
    max_trace_drift = 0.0
    max_herm_drift = 0.0
    for i in range(200):
        noise = mon.sample_noise_flat(1e-4, rng)
        rho = combined_step(rho, H, mon, fb, noise, 1e-4, step=i)
        max_trace_drift = max(max_trace_drift, abs(np.trace(rho).real - 1.0))
        max_herm_drift = max(max_herm_drift, np.abs(rho - rho.conj().T).max())
    assert max_trace_drift < 1e-12
    assert max_herm_drift < 1e-12

    assert hfb_family_identity_check(mon, fb, random_density_matrix(rng, 8),
                                     tol=1e-12)
    d = rng.standard_normal(8)
    assert hfb_identity_check(d, -1.3 * d, random_density_matrix(rng, 8),
                              tol=1e-12)

    f = rng.standard_normal(8)
    for kern in (kernel, CorrelationKernel("dp", grid, kappa=2.0, G=1.0)):
        back = kern.apply_inverse(kern.apply(f))
        retained = grid.ifft(grid.fft(f) * kern.retained).real
        assert np.abs(back - retained).max() < 1e-12

    spec = ModelSpec(kind="csl", grid=grid, particles=parts, sigma=1.0,
                     gamma=0.5, G=0.05)
    model = build_model(spec)
    psi = np.zeros(8, complex)
    psi[2] = psi[5] = 2**-0.5
    rho0 = np.outer(psi, psi.conj())
    rec_a = run_trajectory(rho0, model, 1e-4, 150, seed=42, record_signal=True)
    rec_b = run_trajectory(rho0, model, 1e-4, 150, seed=42, record_signal=True)
    assert rec_a.purity.tobytes() == rec_b.purity.tobytes()
    assert rec_a.signals.tobytes() == rec_b.signals.tobytes()
    assert rec_a.positions.tobytes() == rec_b.positions.tobytes()
    report(10, f"trace drift {max_trace_drift:.1e}, hermiticity drift "
               f"{max_herm_drift:.1e}, feedback-Hamiltonian identity and "
               f"kernel round-trips < 1e-12, seeded records byte-identical")
