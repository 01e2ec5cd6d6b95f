import hashlib
import logging
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from collapsesim import (LatticeGrid, MatrixKernel, ParticleSet, build_model,
                         combined_step, ensemble_mean, feedback_step, hamiltonian_step,
                         hfb_identity_check, me_step, run_ensemble, run_trajectory,
                         sme_step, sse_step)
import collapsesim
from collapsesim import engine
from collapsesim.config import build_initial_state, load_config, single_particle_state
from collapsesim.engine import (FeedbackSpec, MonitoringSpec, _commutator, _conditioning,
                                _pair_sums, hfb_family_identity_check)
from collapsesim.kernels import CorrelationKernel
from collapsesim.lattice import GuardError
from collapsesim.models import ModelSpec, density_family, newton_family

from conftest import DenseOperator, random_density_matrix, random_state
from oracles import (dense_hcal, exact_master, expression_combined_step, expression_me_step,
                     expression_sme_step, member_record, scalar_sme_step_2x2,
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
                      kernel=kernel, grid=grid)
    return grid, mon, fb


def zero_feedback(mon):
    """The feedback of monitoring without feedback: a zero family, as a csl
    model with G = 0 builds it (TestMeStep.test_csl_without_g_is_feedback_free)."""
    return FeedbackSpec(family=np.zeros(mon.family.shape), kernel=mon.kernel, grid=mon.grid)


def conditioning(rho, d):
    """_conditioning of the field d: from the pair sums of its half field and <d>."""
    cmean = np.einsum("x,x->", d, np.diagonal(rho).real)
    return _conditioning(rho, _pair_sums(0.5 * d), cmean, np.empty_like(rho))


class TestHcal:
    """The conditioning map {D - <D>, rho}, which _conditioning applies halved."""

    def test_traceless(self, rng):
        d = rng.standard_normal(7)
        rho = random_density_matrix(rng, 7)
        assert abs(np.trace(conditioning(rho, d))) < 1e-12

    def test_constant_gives_zero(self, rng):
        rho = random_density_matrix(rng, 4)
        assert np.abs(conditioning(rho, np.full(4, 1.3))).max() < 1e-13

    def test_matches_dense_anticommutator_oracle(self, rng):
        d = rng.standard_normal(8)
        rho = random_density_matrix(rng, 8)
        np.testing.assert_allclose(2.0 * conditioning(rho, d), dense_hcal(d, rho),
                                   atol=1e-12)


class TestSignalNoise:
    def test_ensemble_mean_of_signal(self, rng):
        _, mon, _ = grid_specs()
        rho = random_density_matrix(rng, 8)
        n = 10_000
        signal = mon.means(rho) + mon.sample_noise_flat(1.0, rng, (n,))
        err = np.abs(signal.mean(axis=0) - mon.means(rho)).max()
        assert err < 5.0 / np.sqrt(n)

    def test_csl_distinct_sites_uncorrelated(self, rng):
        _, mon, _ = grid_specs(gamma=1.0)
        n = 10_000
        noise = mon.sample_noise_flat(1.0, rng, (n,))
        a, b = noise[:, 1], noise[:, 5]
        corr = np.mean(a * b) / (a.std() * b.std())
        assert abs(corr) < 4.0 / np.sqrt(n)


def commutator_inputs(n, batch, symmetric, log_scale, hermitian, layout, seed,
                      zero_fraction=0.0):
    """Real H (n, n) and complex rho (*batch, n, n) for the commutator tests;
    layout 'c' is C-contiguous, 'transposed' and 'strided' are views."""
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((n, n)) * 10.0**log_scale
    H[rng.random((n, n)) < zero_fraction] = 0.0
    if symmetric:
        H = H + H.T
    rho = rng.standard_normal(batch + (n, 2 * n)) + 1j * rng.standard_normal(batch + (n, 2 * n))
    rho[rng.random(rho.shape) < zero_fraction] = 0.0
    rho = rho[..., ::2] if layout == "strided" else rho[..., :n]
    if hermitian:
        rho = rho + np.swapaxes(rho, -1, -2).conj()
    if layout == "transposed":
        rho = np.swapaxes(rho, -1, -2)
    return H, rho


commutator_cases = dict(
    batch=st.sampled_from([(), (1,), (3,), (2, 2)]), symmetric=st.booleans(),
    log_scale=st.floats(-3.0, 3.0), hermitian=st.booleans(),
    layout=st.sampled_from(["c", "transposed", "strided"]), seed=st.integers(0, 2**32 - 1))


class CountingMatrix(np.ndarray):
    """A matrix that counts the matrix products it takes part in, with its
    views and the copies cast from it (they share one counter)."""

    def __array_finalize__(self, obj):
        self.counter = getattr(obj, "counter", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.counter[0] += 1
        inputs = [np.asarray(x) for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)

    @property
    def products(self) -> int:
        return self.counter[0]


def counting(H):
    H = H.view(CountingMatrix)
    H.counter = [0]
    return H


def symmetric_lattice_like(n, seed):
    """Symmetric real H with about three nonzeros per row, like a kinetic H."""
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((n, n))
    keep = rng.random((n, n)) < 3.0 / n
    keep |= keep.T
    return np.where(keep, H + H.T, 0.0)


class TestCommutator:
    """_commutator runs a real H on small matrices as a real product on the
    float view of rho, and a symmetric real H on a larger exactly Hermitian
    rho as one product; both must give numpy's two complex products' bytes."""

    @pytest.mark.parametrize("n", range(1, engine.REAL_SPLIT_MAX_N + 1))
    @settings(max_examples=12, deadline=None)
    @given(**commutator_cases)
    def test_real_split_bitwise_up_to_bound(self, n, batch, symmetric, log_scale, hermitian,
                                            layout, seed):
        H, rho = commutator_inputs(n, batch, symmetric, log_scale, hermitian, layout, seed)
        assert _commutator(H, rho).tobytes() == (H @ rho - rho @ H).tobytes()

    @pytest.mark.parametrize("n", [2, 5, engine.REAL_SPLIT_MAX_N, 17, 40])
    @settings(max_examples=20, deadline=None)
    @given(**commutator_cases)
    def test_exact_zeros_equal_up_to_their_sign(self, n, batch, symmetric, log_scale,
                                                hermitian, layout, seed):
        # lattice Hamiltonians are sparse: where a product entry is exactly
        # zero the two kernels may disagree on its sign, and only there
        H, rho = commutator_inputs(n, batch, symmetric, log_scale, hermitian, layout, seed,
                                   zero_fraction=0.5)
        got, want = _commutator(H, rho), H @ rho - rho @ H
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()

    @pytest.mark.parametrize("n, complex_h", [(17, False), (512, False), (4, True)])
    def test_zgemm_above_bound_or_for_complex_h(self, n, complex_h):
        H, rho = commutator_inputs(n, (), True, 0.0, False, "c", n)
        if complex_h:
            H = H + 1j * H.T
        assert _commutator(H, rho).tobytes() == (H @ rho - rho @ H).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(n=st.one_of(st.integers(engine.REAL_SPLIT_MAX_N + 1, 130), st.just(512)),
           batch=st.sampled_from([(), (3,), (2, 2)]), sparse=st.booleans(),
           log_scale=st.floats(-3.0, 3.0), layout=st.sampled_from(["c", "transposed", "strided"]),
           tiles=st.one_of(st.none(), st.integers(2, 12)), seed=st.integers(0, 2**32 - 1))
    def test_one_product_for_hermitian_rho(self, n, batch, sparse, log_scale, layout, tiles,
                                           seed):
        # tiles: X - X^dagger in that many tiles per side, the last one ragged,
        # so diagonal tiles and pairs of mirror tiles both run (None: the default budget)
        H, rho = commutator_inputs(n, batch, True, log_scale, True, layout, seed)
        if sparse:
            H = symmetric_lattice_like(n, seed) * 10.0**log_scale
        want = (H @ rho - rho @ H).tobytes()
        H = counting(H)
        with pytest.MonkeyPatch.context() as mp:
            if tiles is not None:
                side = -(-n // tiles)
                assume(n % side)
                mp.setattr(engine, "TILE_BYTES", 16 * int(np.prod(batch)) * side * side)
            assert _commutator(H, rho).tobytes() == want
        assert H.products == 1

    @pytest.mark.parametrize("n", [engine.REAL_SPLIT_MAX_N + 1, 64])
    @pytest.mark.parametrize("case", ["one_member", "nonsymmetric_h", "complex_h"])
    def test_two_products_otherwise(self, n, case):
        H, rho = commutator_inputs(n, (3,), True, 0.0, True, "c", n)
        if case == "one_member":
            rho[1, 0, n - 1] += 1e-9
        elif case == "nonsymmetric_h":
            H[0, n - 1] += 1e-9
        else:
            H = H + 1j * (np.triu(H, 1) - np.tril(H, -1))  # Hermitian
        want = (H @ rho - rho @ H).tobytes()
        H = counting(H)
        assert _commutator(H, rho).tobytes() == want
        assert H.products == 2

    def test_pinned_batched_density_run(self, monkeypatch):
        """Two dp seeds with smeared feedback on a 24-site chain: the states
        start exactly Hermitian and stop being so, so both commutator paths
        run.  The digest was recorded before the one-product path existed."""
        paths, commutator, subtract_adjoint = [], engine._commutator, engine._subtract_adjoint

        def spy(H, rho, hermitian=False):  # paths: whether each step took the one product
            paths.append(False)
            return commutator(H, rho, hermitian)

        def one_product(x):
            paths[-1] = True
            subtract_adjoint(x)

        monkeypatch.setattr(engine, "_commutator", spy)
        monkeypatch.setattr(engine, "_subtract_adjoint", one_product)
        grid = LatticeGrid((24,), 1.0)
        model = build_model(ModelSpec(kind="dp", grid=grid, particles=ParticleSet([1.0]),
                                      sigma=1.0, kappa=2.0, G=0.05, feedback_smearing=True))
        psi = single_particle_state(grid, {"type": "cat", "centers": [[6.0], [18.0]],
                                           "width": 1.0})
        records = run_ensemble(np.outer(psi, psi.conj()), model, 1e-3, 8, [3, 4],
                               record_signal=True, snapshot_every=4, monitor_positivity=False)
        digest = hashlib.sha256()
        for rec in records:
            for arr in (rec.trace, rec.purity, rec.positions, rec.signals,
                        *(snap for _, snap in rec.snapshots)):
                digest.update(np.ascontiguousarray(arr).tobytes())
        assert digest.hexdigest() == (
            "94d893c2b6bad5666557d1c8f10f9dbae5696e9dafe14a3417d54a4799c0fbf2")
        assert len(paths) == 8 and True in paths and False in paths


def step_family(family, n, seed):
    """(H, monitoring, feedback) on n configurations: one particle on an
    n-site chain (csl or dp) or a random explicit family of 3 observables."""
    if family == "matrix":
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 3))
        kernel = MatrixKernel(a @ a.T + 0.5 * np.eye(3))
        H = rng.standard_normal((n, n))
        return (H + H.T, MonitoringSpec(family=rng.standard_normal((3, n)), kernel=kernel),
                FeedbackSpec(family=0.3 * rng.standard_normal((3, n)), kernel=kernel))
    model = build_model(ModelSpec(kind=family, grid=LatticeGrid((n,), 1.0),
                                  particles=ParticleSet([1.0]), sigma=1.0, G=0.2))
    return model.hamiltonian, model.monitoring, model.feedback


# (rho batch, noise batch)
STEP_BATCHES = [((), ()), ((3,), (3,)), ((2, 2), (2, 2))]


def quiet_dt(H, mon, fb, field, signal):
    """The largest dt that keeps a step's increment near 2% of rho: every
    term's last bits then reach the state, and the step guard stays quiet."""
    rate = 0.125 * mon.pair_rate.max() + 2.0 * np.abs(H).sum(axis=1).max()
    if fb is not None:
        rate += (0.5 * fb.pair_rate_inverse.max() + np.ptp(fb.potential(signal))
                 + np.ptp(fb.backaction_diagonal(mon)))
    return 0.02 / (rate + np.abs(field).max() + 1e-3)


def check_step_bytes(kind, n, batches, real, feedback, passed, family, seed, hermitian=None):
    """One sme_step, combined_step or me_step against its chained-expression
    oracle, bit for bit, with no input modified.  hermitian True makes every
    member of rho exactly Hermitian, False perturbs one entry of the last
    member; None keeps random_density_matrix's rounding.  me_step always
    takes a feedback and its back-action: without feedback, the zero family
    that a csl model with G = 0 carries."""
    H, mon, fb = step_family(family, n, seed)
    fb = fb if feedback else (zero_feedback(mon) if kind == "me" else None)
    passed = passed or kind == "me"
    rng = np.random.default_rng(seed)
    batch, noise_batch = batches
    rho = np.stack([random_density_matrix(rng, n) for _ in range(int(np.prod(batch)))])
    if hermitian:
        rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    elif hermitian is not None:
        rho[-1, 0, n - 1] += 1e-9j
    rho = rho.reshape(batch + (n, n))
    if real:
        rho = np.ascontiguousarray(rho.real)
    noise = rng.standard_normal(noise_batch + mon.family.shape[:1])
    field, signal = mon.conditioning_field(noise), mon.means(rho) + noise
    dt = quiet_dt(H, mon, fb, field, signal)
    backaction = fb.backaction_diagonal(mon) if passed and fb is not None else None
    field, signal = (field, signal) if passed else (None, None)
    inputs = [a for a in (rho, noise, field, signal, backaction) if a is not None]
    before = [a.tobytes() for a in inputs]
    if kind == "sme":
        got = sme_step(rho, H, mon, noise, dt, field=field)
        want = expression_sme_step(rho, H, mon, noise, dt, field=field)
    elif kind == "combined":
        got = combined_step(rho, H, mon, fb, noise, dt, field=field, signal=signal)
        want = expression_combined_step(rho, H, mon, fb, noise, dt, field=field,
                                        signal=signal)
    else:
        got = me_step(rho, H, mon, fb, dt, backaction=backaction)
        want = expression_me_step(rho, H, mon, fb, dt, backaction=backaction)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert [a.tobytes() for a in inputs] == before


class TestInPlaceSteps:
    """sme_step, combined_step and me_step compute their increments in
    place, one block of rows at a time; each must give the bytes of its
    chained-expression form."""

    @pytest.mark.parametrize("kind", ["sme", "combined", "me"])
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from(list(range(1, 21)) + [64]), batches=st.sampled_from(STEP_BATCHES),
           real=st.booleans(), feedback=st.booleans(), passed=st.booleans(),
           family=st.sampled_from(["csl", "dp", "matrix"]), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_expression_form(self, kind, n, batches, real, feedback,
                                              passed, family, seed):
        assume(n > 1 or family == "matrix")  # a chain needs 2 sites
        check_step_bytes(kind, n, batches, real, feedback, passed, family, seed)

    @pytest.mark.parametrize("tile_rows", [1, 3, None])
    @pytest.mark.parametrize("kind", ["sme", "combined", "me"])
    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from(list(range(1, 41)) + [64]),
           batches=st.sampled_from([((), ()), ((3,), (3,))]),
           real=st.booleans(), hermitian=st.booleans(), feedback=st.booleans(),
           passed=st.booleans(), family=st.sampled_from(["csl", "dp", "matrix"]),
           seed=st.integers(0, 2**32 - 1))
    def test_blocks_of_rows_change_no_bits(self, tile_rows, kind, n, batches, real, hermitian,
                                           feedback, passed, family, seed):
        # tile_rows rows of every member per block (None: the default budget);
        # an exactly Hermitian rho above REAL_SPLIT_MAX_N takes the one-product
        # commutator, whose X - X^dagger runs in tiles of the same budget
        assume(n > 1 or family == "matrix")
        members = int(np.prod(np.broadcast_shapes(*batches)))
        with pytest.MonkeyPatch.context() as mp:
            if tile_rows is not None:
                mp.setattr(engine, "TILE_BYTES", tile_rows * 16 * members * n)
            check_step_bytes(kind, n, batches, real, feedback, passed, family, seed, hermitian)

    @pytest.mark.parametrize("kind", ["sme", "combined", "me"])
    def test_wider_batch_than_rho_raises(self, kind):
        # the increment has rho's shape: a field, signal or back-action with
        # more leading entries than rho does not broadcast rho to it
        H, mon, fb = step_family("dp", 6, 0)
        rng = np.random.default_rng(0)
        rho = random_density_matrix(rng, 6)[None]
        noise = rng.standard_normal((3, mon.family.shape[0]))
        field = mon.conditioning_field(noise)
        backaction = np.stack([fb.backaction_diagonal(mon)] * 3)
        with pytest.raises(ValueError):
            if kind == "sme":
                sme_step(rho, H, mon, noise, 1e-3, field=field)
            elif kind == "combined":
                combined_step(rho, H, mon, fb, noise, 1e-3, field=field,
                              signal=mon.means(rho) + noise)
            else:
                me_step(rho, H, mon, fb, 1e-3, backaction=backaction)

    def test_feedback_step_memory(self):
        # one particle on 8^3 (n_cfg = 512), dp with smeared feedback: a warm
        # step on a state that is not exactly Hermitian holds X = H @ rho and
        # rho @ H at most (2.00 x rho.nbytes)
        model = build_model(ModelSpec(kind="dp", grid=LatticeGrid((8, 8, 8), 1.0),
                                      particles=ParticleSet([1.0]), sigma=1.0, kappa=2.0,
                                      G=0.05, feedback_smearing=True))
        rng = np.random.default_rng(0)
        psi = random_state(rng, 512)
        rho = np.outer(psi, psi.conj())[None]
        rho[0, 0, 1] += 1e-9  # not exactly Hermitian, whatever the product's rounding
        dt = 1e-3
        noise = model.monitoring.sample_noise_flat(dt, rng, (2, 1))
        fields = model.monitoring.conditioning_field(noise)
        model.advance(rho, dt, noise[0], step=1, pure=False, field=fields[0])  # builds the tables
        tracemalloc.start()
        try:
            model.advance(rho, dt, noise[1], step=2, pure=False, field=fields[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * rho.nbytes

    def test_one_product_step_memory(self):
        # the same step on an exactly Hermitian state: one product X = H @ rho,
        # X - X^dagger and then the increment written over X, and blocks of
        # rows for every other term and for the step guard's norms; the step
        # peaks at 1.16 x rho.nbytes
        model = build_model(ModelSpec(kind="dp", grid=LatticeGrid((8, 8, 8), 1.0),
                                      particles=ParticleSet([1.0]), sigma=1.0, kappa=2.0,
                                      G=0.05, feedback_smearing=True))
        rng = np.random.default_rng(0)
        psi = random_state(rng, 512)
        rho = np.outer(psi, psi.conj())[None]
        rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))  # exactly Hermitian
        assert engine._self_adjoint(rho)
        dt = 1e-3
        noise = model.monitoring.sample_noise_flat(dt, rng, (2, 1))
        fields = model.monitoring.conditioning_field(noise)
        model.advance(rho, dt, noise[0], step=1, pure=False, field=fields[0])  # builds the tables
        tracemalloc.start()
        try:
            model.advance(rho, dt, noise[1], step=2, pure=False, field=fields[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * rho.nbytes

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_density_steps_reuse_one_complex_h(self, monkeypatch, hermitian):
        # one particle on 4^3 (n_cfg = 64): every density step above
        # REAL_SPLIT_MAX_N multiplies by the model's one complex copy of H
        model = build_model(ModelSpec(kind="dp", grid=LatticeGrid((4, 4, 4), 1.0),
                                      particles=ParticleSet([1.0]), sigma=1.0, kappa=2.0,
                                      G=0.05, feedback_smearing=True))
        seen, commutator = [], engine._commutator

        def spy(H, rho, hermitian=False):
            out = commutator(H, rho, hermitian)
            seen.append((H, vars(H).get("complex")))
            return out

        monkeypatch.setattr(engine, "_commutator", spy)
        rng = np.random.default_rng(0)
        rho = random_density_matrix(rng, 64)[None]
        if hermitian:
            rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
        else:
            rho[0, 0, 1] += 1e-9
        noise = model.monitoring.sample_noise_flat(1e-3, rng, (2, 1))
        for i in range(2):
            rho = model.advance(rho, 1e-3, noise[i], step=i + 1, pure=False)[0]
        (op, first), (op2, second) = seen
        assert op is op2 is model.density_hamiltonian and first is second
        assert first.tobytes() == model.hamiltonian.astype(complex).tobytes()
        assert model.hamiltonian.dtype == np.float64
        assert vars(op).get("self_adjoint") is (True if hermitian else None)


class TestOperandOrder:
    """numpy's complex product may use FMA, so a * b and b * a can differ in
    the last bit.  A real factor (cast to zero imaginary parts) or a purely
    imaginary one such as 1j * dt * vd leaves one exactly zero product in
    each part, and then the order changes no byte.  Every in-place term of
    the steps has such a factor, so their "same left operand" rule binds
    none of them today."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from(list(range(1, 21)) + [64, 512]), batch=st.sampled_from([(), (3,)]),
           seed=st.integers(0, 2**32 - 1))
    def test_real_or_imaginary_factor_commutes(self, n, batch, seed):
        rng = np.random.default_rng(seed)
        shape = batch + (n, n)
        rho = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rho[rng.random(shape) < 0.1] = 0.0
        rho.imag[rng.random(shape) < 0.1] = -0.0
        real = rng.standard_normal(shape)
        real[rng.random(shape) < 0.1] = -0.0
        v = rng.standard_normal(batch + (n,))
        v[..., rng.random(n) < 0.2] = 0.0
        vd = v[..., :, None] - v[..., None, :]
        imaginary = np.multiply(1j * 1e-3, vd)
        for factor in (real, imaginary, 0.125 * real[..., 0, 0, None, None]):
            assert (factor * rho).tobytes() == (rho * factor).tobytes()


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

    def test_step_guard_judges_each_member_alone(self, monkeypatch):
        # a large |rho|_1 elsewhere in the batch must not cover a member's step;
        # with 384 bytes _euler sums the norms over blocks of 3 rows (1 for pairs)
        diag = np.eye(8, dtype=complex) / 8.0  # |rho|_1 = 1
        coherent = np.full((8, 8), 1.0 / 8.0, complex)  # |rho|_1 = 8
        inc = np.zeros((8, 8), complex)
        inc[0, 0] = 0.125

        def step(rho, increment):  # H = 0: the increment is exactly the one given
            return engine._euler(np.zeros((8, 8)), rho, 1.0, 1, add_rows, increment)

        def add_rows(inc_r, rho_r, rows, dt, increment):
            inc_r += increment[..., rows, :]

        for tile_bytes in (engine.TILE_BYTES, 384):
            monkeypatch.setattr(engine, "TILE_BYTES", tile_bytes)
            with pytest.raises(GuardError, match="step-size"):
                step(diag, inc)
            with pytest.raises(GuardError, match="step-size"):
                step(np.stack([diag, coherent]), np.stack([inc, np.zeros_like(inc)]))
            with pytest.raises(GuardError, match="non-finite"):
                step(np.stack([diag, coherent]), np.stack([np.zeros_like(inc), np.nan * inc]))
            got = step(np.stack([diag, coherent]), np.stack([0.5 * inc, 4.0 * inc]))
            assert got.tobytes() == np.stack([diag + 0.5 * inc, coherent + 4.0 * inc]).tobytes()


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
             # sse_step takes the field that run_ensemble forms from the noise
             "sse": lambda: sse_step(psi, model.hamiltonian_operator, mon, fb, noise, 1e-3,
                                     mon.conditioning_field(noise))}
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
        alpha, b = 0.3, fb.backaction_diagonal(mon)
        lhs = me_step(alpha * r1 + (1 - alpha) * r2, H, mon, fb, 1e-3, b)
        rhs = (alpha * me_step(r1, H, mon, fb, 1e-3, b)
               + (1 - alpha) * me_step(r2, H, mon, fb, 1e-3, b))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["csl", "dp"]), n=st.integers(2, 12),
           weights=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=4),
           G=st.one_of(st.just(0.0), st.floats(0.1, 1.0)), seed=st.integers(0, 2**32 - 1))
    def test_linear_over_random_mixtures(self, kind, n, weights, G, seed):
        # criterion 9's claim without Monte Carlo: the averaged dynamics are
        # linear, so a mixture's step is the mixture of its members' steps
        assume(kind == "csl" or G > 0)
        model = build_model(ModelSpec(kind=kind, grid=LatticeGrid((n,), 1.0),
                                      particles=ParticleSet([1.0]), G=G))
        rng = np.random.default_rng(seed)
        members = np.stack([random_density_matrix(rng, n) for _ in weights])
        p = np.asarray(weights) / sum(weights)

        def step(rho):
            return me_step(rho, model.density_hamiltonian, model.monitoring, model.feedback,
                           1e-4, model.backaction)

        mixed = step(np.einsum("k,kxy->xy", p, members))
        np.testing.assert_allclose(mixed, np.einsum("k,kxy->xy", p, step(members)),
                                   rtol=0, atol=1e-15)

    def test_zero_kernel_zero_fb_is_unitary_euler(self, rng):
        spec = MonitoringSpec(family=np.zeros((1, 4)), kernel=MatrixKernel([[1.0]]))
        H = rng.standard_normal((4, 4))
        H = H + H.T
        rho = random_density_matrix(rng, 4)
        got = me_step(rho, H, spec, zero_feedback(spec), 1e-3, np.zeros(4))
        np.testing.assert_allclose(got, rho - 1j * 1e-3 * (H @ rho - rho @ H),
                                   atol=1e-15)

    @pytest.mark.parametrize("n", [4, 12, 20])
    def test_csl_without_g_is_feedback_free(self, rng, n):
        # monitoring without feedback is spelled G = 0 on csl: its feedback
        # family, inverse rate table and back-action are exactly zero, and
        # me_step gives the bytes of the step with no feedback terms at all
        model = build_model(ModelSpec(kind="csl", grid=LatticeGrid((n,), 1.0),
                                      particles=ParticleSet([1.0]), sigma=1.0, G=0.0))
        mon, fb = model.monitoring, model.feedback
        for table in (fb.family, fb.pair_rate_inverse, model.backaction):
            assert not table.any()
        rho = random_density_matrix(rng, n)
        got = me_step(rho, model.density_hamiltonian, mon, fb, 1e-3, model.backaction)
        want = expression_me_step(rho, model.hamiltonian, mon, None, 1e-3)
        assert got.tobytes() == want.tobytes()

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


DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "run_config.yaml"


def exact_master_case(case):
    """(H, monitoring, feedback, backaction, rho0) of a master-equation test
    model: the demo run (csl), dp on a 16-site chain, or a random explicit
    family of 3 observables on 6 configurations (MatrixKernel)."""
    if case == "matrix":
        H, mon, fb = step_family("matrix", 6, 5)
        return (H, mon, fb, fb.backaction_diagonal(mon),
                random_density_matrix(np.random.default_rng(5), 6))
    if case == "demo":
        cfg = load_config(DEMO_CONFIG)
        spec, psi = cfg.spec, build_initial_state(cfg)
    else:
        grid = LatticeGrid((16,), 1.0)
        spec = ModelSpec(kind="dp", grid=grid, particles=ParticleSet([1.0]), kappa=2.0, G=0.5)
        psi = single_particle_state(grid, {"type": "cat", "centers": [[4.0], [11.0]]})
    model = build_model(spec)
    return (model.hamiltonian, model.monitoring, model.feedback, model.backaction,
            np.outer(psi, psi.conj()))


class TestExactMaster:
    """me_step against the matrix exponential of its generator."""

    @pytest.mark.parametrize("case", ["demo", "dp-chain", "matrix"])
    def test_euler_me_step_is_first_order(self, case):
        # Euler's error to t = 0.2 falls tenfold with a tenfold smaller step
        H, mon, fb, b, rho0 = exact_master_case(case)
        exact = exact_master(H, mon, fb, b, rho0, 0.2)
        errors = []
        for steps in (200, 2000):
            rho = rho0.astype(complex)
            for _ in range(steps):
                rho = me_step(rho, H, mon, fb, 0.2 / steps, backaction=b)
            errors.append(np.abs(rho - exact).max())
        assert 9.0 <= errors[0] / errors[1] <= 11.0, errors

    @pytest.mark.parametrize("case", ["demo", "dp-chain", "matrix"])
    def test_without_hamiltonian_is_the_closed_form(self, case):
        # at H = 0 every entry decays and turns on its own: exp(-D t) o rho0
        _, mon, fb, b, rho0 = exact_master_case(case)
        D = (0.125 * mon.pair_rate + 0.5 * fb.pair_rate_inverse
             + 1j * (b[:, None] - b[None, :]))
        got = exact_master(np.zeros_like(mon.pair_rate), mon, fb, b, rho0, 0.7)
        np.testing.assert_allclose(got, np.exp(-0.7 * D) * rho0, rtol=0, atol=1e-14)


class TestSseStep:
    def test_norm_exactly_one(self, rng):
        _, mon, fb = grid_specs()
        psi = random_state(rng, 8)
        noise = mon.sample_noise_flat(1e-4, rng)
        out = sse_step(psi, DenseOperator(np.zeros((8, 8))), mon, fb, noise, 1e-4,
                       mon.conditioning_field(noise))
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-14)

    def test_projector_purity_stays_one(self, rng):
        _, mon, fb = grid_specs()
        psi = random_state(rng, 8)
        for _ in range(50):
            noise = mon.sample_noise_flat(1e-4, rng)
            psi = sse_step(psi, DenseOperator(np.zeros((8, 8))), mon, fb, noise, 1e-4,
                           mon.conditioning_field(noise))
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
                psi1 = sse_step(psi0, DenseOperator(H), mon, fb, noise, dt,
                                mon.conditioning_field(noise))
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
        for rec in run_ensemble(psi0, model, dt, steps, range(n_traj),
                                record_every=steps, snapshot_every=steps):
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
                           offdiagonal_pairs=[(3, 5)])
        b = run_trajectory(rho, model, 1e-4, 100, seed=11, record_signal=True,
                           offdiagonal_pairs=[(3, 5)])
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


RECORD_FIELDS = ("times", "trace", "purity", "positions", "signals", "offdiagonals",
                 "min_eigenvalue")


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
    options = dict(record_every=7, record_signal=True, offdiagonal_pairs=[(3, 5)],
                   snapshot_every=100)

    @staticmethod
    def cat_model():
        grid = LatticeGrid((8,), 1.0)
        spec = ModelSpec(kind="csl", grid=grid, particles=ParticleSet([1.0]),
                         sigma=1.0, gamma=1.0, G=0.1)
        psi = np.zeros(8, complex)
        psi[3] = psi[5] = 2**-0.5
        return build_model(spec), psi

    @pytest.mark.parametrize("n, pure, recorded", [(128, False, True), (129, False, False),
                                                   (8, True, False)])
    def test_positivity_recorded_where_possible(self, n, pure, recorded):
        # monitor_positivity (on by default) records the smallest eigenvalue
        # of a density matrix with n <= 128, and of no other state
        model = build_model(ModelSpec(kind="csl", grid=LatticeGrid((n,), 1.0),
                                      particles=ParticleSet([1.0]), G=0.1))
        psi = np.full(n, n**-0.5, complex)
        initial = psi if pure else np.outer(psi, psi.conj())
        rec = run_trajectory(initial, model, 1e-7, 1, 0)
        assert (rec.min_eigenvalue is not None) == recorded
        assert run_trajectory(initial, model, 1e-7, 1, 0,
                              monitor_positivity=False).min_eigenvalue is None

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
        if representation == "density":  # one batched eigvalsh call per record step
            assert all(rec.positivity_warnings for rec in batched)

    @settings(max_examples=60, deadline=None)
    @given(pure=st.booleans(), members=st.integers(1, 5), sites=st.integers(2, 20),
           two=st.booleans(), with_signal=st.booleans(),
           n_pairs=st.integers(0, 3), snapshot=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_batched_record_equals_member_record(self, pure, members, sites, two,
                                                 with_signal, n_pairs, snapshot, seed):
        # engine._record writes one record step of a whole batch; each member
        # must get the bytes of the member-by-member rule (oracles.member_record)
        sites = min(sites, 4) if two else sites  # two particles: n = sites^2 <= 16
        model = build_model(ModelSpec(kind="csl", grid=LatticeGrid((sites,), 1.0),
                                      particles=ParticleSet([1.0, 2.0] if two else [1.0]),
                                      sigma=1.0, gamma=1.0, G=0.1))
        n, n_obs = model.position_coordinates.shape[1], model.monitoring.family.shape[0]
        rng = np.random.default_rng(seed)
        make = random_state if pure else random_density_matrix
        state = np.stack([make(rng, n) for _ in range(members)])
        signal = rng.standard_normal((members, n_obs)) if with_signal else None
        wmins = None if pure else rng.uniform(-1e-6, 1e-6, members)
        pairs = rng.integers(0, n, (n_pairs, 2))
        t = 0.25 if snapshot else None

        def blank():
            return [engine.TrajectoryRecord(
                seed=k, times=np.zeros(3), trace=np.zeros(3), purity=np.zeros(3),
                positions=np.zeros((3, model.spec.particles.count)),
                signals=np.zeros((3, n_obs)), offdiagonals=np.zeros((3, n_pairs)) if n_pairs else None,
                min_eigenvalue=None if pure else np.zeros(3)) for k in range(members)]

        batched, members_alone = blank(), blank()
        engine._record(batched, 1, 5, state, signal, wmins, model, pure, pairs, t)
        for k, rec in enumerate(members_alone):
            member_record(rec, 1, 5, state[k], None if signal is None else signal[k],
                          None if wmins is None else float(wmins[k]), model, pure, pairs, t)
        for a, b in zip(batched, members_alone):
            assert_records_bitwise_equal(a, b)

    def test_positivity_dips_are_logged(self, caplog):
        # the density cat run dips below the floor: one record per trajectory
        # on the "collapsesim" logger, and no Python warning
        model, psi = self.cat_model()
        with caplog.at_level(logging.WARNING, logger="collapsesim"), warnings.catch_warnings():
            warnings.simplefilter("error")
            recs = run_ensemble(np.outer(psi, psi.conj()), model, self.dt, self.steps, [11, 3],
                                **self.options)
        assert all(rec.positivity_warnings for rec in recs)
        assert [(r.name, r.levelno) for r in caplog.records] == \
            [("collapsesim", logging.WARNING)] * 2
        for rec, logged in zip(recs, caplog.records):
            dips = rec.positivity_warnings
            assert logged.getMessage() == (
                f"density matrix dipped below the positivity floor at steps "
                f"{[s for s, _ in dips][:5]} (min eigenvalue {min(w for _, w in dips):.2e})")

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
            state, _ = model.advance(state, 1e-3, None, step=i, pure=True)
        np.testing.assert_allclose(a, state, atol=1e-14)

    @pytest.mark.parametrize("dims", [(8,), (4, 4)])
    @pytest.mark.parametrize("kind", ["csl", "dp"])
    def test_unconditional_equals_me_step_loop(self, kind, dims):
        # the noise-averaged run is Model.advance without noise: me_step with
        # the model's back-action, its signal the means of the new state
        grid = LatticeGrid(dims, 1.0)
        model = build_model(ModelSpec(kind=kind, grid=grid, particles=ParticleSet([1.0]),
                                      sigma=1.0, G=0.1))
        psi = random_state(np.random.default_rng(3), grid.n_sites)
        rho = np.outer(psi, psi.conj())
        steps = 12
        recs = run_ensemble(rho, model, self.dt, steps, [0, 1], record_signal=True,
                            snapshot_every=steps, monitor_positivity=False,
                            unconditional=True)
        mon = model.monitoring
        signals = [mon.family @ np.diagonal(rho).real]
        for i in range(1, steps + 1):
            rho = me_step(rho, model.hamiltonian, mon, model.feedback, self.dt,
                          backaction=model.backaction, step=i)
            signals.append(mon.means(rho))
        for rec in recs:
            assert rec.snapshots[-1][1].tobytes() == rho.tobytes()
            assert rec.signals.tobytes() == np.array(signals).tobytes()

    def test_pair_unconditional_equals_hamiltonian_step_loop(self):
        grid = LatticeGrid((4,), 1.0)
        model = build_model(ModelSpec(kind="pair", grid=grid, particles=ParticleSet([1.0, 2.0]),
                                      G=0.3))
        psi = random_state(np.random.default_rng(4), 16)
        rho0 = np.outer(psi, psi.conj())
        steps = 12
        recs = run_ensemble(rho0, model, self.dt, steps, [0, 1], snapshot_every=steps,
                            monitor_positivity=False, unconditional=True)
        rho = rho0
        for i in range(1, steps + 1):
            rho = hamiltonian_step(rho, model.hamiltonian, model.pair_potential, self.dt, step=i)
        for rec in recs:
            assert rec.snapshots[-1][1].tobytes() == rho.tobytes()

    def test_noise_averaged_step_needs_density_matrix(self):
        model, psi = self.cat_model()
        with pytest.raises(ValueError, match="density matrix"):
            model.advance(psi, self.dt, pure=True)
        with pytest.raises(ValueError, match="density matrix"):
            run_ensemble(psi, model, self.dt, 3, [0], unconditional=True)


    @pytest.mark.parametrize("steps, options, name", [
        (3, dict(record_every=0), "record_every"), (3, dict(record_every=-1), "record_every"),
        (3, dict(snapshot_every=-1), "snapshot_every"), (0, {}, "steps")])
    def test_invalid_record_options_raise(self, steps, options, name):
        model, psi = self.cat_model()
        with pytest.raises(ValueError, match=name):
            run_ensemble(psi, model, self.dt, steps, [0], **options)

    @pytest.mark.parametrize("dt", [0.0, -1e-4, np.nan, np.inf])
    @pytest.mark.parametrize("run", ["unconditional", "conditional", "sn", "pair"])
    def test_invalid_dt_raises(self, run, dt):
        # the noise-free runs step any dt, and nan trips the step guard as
        # if the state were at fault, unless run_ensemble checks dt first
        model, psi = self.cat_model()
        state = np.outer(psi, psi.conj())
        if run in ("sn", "pair"):
            model = build_model(ModelSpec(kind=run, grid=model.spec.grid,
                                          particles=ParticleSet([1.0, 1.0]), G=0.1))
            state = np.kron(psi, psi)
        with pytest.raises(ValueError, match="dt must be a positive finite number"):
            run_ensemble(state, model, dt, 5, [0], unconditional=run == "unconditional")

    def test_initial_of_another_size_raises(self):
        # such states failed inside the first step (numpy's matmul) or at
        # the first record (eigvalsh), with no word of the model's n
        model = build_model(ModelSpec(kind="csl", grid=LatticeGrid((2,), 1.0),
                                      particles=ParticleSet([1.0]), sigma=1.0, gamma=1.0,
                                      G=0.1))
        shown = (r"initial must have shape \(2,\) or \(2, 2\), n the model's configuration "
                 r"count; got shape ")
        with pytest.raises(ValueError, match=shown + r"\(3, 3\)"):
            ensemble_mean(model, np.eye(3) / 3, 1e-3, 3, range(2))
        with pytest.raises(ValueError, match=shown + r"\(5,\)"):
            run_trajectory(np.ones(5) / 5**0.5, model, 1e-3, 3, 0)
        with pytest.raises(ValueError, match=shown + r"\(2, 3\)"):
            run_ensemble(np.ones((2, 3)) / 6**0.5, model, 1e-3, 3, [0])

    @pytest.mark.parametrize("seeds, chunk, name", [([], 256, "seeds"), ([0, 1], 0, "chunk")])
    def test_ensemble_mean_rejects_empty_seeds_and_chunk(self, seeds, chunk, name):
        model, psi = self.cat_model()
        with pytest.raises(ValueError, match=name):
            ensemble_mean(model, np.outer(psi, psi.conj()), self.dt, 3, seeds, chunk=chunk)

    def test_ensemble_mean_needs_density_matrix(self):
        # the mean of state vectors depends on their phases: no density matrix
        model, psi = self.cat_model()
        for state in (psi, np.outer(psi, psi.conj())[:, :4], np.stack([psi, psi])):
            with pytest.raises(ValueError, match=r"rho0 must be an \(n, n\) density matrix"):
                ensemble_mean(model, state, self.dt, 3, range(2))


def table_model(family, n, feedback, seed):
    """A built model on n configurations (one particle on an n-site chain)
    whose monitoring is csl, dp or a random explicit family of 3
    observables (MatrixKernel), with feedback or with the zero feedback
    family that a csl model with G = 0 carries."""
    model = build_model(ModelSpec(kind="csl" if family == "matrix" else family,
                                  grid=LatticeGrid((n,), 1.0), particles=ParticleSet([1.0]),
                                  sigma=1.0, G=0.02))
    if family == "matrix":
        _, mon, fb = step_family("matrix", n, seed)
        model = replace(model, monitoring=mon, feedback=fb, backaction=fb.backaction_diagonal(mon))
    if not feedback:
        model = replace(model, feedback=zero_feedback(model.monitoring),
                        backaction=np.zeros(n))
    return model


def expression_run(initial, model, dt, steps, seeds, unconditional, block):
    """Final states and last signals of run_ensemble's batch, stepped with
    the tests/oracles.py expression forms: the same noise blocks of block
    steps and the same conditioning fields, and every table formed per step."""
    mon, fb, H = model.monitoring, model.feedback, model.hamiltonian
    rngs = [np.random.Generator(np.random.Philox(seed)) for seed in seeds]
    rho = np.broadcast_to(initial, (len(seeds),) + initial.shape).copy()
    for i in range(steps):
        if unconditional:
            rho = expression_me_step(rho, H, mon, fb, dt, backaction=model.backaction)
            signal = mon.means(rho)
            continue
        if i % block == 0:
            noises = np.stack([mon.sample_noise_flat(dt, rng, (min(block, steps - i),))
                               for rng in rngs], axis=1)
            fields = mon.conditioning_field(noises)
        noise, field = noises[i % block], fields[i % block]
        signal = mon.means(rho) + noise
        rho = expression_combined_step(rho, H, mon, fb, noise, dt, field=field, signal=signal)
    return rho, signal


def symmetric_monitoring(mon):
    """mon with its pair_rate replaced by the mean of the table and its
    transpose, which is exactly symmetric, as a certified run needs."""
    vars(mon)["pair_rate"] = 0.5 * (mon.pair_rate + mon.pair_rate.T)
    return mon


def criterion_6_model():
    """Criterion 6's model, one particle on a 2-site chain under csl with
    sigma 0.35, gamma 0.6 and G 0.15, and its initial state |+><+|."""
    model = build_model(ModelSpec(kind="csl", grid=LatticeGrid((2,), 1.0),
                                  particles=ParticleSet([1.0]), sigma=0.35, gamma=0.6, G=0.15))
    psi = np.array([1.0, 1.0], complex) / np.sqrt(2.0)
    return model, np.outer(psi, psi.conj())


def spy_hermitian_flags(mp):
    """The hermitian flag of every engine._commutator call from here on."""
    flags, commutator = [], engine._commutator

    def spy(H, rho, hermitian=False):
        flags.append(hermitian)
        return commutator(H, rho, hermitian)

    mp.setattr(engine, "_commutator", spy)
    return flags


class TestStepTables:
    """run_ensemble forms the dt-scaled rate table of a conditional density
    step that _euler handles whole once per run, and its half field and pair
    sums once per noise block, in chunks of at most TILE_BYTES; the
    noise-averaged step forms its table per step.  The tables carry the
    run's certificate (TestCertifiedRuns) to every conditional step."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 16), members=st.integers(1, 5),
           family=st.sampled_from(["csl", "dp", "matrix"]), feedback=st.booleans(),
           unconditional=st.booleans(), block=st.integers(3, 9),
           tile=st.sampled_from([1, 2, 3, 0]), certified=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_trajectories_equal_expression_steps(self, n, members, family, feedback,
                                                 unconditional, block, tile, certified, seed):
        # NOISE_BLOCK = block steps, and 2 * block + 1 steps cross two block
        # boundaries; tile k > 0 makes pair-sum chunks of 2k steps of a state
        # handled whole, tile 0 blocks of 3 rows (the whole state for n <= 3);
        # certified makes pair_rate exactly symmetric and the initial state
        # exactly Hermitian, so a conditional run takes one product per step
        model = table_model(family, n, feedback, seed)
        rng = np.random.default_rng(seed)
        initial = random_density_matrix(rng, n)
        if certified:
            symmetric_monitoring(model.monitoring)
            initial = 0.5 * (initial + initial.conj().T)
        seeds = [int(s) for s in rng.integers(0, 2**32, members)]
        steps, dt = 2 * block + 1, 1e-5 if family == "matrix" else 1e-4  # guard stays quiet
        with pytest.MonkeyPatch.context() as mp:
            flags = spy_hermitian_flags(mp)
            mp.setattr(engine, "NOISE_BLOCK", block)
            mp.setattr(engine, "TILE_BYTES", 16 * members * n * (n * tile if tile else 3))
            recs = run_ensemble(initial, model, dt, steps, seeds, record_every=steps,
                                record_signal=True, snapshot_every=steps,
                                monitor_positivity=False, unconditional=unconditional)
        rho, signal = expression_run(initial, model, dt, steps, seeds, unconditional, block)
        for k, rec in enumerate(recs):
            assert rec.snapshots[-1][1].tobytes() == rho[k].tobytes()
            assert rec.signals[-1].tobytes() == signal[k].tobytes()
        if certified and not unconditional:
            assert flags == [True] * steps and engine._self_adjoint(rho)

    def test_rate_table_formed_once_per_run(self, monkeypatch):
        # 600 steps in three noise blocks and three batches of one member:
        # one table for the run; a state in blocks of rows forms none whole
        model = table_model("dp", 6, True, 0)
        rho = random_density_matrix(np.random.default_rng(0), 6)
        formed, form = [], engine._monitored_rate

        def spy(pair_rate, dt, rows=slice(None)):
            formed.append(rows)
            return form(pair_rate, dt, rows)

        monkeypatch.setattr(engine, "_monitored_rate", spy)
        monkeypatch.setattr(engine, "BATCH_BYTES", 1)
        run_ensemble(rho, model, 1e-3, 600, [1, 2, 3], record_every=600,
                     monitor_positivity=False)
        assert formed == [slice(None)]
        formed.clear()
        monkeypatch.setattr(engine, "TILE_BYTES", 16 * 6 * 2)  # blocks of 2 rows
        run_ensemble(rho, model, 1e-3, 3, [1], record_every=3, monitor_positivity=False)
        assert formed == [slice(0, 2), slice(2, 4), slice(4, 6)] * 3

    def test_pair_sum_chunk_within_tile_bytes(self, monkeypatch):
        # the demo's batch (4 members, n = 16): a whole block of pair sums
        # would take 256 x 8 KiB = 2 MiB; each chunk holds at most TILE_BYTES,
        # and its broadcast add peaks above that by numpy's two ufunc buffers
        model = table_model("csl", 16, True, 0)
        rho = random_density_matrix(np.random.default_rng(0), 16)
        run_ensemble(rho, model, 1e-4, 2, [0], monitor_positivity=False)  # builds the tables
        grown, pair_sums = [], engine._pair_sums

        def traced(half, *args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = pair_sums(half, *args, **kwargs)
            held, peak = tracemalloc.get_traced_memory()
            grown.append((held - before, peak - before, out.nbytes))
            return out

        monkeypatch.setattr(engine, "_pair_sums", traced)
        tracemalloc.start()
        try:
            run_ensemble(rho, model, 1e-4, 300, [0, 1, 2, 3], record_every=300,
                         monitor_positivity=False)
        finally:
            tracemalloc.stop()
        assert len(grown) == 16 + 3  # 256 steps in chunks of 16, then 44 steps
        held, peak, nbytes = np.max(grown, axis=0)
        assert nbytes == engine.TILE_BYTES
        assert held <= engine.TILE_BYTES + 1024  # + the array's header
        assert peak <= held + 2 * 8 * np.getbufsize() + 4096  # + the iterator's own


class TestCertifiedRuns:
    """A conditional density run whose pair_rate is exactly symmetric, whose
    initial state is exactly Hermitian and whose H is exactly self-adjoint
    is certified once (engine._certified): every state then stays exactly
    Hermitian, and each step's commutator takes one product with no test of
    rho.  Every other run keeps the per-step path."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 24), batch=st.sampled_from([(), (3,), (2, 2)]),
           family=st.sampled_from(["csl", "dp", "matrix"]), feedback=st.booleans(),
           rows=st.sampled_from([0, 1, 3, 7]), seed=st.integers(0, 2**32 - 1))
    def test_step_maps_hermitian_to_hermitian(self, n, batch, family, feedback, rows, seed):
        # rows k > 0: the increment in blocks of k rows (the whole state for
        # k >= n), each block forming its tables; 0: the whole state with
        # the tables that run_ensemble forms
        assume(n > 1 or family == "matrix")  # a chain needs 2 sites
        H, mon, fb = step_family(family, n, seed)
        mon, fb = symmetric_monitoring(mon), fb if feedback else None
        rng = np.random.default_rng(seed)
        rho = np.stack([random_density_matrix(rng, n) for _ in range(int(np.prod(batch)))])
        rho = (0.5 * (rho + rho.conj().swapaxes(-1, -2))).reshape(batch + (n, n))
        assert engine._self_adjoint(rho)
        noise = rng.standard_normal(batch + mon.family.shape[:1])
        field, signal = mon.conditioning_field(noise), mon.means(rho) + noise
        dt = quiet_dt(H, mon, fb, field, signal)
        tables = (None, None, True)
        if not rows:
            tables = (engine._monitored_rate(mon.pair_rate, dt), _pair_sums(0.5 * field), True)
        with pytest.MonkeyPatch.context() as mp:
            if rows:
                mp.setattr(engine, "TILE_BYTES", 16 * rho.size // n * rows)
            got = combined_step(rho, H, mon, fb, noise, dt, field=field, signal=signal,
                                tables=tables)
            want = combined_step(rho, H, mon, fb, noise, dt, field=field, signal=signal)
        assert engine._self_adjoint(got)
        assert np.array_equal(got, want)  # the uncertified step's, exact zeros' signs aside

    @pytest.mark.parametrize("n", range(1, engine.REAL_SPLIT_MAX_N + 1))
    @settings(max_examples=12, deadline=None)
    @given(batch=st.sampled_from([(), (3,), (2, 2)]), log_scale=st.floats(-3.0, 3.0),
           layout=st.sampled_from(["c", "transposed", "strided"]),
           zero_fraction=st.sampled_from([0.0, 0.5]), seed=st.integers(0, 2**32 - 1))
    def test_one_real_split_product_equals_two(self, n, batch, log_scale, layout,
                                               zero_fraction, seed):
        H, rho = commutator_inputs(n, batch, True, log_scale, True, layout, seed,
                                   zero_fraction=zero_fraction)
        want = H @ rho - rho @ H
        two = counting(H)
        assert np.array_equal(_commutator(two, rho), want) and two.products == 2
        one = counting(H)
        got = _commutator(one, rho, True)
        assert np.array_equal(got, want)  # exact zeros may take the other sign
        assert one.products == 1

    @pytest.mark.parametrize("case", ["demo", "non_hermitian_initial", "asymmetric_h",
                                      "criterion_6"])
    def test_certificate_per_run(self, monkeypatch, case):
        # the demo's pair_rate is not exactly symmetric; criterion 6's model
        # is certified until its initial state or its H loses an exact symmetry
        if case == "demo":
            cfg = load_config(DEMO_CONFIG)
            model, psi, dt = build_model(cfg.spec), build_initial_state(cfg), cfg.dt
            initial = np.outer(psi, psi.conj())
            assert engine._self_adjoint(initial) and not model.monitoring.symmetric
        else:
            (model, initial), dt = criterion_6_model(), 1e-3
            if case == "non_hermitian_initial":
                initial[0, 1] += 1e-12
            elif case == "asymmetric_h":
                h = model.hamiltonian.copy()
                h[0, 1] += 1e-12
                vars(model)["density_hamiltonian"] = engine.DenseHamiltonian(h)
        flags = spy_hermitian_flags(monkeypatch)
        run_ensemble(initial, model, dt, 3, [1, 2], monitor_positivity=False)
        assert flags == [case == "criterion_6"] * 3

    def test_pinned_criterion_6_ensemble_mean(self, monkeypatch):
        """ensemble_mean over 16 seeds of 1000 steps of criterion 6's model
        from |+><+|: a certified run, one commutator product per step.  The
        digest was recorded before certified runs existed."""
        model, initial = criterion_6_model()
        flags = spy_hermitian_flags(monkeypatch)
        mean = ensemble_mean(model, initial, 1e-3, 1000, range(16))
        assert hashlib.sha256(mean.tobytes()).hexdigest() == (
            "2f49209b9594b8dae7124677224230a43b4a6f12f6bea87632dcba649f1f9c47")
        assert flags == [True] * 1000


BLAS_THREADS_SCRIPT = """
import hashlib
import numpy as np
from collapsesim import LatticeGrid, ParticleSet, build_model, run_ensemble
from collapsesim.config import single_particle_state
from collapsesim.models import ModelSpec

def digest(particles, dims, initial):
    grid = LatticeGrid(dims, 1.0)
    model = build_model(ModelSpec(kind="dp", grid=grid, particles=ParticleSet(particles),
                                  sigma=1.0, kappa=2.0, G=0.05, feedback_smearing=True))
    states = [single_particle_state(grid, init) for init in initial]
    if len(states) == 1:  # one particle: its density matrix
        state = np.outer(states[0], states[0].conj())
    else:
        state = np.kron(*states)
    (rec,) = run_ensemble(state, model, 1e-3, 5, [7], record_signal=True,
                          snapshot_every=5, monitor_positivity=False)
    h = hashlib.sha256()
    for arr in (rec.trace, rec.purity, rec.positions, rec.signals, rec.snapshots[-1][1]):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()

print(digest([1.0], (8, 8, 8), [{"type": "cat", "centers": [[2.0, 4.0, 4.0], [6.0, 4.0, 4.0]],
                                 "width": 1.0}]))
print(digest([1.0, 1.0], (16,), [{"type": "gaussian", "center": [4.0], "width": 1.5},
                                 {"type": "gaussian", "center": [12.0], "width": 1.5}]))
"""


def test_blas_thread_count_keeps_bytes():
    """A conditional density matrix of one particle on 8^3 (n = 512: the
    zgemm commutator and the tiled X - X^dagger) and a pure two-particle
    run on a 16-site chain (n = 256: the per-particle H psi apply) write
    the same records and final states under one and two BLAS threads."""
    src = str(Path(collapsesim.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 2 and digests[0] == digests[1]


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
                            record_signal=True, offdiagonal_pairs=pairs)
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
                signal = family @ p if i == 0 else stepped[i - 1][1][k]
                assert rec.signals[j].tobytes() == signal.tobytes()
                expect = np.array([abs(rho[a, b]) for a, b in pairs])
                assert rec.offdiagonals[j].tobytes() == expect.tobytes()

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
            run_trajectory(psi, model, 1e-3, 4, 0, record_signal=True,
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
