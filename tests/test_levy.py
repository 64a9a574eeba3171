import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from levyinvest import levy
from levyinvest.errors import ConstructionError, DomainError
from levyinvest.levy import (_PARAMETERS, Family, LevyModel, _increment, _jump_sizes,
                             _jump_sums, _mean_se, _stick_extrema, laplace_exponent,
                             sample_extrema)


BD = LevyModel.brownian(0.5, 1.0)
MERTON = LevyModel.merton(0.0, 0.3, 2.0, -0.05, 0.2)
KOU = LevyModel.kou(0.1, 0.2, 1.0, 0.5, 10.0, 10.0)
STABLE = LevyModel.stable(0.0, 1.5, 0.5)


class TestConstruction:
    def test_family_tags(self):
        assert BD.family is Family.BROWNIAN_DRIFT
        assert MERTON.family is Family.MERTON
        assert KOU.family is Family.KOU
        assert STABLE.family is Family.STABLE

    def test_brownian_needs_positive_sigma(self):
        with pytest.raises(ConstructionError):
            LevyModel.brownian(0.0, 0.0)
        with pytest.raises(ConstructionError):
            LevyModel.brownian(0.0, -1.0)

    def test_jump_families_need_diffusion_and_jumps(self):
        with pytest.raises(ConstructionError):
            LevyModel.merton(0.0, 0.0, 2.0, -0.05, 0.2)
        with pytest.raises(ConstructionError):
            LevyModel.merton(0.0, 0.3, 0.0, -0.05, 0.2)
        with pytest.raises(ConstructionError):
            LevyModel.kou(0.1, 0.2, 0.0, 0.5, 10.0, 10.0)

    def test_kou_parameter_ranges(self):
        for bad_p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ConstructionError):
                LevyModel.kou(0.1, 0.2, 1.0, bad_p, 10.0, 10.0)
        with pytest.raises(ConstructionError):
            LevyModel.kou(0.1, 0.2, 1.0, 0.5, -1.0, 10.0)

    def test_nan_jump_sd_rejected(self):
        with pytest.raises(ConstructionError) as err:
            LevyModel.merton(0.0, 0.3, 2.0, -0.05, float("nan"))
        assert err.value.key == "jump_sd"

    def test_unused_fields_must_be_zero(self):
        # psi would ignore these jumps while the simulator drew them
        with pytest.raises(ConstructionError) as err:
            LevyModel(Family.BROWNIAN_DRIFT, sigma=1.0, jump_intensity=1.0)
        assert err.value.key == "jump_intensity"
        for model in (BD, MERTON, KOU, STABLE):
            used = {"family", "mu", *_PARAMETERS[model.family]}
            for f in dataclasses.fields(LevyModel):
                if f.name not in used:
                    with pytest.raises(ConstructionError) as err:
                        dataclasses.replace(model, **{f.name: 0.5})
                    assert err.value.key == f.name

    @pytest.mark.parametrize("build, key", [
        (lambda inf: LevyModel.merton(0.0, 0.3, inf, 0.0, 0.2), "jump_intensity"),
        (lambda inf: LevyModel.kou(0.1, 0.2, 1.0, 0.5, inf, 10.0), "eta_plus"),
        (lambda inf: LevyModel.kou(0.1, 0.2, 1.0, 0.5, 10.0, inf), "eta_minus"),
        (lambda inf: LevyModel.stable(0.0, 1.5, inf), "stable_scale"),
    ])
    def test_infinite_parameters_rejected(self, build, key):
        with pytest.raises(ConstructionError) as err:
            build(float("inf"))
        assert err.value.key == key

    def test_stable_index_range(self):
        for bad in (1.0, 2.0, 0.5, 2.5):
            with pytest.raises(ConstructionError):
                LevyModel.stable(0.0, bad, 0.5)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            BD.mu = 2.0


class TestLaplaceExponent:
    def test_brownian_closed_form(self):
        # mu lam + sigma^2 lam^2 / 2
        assert laplace_exponent(BD, 2.0) == pytest.approx(0.5 * 2 + 0.5 * 4)
        m = LevyModel.brownian(0.0, np.sqrt(2.0))
        assert laplace_exponent(m, 1.0) == pytest.approx(1.0)

    def test_merton_closed_form(self):
        lam = 0.7
        base = 0.5 * 0.3 ** 2 * lam ** 2
        jump = 2.0 * (np.exp(lam * -0.05 + 0.5 * lam ** 2 * 0.2 ** 2) - 1.0)
        assert laplace_exponent(MERTON, lam) == pytest.approx(base + jump)

    def test_kou_closed_form_and_domain(self):
        lam = 0.5
        base = 0.1 * lam + 0.5 * 0.2 ** 2 * lam ** 2
        jump = 1.0 * (0.5 * 10 / (10 - lam) + 0.5 * 10 / (10 + lam) - 1.0)
        assert laplace_exponent(KOU, lam) == pytest.approx(base + jump)
        for bad in (10.0, 12.0, -10.0, -15.0):
            with pytest.raises(DomainError):
                laplace_exponent(KOU, bad)

    def test_stable_only_at_zero(self):
        assert laplace_exponent(STABLE, 0.0) == 0.0
        with pytest.raises(DomainError):
            laplace_exponent(STABLE, 1.0)

    def test_zero_is_zero(self):
        for m in (BD, MERTON, KOU):
            assert laplace_exponent(m, 0.0) == 0.0


def run_steps(model, n, h, k, seed):
    x = np.zeros(n)
    rng = np.random.default_rng(seed)
    for _ in range(k):
        x, _ = _increment(model, x, h, rng)
    return x


def step_inputs(kind):
    """x0, dt and counts for one 1000-path step: a scalar dt, a per-path dt,
    or a per-path dt with a given jump count per path."""
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=1000)
    if kind == "scalar":
        return x0, 0.01, None
    dt = rng.exponential(0.5, size=1000)
    return x0, dt, (rng.random(1000) < 0.5 if kind == "counts" else None)


def reference_increment(model, x0, dt, rng, counts=None):
    # `_increment` as one allocating expression per quantity
    if model.family is Family.STABLE:
        a = model.stable_index
        phi = (rng.random(len(x0)) - 0.5) * np.pi
        w = rng.standard_exponential(len(x0))
        tau = np.tan(a * phi / 2)
        s = 2 * tau / (1 + tau ** 2) * np.exp(
            (np.log(dt) + np.log1p(np.tan(phi) ** 2) / 2 + (a - 1) * np.log(w)
             + (a - 1) * np.log1p(np.tan((1 - a) * phi) ** 2) / 2) / a)
        x1 = x0 + model.mu * dt + s * model.stable_scale
        return x1, np.maximum(x0, x1)
    z = rng.standard_normal(len(x0))
    x1 = x0 + model.mu * dt + model.sigma * np.sqrt(dt) * z
    d = x1 - x0
    var = model.sigma ** 2 * dt
    hi = 0.5 * (x0 + x1 + np.sqrt(d * d - 2.0 * var * np.log1p(-rng.random(len(d)))))
    if model.jump_intensity > 0.0:
        if counts is None:
            counts = rng.poisson(model.jump_intensity * dt, size=len(x0))
        hit, sums = _jump_sums(model, counts, rng)
        x1[hit] += sums
    return x1, np.maximum(hi, x1)


def psi_derivatives(model):
    # central differences of the Laplace exponent at 0: (psi'(0), psi''(0))
    e = 1e-4
    lo, hi = laplace_exponent(model, -e), laplace_exponent(model, e)
    return (hi - lo) / (2 * e), (hi + lo) / (e * e)


class TestStepper:
    @pytest.mark.parametrize("model", [BD, MERTON, KOU], ids=["brownian", "merton", "kou"])
    def test_terminal_moments(self, model):
        # h = 0.5 puts one expected jump per step for both jump models, so a
        # quarter of the jumping steps carry two or more jumps
        n, h, k = 20000, 0.5, 4
        t = h * k
        term = run_steps(model, n, h, k, seed=5)
        d1, d2 = psi_derivatives(model)
        assert term.mean() == pytest.approx(t * d1, abs=4 * term.std() / np.sqrt(n))
        sq = (term - term.mean()) ** 2
        assert sq.mean() == pytest.approx(t * d2, abs=4 * sq.std() / np.sqrt(n))

    def test_stable_terminal_symmetric_about_drift(self):
        model = LevyModel.stable(0.3, 1.5, 0.5)
        n, h, k = 20000, 0.05, 20
        term = run_steps(model, n, h, k, seed=6)
        above = float(np.mean(term > model.mu * h * k))
        assert above == pytest.approx(0.5, abs=4 * 0.5 / np.sqrt(n))

    @pytest.mark.parametrize("a", [1.05, 1.5, 1.95])
    @pytest.mark.parametrize("per_path", [False, True], ids=["scalar", "per_path"])
    def test_stable_increment_matches_classical_cms(self, a, per_path):
        # the tangent route against Chambers-Mallows-Stuck in sin, cos and **
        # on the same u and W, with u placed by hand at both ends and the middle
        class FixedDraws:  # u, then W, as `_increment` asks for them (no `out` here)
            def random(self, n, out=None):
                return u.copy()

            def standard_exponential(self, n, out=None):
                return w.copy()

        rng = np.random.default_rng(21)
        u = np.concatenate([[0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53], rng.random(100_000)])
        w = rng.standard_exponential(len(u))
        dt = rng.exponential(0.5, size=len(u)) if per_path else 0.01
        if per_path:
            dt[4] = 0.0  # a stick of length 0, as rest * rng.random(n) can break off
        phi = (u - 0.5) * np.pi
        want = 0.5 * dt ** (1 / a) * (np.sin(a * phi) / np.cos(phi) ** (1 / a)
                                      * (np.cos((1 - a) * phi) / w) ** ((1 - a) / a))
        x0 = np.zeros(len(u))
        got = _increment(LevyModel.stable(0.0, a, 0.5), x0, dt, FixedDraws())[0]
        assert np.isfinite(got).all()
        assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all()
        # u = 1/2 draws 0: the step is its drift, exactly
        got = _increment(LevyModel.stable(0.3, a, 0.5), x0, dt, FixedDraws())[0]
        assert got[2] == np.broadcast_to(0.3 * dt, u.shape)[2]

    def test_step_extrema_bracket_endpoints(self):
        for model in (BD, KOU, STABLE):
            x0 = np.linspace(-1.0, 1.0, 500)
            x1, hi = _increment(model, x0, 0.1, np.random.default_rng(7))
            assert (hi >= np.maximum(x0, x1)).all()

    @pytest.mark.parametrize("model", [BD, MERTON, KOU, STABLE],
                             ids=["brownian", "merton", "kou", "stable"])
    @pytest.mark.parametrize("dt", ["scalar", "per_path", "counts"])
    def test_increment_rounds_like_one_expression(self, model, dt):
        # the step works in three buffers, its own or the caller's `out`, yet
        # rounds like this allocating form, and never writes x0
        x0, dt, counts = step_inputs(dt)
        x0_copy = x0.copy()
        want = reference_increment(model, x0, dt, np.random.default_rng(9), counts)
        for out in (None, tuple(np.full(len(x0), np.nan) for _ in range(3))):
            got = _increment(model, x0, dt, np.random.default_rng(9), counts=counts, out=out)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            if out is not None:
                assert got[0] is out[0] and got[1] is out[1]
        assert np.array_equal(x0, x0_copy)

    def test_jump_sums_follow_counts(self):
        counts = np.array([0, 2, 0, 3, 1, 0, 4])
        hit, sums = _jump_sums(KOU, counts, np.random.default_rng(8))
        sizes = _jump_sizes(KOU, int(counts.sum()), np.random.default_rng(8))
        expected = [sizes[0:2].sum(), sizes[2:5].sum(), sizes[5], sizes[6:10].sum()]
        assert hit.tolist() == [1, 3, 4, 6]
        assert sums == pytest.approx(expected, rel=1e-15)
        hit, sums = _jump_sums(KOU, np.zeros(5, dtype=int), np.random.default_rng(8))
        assert hit.size == 0 and sums.size == 0


class TestExtremaPool:
    def test_shapes_and_ordering(self):
        pool = sample_extrema(BD, 1.0, 3000, np.random.default_rng(6))
        assert len(pool) == 3000
        assert (pool.running_min <= 0).all() and (pool.running_max >= 0).all()
        assert (pool.running_min <= pool.terminal).all()
        assert (pool.terminal <= pool.running_max).all()

    @staticmethod
    def _assert_worker_count_invariant(model):
        # 40000 draws make three chunks
        a = sample_extrema(model, 0.5, 40000, np.random.default_rng(7), workers=1)
        b = sample_extrema(model, 0.5, 40000, np.random.default_rng(7), workers=4)
        assert np.array_equal(a.running_max, b.running_max)
        assert np.array_equal(a.running_min, b.running_min)
        assert np.array_equal(a.terminal, b.terminal)

    def test_worker_count_invariance(self):
        self._assert_worker_count_invariant(KOU)

    def test_stable_worker_count_invariance(self):
        self._assert_worker_count_invariant(STABLE)

    @pytest.mark.parametrize("model", [BD, MERTON, KOU], ids=["brownian", "merton", "kou"])
    def test_max_independent_of_min(self, model):
        # Wiener-Hopf: M and I are independent at an exponential horizon.
        # tanh bounds both so the sample correlation has SE 1/sqrt(n)
        n = 100_000
        pool = sample_extrema(model, 1.0, n, np.random.default_rng(1))
        rho = np.corrcoef(np.tanh(pool.running_max), np.tanh(pool.running_min))[0, 1]
        assert abs(rho) < 4.0 / np.sqrt(n)

    def test_seed_determinism(self):
        a = sample_extrema(MERTON, 1.0, 2000, np.random.default_rng(8))
        b = sample_extrema(MERTON, 1.0, 2000, np.random.default_rng(8))
        assert np.array_equal(a.terminal, b.terminal)

    def test_stable_pool_orders(self):
        pool = sample_extrema(STABLE, 1.0, 2000, np.random.default_rng(9))
        assert (pool.running_min <= pool.terminal).all()
        assert (pool.terminal <= pool.running_max).all()

    def test_terminal_matches_factorization_mean(self):
        # E[X_{T_r}] = psi'(0) / r = mu / r for the drifted diffusion
        pool = sample_extrema(BD, 1.0, 60000, np.random.default_rng(10))
        se = pool.terminal.std() / np.sqrt(len(pool))
        assert pool.terminal.mean() == pytest.approx(0.5, abs=4 * se)

    # first five draws of each column at seed 20241017 (n = 2000, r = 1); a
    # change to the sampler's draw order or arithmetic shows here
    PINNED = {
        "brownian": (BD, [
            [-0.21622937629126499, 1.4318171793389625, 0.9455120493265697,
             -0.0073137005709333625, 0.7579090984796834],
            [0.7308829127041613, 1.549712356391601, 1.0858026493500683,
             0.16894197046647647, 0.8739834354485316],
            [-0.9471122889954262, -0.11789517705263863, -0.14029060002349858,
             -0.17625567103740983, -0.11607433696884828]]),
        "merton": (MERTON, [
            [-0.3492389086864152, 0.22730981099668057, 0.019355776834301737,
             -0.25111739082650547, 0.07710118265903372],
            [0.13783796392287553, 0.5605427937253912, 0.11847768571423711,
             0.03731012791382585, 0.10476234861987754],
            [-0.4870768726092908, -0.3332329827287106, -0.09912190887993538,
             -0.28842751874033135, -0.027661165960843823]]),
        "kou": (KOU, [
            [0.003262176406252419, 0.28234038110656523, -0.07809406192982757,
             0.11528513511823944, 0.09434337753473163],
            [0.1441423987984636, 0.30734739720363574, 0.1114999793763936,
             0.15243936694421717, 0.10644310668431975],
            [-0.14088022239221118, -0.02500701609707051, -0.18959404130622115,
             -0.03715423182597773, -0.012099729149588123]]),
        "stable": (STABLE, [
            [-0.4137386193096483, 1.7294255139508359, 0.14514043194463236,
             0.17469666444413412, -0.975900949633876],
            [0.008912004241209684, 1.837265585288961, 0.2727834135461506,
             0.27420787187177736, 0.24547867712022417],
            [-0.42265062355085786, -0.10784007133812464, -0.12764298160151838,
             -0.09951120742764315, -1.2213796267541]]),
    }

    @pytest.mark.parametrize("family", sorted(PINNED))
    def test_pinned_draws(self, family):
        model, expected = self.PINNED[family]
        pool = sample_extrema(model, 1.0, 2000, np.random.default_rng(20241017))
        got = [pool.terminal[:5], pool.running_max[:5], pool.running_min[:5]]
        for column, want in zip(got, expected):
            assert column == pytest.approx(want, rel=1e-12, abs=0.0)

    # SHA-256 of terminal.tobytes() + running_max.tobytes() for 20000 draws,
    # one full chunk and a partial one, recorded before the first jump
    # segment ran in place: every draw and every rounding of the pool
    POOL_SHA256 = {
        "brownian": (BD, "b17ac7f9c02edbebdeb77cdb28f5e48f6f62fc271fa2bd22952cffbb3d1411cf"),
        "merton": (MERTON, "5eb8badaf862c94487fa73fecbe4783b6bfd7bc82354fbd934084e48a482229a"),
        "kou": (KOU, "d32e82cbdbc6f15cc9099df440ecfa45efcd1357b2f83f4deb53d15dbdfc10f9"),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("family", sorted(POOL_SHA256))
    def test_whole_pool_pinned_bit_for_bit(self, family, workers):
        model, want = self.POOL_SHA256[family]
        pool = sample_extrema(model, 1.0, 20000, np.random.default_rng(20241017),
                              workers=workers)
        got = hashlib.sha256(pool.terminal.tobytes() + pool.running_max.tobytes())
        assert got.hexdigest() == want

    def test_jump_chunk_working_set(self):
        # horizons, arrival times, the two outputs and the increment's
        # buffers: 10.1 float arrays of the chunk's length.  Index gathers
        # and full-size segment copies in the first segment took 17.4.
        m = levy._CHUNK
        sample_extrema(KOU, 1.0, 1000, np.random.default_rng(8))
        tracemalloc.start()
        try:
            sample_extrema(KOU, 1.0, m, np.random.default_rng(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * m


def stable_spitzer(lam, r, scale, alpha, nq=400, nt=2000):
    """E[e^{lam I}] at an Exp(r) horizon for driftless symmetric stable X.

    Spitzer's identity: log E[e^{lam I}] = int_0^inf t^{-1} e^{-rt}
    E[(e^{lam X_t} - 1); X_t < 0] dt, and by symmetry the inner expectation
    is (L(s) - 1)/2 with s = lam * scale * t^{1/alpha} and
    L(s) = E e^{-s|S|} = (2/pi) int_0^inf s e^{-u^alpha}/(s^2+u^2) du
    = (2/pi) int_0^{pi/2} e^{-(s tan theta)^alpha} dtheta.  Gauss-Legendre
    in theta (error ~ nq^-2), trapezoid in log t.
    """
    theta, w = np.polynomial.legendre.leggauss(nq)
    theta, w = (theta + 1.0) * np.pi / 4.0, w * np.pi / 4.0
    v = np.linspace(-60.0, np.log(60.0 / r), nt)
    t = np.exp(v)
    s = lam * scale * t ** (1.0 / alpha)
    big_l = (2.0 / np.pi) * (np.exp(-(s[:, None] * np.tan(theta)) ** alpha) @ w)
    return float(np.exp(np.trapezoid(np.exp(-r * t) * (big_l - 1.0) / 2.0, v)))


class TestStickBreaking:
    @pytest.mark.parametrize("lam, want", [(0.5, 0.81479), (1.0, 0.70307)])
    def test_stable_matches_spitzer(self, lam, want):
        # an independent route to the law of I (and, by symmetry, of -M)
        ref = stable_spitzer(lam, 1.0, STABLE.stable_scale, STABLE.stable_index)
        assert ref == pytest.approx(want, abs=1e-5)
        pool = sample_extrema(STABLE, 1.0, 100000, np.random.default_rng(7))
        for draws in (np.exp(lam * pool.running_min), np.exp(-lam * pool.running_max)):
            est, se = _mean_se(draws)
            assert est == pytest.approx(ref, abs=3 * se)

    def test_pieces_partition_the_horizon(self, monkeypatch):
        lengths = []

        def record(model, x0, dt, rng, **kwargs):
            lengths.append(np.array(dt))
            return x0 + dt, x0 + dt

        monkeypatch.setattr(levy, "_increment", record)
        horizon = np.random.default_rng(10).exponential(1.0, size=1000)
        x, _ = _stick_extrema(STABLE, horizon, np.random.default_rng(11))
        assert len(lengths) == levy._STICKS + 1
        assert (lengths[-1] > 0.0).all()
        assert x == pytest.approx(horizon, rel=1e-13, abs=0.0)

    def test_drifted_terminal_symmetric_about_drift(self):
        model = LevyModel.stable(0.3, 1.5, 0.5)
        n = 20000
        horizon = np.random.default_rng(11).exponential(1.0, size=n)
        x, m = _stick_extrema(model, horizon, np.random.default_rng(12))
        above = float(np.mean(x > model.mu * horizon))
        assert above == pytest.approx(0.5, abs=4 * 0.5 / np.sqrt(n))
        assert (x - m <= np.minimum(x, 0.0)).all() and (m >= np.maximum(x, 0.0)).all()

    @pytest.mark.parametrize("model", [MERTON, KOU], ids=["merton", "kou"])
    def test_sticks_match_bridge_sampler(self, model):
        # the stick routine on exact increments against the event-driven
        # bridge sampler: two routes to the same laws of M and I
        n, r = 50000, 1.0
        horizon = np.random.default_rng(14).exponential(1.0 / r, size=n)
        x, m = _stick_extrema(model, horizon, np.random.default_rng(15))
        pool = sample_extrema(model, r, n, np.random.default_rng(16))
        for lam in (0.5, 1.0):
            for sticks, bridge in ((np.exp(lam * (x - m)), np.exp(lam * pool.running_min)),
                                   (np.exp(-lam * m), np.exp(-lam * pool.running_max))):
                (a, sa), (b, sb) = _mean_se(sticks), _mean_se(bridge)
                assert a == pytest.approx(b, abs=4 * np.hypot(sa, sb))
