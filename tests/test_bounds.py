import math

import numpy as np
import pytest

import msgdt as mg
from msgdt import oracle
from msgdt.bounds import row_norms
from msgdt.checks import second_moment_sample, strong_convexity_margin


def identity(l, n):
    """l x l x n identity of the t-product: slice 0 is I, the rest are zero."""
    data = np.zeros((n, l, l))
    data[0] = np.eye(l)
    return mg.Tensor3(data)


def single_row_unit_instance():
    """One row of norm 1, zero measurements, n = 1."""
    a = mg.Tensor3(np.array([[[1.0]]]))
    b = mg.Tensor3(np.array([[[0.0]]]))
    return a, b


class TestSecondMomentBounds:
    def test_single_row_unit(self):
        a, b = single_row_unit_instance()
        # only the fourth-power term survives: 4 * 1 * 1 / (1 * 1) * 1
        assert mg.gradient_second_moment_bound(a, b, radius=1.0, p=1.0) == 4.0
        assert mg.solution_second_moment_bound(a, radius=1.0, p=1.0) == 4.0

    @pytest.mark.parametrize(
        "radius,b_scale,want",
        [
            # n = 4, m = 2, p = 1/2; row norms ||A_i|| = 1, 2 and ||B_i|| = 3 b_scale, b_scale.  At R = 3:
            #   4 n^2 R^2 / (p^3 m) sum ||A_i||^4             = 2304 * (1 + 16)    = 39168,
            #   4 n^{3/2} R / (p^2 m) sum ||A_i||^3 ||B_i||   = 192 * (3 + 8)      = 2112 per b_scale,
            #   2 n / (p^2 m) sum ||A_i||^2 ||B_i||^2         = 16 * (9 + 4)       = 208 per b_scale^2;
            # the terms scale as R^2, R b_scale and b_scale^2, so each row pins another mix of the three
            (3.0, 1.0, 39168.0 + 2112.0 + 208.0),
            (3.0, 2.0, 39168.0 + 2 * 2112.0 + 4 * 208.0),
            (6.0, 1.0, 4 * 39168.0 + 2 * 2112.0 + 208.0),
        ],
    )
    def test_each_term_by_hand(self, radius, b_scale, want):
        a = np.zeros((4, 2, 1))
        a[0, 0, 0], a[0, 1, 0] = 1.0, 2.0
        b = np.zeros((4, 2, 1))
        b[0, 0, 0], b[1, 1, 0] = 3.0 * b_scale, b_scale
        assert mg.gradient_second_moment_bound(mg.Tensor3(a), mg.Tensor3(b), radius, 0.5) == want
        assert mg.solution_second_moment_bound(mg.Tensor3(a), radius, 0.5) == 39168.0 * (radius / 3.0) ** 2

    def test_zero_tensor(self):
        a = mg.zeros(3, 2, 2)
        b = mg.zeros(3, 1, 2)
        assert mg.gradient_second_moment_bound(a, b, 1.0, 0.5) == 0.0
        assert mg.solution_second_moment_bound(a, 1.0, 0.5) == 0.0

    def test_solution_bound_never_exceeds_full_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sys_ = mg.gen_synthetic(mg.Dims(5, 3, 2, 2), int(rng.integers(1 << 31)))
            r = float(rng.uniform(0.5, 3.0))
            p = float(rng.uniform(0.1, 1.0))
            g = mg.gradient_second_moment_bound(sys_.a, sys_.b, r, p)
            g_star = mg.solution_second_moment_bound(sys_.a, r, p)
            assert g_star <= g

    def test_p_validated(self):
        a, b = single_row_unit_instance()
        with pytest.raises(ValueError):
            mg.gradient_second_moment_bound(a, b, 1.0, 0.0)
        with pytest.raises(ValueError):
            mg.solution_second_moment_bound(a, 1.0, -0.2)
        with pytest.raises(ValueError):
            mg.gradient_second_moment_bound(a, b, -1.0, 0.5)

    def test_monte_carlo_respects_bounds(self):
        system = mg.gen_synthetic(mg.Dims(6, 3, 2, 2), 1)
        model = mg.UniformMissing(0.5)
        radius = 2.0 * mg.frob_norm(system.x_star)
        rng = np.random.default_rng(2)
        x = mg.Tensor3(rng.standard_normal(system.x_star.data.shape))
        x = mg.Tensor3(x.data * (0.9 * radius / mg.frob_norm(x)))
        g_bound = mg.gradient_second_moment_bound(system.a, system.b, radius, 0.5)
        sample = second_moment_sample(system.a, system.b, x, model, 2000, rng)
        assert sample.mean_sq_norm <= g_bound
        g_star = mg.solution_second_moment_bound(system.a, radius, 0.5)
        at_star = second_moment_sample(system.a, system.b, system.x_star, model, 2000, rng)
        assert at_star.mean_sq_norm <= g_star


class TestLipschitzConstant:
    def test_formula(self):
        # a_max = 2, n = 3, p = 0.5 -> 3 * 4 / 0.25 = 48
        data = np.zeros((3, 2, 2))
        data[0, 0, 0] = 2.0  # row 0 has norm 2
        data[0, 1, 0] = 1.0
        a = mg.Tensor3(data)
        assert mg.lipschitz_constant(a, 0.5) == pytest.approx(48.0)

    def test_identity_tensor(self):
        for l, n in [(2, 3), (4, 2)]:
            assert mg.lipschitz_constant(identity(l, n), 1.0) == pytest.approx(n)

    def test_row_norms_helper(self):
        rng = np.random.default_rng(3)
        t = mg.Tensor3(rng.standard_normal((2, 4, 3)))
        rn = row_norms(t)
        for i in range(t.m):
            assert rn[i] == pytest.approx(np.linalg.norm(t.data[:, i, :]), rel=1e-14)
        assert mg.max_row_norm(t) == pytest.approx(rn.max())


class TestStrongConvexity:
    def test_identity_tensor(self):
        l, n = 3, 4
        mu, sigma_min = mg.strong_convexity(identity(l, n))
        assert sigma_min == pytest.approx(1.0, rel=1e-12)
        assert mu == pytest.approx(1.0 / l, rel=1e-12)

    def test_matches_bcirc_svd_oracle(self):
        rng = np.random.default_rng(4)
        a = mg.Tensor3(rng.standard_normal((3, 5, 3)))  # 5 x 3 x 3
        _, sigma_min = mg.strong_convexity(a)
        want = np.linalg.svd(oracle.bcirc(a), compute_uv=False).min()
        assert abs(sigma_min - want) <= 1e-8

    def test_requires_tall(self):
        with pytest.raises(ValueError):
            mg.strong_convexity(mg.ones(2, 3, 2))

    def test_inequality_holds(self):
        system = mg.gen_synthetic(mg.Dims(8, 3, 2, 2), 5)
        mu, _ = mg.strong_convexity(system.a)
        margin = strong_convexity_margin(
            system.a, system.b, mu, pairs=100, rng=np.random.default_rng(6)
        )
        assert margin >= -1e-9


class TestContractionAndHorizon:
    def test_arithmetic_example(self):
        r = mg.contraction_ratio(alpha=0.25, mu=1.0, lipschitz=2.0)
        assert r == pytest.approx(0.75)
        g_star = 3.0
        horizon = mg.horizon_bound(0.25, 1.0, 2.0, g_star)
        assert horizon == pytest.approx(0.5 * g_star)

    def test_small_alpha_limit(self):
        mu, lg = 2.0, 5.0
        alpha = 1e-12
        r = mg.contraction_ratio(alpha, mu, lg)
        assert r == pytest.approx(1.0 - 2 * alpha * mu, rel=1e-9)
        assert mg.horizon_bound(alpha, mu, lg, 1.0) == pytest.approx(alpha / mu, rel=1e-9)

    def test_step_too_large(self):
        with pytest.raises(ValueError, match="step size too large"):
            mg.contraction_ratio(alpha=0.6, mu=1.0, lipschitz=2.0)
        with pytest.raises(ValueError, match="step size too large"):
            mg.horizon_bound(0.6, 1.0, 2.0, 1.0)

    def test_vacuous_ratio_clamps_with_warning(self):
        # 2 * 0.9 * 10 * (1 - 0.9) = 1.8 > 1
        with pytest.warns(UserWarning, match="clamping"):
            r = mg.contraction_ratio(alpha=0.9, mu=10.0, lipschitz=1.0)
        assert r == 0.0

    def test_geometric_series_closure(self):
        # 2 a^2 G* / (1 - r) equals the horizon exactly
        for alpha, mu, lg, g_star in [(0.01, 2.0, 40.0, 7.0), (1e-4, 0.5, 900.0, 123.0)]:
            r = mg.contraction_ratio(alpha, mu, lg)
            horizon = mg.horizon_bound(alpha, mu, lg, g_star)
            closure = 2 * alpha**2 * g_star / (1 - r)
            assert closure == pytest.approx(horizon, rel=1e-12)


class TestDecayBound:
    def test_t_one(self):
        k, c, g = 3.0, 0.5, 7.0
        assert mg.decay_bound(1, k, c, g) == pytest.approx((k**2 / c + c * g) * 2.0)

    def test_monotone_decreasing_from_eight(self):
        vals = [mg.decay_bound(t, 2.0, 0.1, 5.0) for t in range(8, 2000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            mg.decay_bound(0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            mg.decay_bound(10, 1.0, 0.0, 1.0)


class TestNonFiniteInputs:
    """NaN slips past a ``<= 0`` check: every radius, step size and constant must be finite and positive."""

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_each_input_rejected(self, value):
        system = mg.gen_synthetic(mg.Dims(8, 2, 2, 2), 3)
        a, b = system.a, system.b
        calls = [
            ("radius", lambda: mg.solution_second_moment_bound(a, value, 0.5)),
            ("radius", lambda: mg.gradient_second_moment_bound(a, b, value, 0.5)),
            ("radius", lambda: mg.compute_bound_report(a, b, value, 0.5)),
            ("step size", lambda: mg.compute_bound_report(a, b, 1.0, 0.5, alpha=value)),
            ("step size", lambda: mg.contraction_ratio(value, 1.0, 2.0)),
            ("step size", lambda: mg.horizon_bound(value, 1.0, 2.0, 1.0)),
            ("strong convexity constant", lambda: mg.horizon_bound(0.1, value, 2.0, 1.0)),
            ("step constant", lambda: mg.decay_bound(10, 1.0, value, 1.0)),
        ]
        for name, call in calls:
            with pytest.raises(ValueError, match=f"{name} must be finite and positive, got {value}"):
                call()


class TestFixedStepEnvelope:
    @pytest.mark.parametrize("t", [0, 1, 7, 250, 5000])
    def test_is_the_inline_expression(self, t):
        r, e0, h = 0.9993, 12.34, 0.0567
        assert mg.fixed_step_envelope(t, r, e0, h) == r**t * e0 + h  # float ==: bit for bit

    def test_validation(self):
        with pytest.raises(ValueError, match="iteration must be >= 0, got -1"):
            mg.fixed_step_envelope(-1, 0.5, 1.0, 1.0)


class TestBoundReport:
    def test_report_fields_and_serialization(self):
        system = mg.gen_synthetic(mg.Dims(6, 3, 2, 2), 7)
        radius = 2.0 * mg.frob_norm(system.x_star)
        lg = mg.lipschitz_constant(system.a, 0.5)
        report = mg.compute_bound_report(system.a, system.b, radius, 0.5, alpha=0.5 / lg)
        assert report.diameter == pytest.approx(2 * radius)
        assert 0 < report.contraction < 1
        assert report.horizon > 0
        assert report.solution_second_moment <= report.gradient_second_moment

        kv = report.to_kv_text().splitlines()
        assert kv[0].startswith("gradient_second_moment=")
        assert len(kv) == 10
        row = report.to_csv_row().split(",")
        assert len(row) == len(report.CSV_HEADER.split(","))
        assert float(row[2]) == report.lipschitz

    @pytest.mark.parametrize("m,l,q,n", [(6, 3, 2, 2), (40, 5, 3, 1), (200, 20, 10, 24)])
    def test_report_equals_the_per_constant_functions(self, m, l, q, n):
        # the report takes each row norm once; its fields stay bit-equal to the public functions
        system = mg.gen_synthetic(mg.Dims(m, l, q, n), m + n)
        a, b, radius, p = system.a, system.b, 3.0 * mg.frob_norm(system.x_star), 0.3
        report = mg.compute_bound_report(a, b, radius, p)
        assert report.gradient_second_moment == mg.gradient_second_moment_bound(a, b, radius, p)
        assert report.solution_second_moment == mg.solution_second_moment_bound(a, radius, p)
        assert report.lipschitz == mg.lipschitz_constant(a, p)
        assert report.max_row_norm == mg.max_row_norm(a)

    @pytest.mark.parametrize(
        "p,radius,message",
        [
            (0.0, 1.0, r"observation probability must be in \(0, 1\], got 0.0"),
            (1.5, float("nan"), r"observation probability must be in \(0, 1\], got 1.5"),
            (0.5, -2.0, "radius must be finite and positive, got -2.0"),
            (0.5, float("inf"), "radius must be finite and positive, got inf"),
        ],
    )
    def test_report_rejects_bad_p_and_radius(self, p, radius, message):
        system = mg.gen_synthetic(mg.Dims(6, 3, 2, 2), 9)
        with pytest.raises(ValueError, match=f"^{message}$"):
            mg.compute_bound_report(system.a, system.b, radius, p)

    def test_report_without_alpha(self):
        system = mg.gen_synthetic(mg.Dims(6, 3, 2, 2), 8)
        report = mg.compute_bound_report(system.a, system.b, 1.0, 0.5)
        assert math.isnan(report.contraction)
        assert math.isnan(report.horizon)
