"""Forward/backward pairs against central finite differences; Adam; checker."""

import numpy as np
import pytest

from gnolr.errors import DimensionError, OptimizerError
from gnolr.tensor import (
    AdamConfig,
    DegenerateVectorWarning,
    Parameter,
    adam_step,
    adam_step_sparse,
    glorot_uniform,
    l2_normalize,
    l2_normalize_backward,
    leaky_relu,
    leaky_relu_backward,
    pack_parameters,
    stable_sigmoid,
    stable_softplus,
)
from tests.helpers import GradCheckReport, finite_diff_check


def central_diff(fn, x, h=1e-5):
    """Independent oracle: per-coordinate central differences of a scalar fn."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn()
        flat[i] = orig - h
        lo = fn()
        flat[i] = orig
        out[i] = (hi - lo) / (2 * h)
    return grad


class TestLeakyRelu:
    def test_positive_passthrough(self):
        assert leaky_relu(np.array(2.0), 0.01) == 2.0

    def test_negative_scaled(self):
        assert leaky_relu(np.array(-3.0), 0.01) == pytest.approx(-0.03)

    def test_gradient_on_negative_side(self):
        g = leaky_relu_backward(np.array(1.0), np.array(-1.0), 0.01)
        assert g == pytest.approx(0.01)

    def test_slope_range_enforced(self):
        with pytest.raises(DimensionError):
            leaky_relu(np.zeros(3), 1.5)

    @staticmethod
    def special_values():
        tiny = np.nextafter(0.0, 1.0)  # smallest subnormal
        return np.array(
            [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 2.2e-308, -2.2e-308,
             1e308, -1e308, np.finfo(np.float64).max, -np.finfo(np.float64).max, 1.0, -1.0]
        )

    @pytest.mark.parametrize("slope", [0.01, 0.2, 0.5, 0.999999])
    def test_bit_identical_to_where_reference(self, slope):
        # The max form and the mask form must give the np.where bits exactly,
        # signed zeros and subnormals included.
        rng = np.random.default_rng(21)
        specials = self.special_values()
        x = np.concatenate([specials, rng.normal(size=500), rng.normal(size=500) * 1e-300])
        x = np.concatenate([x, rng.permutation(x)]).reshape(-1, 4)
        upstream = np.concatenate([np.resize(specials, 64), rng.normal(size=x.size - 64)])
        upstream = rng.permutation(upstream).reshape(x.shape)
        forward_ref = np.where(x >= 0.0, x, slope * x)
        backward_ref = upstream * np.where(x >= 0.0, 1.0, slope)
        assert leaky_relu(x, slope).tobytes() == forward_ref.tobytes()
        assert leaky_relu_backward(upstream, x, slope).tobytes() == backward_ref.tobytes()
        # Every (x, upstream) pair of special values, so each zero sign meets each.
        xs, ups = np.meshgrid(specials, specials)
        assert leaky_relu(xs, slope).tobytes() == np.where(xs >= 0.0, xs, slope * xs).tobytes()
        assert (
            leaky_relu_backward(ups, xs, slope).tobytes()
            == (ups * np.where(xs >= 0.0, 1.0, slope)).tobytes()
        )


class TestStableSigmoid:
    def test_zero(self):
        assert stable_sigmoid(0.0) == 0.5

    def test_reference_points(self):
        # Scalar-evaluation oracle: 1/(1+e^3.7657) = 0.0226275...
        assert stable_sigmoid(-3.7657) == pytest.approx(0.022627541308474622, abs=1e-12)
        assert stable_sigmoid(1.0) == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_no_overflow_at_extremes(self):
        for x in (-1e3, 1e3, -750.0, 750.0):
            v = stable_sigmoid(x)
            assert np.isfinite(v)
            assert 0.0 <= v <= 1.0

    def test_symmetry(self):
        x = np.random.default_rng(1).uniform(-50, 50, size=4096)
        np.testing.assert_allclose(stable_sigmoid(x) + stable_sigmoid(-x), 1.0, atol=1e-15)

    def test_softplus_matches_log1p(self):
        x = np.linspace(-30, 30, 301)
        np.testing.assert_allclose(stable_softplus(x), np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0), atol=1e-12)


class TestL2Normalize:
    def test_three_four(self):
        np.testing.assert_allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_idempotent_on_unit(self):
        v = l2_normalize(np.array([1.0, 2.0, 2.0]))
        np.testing.assert_allclose(l2_normalize(v), v, atol=1e-15)

    def test_zero_vector_flags_degenerate(self):
        with pytest.warns(DegenerateVectorWarning):
            out = l2_normalize(np.zeros(4))
        assert np.array_equal(out, np.zeros(4))

    def test_norms_are_zero_or_one(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(500, 16))
        norms = np.linalg.norm(l2_normalize(v), axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-9)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=16)
        upstream = rng.normal(size=16)
        analytic = l2_normalize_backward(upstream, v)
        loss = lambda: float(np.sum(l2_normalize(v) * upstream))
        numeric = central_diff(loss, v)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        assert rel.max() < 1e-5


class TestAdam:
    def test_zero_gradient_leaves_value(self):
        p = Parameter("p", np.array([[1.5, -2.0]]))
        adam_step(p, AdamConfig(learning_rate=0.1))
        assert np.array_equal(p.value, np.array([[1.5, -2.0]]))
        assert p.step_count == 1

    def test_first_step_closed_form(self):
        # Bias-corrected first step with g=1 moves by ~lr.
        p = Parameter("p", np.array([[0.0]]))
        p.grad[...] = 1.0
        adam_step(p, AdamConfig(learning_rate=0.1))
        assert p.value[0, 0] == pytest.approx(-0.1, rel=1e-6)
        assert np.array_equal(p.grad, np.zeros((1, 1)))

    def test_determinism(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(4, 3))
        grads = rng.normal(size=(10, 4, 3))
        results = []
        for _ in range(2):
            p = Parameter("p", values.copy())
            for g in grads:
                p.grad[...] = g
                adam_step(p, AdamConfig(learning_rate=0.01))
            results.append(p.value.copy())
        assert np.array_equal(results[0], results[1])

    def test_non_finite_gradient_names_parameter(self):
        p = Parameter("tower.W0", np.zeros((2, 2)))
        p.grad[0, 0] = np.nan
        with pytest.raises(OptimizerError, match="tower.W0"):
            adam_step(p, AdamConfig(learning_rate=0.1))

    def test_bad_config_rejected(self):
        with pytest.raises(OptimizerError):
            AdamConfig(learning_rate=-1.0)

    @pytest.mark.parametrize(
        "settings",
        [
            {"learning_rate": np.nan},
            {"learning_rate": np.inf},
        ],
    )
    def test_non_finite_config_rejected(self, settings):
        with pytest.raises(OptimizerError, match="finite"):
            AdamConfig(**settings)

    def test_sparse_rows_leave_others_bit_identical(self):
        rng = np.random.default_rng(6)
        p = Parameter("emb", rng.normal(size=(10, 4)))
        before = p.value.copy()
        grad = np.array([[1.0] * 4, [-0.5] * 4])
        adam_step_sparse(p, AdamConfig(learning_rate=0.1), np.array([3, 7]), grad)
        untouched = [r for r in range(10) if r not in (3, 7)]
        assert np.array_equal(p.value[untouched], before[untouched])
        assert not np.array_equal(p.value[3], before[3])
        assert not np.array_equal(p.value[7], before[7])


    def test_sparse_writes_only_the_given_rows_and_holds_no_gradient(self):
        # The gradient comes with its rows; no other row is written, so the
        # step costs O(rows), not O(table), and the table keeps no gradient.
        p = Parameter("emb", np.ones((6, 2)))
        adam_step_sparse(p, AdamConfig(learning_rate=0.1), np.array([2]), np.full((1, 2), 0.5))
        assert np.all(p.value[2] != 1.0) and np.all(p.adam_m[2] != 0.0)
        others = [0, 1, 3, 4, 5]
        assert np.all(p.value[others] == 1.0)
        assert np.all(p.adam_m[others] == 0.0) and np.all(p.adam_v[others] == 0.0)
        assert "grad" not in vars(p)
        assert p.step_count == 1
        empty = np.array([], dtype=np.int64)
        adam_step_sparse(p, AdamConfig(learning_rate=0.1), empty, np.zeros((0, 2)))
        assert p.step_count == 1

    def test_sparse_rejects_a_non_finite_gradient(self):
        p = Parameter("emb", np.ones((6, 2)))
        with pytest.raises(OptimizerError, match="emb"):
            grad = np.array([[0.0, 1.0], [np.inf, 0.0]])
            adam_step_sparse(p, AdamConfig(learning_rate=0.1), np.array([1, 4]), grad)
        assert p.step_count == 0 and np.all(p.value == 1.0)

    def test_sparse_over_every_row_equals_the_dense_step(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(9, 5))
        dense, sparse = Parameter("d", values.copy()), Parameter("s", values.copy())
        cfg = AdamConfig(learning_rate=0.05)
        for _ in range(5):
            g = rng.normal(size=values.shape) * rng.choice([1e-6, 1.0, 1e3], size=(9, 1))
            dense.grad[...] = g
            adam_step(dense, cfg)
            adam_step_sparse(sparse, cfg, np.arange(9), g.copy())
        assert sparse.step_count == dense.step_count == 5
        for attr in ("value", "adam_m", "adam_v"):
            assert getattr(sparse, attr).tobytes() == getattr(dense, attr).tobytes(), attr
        assert not np.any(dense.grad) and "grad" not in vars(sparse)


class TestParameterBuffers:
    def test_buffers_are_zeros_made_on_first_use(self):
        p = Parameter("p", np.ones((2, 3)))
        assert not {"grad", "adam_m", "adam_v"} & set(vars(p))
        for attr in ("grad", "adam_m", "adam_v"):
            buffer = getattr(p, attr)
            assert buffer.shape == (2, 3) and not buffer.any()
            assert getattr(p, attr) is buffer
        with pytest.raises(AttributeError, match="no attribute 'gard'"):
            p.gard

    def test_a_table_refuses_grad_and_makes_moments(self):
        p = Parameter("emb.x", np.ones((4, 2)), table=True)
        with pytest.raises(AttributeError, match=r"'emb\.x' holds no grad.*take_grads\(\)"):
            p.grad
        assert "grad" not in vars(p)
        for attr in ("adam_m", "adam_v"):
            assert getattr(p, attr).shape == (4, 2) and not getattr(p, attr).any()


class TestPackParameters:
    def make(self):
        rng = np.random.default_rng(22)
        return [
            Parameter("a.W0", rng.normal(size=(3, 4))),
            Parameter("a.b0", rng.normal(size=(1, 4))),
            Parameter("head.w", np.ones((1, 1))),
        ]

    def test_members_become_views_with_values_kept(self):
        members = self.make()
        before = [p.value.copy() for p in members]
        flat = pack_parameters("dense", members)
        assert flat.value.shape == (3 * 4 + 4 + 1,)
        for p, value in zip(members, before):
            assert p.value.tobytes() == value.tobytes()
            for attr in ("value", "grad", "adam_m", "adam_v"):
                assert np.shares_memory(getattr(p, attr), getattr(flat, attr))
        members[1].grad += 2.0
        assert np.count_nonzero(flat.grad) == 4

    def test_one_flat_step_matches_a_step_per_member(self):
        rng = np.random.default_rng(23)
        packed, single = self.make(), self.make()
        flat = pack_parameters("dense", packed)
        cfg = AdamConfig(learning_rate=0.05)
        for _ in range(4):
            for p, q in zip(packed, single):
                g = rng.normal(size=p.value.shape)
                p.grad += g
                q.grad += g
            adam_step(flat, cfg)
            for q in single:
                adam_step(q, cfg)
        for p, q in zip(packed, single):
            for attr in ("value", "adam_m", "adam_v", "grad"):
                assert getattr(p, attr).tobytes() == getattr(q, attr).tobytes(), (p.name, attr)


class TestFiniteDiffCheck:
    def test_quadratic_loss_is_exact(self):
        rng = np.random.default_rng(7)
        p = Parameter("x", rng.uniform(0.5, 2.0, size=(5, 5)))
        p.grad[...] = 2.0 * p.value
        report = finite_diff_check(
            lambda: float(np.sum(p.value**2)), [p], h=1e-5, tolerance=1e-8, num_samples=25
        )
        assert report.max_rel_error < 1e-8
        assert report.passed

    def test_detects_wrong_gradient(self):
        p = Parameter("x", np.full((3, 3), 1.25))
        p.grad[...] = 3.0 * p.value  # deliberately wrong for sum of squares
        report = finite_diff_check(lambda: float(np.sum(p.value**2)), [p], tolerance=1e-4)
        assert not report.passed
        assert report.worst_param == "x"

    def test_samples_at_least_hundred_when_available(self):
        rng = np.random.default_rng(8)
        p = Parameter("x", rng.normal(size=(20, 20)))
        p.grad[...] = 2.0 * p.value
        report = finite_diff_check(lambda: float(np.sum(p.value**2)), [p], num_samples=100)
        assert report.num_checked == 100
        assert isinstance(report, GradCheckReport)

    def test_glorot_bounds(self):
        rng = np.random.default_rng(9)
        w = glorot_uniform((30, 50), rng)
        limit = np.sqrt(6.0 / 80.0)
        assert np.all(np.abs(w) <= limit)
