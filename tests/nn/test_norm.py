"""BatchNorm and LocalResponseNorm tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import BatchNorm, LocalResponseNorm
from repro.nn.gradcheck import check_layer_gradients, relative_error


class TestBatchNorm:
    def test_training_output_is_normalised_2d(self):
        bn = BatchNorm(5)
        x = np.random.default_rng(0).normal(3.0, 2.0, size=(64, 5))
        y = bn.forward(x)
        assert np.allclose(y.mean(axis=0), 0, atol=1e-8)
        assert np.allclose(y.std(axis=0), 1, atol=1e-3)

    def test_training_output_is_normalised_4d(self):
        bn = BatchNorm(3)
        x = np.random.default_rng(0).normal(-1.0, 5.0, size=(8, 3, 6, 6))
        y = bn.forward(x)
        assert np.allclose(y.mean(axis=(0, 2, 3)), 0, atol=1e-8)
        assert np.allclose(y.var(axis=(0, 2, 3)), 1, atol=1e-3)

    def test_gamma_beta_applied(self):
        bn = BatchNorm(2)
        bn.gamma.data[:] = [2.0, 3.0]
        bn.beta.data[:] = [1.0, -1.0]
        x = np.random.default_rng(1).normal(size=(32, 2))
        y = bn.forward(x)
        assert np.allclose(y.mean(axis=0), [1.0, -1.0], atol=1e-8)

    def test_eval_mode_uses_running_stats(self):
        bn = BatchNorm(4, momentum=0.0)  # running stats = last batch stats
        x = np.random.default_rng(2).normal(2.0, 3.0, size=(128, 4))
        bn.forward(x)
        bn.eval()
        y_eval = bn.forward(x)
        # with momentum 0 the running stats equal the batch stats
        assert np.allclose(y_eval.mean(axis=0), 0.0, atol=1e-2)

    @pytest.mark.parametrize("shape", [(1, 3, 1, 1), (6, 4, 5, 5), (32, 8, 12, 12), (7, 16)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_batch_statistics_equal_numpy_mean_var_bitwise(self, shape, dtype):
        # The training forward computes its statistics in one pass each; they
        # and the output must equal the x.mean / x.var formulas byte for byte.
        x = (np.random.default_rng(5).normal(size=shape) * 3 + 1).astype(dtype)
        axes = (0,) if x.ndim == 2 else (0, 2, 3)
        bn = BatchNorm(shape[1], momentum=0.0)  # running stats = batch stats
        y = bn.forward(x)
        mean, var = x.mean(axis=axes), x.var(axis=axes)
        assert bn.running_mean.tobytes() == (0.0 * np.zeros(shape[1]) + 1.0 * mean).tobytes()
        assert bn.running_var.tobytes() == (0.0 * np.ones(shape[1]) + 1.0 * var).tobytes()
        expand = (lambda v: v) if x.ndim == 2 else (lambda v: v[:, None, None])
        # x - mean in x's dtype, normalised in the layer's float64
        xhat = (x - expand(mean)).astype(np.float64) * expand(1.0 / np.sqrt(var + bn.eps))
        assert y.tobytes() == (expand(bn.gamma.data) * xhat + expand(bn.beta.data)).tobytes()

    def test_running_stats_updated_only_in_training(self):
        bn = BatchNorm(3)
        rm = bn.running_mean.copy()
        bn.eval()
        bn.forward(np.random.default_rng(0).normal(size=(16, 3)))
        assert np.array_equal(bn.running_mean, rm)

    def test_gradients_2d(self):
        bn = BatchNorm(4)
        x = np.random.default_rng(3).normal(size=(7, 4))
        check_layer_gradients(bn, x, tol=1e-5)

    def test_gradients_4d(self):
        bn = BatchNorm(3)
        x = np.random.default_rng(4).normal(size=(4, 3, 5, 5))
        check_layer_gradients(bn, x, tol=1e-5)

    def test_params_have_zero_weight_decay(self):
        bn = BatchNorm(3)
        assert bn.gamma.weight_decay == 0.0
        assert bn.beta.weight_decay == 0.0

    def test_backward_sums_to_zero(self):
        """BN output is mean-free per channel, so dL/dx sums to ~0 per channel."""
        bn = BatchNorm(3)
        x = np.random.default_rng(5).normal(size=(16, 3))
        bn.forward(x)
        dx = bn.backward(np.random.default_rng(6).normal(size=(16, 3)))
        assert np.allclose(dx.sum(axis=0), 0, atol=1e-10)

    def test_output_shape_validates(self):
        with pytest.raises(ValueError):
            BatchNorm(3).output_shape((4, 5, 5))


class TestLRN:
    def naive_lrn(self, x, size, alpha, beta, k):
        n, c = x.shape[:2]
        half = size // 2
        out = np.empty_like(x)
        for ci in range(c):
            lo, hi = max(0, ci - half), min(c, ci + half + 1)
            ssum = (x[:, lo:hi] ** 2).sum(axis=1)
            out[:, ci] = x[:, ci] * (k + alpha / size * ssum) ** (-beta)
        return out

    @given(c=st.integers(1, 12), size=st.sampled_from([3, 5, 7]))
    @settings(max_examples=20, deadline=None)
    def test_forward_matches_naive(self, c, size):
        lrn = LocalResponseNorm(size=size)
        x = np.random.default_rng(c).normal(size=(2, c, 3, 3))
        ref = self.naive_lrn(x, size, lrn.alpha, lrn.beta, lrn.k)
        assert relative_error(lrn.forward(x), ref) < 1e-10

    def test_gradients(self):
        # larger alpha so the normalisation term actually matters numerically
        lrn = LocalResponseNorm(size=3, alpha=0.5, beta=0.75)
        x = np.random.default_rng(9).normal(size=(2, 6, 3, 3))
        check_layer_gradients(lrn, x, tol=1e-5)

    def test_identity_when_alpha_zero(self):
        lrn = LocalResponseNorm(size=5, alpha=0.0, k=1.0)
        x = np.random.default_rng(1).normal(size=(2, 8, 4, 4))
        assert np.allclose(lrn.forward(x), x)

    def test_shape_preserved(self):
        lrn = LocalResponseNorm()
        assert lrn.output_shape((96, 55, 55)) == (96, 55, 55)

    def test_no_parameters(self):
        assert LocalResponseNorm().parameters() == []
