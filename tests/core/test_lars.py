"""LARS tests: trust ratio math, scale invariance, exclusion rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LARS, SGD, trust_ratio
from repro.nn import Parameter


def param(values, wd=1.0, name="w"):
    return Parameter(np.asarray(values, dtype=float), name=name, weight_decay=wd)


class TestTrustRatio:
    def test_basic_formula(self):
        # ||w||=2, ||g||=1, beta=0.5 -> 2 / (1 + 1) = 1
        assert trust_ratio(2.0, 1.0, 0.5) == pytest.approx(1.0)

    def test_zero_weight_returns_one(self):
        assert trust_ratio(0.0, 1.0, 0.1) == 1.0

    def test_zero_grad_zero_decay_returns_one(self):
        assert trust_ratio(1.0, 0.0, 0.0) == 1.0

    def test_large_gradient_shrinks_ratio(self):
        assert trust_ratio(1.0, 100.0, 0.0) == pytest.approx(0.01)

    @given(
        w=st.floats(0.01, 100.0),
        g=st.floats(0.01, 100.0),
        beta=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_positive_and_finite(self, w, g, beta):
        r = trust_ratio(w, g, beta)
        assert r > 0 and np.isfinite(r)

    @given(w=st.floats(0.1, 10.0), g=st.floats(0.1, 10.0), k=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_joint_scale_invariance(self, w, g, k):
        """Scaling ||w|| and ||g|| together leaves the ratio unchanged
        (beta=0) — LARS normalises out the layer's scale."""
        assert trust_ratio(k * w, k * g, 0.0) == pytest.approx(trust_ratio(w, g, 0.0))


class TestLARSUpdates:
    def test_update_magnitude_independent_of_gradient_scale(self):
        """The defining LARS property: without weight decay, multiplying the
        gradient by any constant leaves the update unchanged."""

        def one_step(grad_scale):
            p = param([3.0, 4.0])
            p.grad[:] = np.array([0.6, 0.8]) * grad_scale
            opt = LARS([p], trust_coefficient=0.01, momentum=0.0, weight_decay=0.0)
            before = p.data.copy()
            opt.step(lr=1.0)
            return before - p.data

        assert np.allclose(one_step(1.0), one_step(1000.0))
        assert np.allclose(one_step(1.0), one_step(1e-4))

    def test_update_norm_equals_eta_lr_weight_norm(self):
        """‖Δw‖ = lr · η · ‖w‖ when momentum and decay are off."""
        p = param([3.0, 4.0])  # ||w|| = 5
        p.grad[:] = [10.0, -2.0]
        opt = LARS([p], trust_coefficient=0.02, momentum=0.0, weight_decay=0.0)
        before = p.data.copy()
        opt.step(lr=0.5)
        assert np.linalg.norm(before - p.data) == pytest.approx(0.5 * 0.02 * 5.0)

    def test_excluded_parameters_use_plain_sgd(self):
        """Biases/BN params (wd multiplier 0) take the momentum-SGD update."""
        bias = param([1.0], wd=0.0, name="b")
        ref = param([1.0], wd=0.0, name="b")
        lars = LARS([bias], trust_coefficient=0.001, momentum=0.9, weight_decay=0.0005)
        sgd = SGD([ref], momentum=0.9, weight_decay=0.0005)
        for _ in range(3):
            bias.grad[:] = [0.3]
            ref.grad[:] = [0.3]
            lars.step(lr=0.1)
            sgd.step(lr=0.1)
        assert np.allclose(bias.data, ref.data)

    def test_momentum_carries_between_steps(self):
        p = param([1.0, 0.0])
        opt = LARS([p], trust_coefficient=0.01, momentum=0.9, weight_decay=0.0)
        p.grad[:] = [1.0, 0.0]
        opt.step(lr=1.0)
        d1 = 1.0 - p.data[0]
        p.grad[:] = [0.0, 0.0]
        opt.step(lr=1.0)  # pure momentum coast
        d2 = 1.0 - p.data[0] - d1
        assert d2 == pytest.approx(0.9 * d1)

    def test_weight_decay_enters_both_ratio_and_gradient(self):
        p = param([2.0])
        p.grad[:] = [0.0]
        opt = LARS([p], trust_coefficient=0.1, momentum=0.0, weight_decay=0.5)
        opt.step(lr=1.0)
        # ratio = ||w||/(0 + 0.5 ||w||) = 2; g_eff = 0.5*w = 1; step = 0.1*2*1 = 0.2
        assert np.allclose(p.data, [2.0 - 0.2])

    def test_zero_gradient_is_safe(self):
        p = param([1.0, 1.0])
        p.grad[:] = 0.0
        opt = LARS([p], momentum=0.0, weight_decay=0.0)
        opt.step(lr=1.0)
        assert np.all(np.isfinite(p.data))
        assert np.allclose(p.data, [1.0, 1.0])

    def test_per_layer_rates_differ(self):
        """Layers with different ||w||/||g|| ratios get different local LRs —
        the whole point of layer-wise adaptation."""
        p1 = param([10.0, 0.0], name="big_w")
        p2 = param([0.1, 0.0], name="small_w")
        p1.grad[:] = [1.0, 0.0]
        p2.grad[:] = [1.0, 0.0]
        opt = LARS([p1, p2], trust_coefficient=0.01, weight_decay=0.0)
        assert opt.local_lr(p1) > opt.local_lr(p2)

    def test_trust_ratios_diagnostic(self):
        p1 = param([10.0, 0.0], name="w1")
        p2 = param([0.1, 0.0], name="w2")
        bias = param([1.0], wd=0.0, name="b")
        p1.grad[:] = [1.0, 0.0]
        p2.grad[:] = [1.0, 0.0]
        bias.grad[:] = [1.0]
        opt = LARS([p1, p2, bias], trust_coefficient=0.01, weight_decay=0.0)
        ratios = opt.trust_ratios()
        assert ratios["w1"] == pytest.approx(10.0)
        assert ratios["w2"] == pytest.approx(0.1)
        assert ratios["b"] == 1.0  # excluded

    def test_trust_ratios_unnamed_params_get_indices(self):
        p = Parameter(np.ones(2))
        p.grad[:] = 1.0
        opt = LARS([p], trust_coefficient=0.01)
        assert "param0" in opt.trust_ratios()

    def test_invalid_hyperparameters(self):
        p = param([1.0])
        with pytest.raises(ValueError):
            LARS([p], trust_coefficient=0.0)
        with pytest.raises(ValueError):
            LARS([p], momentum=1.5)
        with pytest.raises(ValueError):
            LARS([p], weight_decay=-0.1)


class TestLARSStability:
    """The Table 5 vs Table 7 story in miniature: with a huge LR, plain SGD
    diverges on an ill-conditioned quadratic while LARS stays bounded."""

    @staticmethod
    def quadratic_grad(p, scales):
        return scales * p.data

    def run(self, opt_cls, lr, steps=50, **kw):
        rng = np.random.default_rng(0)
        # two "layers" with very different curvature
        p1 = Parameter(rng.normal(size=8) * 10, name="l1.weight")
        p2 = Parameter(rng.normal(size=8) * 0.01, name="l2.weight")
        s1, s2 = 0.01, 100.0
        opt = opt_cls([p1, p2], **kw)
        for _ in range(steps):
            p1.grad[:] = s1 * p1.data
            p2.grad[:] = s2 * p2.data
            opt.step(lr=lr)
            if not (np.isfinite(p1.data).all() and np.isfinite(p2.data).all()):
                return np.inf
        return float(np.linalg.norm(p1.data) + np.linalg.norm(p2.data))

    def test_sgd_diverges_lars_does_not(self):
        lr = 5.0  # >> 2/L for the stiff layer
        sgd_final = self.run(SGD, lr, momentum=0.0, weight_decay=0.0)
        lars_final = self.run(LARS, lr, momentum=0.0, weight_decay=0.0,
                              trust_coefficient=0.01)
        assert sgd_final == np.inf or sgd_final > 1e6
        assert np.isfinite(lars_final)
