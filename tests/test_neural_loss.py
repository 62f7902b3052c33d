import numpy as np
import pytest
from oracles import reference_focal_loss

from mtnorm.neural.loss import focal_loss_grad, focal_loss_vec


class TestClosedForm:
    def test_paper_operating_point(self):
        want = reference_focal_loss("0.5", "0.5", 4)
        assert abs(focal_loss_vec(np.asarray([0.5]), 0.5, 4.0)[0] - want) < 1e-9
        assert abs(want - 0.021660849392498) < 1e-12

    def test_reduces_to_cross_entropy(self):
        grid = np.linspace(0.001, 0.999, 1000)
        assert np.abs(focal_loss_vec(grid, 1.0, 0.0) - (-np.log(grid))).max() < 1e-12

    def test_perfect_confidence_vanishes(self):
        loss = focal_loss_vec(np.asarray([1.0, 0.999999]), 0.5, 4.0)
        assert loss[0] < 1e-25
        assert loss[1] < 1e-20


class TestShape:
    def test_monotone_decreasing_in_p(self):
        grid = np.linspace(0.01, 0.99, 200)
        losses = focal_loss_vec(grid, 0.5, 4.0)
        assert np.all(np.diff(losses) < 0)

    def test_down_weights_easy_examples(self):
        # for gamma > 0 and p > 1/2, focal at alpha=1 sits strictly below CE
        grid = np.linspace(0.51, 0.999, 100)
        assert np.all(focal_loss_vec(grid, 1.0, 4.0) < -np.log(grid))

    def test_nonnegative(self):
        grid = np.linspace(0.0, 1.0, 101)
        assert np.all(focal_loss_vec(grid, 0.5, 4.0) >= 0.0)


class TestGradient:
    def test_matches_finite_differences(self):
        eps = 1e-7
        for gamma in (0.0, 1.0, 4.0):
            grid = np.linspace(0.05, 0.95, 19)
            analytic = focal_loss_grad(grid, 0.5, gamma)
            numeric = (
                focal_loss_vec(grid + eps, 0.5, gamma) - focal_loss_vec(grid - eps, 0.5, gamma)
            ) / (2 * eps)
            assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-8)

    def test_clamped_region_is_flat(self):
        assert focal_loss_grad(np.asarray([0.0, 1.0]), 0.5, 4.0) == pytest.approx([0.0, 0.0])
