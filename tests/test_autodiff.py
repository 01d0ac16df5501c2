import numpy as np
import pytest

import crowdcast.autodiff as ad
from crowdcast.autodiff import (
    NonFiniteError,
    ShapeError,
    Tensor,
    backward,
    gradcheck,
    tensor,
)


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(tensor(np.eye(2)), tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_projector(self):
        out = ad.matmul(tensor([[1.0, 0.0], [0.0, 0.0]]), tensor([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.data, [[5], [0]])

    def test_gradient_vs_finite_difference(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        weights = rng.normal(size=(3, 2))

        def f():
            return ad.tsum(ad.mul(ad.matmul(a, b), Tensor(weights)))

        assert gradcheck(f, [a, b]) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 3))))

    def test_batched_weight_broadcast(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(5, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        w = rng.normal(size=(5, 3, 2))

        def f():
            return ad.tsum(ad.mul(ad.matmul(a, b), Tensor(w)))

        assert gradcheck(f, [a, b]) < 1e-6

    def test_folded_weight_matches_einsum(self):
        """The backward of a product by a 2-D right operand folds the left
        operand's leading axes into one GEMM; results match per-slice einsum."""
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        g = rng.normal(size=(2, 3, 4, 6))
        out = ad.matmul(a, b)
        np.testing.assert_allclose(out.data, np.einsum("pqik,kj->pqij", a.data, b.data), rtol=1e-13, atol=1e-13)
        backward(ad.tsum(ad.mul(out, Tensor(g))))
        np.testing.assert_allclose(a.grad, np.einsum("pqij,kj->pqik", g, b.data), rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(b.grad, np.einsum("pqik,pqij->kj", a.data, g), rtol=1e-13, atol=1e-13)


class TestSoftmaxRows:
    """``masked_softmax`` with ``absent`` omitted: -inf inputs are the absent keys."""

    def test_symmetry(self):
        out = ad.masked_softmax(tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-12)

    def test_mask_absorption(self):
        out = ad.masked_softmax(tensor([3.7, -np.inf]))
        np.testing.assert_array_equal(out.data, [1.0, 0.0])

    def test_direct_evaluation(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()  # independent direct oracle
        np.testing.assert_allclose(expected, [0.09003, 0.24473, 0.66524], atol=1e-5)
        out = ad.masked_softmax(tensor(x))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(scale=5.0, size=(4, 7))
            y = ad.masked_softmax(tensor(x)).data
            assert np.all(y >= 0)
            np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-9)

    def test_fully_masked_row_is_zero(self):
        x = np.array([[0.0, 1.0], [-np.inf, -np.inf]])
        y = ad.masked_softmax(tensor(x)).data
        np.testing.assert_allclose(y[1], [0.0, 0.0])
        np.testing.assert_allclose(y[0].sum(), 1.0, atol=1e-12)

    def test_rejects_nan_and_posinf(self):
        with pytest.raises(NonFiniteError):
            ad.masked_softmax(tensor([1.0, np.nan]))
        with pytest.raises(NonFiniteError):
            ad.masked_softmax(tensor([1.0, np.inf]))

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = rng.normal(size=(3, 5))

        def f():
            return ad.tsum(ad.mul(ad.masked_softmax(x), Tensor(w)))

        assert gradcheck(f, [x]) < 1e-4


class TestLayerNorm:
    def test_constant_input(self):
        out = ad.layer_norm(tensor([1.0, 1.0, 1.0]), tensor(np.ones(3)), tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_already_normalized(self):
        out = ad.layer_norm(tensor([-1.0, 1.0]), tensor(np.ones(2)), tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-4)

    def test_slices_normalized_before_affine(self):
        rng = np.random.default_rng(1)
        x = rng.normal(loc=3.0, scale=2.0, size=(6, 16))
        out = ad.layer_norm(tensor(x), tensor(np.ones(16)), tensor(np.zeros(16))).data
        assert np.all(np.abs(out.mean(axis=-1)) < 1e-6)
        assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-4)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        g = Tensor(rng.normal(size=(6,)), requires_grad=True)
        b = Tensor(rng.normal(size=(6,)), requires_grad=True)
        w = rng.normal(size=(4, 6))

        def f():
            return ad.tsum(ad.mul(ad.layer_norm(x, g, b), Tensor(w)))

        assert gradcheck(f, [x, g, b]) < 1e-4


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(np.array([3.0, -1.0, 2.0]), requires_grad=True)
        backward(ad.tsum(w))
        np.testing.assert_array_equal(w.grad, [1.0, 1.0, 1.0])

    def test_quadratic(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        backward(ad.tsum(ad.mul(w, w)))
        np.testing.assert_array_equal(w.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            backward(ad.mul(w, w))

    def test_grads_accumulate_through_shared_nodes(self):
        w = Tensor(np.array([2.0]), requires_grad=True)
        y = ad.mul(w, w)  # w^2
        loss = ad.tsum(ad.add(y, y))  # 2 w^2 -> d/dw = 4w = 8
        backward(loss)
        np.testing.assert_allclose(w.grad, [8.0])

    def test_first_grad_never_aliases_incoming(self):
        """Both operands of an add receive the same incoming array; each
        first grad must be its own copy, or a later += would leak."""
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        g = np.array([1.0, 2.0, 3.0])
        ad.add(a, b)._backward(g)
        assert not np.shares_memory(a.grad, g)
        assert not np.shares_memory(b.grad, g)
        assert not np.shares_memory(a.grad, b.grad)
        a._accumulate(np.ones(3))
        np.testing.assert_array_equal(a.grad, [2.0, 3.0, 4.0])
        np.testing.assert_array_equal(b.grad, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(g, [1.0, 2.0, 3.0])

    def test_first_grad_broadcast_and_cast(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True, dtype=np.float32)
        x._accumulate(np.float64(2.0))
        assert x.grad.shape == (2, 3) and x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, 2.0)

    def test_tape_consumed(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = ad.tsum(ad.mul(w, w))
        backward(loss)
        assert loss._backward is None and loss._parents == ()

    def test_deterministic_gradients(self):
        def run():
            rng = np.random.default_rng(42)
            x = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
            y = ad.masked_softmax(ad.matmul(x, Tensor(rng.normal(size=(5, 5)))))
            backward(ad.tsum(ad.mul(y, y)))
            return x.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)


class TestPerOpGradients:
    """Central finite differences (h=1e-5) vs analytic, rel err < 1e-4."""

    def _check(self, build, shapes, seed, positive=False):
        rng = np.random.default_rng(seed)
        leaves = []
        for s in shapes:
            raw = rng.uniform(0.2, 1.5, size=s) if positive else rng.normal(size=s)
            leaves.append(Tensor(raw, requires_grad=True))
        w = [np.random.default_rng(seed + 1).normal(size=None)]

        def f():
            return ad.tsum(build(*leaves))

        assert gradcheck(f, leaves, h=1e-5) < 1e-4, build

    def test_add(self):
        self._check(lambda a, b: ad.add(a, b), [(3, 4), (4,)], 0)

    def test_sub_mul(self):
        self._check(lambda a, b: ad.mul(ad.sub(a, b), a), [(3, 4), (3, 4)], 1)

    def test_div(self):
        self._check(lambda a, b: ad.div(a, b), [(5,), (5,)], 2, positive=True)

    def test_relu(self):
        self._check(lambda a: ad.relu(a), [(4, 4)], 3)

    def test_exp(self):
        self._check(lambda a: ad.exp(a), [(6,)], 4)

    def test_concat_stack(self):
        self._check(lambda a, b: ad.concat([a, b], axis=1), [(2, 3), (2, 2)], 6)
        self._check(lambda a, b: ad.stack([a, b], axis=0), [(2, 3), (2, 3)], 7)

    def test_reshape_transpose(self):
        self._check(lambda a: ad.transpose(ad.reshape(a, (4, 3)), (1, 0)), [(3, 4)], 8)

    def test_getitem_slice_and_fancy(self):
        self._check(lambda a: a[1:, ::2], [(3, 6)], 9)
        idx = np.array([0, 2, 2])
        self._check(lambda a: a[:, idx], [(3, 4)], 10)

    def test_absval(self):
        self._check(lambda a: ad.absval(a), [(9,)], 14)

    def test_atan2(self):
        self._check(lambda y, x: ad.atan2(y, x), [(6,), (6,)], 15)

    def test_norm(self):
        self._check(lambda a: ad.norm(a, axis=-1), [(3, 4, 2)], 16)
        self._check(lambda a: ad.norm(a, axis=0), [(3, 4)], 17)

    def test_norm_zero_subgradient(self):
        x = Tensor(np.array([[0.0, 0.0], [3.0, 4.0]]), requires_grad=True)
        ad.backward(ad.tsum(ad.norm(x, axis=-1)))
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0], [0.6, 0.8]])


class TestFiniteGuard:
    def test_div_by_zero_is_error(self):
        with pytest.raises(NonFiniteError):
            ad.div(tensor([1.0]), tensor([0.0]))

    def test_overflowing_exp_is_error(self):
        with pytest.raises(NonFiniteError):
            ad.exp(tensor([1000.0]))


class TestNoGrad:
    def test_no_graph_recorded(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad and y._parents == ()
