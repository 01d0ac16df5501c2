import math
import tracemalloc

import numpy as np
import pytest

import crowdcast.autodiff as ad
from crowdcast.autodiff import (
    NonFiniteError,
    ShapeError,
    Tensor,
    backward,
    gradcheck,
)


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(np.eye(2), Tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_projector(self):
        out = ad.matmul(np.array([[1.0, 0.0], [0.0, 0.0]]), Tensor([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.data, [[5], [0]])

    def test_gradient_vs_finite_difference(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        weights = rng.normal(size=(3, 2))

        def f():
            return ad.tsum(ad.mul(ad.matmul(a, x), Tensor(weights)))

        assert gradcheck(f, [x]) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(np.zeros((2, 3)), Tensor(np.zeros((2, 3))))

    def test_batched_weight_broadcast(self):
        """A 2-D x under a batched operator: its gradient sums the batch."""
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 3, 4))
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        w = rng.normal(size=(5, 3, 2))

        def f():
            return ad.tsum(ad.mul(ad.matmul(a, x), Tensor(w)))

        assert gradcheck(f, [x]) < 1e-6

    def test_folded_weight_matches_einsum(self):
        """The gradient of a 2-D x under an operator with leading axes folds
        those axes into one sum; results match per-slice einsum."""
        rng = np.random.default_rng(4)
        a = rng.normal(size=(2, 3, 4, 5))
        x = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        g = rng.normal(size=(2, 3, 4, 6))
        out = ad.matmul(a, x)
        np.testing.assert_allclose(out.data, np.einsum("pqik,kj->pqij", a, x.data), rtol=1e-13, atol=1e-13)
        backward(ad.tsum(ad.mul(out, Tensor(g))))
        np.testing.assert_allclose(x.grad, np.einsum("pqik,pqij->kj", a, g), rtol=1e-13, atol=1e-13)

    def test_only_x_is_a_parent(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        assert ad.matmul(np.ones((4, 3)), x)._parents == (x,)


class TestLinear:
    def test_equals_matmul_plus_bias(self):
        rng = np.random.default_rng(8)
        x, w, b = rng.normal(size=(3, 2, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
        out = ad.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x @ w + b, rtol=1e-14, atol=1e-14)

    def test_one_node(self):
        x, w, b = (Tensor(np.ones(s), requires_grad=True) for s in ((2, 3), (3, 4), (4,)))
        out = ad.linear(x, w, b)
        assert out._parents == (x, w, b)

    def test_strided_incoming_gradient(self):
        """A transposed (non-contiguous) incoming gradient gives the textbook
        grads, is left untouched, and no grad shares its memory."""
        rng = np.random.default_rng(9)
        x, w, b = (Tensor(rng.normal(size=s), requires_grad=True) for s in ((3, 2, 4), (4, 5), (5,)))
        g = rng.normal(size=(5, 2, 3)).T
        kept = g.copy()
        ad.linear(x, w, b)._backward(g)
        np.testing.assert_allclose(x.grad, g @ w.data.T, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w.grad, np.einsum("pqk,pqn->kn", x.data, g), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(b.grad, g.sum(axis=(0, 1)), rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(g, kept)
        assert not any(np.shares_memory(t.grad, g) for t in (x, w, b))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
        with pytest.raises(ShapeError):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 5))), Tensor(np.zeros(4)))


class TestSoftmaxRows:
    """``softmax_data`` with every key present unless ``absent`` says otherwise."""

    def test_symmetry(self):
        np.testing.assert_allclose(ad.softmax_data(np.zeros(2), False), [0.5, 0.5], atol=1e-12)

    def test_mask_absorption(self):
        y = ad.softmax_data(np.array([3.7, 1e6]), np.array([False, True]))
        np.testing.assert_array_equal(y, [1.0, 0.0])

    def test_direct_evaluation(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()  # independent direct oracle
        np.testing.assert_allclose(expected, [0.09003, 0.24473, 0.66524], atol=1e-5)
        np.testing.assert_allclose(ad.softmax_data(x, False), expected, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = ad.softmax_data(rng.normal(scale=5.0, size=(4, 7)), False)
            assert np.all(y >= 0)
            np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-9)

    def test_fully_masked_row_is_zero(self):
        y = ad.softmax_data(np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([[False], [True]]))
        np.testing.assert_allclose(y[1], [0.0, 0.0])
        np.testing.assert_allclose(y[0].sum(), 1.0, atol=1e-12)

    def test_rejects_nan_and_posinf(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteError):
                ad.softmax_data(np.array([1.0, bad]), False)
        # an absent key's logit is never read
        np.testing.assert_array_equal(ad.softmax_data(np.array([1.0, np.nan]), np.array([False, True])), [1.0, 0.0])

    @pytest.mark.parametrize("shape, mask_shape", [((3, 2, 4, 5), (3, 1, 1, 5)), ((2, 2, 4, 4), (2, 1, 4, 4))])
    def test_matches_scalar_loop(self, shape, mask_shape):
        """Forward and backward against a loop over rows and keys, with an
        attention-style broadcast mask, NaN at absent keys and rows whose
        every key is absent."""
        rng = np.random.default_rng(11)
        x = rng.normal(scale=3.0, size=shape)
        absent = rng.random(mask_shape) < 0.3
        absent[0] = True  # every row of the first slice is fully absent
        full = np.broadcast_to(absent, shape)
        x[full] = np.nan  # an absent key's logit is never read
        g = rng.normal(size=shape)
        y = ad.softmax_data(x.copy(), absent)
        dx = ad.softmax_backward_data(g.copy(), y)
        for row in np.ndindex(shape[:-1]):
            keys = [j for j in range(shape[-1]) if not full[row + (j,)]]
            expect = np.zeros(shape[-1])
            if keys:
                top = max(x[row + (j,)] for j in keys)
                total = sum(math.exp(x[row + (j,)] - top) for j in keys)
                for j in keys:
                    expect[j] = math.exp(x[row + (j,)] - top) / total
            dot = sum(g[row + (j,)] * expect[j] for j in range(shape[-1]))
            np.testing.assert_allclose(y[row], expect, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(dx[row], [expect[j] * (g[row + (j,)] - dot) for j in range(shape[-1])],
                                       rtol=1e-12, atol=1e-15)
        assert not y[0].any() and not dx[0].any()

    @staticmethod
    def scalar_loop(x, full):
        """Row softmax by a loop over rows and present keys."""
        expect = np.zeros(x.shape)
        for row in np.ndindex(x.shape[:-1]):
            keys = [j for j in range(x.shape[-1]) if not full[row + (j,)]]
            if keys:
                top = max(x[row + (j,)] for j in keys)
                total = sum(math.exp(x[row + (j,)] - top) for j in keys)
                for j in keys:
                    expect[row + (j,)] = math.exp(x[row + (j,)] - top) / total
        return expect

    @pytest.mark.parametrize("keys", [1, 2, 8, 19, 48, 64])
    @pytest.mark.parametrize("rows_per_key", [1, 32])
    def test_matches_scalar_loop_at_key_counts(self, keys, rows_per_key):
        """Short and long rows, with few rows (the reduction takes the row
        max) and with enough for the column loop up to 48 keys; NaN at
        absent keys and rows whose every key is absent.  A NaN or +inf at
        a present key still raises."""
        rng = np.random.default_rng(keys)
        shape = (2, max(rows_per_key * keys // 2, 2), keys)
        x = rng.normal(scale=3.0, size=shape)
        absent = rng.random(shape) < 0.3
        absent[0, 0] = True  # a fully absent row
        absent[1, 0] = False  # a row with every key present
        x[absent] = np.nan
        y = ad.softmax_data(x.copy(), absent)
        np.testing.assert_allclose(y, self.scalar_loop(x, absent), rtol=1e-12, atol=1e-15)
        assert not y[0, 0].any()
        for bad in (np.nan, np.inf):
            x_bad = np.where(absent, 0.0, x)
            x_bad[1, 0, keys - 1] = bad  # a present key
            with pytest.raises(NonFiniteError):
                ad.softmax_data(x_bad, absent)

    def test_runs_in_place(self):
        """The weights overwrite the logits and the logit gradient
        overwrites the output gradient: each call returns the array it was
        given."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 8, 19, 19))
        g = rng.normal(size=x.shape)
        absent = rng.random((4, 1, 1, 19)) < 0.3
        logits = np.where(absent, -np.inf, x)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        weights = e / e.sum(axis=-1, keepdims=True)
        dlogits = (g - (g * weights).sum(axis=-1, keepdims=True)) * weights
        assert ad.softmax_data(x, absent) is x
        np.testing.assert_allclose(x, weights, rtol=1e-12, atol=1e-15)
        assert ad.softmax_backward_data(g, x) is g
        np.testing.assert_allclose(g, dlogits, rtol=1e-12, atol=1e-15)

    def test_gradient(self):
        """``softmax_backward_data`` against central differences of
        sum(w * softmax_data(x)), with one absent key per row."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 5))
        w = rng.normal(size=(3, 5))
        absent = np.zeros((3, 5), dtype=bool)
        absent[np.arange(3), [0, 2, 4]] = True
        analytic = ad.softmax_backward_data(w.copy(), ad.softmax_data(x.copy(), absent))
        h = 1e-6
        for i, j in np.ndindex(x.shape):
            xp, xm = x.copy(), x.copy()
            xp[i, j] += h
            xm[i, j] -= h
            fd = (np.sum(w * ad.softmax_data(xp, absent)) - np.sum(w * ad.softmax_data(xm, absent))) / (2 * h)
            assert abs(analytic[i, j] - fd) <= 1e-6 * max(1.0, abs(fd))
        np.testing.assert_array_equal(analytic[absent], 0.0)


class TestLayerNorm:
    def test_constant_input(self):
        out = ad.layer_norm(Tensor([1.0, 1.0, 1.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)), keep=None)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_already_normalized(self):
        out = ad.layer_norm(Tensor([-1.0, 1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)), keep=None)
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-4)

    def test_slices_normalized_before_affine(self):
        rng = np.random.default_rng(1)
        x = rng.normal(loc=3.0, scale=2.0, size=(6, 16))
        out = ad.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16)), keep=None).data
        assert np.all(np.abs(out.mean(axis=-1)) < 1e-6)
        assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-4)

    @pytest.mark.parametrize("shape", [(8, 5, 16), (5, 19, 16)])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("strided", [False, True])
    def test_matches_two_pass_formula(self, shape, dtype, tol, strided):
        """Forward and backward against the textbook two-pass formula in
        64-bit, on [T, N, d] and [N, L, d] rows, with a contiguous or a
        transposed incoming gradient; the incoming array stays untouched."""
        rng = np.random.default_rng(12)
        d = shape[-1]
        x, gain, bias = (rng.normal(loc=1.0, scale=2.0, size=s).astype(dtype) for s in (shape, (d,), (d,)))
        g = rng.normal(size=shape[::-1]).astype(dtype).T if strided else rng.normal(size=shape).astype(dtype)
        kept = g.copy()
        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gain, bias))
        out = ad.layer_norm(xt, gt, bt, keep=None)
        out._backward(g)

        x, gain, bias, g64 = (a.astype(np.float64) for a in (x, gain, bias, g))
        mu = x.mean(axis=-1, keepdims=True)
        std = np.sqrt(((x - mu) ** 2).mean(axis=-1, keepdims=True) + ad.LAYER_NORM_EPS)
        xhat = (x - mu) / std
        dxhat = g64 * gain
        dx = (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) / std
        for got, want in ((out.data, xhat * gain + bias), (xt.grad, dx), (gt.grad, (g64 * xhat).sum(axis=(0, 1))),
                          (bt.grad, g64.sum(axis=(0, 1)))):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())
        np.testing.assert_array_equal(g, kept)
        assert not any(np.shares_memory(t.grad, g) for t in (xt, gt, bt))

    def test_gradient(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        g = Tensor(rng.normal(size=(6,)), requires_grad=True)
        b = Tensor(rng.normal(size=(6,)), requires_grad=True)
        w = rng.normal(size=(4, 6))

        def f():
            return ad.tsum(ad.mul(ad.layer_norm(x, g, b, keep=None), Tensor(w)))

        assert gradcheck(f, [x, g, b]) < 1e-4


class TestFfn:
    """The feed-forward sublayer as one node, against finite differences and
    against the layer_norm -> linear(relu) -> linear(residual) nodes it
    replaces."""

    @staticmethod
    def leaves(seed, norm, residual, dtype=np.float64, shape=(2, 5, 4), hidden=6):
        rng = np.random.default_rng(seed)
        d = shape[-1]
        shapes = {"x": shape, "w1": (d, hidden), "b1": (hidden,), "w2": (hidden, d), "b2": (d,)}
        if norm:
            shapes.update(gain=(d,), bias=(d,))
        if residual == "other":
            shapes["residual"] = shape
        t = {name: Tensor(rng.normal(loc=0.5, size=s), requires_grad=True, dtype=dtype) for name, s in shapes.items()}
        if residual == "input":  # the encoder blocks' case
            t["residual"] = t["x"]
        return t

    @staticmethod
    def fused(t):
        norm = (t["gain"], t["bias"]) if "gain" in t else None
        return ad.ffn(t["x"], t["w1"], t["b1"], t["w2"], t["b2"], norm=norm, residual=t.get("residual"))

    @staticmethod
    def composed(t):
        x = ad.layer_norm(t["x"], t["gain"], t["bias"], keep=None) if "gain" in t else t["x"]
        h = ad.linear(x, t["w1"], t["b1"], relu=True)
        return ad.linear(h, t["w2"], t["b2"], residual=t.get("residual"))

    @pytest.mark.parametrize("norm", [True, False])
    @pytest.mark.parametrize("residual", [None, "input", "other"])
    def test_gradient(self, norm, residual):
        t = self.leaves(40, norm, residual)
        probe = Tensor(np.random.default_rng(41).normal(size=t["x"].shape))
        leaves = list(dict.fromkeys(t.values()))
        assert gradcheck(lambda: ad.tsum(ad.mul(self.fused(t), probe)), leaves) < 1e-4

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("norm", [True, False])
    @pytest.mark.parametrize("residual", [None, "input", "other"])
    def test_equals_composed_nodes(self, norm, residual, dtype):
        """Output and every gradient are bit-identical to the separate nodes."""
        probe = np.random.default_rng(42).normal(size=(2, 5, 4)).astype(dtype)
        results = []
        for build in (self.composed, self.fused):
            t = self.leaves(43, norm, residual, dtype)
            out = build(t)
            backward(ad.tsum(ad.mul(out, Tensor(probe))))
            results.append((out.data, {name: leaf.grad for name, leaf in t.items()}))
        (out_c, grads_c), (out_f, grads_f) = results
        assert out_f.dtype == dtype
        np.testing.assert_array_equal(out_f, out_c)
        for name, grad in grads_c.items():
            assert grads_f[name].dtype == dtype
            np.testing.assert_array_equal(grads_f[name], grad, err_msg=name)

    def test_one_node_keeps_incoming_gradient(self):
        """One tape node; a transposed incoming gradient stays untouched and
        no grad shares its memory."""
        t = self.leaves(44, True, "other")
        out = self.fused(t)
        assert set(map(id, out._parents)) == set(map(id, t.values()))
        g = np.random.default_rng(45).normal(size=out.shape[::-1]).T
        kept = g.copy()
        out._backward(g)
        np.testing.assert_array_equal(g, kept)
        np.testing.assert_array_equal(t["residual"].grad, g)
        assert not any(np.shares_memory(leaf.grad, g) for leaf in t.values())

    def test_shapes_must_agree(self):
        t = self.leaves(46, False, None)
        with pytest.raises(ShapeError):
            ad.ffn(t["x"], t["w1"], t["b1"], t["w1"], t["b2"], norm=None, residual=None)
        with pytest.raises(ShapeError):
            ad.ffn(t["x"], t["w1"], t["b1"], t["w2"], t["b2"], norm=None, residual=t["w1"])


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
            y = ad.linear(x, Tensor(rng.normal(size=(5, 5))), relu=True)
            backward(ad.tsum(ad.mul(y, y)))
            return x.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)


class TestPerOpGradients:
    """Central finite differences (h=1e-5) vs analytic, rel err < 1e-4."""

    def _check(self, build, shapes, seed):
        rng = np.random.default_rng(seed)
        leaves = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]

        def f():
            return ad.tsum(build(*leaves))

        assert gradcheck(f, leaves, h=1e-5) < 1e-4, build

    def test_add(self):
        self._check(lambda a, b: ad.add(a, b), [(3, 4), (4,)], 0)

    def test_sub_mul(self):
        self._check(lambda a, b: ad.mul(ad.sub(a, b), a), [(3, 4), (3, 4)], 1)

    def test_relu(self):
        self._check(lambda a: ad.linear(a, Tensor(np.eye(4)), relu=True), [(4, 4)], 3)

    def test_exp(self):
        self._check(lambda a: ad.exp(a), [(6,)], 4)

    def test_concat_stack(self):
        self._check(lambda a, b: ad.concat([a, b], axis=1), [(2, 3), (2, 2)], 6)
        self._check(lambda a, b: ad.stack([a, b], axis=0), [(2, 3), (2, 3)], 7)

    def test_stack_inner_axis(self):
        self._check(lambda a, b, c: ad.mul(ad.stack([a, b], axis=1), c), [(3, 4), (3, 4), (3, 2, 4)], 18)

    def test_broadcast_to(self):
        self._check(lambda a, c: ad.mul(ad.broadcast_to(a, (3, 2, 4)), c), [(2, 4), (3, 2, 4)], 19)
        self._check(lambda a, c: ad.mul(ad.broadcast_to(a, (2, 5)), c), [(2, 1), (2, 5)], 20)

    def test_linear(self):
        def square_of_affine(x, w, b):
            y = ad.linear(x, w, b)
            return ad.mul(y, y)

        self._check(square_of_affine, [(2, 3, 4), (4, 5), (5,)], 21)
        self._check(square_of_affine, [(3, 4), (4, 2), (2,)], 22)

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("relu", [True, False])
    def test_linear_epilogues(self, relu, residual, bias):
        """ReLU, then the residual, run on the one output array.  The ReLU
        mask is taken before the residual is added: the sum's sign differs
        from the ReLU's at many entries of these draws."""
        shapes = [(2, 3, 4), (4, 5)] + [(5,)] * bias + [(2, 3, 5)] * residual

        def square_of_epilogue(x, w, *rest):
            y = ad.linear(x, w, rest[0] if bias else None, relu=relu, residual=rest[-1] if residual else None)
            return ad.mul(y, y)

        self._check(square_of_epilogue, shapes, 23)
        rng = np.random.default_rng(23)
        x, w, *rest = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        expected = x.data @ w.data + (rest[0].data if bias else 0.0)
        if relu:
            expected = np.maximum(expected, 0.0)
        if residual:
            expected = expected + rest[-1].data
        y = ad.linear(x, w, rest[0] if bias else None, relu=relu, residual=rest[-1] if residual else None)
        np.testing.assert_allclose(y.data, expected, rtol=1e-12, atol=1e-12)
        g = rng.normal(size=y.shape)
        y._backward(g)
        for t in (x, w, *rest):
            assert not np.shares_memory(t.grad, g)
        if residual:
            np.testing.assert_array_equal(rest[-1].grad, g)

    def test_linear_residual_shape_must_match(self):
        x, w = Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 2)))
        with pytest.raises(ShapeError):
            ad.linear(x, w, residual=Tensor(np.zeros((3, 4))))
        with pytest.raises(ShapeError):
            ad.linear(x, w, shift=np.zeros((3, 4)))

    @pytest.mark.parametrize("relu", [True, False])
    def test_keep_and_shift_equal_the_nodes_they_replace(self, relu):
        """``linear``'s ``keep`` and ``shift`` epilogues and ``layer_norm``'s
        ``keep`` give, bit for bit, what a mul by the 0/1 array and an add
        of the constant gave as nodes of their own, forward and backward."""
        rng = np.random.default_rng(24)
        x, w, b, gain, beta = (Tensor(rng.normal(size=s), requires_grad=True)
                               for s in ((2, 5, 3), (3, 4), (4,), (4,), (4,)))
        keep = (rng.random((2, 5, 1)) < 0.6).astype(np.float64)
        shift = rng.normal(size=(5, 4))
        g = rng.normal(size=(2, 5, 4))

        def run(fused):
            if fused:
                y = ad.linear(x, w, b, relu=relu, keep=keep, shift=shift)
                return y, ad.layer_norm(y, gain, beta, keep=keep)
            y = ad.add(ad.mul(ad.linear(x, w, b, relu=relu), Tensor(keep)), Tensor(shift))
            return y, ad.mul(ad.layer_norm(y, gain, beta, keep=None), Tensor(keep))

        results = []
        for fused in (False, True):
            for t in (x, w, b, gain, beta):
                t.zero_grad()
            y, out = run(fused)
            backward(ad.tsum(ad.mul(out, Tensor(g))))
            results.append([y.data, out.data] + [t.grad for t in (x, w, b, gain, beta)])
        for composed, folded in zip(*results):
            np.testing.assert_array_equal(folded, composed)
        assert not results[1][1][keep[..., 0] == 0].any()

    def test_keep_and_shift_keep_no_row_array(self):
        """An encoder stack's embedding with ``keep`` and ``shift`` and its
        ``ln_out`` with ``keep`` hold, besides their outputs, only the
        norm's row stats: no [R, d] array, where the mul and add nodes
        they replace each kept one."""
        rng = np.random.default_rng(25)
        rows, d = 512, 64
        x = Tensor(rng.normal(size=(rows, 2)))
        w, b, gain, beta = (Tensor(rng.normal(size=s), requires_grad=True) for s in ((2, d), (d,), (d,), (d,)))
        keep = (rng.random((rows, 1)) < 0.8).astype(np.float64)
        shift = rng.normal(size=(rows, d))
        tracemalloc.start()
        try:
            y = ad.linear(x, w, b, keep=keep, shift=shift)
            out = ad.layer_norm(y, gain, beta, keep=keep)
            retained = tracemalloc.get_traced_memory()[0] - y.data.nbytes - out.data.nbytes
        finally:
            tracemalloc.stop()
        stats, slack = 2 * rows * 8, 8 * 2**10
        assert stats + slack < rows * d * 8 // 2
        assert retained < stats + slack, retained

    def test_reshape(self):
        self._check(lambda a: ad.reshape(a, (4, 3)), [(3, 4)], 8)

    def test_getitem_slice_and_fancy(self):
        self._check(lambda a: a[1:, ::2], [(3, 6)], 9)
        idx = np.array([0, 2, 2])
        self._check(lambda a: a[:, idx], [(3, 4)], 10)

    def test_absval(self):
        self._check(lambda a: ad.absval(a), [(9,)], 14)

    def test_atan2(self):
        self._check(lambda y, x: ad.atan2(y, x), [(6,), (6,)], 15)

    def test_norm(self):
        self._check(lambda a: ad.norm(a), [(3, 4, 2)], 16)
        self._check(lambda a: ad.norm(a), [(3, 4)], 17)

    def test_absval_zero_subgradient(self):
        x = Tensor(np.array([-2.0, 0.0, 3.0]), requires_grad=True)
        ad.backward(ad.tsum(ad.absval(x)))
        np.testing.assert_array_equal(x.grad, [-1.0, 0.0, 1.0])

    def test_norm_zero_subgradient(self):
        x = Tensor(np.array([[0.0, 0.0], [3.0, 4.0]]), requires_grad=True)
        ad.backward(ad.tsum(ad.norm(x)))
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0], [0.6, 0.8]])


class TestFiniteGuard:
    def test_overflowing_exp_is_error(self):
        with pytest.raises(NonFiniteError):
            ad.exp(Tensor([1000.0]))


class TestNoGrad:
    def test_no_graph_recorded(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad and y._parents == ()
