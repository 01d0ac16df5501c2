import re
import tracemalloc

import numpy as np
import pytest

import crowdcast.autodiff as ad
from crowdcast import attention
from crowdcast.attention import (
    AttentionMask,
    SegmentBlocks,
    capture,
    distance_bias_mask,
    masked_mha,
    pairwise_distances,
    positional_encoding,
)
from crowdcast.autodiff import ShapeError, Tensor, gradcheck
from crowdcast.config import ConfigError
from crowdcast import transformer
from crowdcast.transformer import spatial_forward, temporal_forward
from conftest import one_segment, random_window, randomize_params, tiny_config

from crowdcast.model import CrowdForecaster


# a mask that leaves every key present and adds no bias
UNMASKED = AttentionMask(bias=None, absent=np.zeros((), dtype=bool))


def mha_params(rng, d, prefix="blk", identity=False):
    """Attention weights under ``prefix`` and the layer norm ``ln`` (unit
    gain, zero bias) of its input."""
    p = {}
    for gate in ("wq", "wk", "wv", "wo"):
        w = np.eye(d) if identity else rng.normal(size=(d, d)) / np.sqrt(d)
        p[f"{prefix}/{gate}"] = Tensor(w)
    for gate in ("bq", "bk", "bv", "bo"):
        p[f"{prefix}/{gate}"] = Tensor(np.zeros(d))
    p["ln/g"], p["ln/b"] = Tensor(np.ones(d)), Tensor(np.zeros(d))
    return p


def layer_norm_oracle(x, p, norm):
    """The layer norm ``norm`` of x's last axis, by the two-pass formula."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + ad.LAYER_NORM_EPS) * p[f"{norm}/g"].data + p[f"{norm}/b"].data


def mha_oracle(p, prefix, q_in, kv_in, heads, mask_values=None, norms=("ln", "ln")):
    """Plain-loop attention over the same projection weights, fed the
    inputs through their layer norms ``norms`` (query, key/value), plus
    the query."""
    d = q_in.shape[-1]
    dh = d // heads
    q_n, kv_n = layer_norm_oracle(q_in, p, norms[0]), layer_norm_oracle(kv_in, p, norms[1])
    q = q_n @ p[f"{prefix}/wq"].data + p[f"{prefix}/bq"].data
    k = kv_n @ p[f"{prefix}/wk"].data + p[f"{prefix}/bk"].data
    v = kv_n @ p[f"{prefix}/wv"].data + p[f"{prefix}/bv"].data
    lq, lk = q.shape[0], k.shape[0]
    mixed = np.zeros((lq, d))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        for i in range(lq):
            logits = np.empty(lk)
            for j in range(lk):
                logits[j] = q[i, sl] @ k[j, sl] / np.sqrt(dh)
                if mask_values is not None:
                    logits[j] += mask_values[i, j]
            finite = np.isfinite(logits)
            weights = np.zeros(lk)
            if finite.any():
                e = np.exp(logits[finite] - logits[finite].max())
                weights[finite] = e / e.sum()
            for j in range(lk):
                mixed[i, sl] += weights[j] * v[j, sl]
    return q_in + (mixed @ p[f"{prefix}/wo"].data + p[f"{prefix}/bo"].data)


class TestPositionalEncoding:
    def test_position_zero(self):
        table = positional_encoding(3, 6)
        np.testing.assert_array_equal(table[0], [0, 1, 0, 1, 0, 1])

    def test_position_one_d4(self):
        expected = [np.sin(1.0), np.cos(1.0), np.sin(1e-2), np.cos(1e-2)]
        np.testing.assert_allclose(positional_encoding(2, 4)[1], expected, atol=1e-9)

    def test_injective_over_20_positions(self):
        table = positional_encoding(20, 8)
        for i in range(20):
            for j in range(i + 1, 20):
                assert np.max(np.abs(table[i] - table[j])) > 1e-6

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            positional_encoding(4, 5)

    def test_table_is_built_once_and_read_only(self):
        table = positional_encoding(8, 64)
        assert positional_encoding(8, 64) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        np.testing.assert_array_equal(table[0], np.tile([0.0, 1.0], 32))


class TestMaskedMha:
    def test_delta_attention_returns_self_value(self):
        rng = np.random.default_rng(0)
        d, n = 6, 4
        p = mha_params(rng, d, identity=True)
        x = rng.normal(size=(n, d))
        absent = ~np.eye(n, dtype=bool)  # only self visible
        mask = AttentionMask(bias=Tensor(np.zeros((n, n))), absent=absent)
        out = masked_mha(p, "blk", Tensor(x), Tensor(x), heads=2, mask=mask, norm="ln")
        np.testing.assert_allclose(out.data, layer_norm_oracle(x, p, "ln") + x, atol=1e-12)

    def test_equal_logits_average_values(self):
        rng = np.random.default_rng(1)
        d = 4
        p = mha_params(rng, d, identity=True)
        x = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        # zero queries -> equal logits regardless of keys
        p["blk/wq"] = Tensor(np.zeros((d, d)))
        mask = AttentionMask(bias=Tensor(np.zeros((2, 2))), absent=np.zeros((2, 2), dtype=bool))
        with capture() as kept:
            out = masked_mha(p, "blk", Tensor(x), Tensor(x), heads=1, mask=mask, norm="ln")
        np.testing.assert_allclose(kept["blk"], 0.5, atol=1e-12)
        np.testing.assert_allclose(out.data, np.tile(layer_norm_oracle(x, p, "ln").mean(axis=0), (2, 1)) + x, atol=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            d, lq, lk, heads = 8, 4, 5, 2
            p = mha_params(rng, d)
            q_in = rng.normal(size=(lq, d))
            kv_in = rng.normal(size=(lk, d))
            bias = rng.normal(size=(lq, lk))
            absent = rng.random((lq, lk)) < 0.25
            absent[:, 0] = False  # keep every query row alive
            mask = AttentionMask(bias=Tensor(bias), absent=absent)
            out = masked_mha(p, "blk", Tensor(q_in), Tensor(kv_in), heads, mask=mask, norm="ln")
            expected = mha_oracle(p, "blk", q_in, kv_in, heads, mask_values=mask.values())
            assert np.max(np.abs(out.data - expected)) < 1e-10

    def test_fully_masked_query_row_outputs_zero(self):
        rng = np.random.default_rng(3)
        d = 4
        p = mha_params(rng, d)
        p["blk/bo"] = Tensor(np.zeros(d))
        x = rng.normal(size=(3, d))
        absent = np.zeros((3, 3), dtype=bool)
        absent[1, :] = True
        mask = AttentionMask(bias=Tensor(np.zeros((3, 3))), absent=absent)
        with capture() as kept:
            masked_mha(p, "blk", Tensor(x), Tensor(x), heads=2, mask=mask, norm="ln")
        np.testing.assert_array_equal(kept["blk"][:, 1, :], 0.0)

    def test_weights_sum_to_one_absent_get_none(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d, n = 8, 5
            p = mha_params(rng, d)
            x = rng.normal(size=(n, d))
            absent_cols = rng.random(n) < 0.4
            absent_cols[0] = False
            absent = np.broadcast_to(absent_cols[None, :], (n, n))
            mask = AttentionMask(bias=Tensor(rng.normal(size=(n, n))), absent=absent)
            with capture() as kept:
                masked_mha(p, "blk", Tensor(x), Tensor(x), heads=2, mask=mask, norm="ln")
            w = kept["blk"]  # [h, n, n]
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)
            assert np.all(w[:, :, absent_cols] < 1e-12)

    def test_zero_mask_equals_unmasked(self):
        rng = np.random.default_rng(5)
        d, n = 8, 4
        p = mha_params(rng, d)
        x = rng.normal(size=(n, d))
        mask = AttentionMask(bias=Tensor(np.zeros((n, n))), absent=np.zeros((n, n), dtype=bool))
        with_mask = masked_mha(p, "blk", Tensor(x), Tensor(x), heads=2, mask=mask, norm="ln")
        without = masked_mha(p, "blk", Tensor(x), Tensor(x), heads=2, mask=UNMASKED, norm="ln")
        np.testing.assert_array_equal(with_mask.data, without.data)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        d, n = 4, 3
        p = mha_params(rng, d)
        for t in p.values():
            t.requires_grad = True
        x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        absent = np.zeros((n, n), dtype=bool)
        absent[:, 2] = True
        mask = AttentionMask(bias=Tensor(np.zeros((n, n))), absent=absent)
        probe = rng.normal(size=(n, d))

        def f():
            return ad.tsum(ad.mul(masked_mha(p, "blk", x, x, 2, mask=mask, norm="ln"), Tensor(probe)))

        assert gradcheck(f, [x] + list(p.values())) < 1e-4


def mha_oracle_batched(p, prefix, q_in, kv_in, heads, mask_values):
    """``mha_oracle`` slice by slice over the leading axes of q_in."""
    lead = q_in.shape[:-2]
    values = np.broadcast_to(mask_values, lead + (q_in.shape[-2], kv_in.shape[-2]))
    out = np.zeros(q_in.shape)
    for idx in np.ndindex(*lead):
        out[idx] = mha_oracle(p, prefix, q_in[idx], kv_in[idx], heads, mask_values=values[idx])
    return out


def grad_params(rng, d):
    p = mha_params(rng, d)
    for t in p.values():
        t.data = t.data + 0.1 * rng.normal(size=t.shape)  # nonzero biases
        t.requires_grad = True
    return p


def probe_loss(out, probe):
    return ad.tsum(ad.mul(out, Tensor(probe)))


def assert_grads_match(f, tensors):
    """Backward against central differences, entry by entry, with an
    absolute floor: the key bias gradient is 0 in exact arithmetic (it
    shifts every logit of a row alike), so a relative error means nothing
    there."""
    for t in tensors:
        t.zero_grad()
    ad.backward(f())
    for t in tensors:
        analytic = np.zeros(t.size) if t.grad is None else t.grad.reshape(-1).copy()
        num = ad.numerical_gradient(f, t, range(t.size), 1e-5)
        fd = np.array([num[i] for i in range(t.size)])
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-8)


def mha_backward_oracle(p, prefix, x, heads, bias, absent, g):
    """Gradients of sum(g * masked_mha(x, x, norm="ln")) by the textbook
    formulas, one slice and one head at a time.  x, g: [B, L, d]; bias:
    [L, L] shared by the slices; absent: [B, 1, L] keys."""
    w = {gate: p[f"{prefix}/{gate}"].data for gate in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")}
    gain = p["ln/g"].data
    dh = x.shape[-1] // heads
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + ad.LAYER_NORM_EPS)
    xhat = xc * inv
    grads = {name: np.zeros_like(a) for name, a in w.items()}
    grads["bias"], dxn = np.zeros_like(bias), np.zeros_like(x)
    for xb, gb, ab, dxb in zip(xhat * gain + p["ln/b"].data, g, absent, dxn):
        proj = {c: xb @ w[f"w{c}"] + w[f"b{c}"] for c in "qkv"}
        dproj = {c: np.zeros_like(a) for c, a in proj.items()}
        mixed, dmixed = np.zeros_like(xb), gb @ w["wo"].T
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            q, k, v = proj["q"][:, sl], proj["k"][:, sl], proj["v"][:, sl]
            logits = np.where(ab, -np.inf, q @ k.T / np.sqrt(dh) + bias)
            a = np.exp(logits - logits.max(axis=-1, keepdims=True))
            a /= a.sum(axis=-1, keepdims=True)
            mixed[:, sl] = a @ v
            da = dmixed[:, sl] @ v.T
            dlogits = a * (da - (da * a).sum(axis=-1, keepdims=True))
            grads["bias"] += dlogits
            dproj["q"][:, sl] = dlogits @ k / np.sqrt(dh)
            dproj["k"][:, sl] = dlogits.T @ q / np.sqrt(dh)
            dproj["v"][:, sl] = a.T @ dmixed[:, sl]
        grads["wo"] += mixed.T @ gb
        grads["bo"] += gb.sum(axis=0)
        for c, dc in dproj.items():
            grads[f"w{c}"] += xb.T @ dc
            grads[f"b{c}"] += dc.sum(axis=0)
            dxb += dc @ w[f"w{c}"].T
    grads["g"], grads["b"] = (dxn * xhat).sum(axis=(0, 1)), dxn.sum(axis=(0, 1))
    dxhat = dxn * gain
    dx = dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    grads["x"] = g + inv * dx  # the query's own path adds the output gradient
    return grads


class TestFusedMha:
    """The one-node attention against the loop oracle and finite differences."""

    def test_one_tape_node(self):
        rng = np.random.default_rng(20)
        p = grad_params(rng, 4)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = masked_mha(p, "blk", x, x, 2, mask=UNMASKED, norm="ln")
        assert set(map(id, out._parents)) == set(map(id, [x] + list(p.values())))

    def test_cross_attention_lq_ne_lk(self):
        rng = np.random.default_rng(21)
        d, lq, lk, heads = 6, 3, 5, 3
        p = grad_params(rng, d)
        q_in = Tensor(rng.normal(size=(2, lq, d)), requires_grad=True)
        kv_in = Tensor(rng.normal(size=(2, lk, d)), requires_grad=True)
        absent = rng.random((2, 1, lk)) < 0.3
        absent[:, :, 0] = False
        mask = AttentionMask(bias=None, absent=absent)
        out = masked_mha(p, "blk", q_in, kv_in, heads, mask=mask, norm="ln")
        assert out.shape == (2, lq, d)
        values = np.where(np.broadcast_to(absent, (2, lq, lk)), -np.inf, 0.0)
        expected = mha_oracle_batched(p, "blk", q_in.data, kv_in.data, heads, values)
        assert np.max(np.abs(out.data - expected)) < 1e-10
        probe = rng.normal(size=out.shape)
        f = lambda: probe_loss(masked_mha(p, "blk", q_in, kv_in, heads, mask=mask, norm="ln"), probe)  # noqa: E731
        assert_grads_match(f, [q_in, kv_in] + list(p.values()))

    @pytest.mark.parametrize("layout", ["temporal", "spatial"])
    def test_learned_bias_broadcast_over_leading_axis(self, layout):
        """Temporal attention shares one [T, T] bias over agents; spatial
        attention has one [N, N] bias per timestep, [T, N, N]."""
        rng = np.random.default_rng(22)
        d, heads, lead, length = 4, 2, 3, 4
        p = grad_params(rng, d)
        x = Tensor(rng.normal(size=(lead, length, d)), requires_grad=True)
        bias_shape = (length, length) if layout == "temporal" else (lead, length, length)
        bias = Tensor(rng.normal(size=bias_shape), requires_grad=True)
        absent = rng.random((lead, length, length)) < 0.25
        absent[:, :, 0] = False
        mask = AttentionMask(bias=bias, absent=absent)
        out = masked_mha(p, "blk", x, x, heads, mask=mask, norm="ln")
        expected = mha_oracle_batched(p, "blk", x.data, x.data, heads, mask.values())
        assert np.max(np.abs(out.data - expected)) < 1e-10
        probe = rng.normal(size=out.shape)
        f = lambda: probe_loss(masked_mha(p, "blk", x, x, heads, mask=mask, norm="ln"), probe)  # noqa: E731
        assert_grads_match(f, [x, bias] + list(p.values()))

    def test_query_with_every_key_absent_gives_zero_row(self):
        """Its attention row is zero, so with a zero output bias the
        output is its query."""
        rng = np.random.default_rng(23)
        d, n, heads = 4, 3, 2
        p = grad_params(rng, d)
        p["blk/bo"].data[:] = 0.0
        x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        bias = Tensor(rng.normal(size=(n, n)), requires_grad=True)
        absent = np.zeros((n, n), dtype=bool)
        absent[1, :] = True
        absent[0, 2] = True
        mask = AttentionMask(bias=bias, absent=absent)
        out = masked_mha(p, "blk", x, x, heads, mask=mask, norm="ln")
        np.testing.assert_array_equal(out.data[1], x.data[1])
        expected = mha_oracle(p, "blk", x.data, x.data, heads, mask_values=mask.values())
        assert np.max(np.abs(out.data - expected)) < 1e-10
        probe = rng.normal(size=out.shape)
        f = lambda: probe_loss(masked_mha(p, "blk", x, x, heads, mask=mask, norm="ln"), probe)  # noqa: E731
        assert_grads_match(f, [x, bias] + list(p.values()))
        np.testing.assert_array_equal(bias.grad[1], 0.0)

    def test_shared_input_equals_distinct_copies(self):
        """``q_in is kv_in`` takes the sum of the query and key/value
        gradients, as two equal but distinct inputs get them apart."""
        rng = np.random.default_rng(24)
        d, n, heads = 6, 4, 2
        p = grad_params(rng, d)
        data = rng.normal(size=(2, n, d))
        probe = rng.normal(size=(2, n, d))
        shared = Tensor(data, requires_grad=True)
        q_in = Tensor(data.copy(), requires_grad=True)
        kv_in = Tensor(data.copy(), requires_grad=True)
        out_shared = masked_mha(p, "blk", shared, shared, heads, mask=UNMASKED, norm="ln")
        ad.backward(probe_loss(out_shared, probe))
        shared_grads = {k: t.grad.copy() for k, t in p.items()}
        for t in p.values():
            t.zero_grad()
        out_apart = masked_mha(p, "blk", q_in, kv_in, heads, mask=UNMASKED, norm="ln")
        ad.backward(probe_loss(out_apart, probe))
        np.testing.assert_array_equal(out_shared.data, out_apart.data)
        np.testing.assert_allclose(shared.grad, q_in.grad + kv_in.grad, rtol=1e-12, atol=1e-14)
        for k, t in p.items():
            np.testing.assert_allclose(shared_grads[k], t.grad, rtol=1e-12, atol=1e-14)

    def test_strided_incoming_gradient(self):
        """A transposed (non-contiguous) incoming gradient gives the textbook
        grads of the input, the eight weights, the norm and the mask bias;
        it stays untouched, and no grad shares its memory."""
        rng = np.random.default_rng(28)
        b, n, d, heads = 3, 5, 6, 2
        p = grad_params(rng, d)
        x = Tensor(rng.normal(size=(b, n, d)), requires_grad=True)
        bias = Tensor(rng.normal(size=(n, n)), requires_grad=True)
        absent = rng.random((b, 1, n)) < 0.3
        absent[:, :, 0] = False
        g = rng.normal(size=(d, n, b)).T
        kept = g.copy()
        masked_mha(p, "blk", x, x, heads, mask=AttentionMask(bias=bias, absent=absent), norm="ln")._backward(g)
        expected = mha_backward_oracle(p, "blk", x.data, heads, bias.data, absent, g)
        got = {"x": x, "bias": bias, **{k.split("/")[1]: t for k, t in p.items()}}
        # the key bias gradient is 0 in exact arithmetic: measure against the largest
        scale = max(float(np.abs(e).max()) for e in expected.values())
        for name, t in got.items():
            np.testing.assert_allclose(t.grad, expected[name], rtol=1e-12, atol=1e-12 * scale, err_msg=name)
            assert not np.shares_memory(t.grad, g)
        np.testing.assert_array_equal(g, kept)

    @pytest.mark.parametrize("attention", ["self", "cross"])
    def test_residual_epilogue(self, attention):
        """The query is added in place to the output, so with a zero output
        projection the output is exactly the query plus the output bias,
        and the query takes the output gradient.  Self-attention's query is
        its own key/value input, whose three paths and residual sum up."""
        rng = np.random.default_rng(29)
        d, lq, lk, heads = 4, 3, 5, 2
        p = grad_params(rng, d)
        q_in = Tensor(rng.normal(size=(2, lq, d)), requires_grad=True)
        kv_in = q_in if attention == "self" else Tensor(rng.normal(size=(2, lk, d)), requires_grad=True)
        bias = Tensor(rng.normal(size=(lq, kv_in.shape[-2])), requires_grad=True)
        mask = AttentionMask(bias=bias, absent=np.zeros((2, 1, kv_in.shape[-2]), dtype=bool))
        wo = p["blk/wo"].data
        p["blk/wo"].data = np.zeros_like(wo)
        out = masked_mha(p, "blk", q_in, kv_in, heads, mask=mask, norm="ln")
        np.testing.assert_array_equal(out.data, q_in.data + p["blk/bo"].data)
        p["blk/wo"].data = wo
        # the key bias gradient is 0 in exact arithmetic, so a relative error means nothing there
        leaves = list(dict.fromkeys([q_in, kv_in, bias] + [t for k, t in p.items() if k != "blk/bk"]))

        def f():
            y = masked_mha(p, "blk", q_in, kv_in, heads, mask=mask, norm="ln")
            return ad.tsum(ad.mul(y, y))

        assert gradcheck(f, leaves) < 1e-4

    def test_f32_in_f32_out(self):
        rng = np.random.default_rng(25)
        d, n, heads = 4, 3, 2
        p = grad_params(rng, d)
        for t in p.values():
            t.data = t.data.astype(np.float32)
        x = Tensor(rng.normal(size=(n, d)), requires_grad=True, dtype=np.float32)
        bias = Tensor(rng.normal(size=(n, n)), requires_grad=True, dtype=np.float32)
        mask = AttentionMask(bias=bias, absent=np.zeros((n, n), dtype=bool))
        with capture() as kept:
            out = masked_mha(p, "blk", x, x, heads, mask=mask, norm="ln")
        assert out.dtype == np.float32 and kept["blk"].dtype == np.float32
        ad.backward(ad.tsum(out))
        assert x.grad.dtype == np.float32 and bias.grad.dtype == np.float32
        assert all(t.grad.dtype == np.float32 for t in p.values())
        p64 = {k: Tensor(t.data.astype(np.float64)) for k, t in p.items()}
        expected = mha_oracle(p64, "blk", x.data.astype(np.float64), x.data.astype(np.float64), heads,
                              mask_values=bias.data.astype(np.float64))
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-5)

    def test_capture_keeps_weights_under_prefix(self):
        rng = np.random.default_rng(26)
        p = mha_params(rng, 4)
        q_in, kv_in = Tensor(rng.normal(size=(5, 2, 4))), Tensor(rng.normal(size=(5, 3, 4)))
        with capture() as kept:
            out = masked_mha(p, "blk", q_in, kv_in, 2, mask=UNMASKED, norm="ln")
        assert out.shape == (5, 2, 4)
        assert list(kept) == ["blk"] and kept["blk"].shape == (5, 2, 2, 3)
        np.testing.assert_allclose(kept["blk"].sum(axis=-1), 1.0, atol=1e-12)

    def test_node_keeps_no_projection(self):
        """A self-attention node with a norm prologue keeps its softmax
        weights and row stats past the forward, and no [R, d_model] array:
        its backward rebuilds q, k, v and the mixed context."""
        rng = np.random.default_rng(28)
        lead, length, d, heads = 8, 8, 128, 4
        p = grad_params(rng, d)
        p["ln/g"], p["ln/b"] = Tensor(np.ones(d), requires_grad=True), Tensor(np.zeros(d), requires_grad=True)
        x = Tensor(rng.normal(size=(lead, length, d)), requires_grad=True)
        assert attention._captured is None
        tracemalloc.start()
        try:
            out = masked_mha(p, "blk", x, x, heads, mask=UNMASKED, norm="ln")
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        weights, stats, slack = lead * heads * length * length * 8, 2 * lead * length * 8, 8 * 2**10
        row_array = lead * length * d * 8
        assert weights + stats + slack < row_array // 2
        assert retained - out.data.nbytes < weights + stats + slack, retained - out.data.nbytes

    def test_leading_axes_must_agree(self):
        p = mha_params(np.random.default_rng(27), 4)
        with pytest.raises(ShapeError):
            masked_mha(p, "blk", Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 3, 4))), 2, mask=UNMASKED, norm="ln")

    def test_list_of_sources_equals_their_concatenation(self):
        """Key/value sources given as a list give, bit for bit, what their
        concatenation gives as one input, and each source takes its slice
        of the key/value gradient."""
        rng = np.random.default_rng(33)
        d, heads = 4, 2
        p = grad_params(rng, d)
        for name in ("lq/g", "lq/b", "lkv/g", "lkv/b"):
            p[name] = Tensor(rng.normal(size=d), requires_grad=True)
        q_in = Tensor(rng.normal(size=(3, 2, d)), requires_grad=True)
        sources = [Tensor(rng.normal(size=(3, length, d)), requires_grad=True) for length in (2, 3, 1)]
        absent = rng.random((3, 1, 6)) < 0.3
        absent[:, :, 0] = False
        mask = AttentionMask(bias=None, absent=absent)
        probe = rng.normal(size=q_in.shape)
        leaves = [q_in, *sources, *p.values()]
        results = []
        for listed in (False, True):
            for t in leaves:
                t.zero_grad()
            kv = sources if listed else ad.concat(sources, axis=1)
            out = masked_mha(p, "blk", q_in, kv, heads, mask=mask, norm=("lq", "lkv"))
            ad.backward(probe_loss(out, probe))
            results.append([out.data] + [t.grad for t in leaves])
        for joined, listed in zip(*results):
            np.testing.assert_array_equal(listed, joined)
        f = lambda: probe_loss(masked_mha(p, "blk", q_in, sources, heads, mask=mask, norm=("lq", "lkv")), probe)  # noqa: E731
        assert_grads_match(f, sources)

    def test_list_of_sources_keeps_no_concatenation(self):
        """A node fed a list of sources keeps their rows only as the
        sources themselves: past the forward it holds its weights and row
        stats, no joined [R, d] array."""
        rng = np.random.default_rng(34)
        lead, lq, d, heads = 8, 4, 128, 4
        p = grad_params(rng, d)
        for name in ("ln/g", "ln/b"):
            p[name] = Tensor(rng.normal(size=d), requires_grad=True)
        q_in = Tensor(rng.normal(size=(lead, lq, d)), requires_grad=True)
        sources = [Tensor(rng.normal(size=(lead, 8, d)), requires_grad=True) for _ in range(2)]
        tracemalloc.start()
        try:
            out = masked_mha(p, "blk", q_in, sources, heads, mask=UNMASKED, norm=("ln", "ln"))
            retained = tracemalloc.get_traced_memory()[0] - out.data.nbytes
        finally:
            tracemalloc.stop()
        weights, stats, slack = lead * heads * lq * 16 * 8, 2 * lead * (lq + 16) * 8, 8 * 2**10
        assert weights + stats + slack < lead * 16 * d * 8 // 2
        assert retained < weights + stats + slack, retained


class TestSegmentBlocks:
    """Attention within the segments of a packed window, run per block of
    agents, against attention over all agent pairs with the keys of other
    segments absent."""

    SEGMENTS = {"uneven": [0] + [1] * 3 + [2] * 6, "interleaved": [2, 0, 2, 1, 0, 2], "one": [0] * 4}

    @pytest.mark.parametrize("name", SEGMENTS)
    def test_gather_and_scatter(self, name):
        segment = np.array(self.SEGMENTS[name])
        blocks = SegmentBlocks(segment)
        counts = np.unique(segment, return_counts=True)[1]
        assert (blocks.count, blocks.size) == (len(counts), counts.max())
        np.testing.assert_array_equal((~blocks.pad).sum(axis=1), counts)
        rows = blocks.gather(np.arange(len(segment)), -1)  # [S, n] agent of each slot
        for block, pad in zip(rows, blocks.pad):
            assert len(set(segment[block])) == 1  # pad slots repeat a row of their segment
            np.testing.assert_array_equal(block[~pad], np.flatnonzero(segment == segment[block[0]]))
        x = np.random.default_rng(0).normal(size=(3, len(segment), 5))
        gathered = blocks.gather(x)
        assert gathered.shape == (3, blocks.count, blocks.size, 5)
        np.testing.assert_array_equal(blocks.scatter(gathered, 1), x.swapaxes(0, 1))
        np.testing.assert_array_equal(blocks.scatter(blocks.gather(x[0], 0)), x[0])
        # a tensor goes back to agent rows as one getitem node
        node = blocks.scatter(Tensor(gathered, requires_grad=True), 1)
        assert node._parents[0].shape == gathered.shape
        np.testing.assert_array_equal(node.data, x.swapaxes(0, 1))

    @pytest.mark.parametrize("name", SEGMENTS)
    def test_dense_round_trip(self, name):
        """Distances taken within blocks, as ``spatial_forward`` takes them,
        laid out by ``dense`` are the distances of all agent pairs within
        segments and zero across them, and each block's non-pad pairs come
        back from that layout unchanged."""
        segment = np.array(self.SEGMENTS[name])
        blocks = SegmentBlocks(segment)
        points = np.random.default_rng(0).normal(size=(3, len(segment), 2))
        pairs = pairwise_distances(blocks.gather(points))
        assert pairs.shape == (3, blocks.count, blocks.size, blocks.size)
        dense = blocks.dense(pairs)
        same = segment[:, None] == segment[None, :]
        np.testing.assert_array_equal(dense, np.where(same, pairwise_distances(points), 0.0))
        s, i, j = np.nonzero(~blocks.pad[:, :, None] & ~blocks.pad[:, None, :])
        np.testing.assert_array_equal(dense[:, blocks.rows[s, i], blocks.rows[s, j]], pairs[:, s, i, j])
        assert blocks.dense(pairs.astype(np.float32)).dtype == np.float32

    @pytest.mark.parametrize("segment, unused", [([0, 2, 2], [1]), ([1, 1], [0]), ([0, 3, 0, 3], [1, 2])])
    def test_unused_label_rejected(self, segment, unused):
        """Labels that skip a number would make an empty, all-pad block."""
        with pytest.raises(ValueError, match=re.escape(f"unused: {unused}")):
            SegmentBlocks(np.array(segment))

    @pytest.mark.parametrize("name", SEGMENTS)
    def test_equals_attention_over_all_pairs(self, name):
        """Plain attention on the block layout that ``spatial_forward``
        builds (inputs gathered into [T, S, n] blocks, pad slots absent
        keys and fully masked queries, the output scattered back to agent
        rows) against attention over all agent pairs with the keys of
        other segments absent: output, captured weights laid out dense and
        every gradient, with a learned distance bias and absent agents."""
        segment = np.array(self.SEGMENTS[name])
        rng = np.random.default_rng(31)
        t, n, d, heads = 3, len(segment), 4, 2
        p = grad_params(rng, d)
        for name in ("ln/g", "ln/b"):
            p[name] = Tensor(rng.normal(size=d), requires_grad=True)
        w, b = (Tensor(rng.normal(size=1), requires_grad=True) for _ in range(2))
        x = Tensor(rng.normal(size=(t, n, d)), requires_grad=True)
        points = rng.normal(size=(t, n, 2))
        present = rng.random((t, n)) < 0.75
        assert not present.all()
        blocks = SegmentBlocks(segment)

        def over_pairs():
            mask = distance_bias_mask(pairwise_distances(points),
                                      ~present[:, None, :] | (segment[:, None] != segment[None, :]), w, b)
            with capture() as kept:
                out = masked_mha(p, "blk", x, x, heads, mask=mask, norm="ln")
            return out, kept["blk"]

        def over_blocks():
            block_present = blocks.gather(present, -1) & ~blocks.pad
            absent = ~block_present[..., None, :] | blocks.pad[:, :, None]
            mask = distance_bias_mask(pairwise_distances(blocks.gather(points)), absent, w, b)
            xb = x[:, blocks.rows]  # [T, S, n, d]
            with capture() as kept:
                out = masked_mha(p, "blk", xb, xb, heads, mask=mask, norm="ln")
            assert kept["blk"].shape == (t, blocks.count, heads, blocks.size, blocks.size)
            return blocks.scatter(out, 1), blocks.dense(kept["blk"].swapaxes(-4, -3))  # [N, T, d]

        probe = rng.normal(size=x.shape)
        leaves = [x, w, b, *p.values()]
        results = {}
        # the scattered output has the agents first
        for kind, run, axes in (("pairs", over_pairs, (0, 1, 2)), ("blocks", over_blocks, (1, 0, 2))):
            for leaf in leaves:
                leaf.zero_grad()
            out, weights = run()
            ad.backward(probe_loss(out, probe.transpose(axes)))
            results[kind] = [out.data.transpose(axes), weights] + [leaf.grad for leaf in leaves]
        assert results["blocks"][1].shape == (t, heads, n, n)
        # the mask bias gradient is 0 in exact arithmetic: measure against the largest
        scale = max(float(np.abs(a).max()) for a in results["pairs"])
        for dense, block in zip(results["pairs"], results["blocks"]):
            np.testing.assert_allclose(block, dense, rtol=1e-12, atol=1e-12 * scale)

    def test_node_keeps_weights_per_block(self):
        """Spatial attention over block-shaped input [T, S, n, d] keeps its
        weights over the pairs within segments, and its norm's row stats,
        so its bytes grow with the sum of the squared segment sizes, not
        with the square of the agent count: twice the segments, about
        twice the bytes."""
        rng = np.random.default_rng(32)
        t, n, d, heads = 8, 6, 64, 8
        p = grad_params(rng, d)
        kept = {}
        for count in (4, 8):
            x = Tensor(rng.normal(size=(t, count, n, d)), requires_grad=True)
            bias = Tensor(rng.normal(size=(t, count, n, n)), requires_grad=True)
            mask = AttentionMask(bias=bias, absent=np.zeros((t, count, n, n), dtype=bool))
            tracemalloc.start()
            try:
                out = masked_mha(p, "blk", x, x, heads, mask=mask, norm="ln")
                kept[count] = tracemalloc.get_traced_memory()[0] - out.data.nbytes
            finally:
                tracemalloc.stop()
            weights, all_pairs = t * heads * count * n * n * 8, t * heads * (count * n) ** 2 * 8
            weights += 2 * t * count * n * 8  # the row stats
            assert weights <= kept[count] < weights + 8 * 2**10 < all_pairs // 2, kept[count]
        assert kept[8] < 2.1 * kept[4], kept


class TestNormPrologue:
    """``masked_mha(norm=)`` against finite differences, with one norm or
    a pair of norms."""

    @staticmethod
    def setup(seed, attention):
        """Parameters, inputs and mask: self-attention over one input with a
        learned bias, or cross-attention from 3 queries to 5 keys of which
        some are absent."""
        rng = np.random.default_rng(seed)
        d, lq, lk = 6, 3, 5
        p = grad_params(rng, d)
        for name in ("ln_q", "ln_kv"):
            p[f"{name}/g"] = Tensor(1.0 + 0.3 * rng.normal(size=d), requires_grad=True)
            p[f"{name}/b"] = Tensor(0.3 * rng.normal(size=d), requires_grad=True)
        q_in = Tensor(rng.normal(loc=0.5, scale=2.0, size=(2, lq, d)), requires_grad=True)
        if attention == "self":
            bias = Tensor(rng.normal(size=(lq, lq)), requires_grad=True)
            mask = AttentionMask(bias=bias, absent=rng.random((2, 1, lq)) < 0.3)
            return p, q_in, q_in, mask, "ln_q", [bias]
        kv_in = Tensor(rng.normal(loc=-0.5, scale=2.0, size=(2, lk, d)), requires_grad=True)
        absent = rng.random((2, 1, lk)) < 0.4
        absent[:, :, 0] = False
        return p, q_in, kv_in, AttentionMask(bias=None, absent=absent), ("ln_q", "ln_kv"), []

    @pytest.mark.parametrize("attention", ["self", "cross"])
    def test_gradient(self, attention):
        p, q_in, kv_in, mask, norm, extra = self.setup(50, attention)
        probe = np.random.default_rng(51).normal(size=q_in.shape)
        if attention == "self":
            del p["ln_kv/g"], p["ln_kv/b"]
        # the key bias gradient is 0 in exact arithmetic, so a relative error means nothing there
        leaves = list(dict.fromkeys([q_in, kv_in] + extra + [t for k, t in p.items() if k != "blk/bk"]))

        def f():
            return probe_loss(masked_mha(p, "blk", q_in, kv_in, 2, mask=mask, norm=norm), probe)

        assert gradcheck(f, leaves) < 1e-4

    def test_norm_pair_on_one_input(self):
        """Two norms on one input take two prologues and sum both paths."""
        p, q_in, _, _, _, _ = self.setup(54, "cross")
        probe = np.random.default_rng(55).normal(size=q_in.shape)
        leaves = [q_in] + [t for k, t in p.items() if k != "blk/bk"]

        def f():
            return probe_loss(masked_mha(p, "blk", q_in, q_in, 2, mask=UNMASKED, norm=("ln_q", "ln_kv")), probe)

        assert gradcheck(f, leaves) < 1e-4


class TestMaskBuilders:
    """``distance_bias_mask`` over agent distances at one timestep (a
    leading T=1 axis) and over time gaps."""

    @staticmethod
    def spatial(points, presence, w, b):
        return distance_bias_mask(pairwise_distances(points), ~presence[:, None, :],
                                  Tensor(np.full(1, w)), Tensor(np.full(1, b)))

    @staticmethod
    def temporal(presence, w, b):
        steps = np.arange(presence.shape[-1], dtype=np.float64)
        gaps = np.abs(steps[:, None] - steps[None, :])
        return distance_bias_mask(gaps, ~presence[:, None, :], Tensor(np.full(1, w)), Tensor(np.full(1, b)))

    def test_all_present_zero_params_is_plain(self):
        pts = np.random.default_rng(0).normal(size=(1, 4, 2))
        mask = self.spatial(pts, np.ones((1, 4), dtype=bool), 0.0, 0.0)
        np.testing.assert_array_equal(mask.values(), 0.0)

    def test_absent_agent_column(self):
        pts = np.zeros((1, 4, 2))
        pres = np.array([[True, True, False, True]])
        v = self.spatial(pts, pres, 0.0, 0.0).values()[0]
        assert np.all(np.isneginf(v[:, 2]))
        assert np.all(np.isfinite(v[:, [0, 1, 3]]))

    def test_distance_bias_value(self):
        pts = np.array([[[0.0, 0.0], [3.0, 4.0]]])
        mask = self.spatial(pts, np.ones((1, 2), dtype=bool), 1.0, 0.0)
        assert mask.values()[0, 0, 1] == pytest.approx(5.0, abs=1e-12)
        assert mask.values()[0, 0, 0] == pytest.approx(0.0)  # diagonal distance 0

    def test_temporal_gap_bias(self):
        v = self.temporal(np.ones((2, 4), dtype=bool), 2.0, 0.5).values()
        assert v.shape == (2, 4, 4)
        assert v[0, 0, 3] == pytest.approx(6.5)
        assert v[0, 2, 2] == pytest.approx(0.5)

    def test_temporal_absent_steps(self):
        pres = np.array([[True, False, True, True]])
        v = self.temporal(pres, 0.0, 0.0).values()
        assert np.all(np.isneginf(v[0, :, 1]))
        assert np.isfinite(v[0, :, [0, 2, 3]]).all()


def encoder_setup(seed, n=4, holes=False):
    cfg = tiny_config()
    model = randomize_params(CrowdForecaster(cfg, seed=0), seed)
    window = random_window(seed + 1, n=n, holes=holes)
    x_obs, pres_obs = window.observed()
    return cfg, model.params, x_obs, pres_obs


class TestSpatialForward:
    def test_output_shape(self):
        cfg, params, x, pres = encoder_setup(7)
        out = spatial_forward(params, cfg, x, pres, one_segment(len(x)), x)
        assert out.shape == (4, 8, cfg.d_model)

    def test_single_agent_runs(self):
        cfg, params, x, pres = encoder_setup(8, n=1)
        out = spatial_forward(params, cfg, x, pres, one_segment(len(x)), x)
        assert out.shape == (1, 8, cfg.d_model)
        assert np.all(np.isfinite(out.data))

    def test_absent_slots_zeroed(self):
        cfg, params, x, pres = encoder_setup(9, holes=True)
        out = spatial_forward(params, cfg, x, pres, one_segment(len(x)), x).data
        assert np.all(out[~pres] == 0.0)
        assert np.any(out[pres] != 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            cfg, params, x, pres = encoder_setup(11 + trial, n=5, holes=trial % 2 == 0)
            base = spatial_forward(params, cfg, x, pres, one_segment(len(x)), x).data
            perm = rng.permutation(5)
            permuted = spatial_forward(params, cfg, x[perm], pres[perm], one_segment(len(x)), x[perm]).data
            assert np.max(np.abs(permuted - base[perm])) < 1e-8

    def test_gradient(self):
        cfg, params, x, pres = encoder_setup(12, n=3)
        probe = np.random.default_rng(0).normal(size=(3, 8, cfg.d_model))
        leaves = [params[k] for k in sorted(params) if k.startswith("spatial/")]

        def f():
            return ad.tsum(ad.mul(spatial_forward(params, cfg, x, pres, one_segment(len(x)), x), Tensor(probe)))

        assert gradcheck(f, leaves, max_entries=6, rng=np.random.default_rng(1)) < 1e-3


class TestGcnAdjacency:
    """The proximity operator that the spatial GCN residual convolves with,
    captured from ``spatial_forward`` on windows with holes, over the
    segment layouts of ``TestSegmentBlocks``."""

    def test_symmetric_normalized_within_segments_and_present_agents(self, monkeypatch):
        seen = []
        real = transformer.graph_convolve
        monkeypatch.setattr(transformer, "graph_convolve",
                            lambda op, h, theta, residual=None: seen.append(op) or real(op, h, theta, residual))
        for name, layout in TestSegmentBlocks.SEGMENTS.items():
            segment, n = np.array(layout), len(layout)
            cfg, params, x, pres = encoder_setup(14, n=n, holes=True)
            seen.clear()
            spatial_forward(params, cfg, x, pres, SegmentBlocks(segment), x)
            assert len(seen) == cfg.layers, name
            blocks = SegmentBlocks(segment)
            assert seen[0].shape == (x.shape[1], blocks.count, blocks.size, blocks.size), name
            adj = blocks.dense(seen[0])  # [T, N, N]
            pres_t = pres.T  # [T, N]
            assert (~pres_t).any(), name  # the window has absent agents to leave out

            np.testing.assert_array_equal(adj, adj.swapaxes(-1, -2))
            assert not adj[:, segment[:, None] != segment[None, :]].any(), name
            assert not adj[~pres_t].any(), name  # rows of absent agents
            assert not adj.swapaxes(-1, -2)[~pres_t].any(), name  # and their columns
            dist = pairwise_distances(x.transpose(1, 0, 2))
            linked = (dist < cfg.gcn_radius) & (segment[:, None] == segment[None, :])
            linked &= pres_t[:, :, None] & pres_t[:, None, :]
            deg = linked.sum(axis=-1)
            expected = np.where(linked, 1.0 / np.sqrt(deg[:, :, None] * deg[:, None, :] + ~linked), 0.0)
            np.testing.assert_allclose(adj, expected, rtol=1e-14, atol=0, err_msg=name)
            assert adj[np.broadcast_to(np.eye(n, dtype=bool), adj.shape) & pres_t[:, :, None]].min() > 0, name


class TestTemporalForward:
    def test_output_shape(self):
        cfg, params, x, pres = encoder_setup(13)
        out = temporal_forward(params, cfg, x, pres)
        assert out.shape == (4, 8, cfg.d_model)

    def test_identical_tracks_identical_rows(self):
        cfg, params, x, pres = encoder_setup(14, n=3)
        x[1] = x[0]
        out = temporal_forward(params, cfg, x, pres).data
        np.testing.assert_allclose(out[0], out[1], atol=1e-12)

    def test_single_present_step(self):
        cfg, params, x, pres = encoder_setup(15, n=2)
        pres = pres.copy()
        pres[0, :] = False
        pres[0, 3] = True
        x = x * pres[:, :, None]
        out = temporal_forward(params, cfg, x, pres).data
        assert np.all(out[0, [t for t in range(8) if t != 3]] == 0.0)
        assert np.any(out[0, 3] != 0.0)

    def test_agents_independent(self):
        cfg, params, x, pres = encoder_setup(16, n=3)
        base = temporal_forward(params, cfg, x, pres).data
        x2 = x.copy()
        x2[2] = 0.0
        out = temporal_forward(params, cfg, x2, pres).data
        np.testing.assert_array_equal(out[0], base[0])
        np.testing.assert_array_equal(out[1], base[1])


class TestCapture:
    def run_mha(self, seed=27):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 4)))
        return masked_mha(mha_params(rng, 4), "blk", x, x, 2, mask=UNMASKED, norm="ln")

    def test_nested_capture_restores_the_outer_dict(self):
        with capture() as outer:
            with capture() as inner:
                self.run_mha()
            assert inner.keys() == {"blk"}
            assert attention._captured is outer and outer == {}
            self.run_mha()
        assert outer.keys() == {"blk"}
        assert attention._captured is None

    def test_nested_capture_restores_the_outer_dict_when_the_body_raises(self):
        with capture() as outer:
            with pytest.raises(RuntimeError):
                with capture():
                    self.run_mha()
                    raise RuntimeError("body failed")
            assert attention._captured is outer and outer == {}
        assert attention._captured is None

    def test_no_copy_without_an_open_capture(self):
        with capture() as closed:
            pass
        self.run_mha()
        assert closed == {} and attention._captured is None
