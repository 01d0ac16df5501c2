import numpy as np
import pytest

import crowdcast.autodiff as ad
from crowdcast.autodiff import ShapeError, Tensor, gradcheck
from crowdcast.fusion import cross_modal_attention, fuse
from crowdcast.model import CrowdForecaster
from conftest import randomize_params

from test_attention import layer_norm_oracle, mha_oracle


def fusion_block_params(rng, d, prefix, hidden=8, zero_ffn=False, zero_values=False):
    p = {}
    for name in ("ln_q", "ln_kv", "ln2"):
        p[f"{prefix}/{name}/g"] = Tensor(np.ones(d))
        p[f"{prefix}/{name}/b"] = Tensor(np.zeros(d))
    for gate in ("wq", "wk", "wv", "wo"):
        p[f"{prefix}/attn/{gate}"] = Tensor(rng.normal(size=(d, d)) / np.sqrt(d))
    for gate in ("bq", "bk", "bv", "bo"):
        p[f"{prefix}/attn/{gate}"] = Tensor(np.zeros(d))
    if zero_values:
        p[f"{prefix}/attn/wv"] = Tensor(np.zeros((d, d)))
    p[f"{prefix}/ffn/w1"] = Tensor(np.zeros((d, hidden)) if zero_ffn else rng.normal(size=(d, hidden)) / np.sqrt(d))
    p[f"{prefix}/ffn/b1"] = Tensor(np.zeros(hidden))
    p[f"{prefix}/ffn/w2"] = Tensor(np.zeros((hidden, d)) if zero_ffn else rng.normal(size=(hidden, d)) / np.sqrt(hidden))
    p[f"{prefix}/ffn/b2"] = Tensor(np.zeros(d))
    return p


class TestCrossModalAttention:
    def test_preserves_target_token_count(self):
        rng = np.random.default_rng(0)
        d = 8
        p = fusion_block_params(rng, d, "x")
        target = Tensor(rng.normal(size=(3, 5, d)))
        sources = [Tensor(rng.normal(size=(3, 7, d))), Tensor(rng.normal(size=(3, 2, d)))]
        out = cross_modal_attention(p, "x", target, sources, heads=2, absent=np.zeros((3, 9), dtype=bool))
        assert out.shape == (3, 5, d)

    def test_zero_values_zero_ffn_passthrough(self):
        rng = np.random.default_rng(1)
        d = 8
        p = fusion_block_params(rng, d, "x", zero_ffn=True, zero_values=True)
        target = Tensor(rng.normal(size=(2, 4, d)))
        sources = [Tensor(rng.normal(size=(2, 3, d)))]
        out = cross_modal_attention(p, "x", target, sources, heads=2, absent=np.zeros((2, 3), dtype=bool))
        np.testing.assert_allclose(out.data, target.data, atol=1e-12)

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        d, n = 8, 2
        p = fusion_block_params(rng, d, "x")
        target = rng.normal(size=(n, 3, d))
        src_a = rng.normal(size=(n, 4, d))
        src_b = rng.normal(size=(n, 2, d))
        out = cross_modal_attention(p, "x", Tensor(target), [Tensor(src_a), Tensor(src_b)], heads=2,
                                    absent=np.zeros((n, 6), dtype=bool)).data

        for agent in range(n):
            kv = np.concatenate([src_a[agent], src_b[agent]], axis=0)
            mid = mha_oracle(p, "x/attn", target[agent], kv, heads=2, norms=("x/ln_q", "x/ln_kv"))
            h = layer_norm_oracle(mid, p, "x/ln2")
            ffn = np.maximum(h @ p["x/ffn/w1"].data + p["x/ffn/b1"].data, 0.0)
            expected = mid + ffn @ p["x/ffn/w2"].data + p["x/ffn/b2"].data
            assert np.max(np.abs(out[agent] - expected)) < 1e-10

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        p = fusion_block_params(rng, 8, "x")
        target = Tensor(rng.normal(size=(3, 5, 8)))
        with pytest.raises(ShapeError):
            cross_modal_attention(p, "x", target, [Tensor(rng.normal(size=(3, 5, 16)))], heads=2,
                                  absent=np.zeros((3, 5), dtype=bool))
        with pytest.raises(ShapeError):
            cross_modal_attention(p, "x", target, [Tensor(rng.normal(size=(2, 5, 8)))], heads=2,
                                  absent=np.zeros((2, 5), dtype=bool))


class TestFuse:
    def test_zero_inputs_zero_biases_give_zero(self, tiny_cfg):
        model = CrowdForecaster(tiny_cfg, seed=0)  # biases start at zero
        d = tiny_cfg.d_model
        y = fuse(model.params, tiny_cfg, Tensor(np.zeros((1, 8, d))),
                 Tensor(np.zeros((1, 8, d))), Tensor(np.zeros((1, 1, d))), np.zeros((1, 1), dtype=bool))
        np.testing.assert_array_equal(y.data, 0.0)

    def test_output_shape(self, tiny_cfg):
        rng = np.random.default_rng(4)
        model = randomize_params(CrowdForecaster(tiny_cfg, seed=0), 5)
        d = tiny_cfg.d_model
        y = fuse(model.params, tiny_cfg, Tensor(rng.normal(size=(5, 8, d))),
                 Tensor(rng.normal(size=(5, 8, d))), Tensor(rng.normal(size=(5, 3, d))), np.zeros((5, 3), dtype=bool))
        assert y.shape == (5, d)

    def test_permutation_equivariance(self, tiny_cfg):
        rng = np.random.default_rng(6)
        model = randomize_params(CrowdForecaster(tiny_cfg, seed=7), 7)
        d = tiny_cfg.d_model
        ys = rng.normal(size=(6, 8, d))
        yt = rng.normal(size=(6, 8, d))
        yh = rng.normal(size=(6, 2, d))
        h_absent = np.zeros((6, 2), dtype=bool)
        base = fuse(model.params, tiny_cfg, Tensor(ys), Tensor(yt), Tensor(yh), h_absent).data
        perm = rng.permutation(6)
        permuted = fuse(model.params, tiny_cfg, Tensor(ys[perm]), Tensor(yt[perm]), Tensor(yh[perm]), h_absent).data
        assert np.max(np.abs(permuted - base[perm])) < 1e-8

    def test_gradient(self, tiny_cfg):
        model = randomize_params(CrowdForecaster(tiny_cfg, seed=1), 10)
        rng = np.random.default_rng(11)
        d = tiny_cfg.d_model
        ys = Tensor(rng.normal(size=(2, 8, d)), requires_grad=True)
        yt = Tensor(rng.normal(size=(2, 8, d)), requires_grad=True)
        yh = Tensor(rng.normal(size=(2, 1, d)), requires_grad=True)
        probe = rng.normal(size=(2, d))
        leaves = [ys, yt, yh] + [model.params[k] for k in sorted(model.params) if k.startswith("fusion/")]

        def f():
            return ad.tsum(ad.mul(fuse(model.params, tiny_cfg, ys, yt, yh, np.zeros((2, 1), dtype=bool)), Tensor(probe)))

        assert gradcheck(f, leaves, max_entries=5, rng=np.random.default_rng(12)) < 1e-3
