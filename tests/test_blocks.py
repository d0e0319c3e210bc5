from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosediff import blocks as B
from dosediff import networks as N
from dosediff import tensor as T
from dosediff.gradcheck import finite_diff_scalar_fn
from dosediff.optim import ParamStore
from dosediff.tensor import ShapeError, Tensor, backward


def rng_tensor(shape, seed=0):
    return Tensor(np.random.default_rng(seed).standard_normal(shape))


class TestWindowPartition:
    def test_counts(self):
        x = rng_tensor((1, 8, 8, 3))
        assert B.window_partition(x, 4).shape == (4, 4, 4, 3)

    def test_full_window_is_identity(self):
        x = rng_tensor((1, 6, 6, 2))
        w = B.window_partition(x, 6)
        assert w.shape == (1, 6, 6, 2)
        assert np.array_equal(w.data[0], x.data[0])

    @given(st.sampled_from([(1, 4, 4, 2), (2, 8, 8, 3), (1, 6, 6, 5)]),
           st.sampled_from([2, 4]), st.integers(0, 2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_merge_partition_roundtrip_bitwise(self, shape, win, seed):
        b, h, w, c = shape
        if h % win:
            win = h
        x = Tensor(np.random.default_rng(seed).standard_normal(shape))
        back = B.window_merge(B.window_partition(x, win), h, w)
        assert np.array_equal(back.data, x.data)

    def test_non_divisible_rejected(self):
        with pytest.raises(ShapeError):
            B.window_partition(rng_tensor((1, 6, 6, 1)), 4)


class TestCyclicShift:
    def test_zero_shift_identity(self):
        x = rng_tensor((1, 4, 4, 2))
        assert np.array_equal(B.cyclic_shift(x, 0, 0).data, x.data)

    def test_double_half_shift_is_identity_on_4x4(self):
        x = rng_tensor((1, 4, 4, 1))
        y = B.cyclic_shift(B.cyclic_shift(x, 2, 2), 2, 2)
        assert np.array_equal(y.data, x.data)

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_roll_then_inverse_is_exact(self, dy, dx, seed):
        x = Tensor(np.random.default_rng(seed).standard_normal((1, 5, 7, 2)))
        y = B.cyclic_shift(B.cyclic_shift(x, dy, dx), -dy, -dx)
        assert np.array_equal(y.data, x.data)


def make_attention(c=4, heads=2, seed=0):
    """The four projections of a Swin block's attention, drawn in its order."""
    store = ParamStore(np.random.default_rng(seed))
    w = {n: store.normal(f"a.{n}", (c, c)) for n in ("wq", "wk", "wv", "wo")}
    return store, SimpleNamespace(**w, heads=heads)


class TestWindowAttention:
    def test_uniform_rows_for_equal_tokens(self):
        store, p = make_attention()
        windows = Tensor(np.ones((2, 2, 2, 4)))  # all pixels identical
        _, attn = T.window_attention(windows, p.wq, p.wk, p.wv, p.wo, p.heads, 2, 0,
                                     return_weights=True)
        assert np.allclose(attn.data, 0.25, atol=1e-12)

    def test_single_pixel_window(self):
        store, p = make_attention()
        win = rng_tensor((3, 1, 1, 4), seed=5)
        out, attn = T.window_attention(win, p.wq, p.wk, p.wv, p.wo, p.heads, 1, 0,
                                       return_weights=True)
        assert np.allclose(attn.data, 1.0, atol=0)
        # output must be W_o applied to the value projection
        tok = win.data.reshape(3, 4)
        v = tok @ p.wv.data
        assert np.allclose(out.data.reshape(3, 4), v @ p.wo.data, atol=1e-12)

    def test_rows_sum_to_one(self):
        store, p = make_attention()
        _, attn = T.window_attention(rng_tensor((4, 2, 2, 4), seed=3), p.wq, p.wk, p.wv,
                                     p.wo, p.heads, 2, 0, return_weights=True)
        assert np.abs(attn.data.sum(axis=-1) - 1.0).max() < 1e-6

    def test_channel_mismatch(self):
        store, p = make_attention(c=4)
        with pytest.raises(ShapeError):
            T.window_attention(rng_tensor((1, 2, 2, 6)), p.wq, p.wk, p.wv, p.wo, p.heads, 2, 0)


def composed_window_attention(x, p, window, shift):
    """Reference chain of composable ops: shift, tile, per-head attention,
    merge, unshift."""
    _, hh, ww, _ = x.shape
    y = B.cyclic_shift(x, -shift, -shift) if shift else x
    win = B.window_partition(y, window)
    nwin, n, h = win.shape[0], window * window, p.heads
    dk = p.wq.shape[1] // h

    def heads_of(w, axes):
        return (win @ w).reshape((nwin, n, h, dk)).permute(axes)

    q, k_t, v = (heads_of(p.wq, (0, 2, 1, 3)), heads_of(p.wk, (0, 2, 3, 1)),
                 heads_of(p.wv, (0, 2, 1, 3)))
    attn = T.softmax((q @ k_t) * (1.0 / np.sqrt(dk)), axis=-1)
    ctx = (attn @ v).permute((0, 2, 1, 3)).reshape((nwin, window, window, h * dk))
    y = B.window_merge(ctx @ p.wo, hh, ww)
    return B.cyclic_shift(y, shift, shift) if shift else y


# (channels, heads, window, shift, map side); windows 3 and 5 give score
# rows of 9 and 25 tokens, which run the fold of an odd entry in _row_max
CHAIN_CASES = [(4, 2, 2, 0, 8), (4, 2, 2, 1, 8), (6, 3, 4, 0, 8), (6, 3, 4, 2, 8),
               (6, 3, 4, 1, 8), (4, 2, 3, 1, 9), (6, 3, 3, 1, 12), (6, 3, 5, 2, 10)]


class TestWindowAttentionOp:
    @pytest.mark.parametrize("c,heads,window,shift,side", [
        pytest.param(*case, id="-".join(map(str, case[:4] if case[4] == 8 else case)))
        for case in CHAIN_CASES])
    def test_matches_composed_chain(self, c, heads, window, shift, side):
        """Forward bitwise equal to the composed chain, gradients within
        1e-12 relative, at B=2 with several heads."""
        store, p = make_attention(c=c, heads=heads, seed=3)
        for i, (_, t) in enumerate(store.items()):
            t.data[:] = np.random.default_rng(20 + i).standard_normal(t.shape) * 0.5
        x0 = np.random.default_rng(4).standard_normal((2, side, side, c))
        proj = Tensor(np.random.default_rng(5).standard_normal((2, side, side, c)))
        runs = []
        for fn in (lambda x: composed_window_attention(x, p, window, shift),
                   lambda x: T.window_attention(x, p.wq, p.wk, p.wv, p.wo,
                                                heads, window, shift)):
            x = Tensor(x0.copy(), requires_grad=True)
            out = fn(x)
            runs.append([out.data] + backward((out * proj).sum(), [x] + store.tensors()))
        assert np.array_equal(runs[0][0], runs[1][0])
        for ref, got in zip(runs[0][1:], runs[1][1:]):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_several_window_blocks_match_composed_chain(self):
        """8x8 windows of 4 heads make blocks of 4 windows: 2*5*5 windows
        span 13 blocks, the last one partial. Forward bitwise, gradients
        within 1e-12 relative."""
        store, p = make_attention(c=8, heads=4, seed=6)
        x0 = np.random.default_rng(7).standard_normal((2, 40, 40, 8))
        proj = Tensor(np.random.default_rng(8).standard_normal((2, 40, 40, 8)))
        runs = []
        for fn in (lambda x: composed_window_attention(x, p, 8, 3),
                   lambda x: T.window_attention(x, p.wq, p.wk, p.wv, p.wo, 4, 8, 3)):
            x = Tensor(x0.copy(), requires_grad=True)
            out = fn(x)
            runs.append([out.data] + backward((out * proj).sum(), [x] + store.tensors()))
        assert np.array_equal(runs[0][0], runs[1][0])
        for ref, got in zip(runs[0][1:], runs[1][1:]):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_single_graph_node(self):
        store, p = make_attention()
        x = Tensor(np.ones((1, 4, 4, 4)), requires_grad=True)
        out = T.window_attention(x, p.wq, p.wk, p.wv, p.wo, 2, 2, 1)
        assert out.node.kind == "window-attention"
        assert out.node.parents[0] is x

    @pytest.mark.parametrize("shape,heads,window", [((1, 4, 4), 2, 2), ((1, 6, 6, 4), 2, 4),
                                                    ((1, 4, 4, 4), 3, 2), ((1, 4, 4, 5), 2, 2)])
    def test_bad_shapes_rejected(self, shape, heads, window):
        store, p = make_attention()
        with pytest.raises(ShapeError):
            T.window_attention(rng_tensor(shape), p.wq, p.wk, p.wv, p.wo, heads, window, 0)


def make_swin(c=4, window=2, shift=False, heads=2, seed=1, t_dim=0):
    store = ParamStore(np.random.default_rng(seed))
    block = N._swin_block(store, "blk", c, window, shift, heads, t_dim)
    return store, block


class TestSwinBlock:
    @pytest.mark.parametrize("shift", [False, True])
    def test_zeroed_residual_branches_exact_identity(self, shift):
        store, block = make_swin(shift=shift)
        store["blk.attn.wo"].data[:] = 0.0
        store["blk.mlp.w2"].data[:] = 0.0
        store["blk.mlp.b2"].data[:] = 0.0
        x = rng_tensor((2, 4, 4, 4), seed=7)
        out = block(x, None)
        assert np.array_equal(out.data, x.data)

    def test_output_shape_equals_input_shape(self):
        store, block = make_swin()
        x = rng_tensor((3, 8, 8, 4), seed=2)
        assert block(x, None).shape == x.shape

    def test_shifted_and_unshifted_compose(self):
        s1, block1 = make_swin(shift=False, seed=1)
        s2, block2 = make_swin(shift=True, seed=2)
        x = rng_tensor((1, 4, 4, 4), seed=3)
        y = block2(block1(x, None), None)
        assert y.shape == x.shape

    def test_time_bias_enters_once(self):
        # the time projection is drawn last, so both blocks share the rest
        _, plain = make_swin()
        store, block = make_swin(t_dim=6)
        x = rng_tensor((2, 4, 4, 4), seed=4)
        t_emb = Tensor(np.random.default_rng(5).standard_normal((2, 1, 1, 6)))
        y0 = plain(x, None)
        y1 = block(x, t_emb)
        assert not np.array_equal(y0.data, y1.data)

    def test_t_emb_dim_mismatch_rejected(self):
        store, block = make_swin(t_dim=6)
        x = rng_tensor((1, 4, 4, 4))
        with pytest.raises(ShapeError):
            block(x, Tensor(np.zeros((1, 1, 1, 5))))

    def test_gradients_match_finite_differences(self):
        store, block = make_swin(seed=11)
        x = Tensor(np.random.default_rng(12).standard_normal((1, 4, 4, 4)),
                   requires_grad=True)
        proj = np.random.default_rng(13).standard_normal((1, 4, 4, 4))

        def loss():
            return (block(x, None) * Tensor(proj)).sum()

        coords = [(x, i) for i in range(0, 64, 7)]
        for name in ("blk.attn.wq", "blk.attn.wo", "blk.mlp.w1", "blk.ln1.g"):
            t = store[name]
            coords += [(t, i) for i in range(0, t.size, max(1, t.size // 4))]
        assert finite_diff_scalar_fn(loss, coords) < 1e-4


def make_cross(ca=4, cb=4, seed=0):
    """The fuser's weights [wq_a, wk_b, wv_b], drawn by its builder."""
    store = ParamStore(np.random.default_rng(seed))
    N._cross_attention(store, "x", ca, cb)
    return store, [store[f"x.{n}"] for n in ("wq_a", "wk_b", "wv_b")]


class TestCrossAttention:
    def test_single_token_b(self):
        store, p = make_cross()
        a = rng_tensor((1, 1, 1, 4), seed=1)
        bm = rng_tensor((1, 1, 1, 4), seed=2)
        fused, w = B.cross_attention_fuse(a, bm, *p, return_weights=True)
        assert np.allclose(w.data, 1.0, atol=0)
        tok_b = bm.data.reshape(1, 4)
        expect = tok_b + tok_b @ store["x.wv_b"].data
        assert np.allclose(fused.data.reshape(1, 4), expect, atol=1e-12)

    def test_rows_sum_to_one(self):
        store, p = make_cross()
        _, w = B.cross_attention_fuse(rng_tensor((2, 4, 4, 4), 3),
                                      rng_tensor((2, 4, 4, 4), 4), *p,
                                      return_weights=True)
        assert np.abs(w.data.sum(axis=-1) - 1.0).max() < 1e-6

    @pytest.mark.parametrize("c", [0.5, 2.0, 7.3])
    def test_positive_k_scaling_preserves_row_argmax(self, c):
        store, p = make_cross(seed=5)
        a = rng_tensor((1, 4, 4, 4), 6)
        bm = rng_tensor((1, 4, 4, 4), 7)
        _, w1 = B.cross_attention_fuse(a, bm, *p, return_weights=True)
        store["x.wk_b"].data *= c
        _, w2 = B.cross_attention_fuse(a, bm, *p, return_weights=True)
        assert np.array_equal(np.argmax(w1.data, axis=-1), np.argmax(w2.data, axis=-1))

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_joint_permutation_equivariance(self, seed):
        """Permuting A and B tokens together permutes the fused rows."""
        store, p = make_cross(seed=8)
        rng = np.random.default_rng(seed)
        n = 4  # 2x2 spatial layout, tokens along H*W
        a = rng.standard_normal((1, 2, 2, 4))
        bm = rng.standard_normal((1, 2, 2, 4))
        perm = rng.permutation(n)

        def tokens(x):
            return x.reshape(1, n, 4)

        def from_tokens(tok):
            return tok.reshape(1, 2, 2, 4)

        base = B.cross_attention_fuse(Tensor(a), Tensor(bm), *p)
        pa = from_tokens(tokens(a)[:, perm])
        pb = from_tokens(tokens(bm)[:, perm])
        permuted = B.cross_attention_fuse(Tensor(pa), Tensor(pb), *p)
        assert np.allclose(tokens(permuted.data), tokens(base.data)[:, perm],
                           atol=1e-12)

    def test_b_token_permutation_invariance_for_constant_queries(self):
        # when every A token is identical, attention rows cannot depend on
        # the ordering of B's tokens
        store, p = make_cross(seed=9)
        a = Tensor(np.ones((1, 2, 2, 4)))
        rng = np.random.default_rng(10)
        bm = rng.standard_normal((1, 2, 2, 4))
        out1 = B.cross_attention_fuse(a, Tensor(bm), *p).data - bm
        perm = [2, 0, 3, 1]
        bp = bm.reshape(1, 4, 4)[:, perm].reshape(1, 2, 2, 4)
        out2 = B.cross_attention_fuse(a, Tensor(bp), *p).data - bp
        assert np.allclose(out1, out2, atol=1e-12)

    def test_spatial_mismatch_rejected(self):
        store, p = make_cross()
        with pytest.raises(ShapeError):
            B.cross_attention_fuse(rng_tensor((1, 2, 2, 4)), rng_tensor((1, 4, 4, 4)), *p)

    def test_gradients_match_finite_differences(self):
        store, p = make_cross(seed=13)
        a = Tensor(np.random.default_rng(14).standard_normal((1, 2, 2, 4)),
                   requires_grad=True)
        bm = Tensor(np.random.default_rng(15).standard_normal((1, 2, 2, 4)),
                    requires_grad=True)
        proj = np.random.default_rng(16).standard_normal((1, 2, 2, 4))

        def loss():
            return (B.cross_attention_fuse(a, bm, *p) * Tensor(proj)).sum()

        coords = [(a, i) for i in range(16)] + [(bm, i) for i in range(16)]
        for name in ("x.wq_a", "x.wk_b", "x.wv_b"):
            t = store[name]
            coords += [(t, i) for i in range(0, t.size, 3)]
        assert finite_diff_scalar_fn(loss, coords) < 1e-4


class TestProjector:
    def test_zero_params_give_identity(self):
        store = ParamStore(np.random.default_rng(0))
        proj = N._projector(store, "p", 8, 4)
        store["p.w_down"].data[:] = 0.0  # up-projection already zero at init
        x = rng_tensor((2, 3, 3, 8), seed=1)
        assert np.array_equal(proj(x).data, x.data)

    def test_shape_preserved_and_hidden_dim(self):
        store = ParamStore(np.random.default_rng(0))
        proj = N._projector(store, "p", 32, 4)
        assert store["p.w_down"].shape == (32, 8)
        x = rng_tensor((1, 2, 2, 32), seed=2)
        assert proj(x).shape == x.shape


class TestTimeEmbedding:
    def test_t0_sin_zero_cos_one(self):
        e = B.time_embedding(0, 8)[0]
        assert np.array_equal(e[:4], np.zeros(4))
        assert np.array_equal(e[4:], np.ones(4))

    @given(st.integers(0, 1000), st.sampled_from([4, 8, 16, 64]))
    @settings(max_examples=50, deadline=None)
    def test_components_bounded(self, t, dim):
        e = B.time_embedding(t, dim)[0]
        assert np.all(np.abs(e) <= 1.0)

    def test_distinct_over_horizon(self):
        # direct-evaluation oracle: embeddings for t = 0..100 pairwise differ
        embs = B.time_embedding(np.arange(101), 8)
        assert len(np.unique(embs.round(12), axis=0)) == 101

    def test_batch_shape(self):
        assert B.time_embedding(np.array([1, 2, 3]), 6).shape == (3, 6)
