from pathlib import Path

import numpy as np
import pytest

from dosediff import diffusion as D
from dosediff import networks as N
from dosediff import tensor as T
from dosediff.config import FusionStrategy, ModelConfig, load_config
from dosediff.gradcheck import finite_diff_scalar_fn
from dosediff.networks import ConditionStack, DoseModel
from dosediff.tensor import ShapeError, Tensor, _topo_order, backward, no_grad

from test_tensor_ops import composed_conv_block, composed_swin_block


def tiny_cfg(**kw):
    base = dict(image_size=16, oar_count=3, base_channels=4,
                stage_multipliers=(1, 2, 4, 8), window=2, heads=2,
                projector_ratio=4, use_projector=True,
                fusion=FusionStrategy("attn-lastK", 2), t_steps=50,
                beta_start=1e-4, beta_end=0.35)
    base.update(kw)
    return ModelConfig(**base)


class TestFusionStrategy:
    @pytest.mark.parametrize("text", ["concatenate", "add-all", "attn-all",
                                      "attn-last0", "attn-last2", "attn-last4"])
    def test_parse_label_roundtrip(self, text):
        assert FusionStrategy.parse(text).label() == text

    def test_stage_kinds(self):
        assert FusionStrategy.parse("add-all").stage_kinds(5) == ["add"] * 5
        assert FusionStrategy.parse("attn-all").stage_kinds(4) == ["attn"] * 4
        assert FusionStrategy.parse("attn-last2").stage_kinds(5) == \
            ["add", "add", "add", "attn", "attn"]
        assert FusionStrategy.parse("concatenate").stage_kinds(5) is None

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            FusionStrategy.parse("attn-last6").stage_kinds(5)
        with pytest.raises(ValueError):
            FusionStrategy("attn-lastK", -1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            FusionStrategy.parse("mystery")


class TestModelConfig:
    def test_paper_scale_resolution_plan(self):
        cfg = ModelConfig()  # H=256, five downsampling stages
        stage_outputs = [cfg.image_size >> (i + 1) for i in range(cfg.num_stages)]
        assert stage_outputs == [128, 64, 32, 16, 8]

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            tiny_cfg(image_size=24).validate()  # 24 % 16 != 0
        with pytest.raises(ValueError):
            tiny_cfg(heads=3).validate()
        with pytest.raises(ValueError):
            tiny_cfg(projector_ratio=3).validate()

    def test_condition_channels(self):
        assert tiny_cfg(oar_count=3).cond_channels == 5


class TestBuildModel:
    def test_smoke_h32_c8(self):
        cfg = ModelConfig(image_size=32, oar_count=3, base_channels=8,
                          stage_multipliers=(1, 2, 4, 8), window=4, heads=2,
                          fusion=FusionStrategy("attn-lastK", 2), t_steps=10)
        m = DoseModel(cfg, 0)
        rng = np.random.default_rng(0)
        out = m.predict_noise(rng.standard_normal((1, 1, 32, 32)),
                              np.array([3]), rng.random((1, 5, 32, 32)))
        assert out.shape == (1, 1, 32, 32)

    def test_same_seed_identical_parameters(self):
        cfg = tiny_cfg()
        m1, m2 = DoseModel(cfg, 7), DoseModel(cfg, 7)
        assert m1.store.names() == m2.store.names()
        for name, p in m1.store.items():
            assert np.array_equal(p.data, m2.store[name].data), name

    # parameter count is a pure function of the config
    COUNT_TABLE = [
        (dict(image_size=16, oar_count=2, base_channels=4, stage_multipliers=(1, 2),
              window=2, heads=2, fusion=FusionStrategy("attn-lastK", 1), t_steps=10),
         237, 8736),
        (dict(image_size=16, oar_count=3, base_channels=4, stage_multipliers=(1, 2, 4, 8),
              window=2, heads=2, fusion=FusionStrategy("attn-lastK", 2), t_steps=50),
         508, 95704),
        (dict(image_size=16, oar_count=3, base_channels=4, stage_multipliers=(1, 2, 4, 8),
              window=2, heads=2, fusion=FusionStrategy("concatenate"), t_steps=50),
         352, 70845),
    ]

    @pytest.mark.parametrize("kw,n_params,n_scalars", COUNT_TABLE)
    def test_parameter_count_table(self, kw, n_params, n_scalars):
        for seed in (0, 123):
            m = DoseModel(ModelConfig(projector_ratio=4, **kw), seed)
            assert len(m.store.names()) == n_params
            assert sum(p.size for _, p in m.store.items()) == n_scalars


class TestEncodeStructure:
    def test_feature_pyramid_sides(self):
        cfg = ModelConfig(image_size=64, oar_count=3, base_channels=4,
                          stage_multipliers=(1, 2, 4, 8, 8), window=2, heads=2,
                          fusion=FusionStrategy("add-all"), t_steps=10)
        m = DoseModel(cfg, 0)
        stack = m.encode_structure(np.random.default_rng(0).random((1, 5, 64, 64)))
        sides = [f.shape[2] for f in stack.features]
        assert sides == [32, 16, 8, 4, 2]
        chans = [f.shape[-1] for f in stack.features]
        assert chans == [4, 8, 16, 32, 32]

    def test_channel_mismatch_rejected(self):
        m = DoseModel(tiny_cfg(), 0)
        with pytest.raises(ShapeError):
            m.encode_structure(np.zeros((1, 4, 16, 16)))


ALL_STRATEGIES = ["concatenate", "add-all", "attn-all", "attn-last1",
                  "attn-last2", "attn-last3", "attn-last4"]


class TestDenoiseForward:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_output_shape_equals_input_shape(self, strategy):
        cfg = tiny_cfg(fusion=FusionStrategy.parse(strategy))
        m = DoseModel(cfg, 0)
        rng = np.random.default_rng(1)
        x_t = rng.standard_normal((2, 1, 16, 16))
        y = rng.random((2, 5, 16, 16))
        out = m.predict_noise(x_t, np.array([1, 5]), y)
        assert out.shape == x_t.shape

    def test_attn_last0_equals_add_all_bitwise(self):
        rng_in = np.random.default_rng(2)
        x_t = rng_in.standard_normal((1, 1, 16, 16))
        y = rng_in.random((1, 5, 16, 16))
        outs = []
        for strat in ("attn-last0", "add-all"):
            m = DoseModel(tiny_cfg(fusion=FusionStrategy.parse(strat)), 31)
            with no_grad():
                outs.append(m.predict_noise(x_t, np.array([7]), y).data)
        assert np.array_equal(outs[0], outs[1])

    def test_zeroed_features_give_pure_denoiser_path(self):
        """With all f_i zeroed under add-all, the output cannot depend on y."""
        m = DoseModel(tiny_cfg(fusion=FusionStrategy.parse("add-all")), 5)
        rng = np.random.default_rng(3)
        x_t = rng.standard_normal((1, 1, 16, 16))

        def zero_stack(y):
            stack = m.encode_structure(y)
            feats = [Tensor(np.zeros(f.shape)) for f in stack.features]
            return ConditionStack(y=stack.y, features=feats)

        with no_grad():
            out1 = m.predict_noise(x_t, np.array([2]), zero_stack(rng.random((1, 5, 16, 16))))
            out2 = m.predict_noise(x_t, np.array([2]), zero_stack(rng.random((1, 5, 16, 16))))
        assert np.array_equal(out1.data, out2.data)

    def test_bad_x_t_shape(self):
        m = DoseModel(tiny_cfg(), 0)
        with pytest.raises(ShapeError):
            m.predict_noise(np.zeros((1, 2, 16, 16)), np.array([1]),
                            np.zeros((1, 5, 16, 16)))


class TestGradientReach:
    @pytest.mark.parametrize("strategy", ["attn-last2", "add-all", "concatenate"])
    def test_every_group_receives_gradient(self, strategy):
        cfg = tiny_cfg(fusion=FusionStrategy.parse(strategy))
        m = DoseModel(cfg, 0)
        rng = np.random.default_rng(4)
        sched = D.make_schedule(cfg.t_steps, cfg.beta_start, cfg.beta_end)
        x0 = rng.uniform(-1, 1, (2, 1, 16, 16))
        y = rng.random((2, 5, 16, 16))
        loss = D.training_step(m, (x0, y), sched, rng)
        grads = dict(zip(m.store.names(), backward(loss, m.store.tensors())))
        for group, names in m.parameter_groups().items():
            mass = sum(float(np.abs(grads[n]).sum()) for n in names)
            assert mass > 0.0, f"group {group} got zero gradient"


def top_grad_coords(model, loss_fn, per_group=3):
    """Pick the largest-|gradient| coordinate(s) in every parameter group.

    Near-zero gradient coordinates are numerically untestable by central
    differences (cancellation noise dominates), so the check targets the
    information-bearing ones.
    """
    store = model.store
    grads = dict(zip(store.names(), backward(loss_fn(), store.tensors())))
    coords = []
    for group, names in model.parameter_groups().items():
        ranked = []
        for name in names:
            p = store[name]
            g = np.abs(grads[name].reshape(-1))
            idx = int(np.argmax(g))
            ranked.append((float(g[idx]), p, idx))
        ranked.sort(key=lambda r: -r[0])
        coords += [(p, idx) for _, p, idx in ranked[:per_group]]
    return coords


def test_end_to_end_finite_difference():
    """Scalar loss through the tiny full model matches central differences."""
    from dosediff.tensor import mse_loss

    cfg = tiny_cfg(stage_multipliers=(1, 2), t_steps=10)
    m = DoseModel(cfg, 8)
    rng = np.random.default_rng(9)
    x_t = rng.standard_normal((1, 1, 16, 16))
    y = rng.random((1, 5, 16, 16))
    t = np.array([4])
    eps = Tensor(rng.standard_normal((1, 1, 16, 16)))

    def loss():
        return mse_loss(m.predict_noise(x_t, t, y), eps)

    coords = top_grad_coords(m, loss)
    err = finite_diff_scalar_fn(loss, coords, eps=1e-6)
    assert err < 1e-3, f"end-to-end gradient error {err}"


def test_training_loss_reshape_permute_budget():
    """Feature maps are channels-last, every affine layer (``linear`` or a
    biased ``conv2d``) is one node, every pre-norm conv residual block is
    one ``conv-block`` node and every Swin block one ``swin-block`` node,
    so a smoke-scale training loss has 154 nodes: reshape/permute only at
    the model boundary and in cross-attention (9), and ``add`` only for
    the downsampling shortcuts and additive fusion (16). A separate bias
    add per layer made it 532 nodes, the composed conv blocks 410 and the
    composed Swin blocks 377, with 94 ``add``."""
    cfg = tiny_cfg()
    m = DoseModel(cfg, 0)
    rng = np.random.default_rng(4)
    sched = D.make_schedule(cfg.t_steps, cfg.beta_start, cfg.beta_end)
    loss = D.training_step(m, (rng.uniform(-1, 1, (2, 1, 16, 16)),
                               rng.random((2, 5, 16, 16))), sched, rng)
    kinds = [t.node.kind for t in _topo_order(loss)]
    assert len(kinds) <= 154
    assert sum(k in ("reshape", "permute") for k in kinds) <= 9
    assert kinds.count("add") <= 16


def test_unit_forwards_are_called_through_module_globals(monkeypatch):
    """A desk training loss makes 29 Swin-block, 2 cross-attention and 5
    GELU calls (4 projectors and the time trunk), each through the name its
    module (``tensor`` for the engine ops, ``networks`` for the fuser)
    holds at call time, so a tracer that rebinds those names sees every
    one. The model is built before the names are rebound: a closure that
    bound a forward at build time fails here."""
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "desk.json").model
    m = DoseModel(cfg, 0)
    calls = {}
    for owner, name in ((T, "swin_block"), (N, "cross_attention_fuse"), (T, "gelu")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    rng = np.random.default_rng(4)
    sched = D.make_schedule(cfg.t_steps, cfg.beta_start, cfg.beta_end)
    size = cfg.image_size
    D.training_step(m, (rng.uniform(-1, 1, (2, 1, size, size)),
                        rng.random((2, cfg.cond_channels, size, size))), sched, rng)
    assert calls == {"swin_block": 29, "cross_attention_fuse": 2, "gelu": 5}


def _fused_against_composed(monkeypatch, name, composed):
    """Loss and every parameter gradient of a training loss with ``T.<name>``
    fused and with its composed chain, in every wiring of the stage closures."""
    fused_block = getattr(T, name)
    for fusion, use_projector in (("concatenate", True), ("add-all", True), ("attn-all", True),
                                  ("attn-last2", True), ("attn-last2", False)):
        runs = []
        for block in (fused_block, composed):
            monkeypatch.setattr(T, name, block)
            cfg = tiny_cfg(fusion=FusionStrategy.parse(fusion), use_projector=use_projector)
            m = DoseModel(cfg, 0)
            rng = np.random.default_rng(4)
            sched = D.make_schedule(cfg.t_steps, cfg.beta_start, cfg.beta_end)
            loss = D.training_step(m, (rng.uniform(-1, 1, (2, 1, 16, 16)),
                                       rng.random((2, 5, 16, 16))), sched, rng)
            runs.append((loss.data, dict(zip(m.store.names(),
                                             backward(loss, m.store.tensors())))))
        (fused_loss, fused), (loss, grads) = runs
        assert np.array_equal(fused_loss, loss), fusion
        assert fused.keys() == grads.keys()
        for param in grads:
            assert np.array_equal(fused[param], grads[param]), (fusion, use_projector, param)


def test_fused_conv_blocks_keep_every_gradient_bitwise(monkeypatch):
    """The ``conv-block`` nodes change no bit of a training loss or of any
    parameter gradient, in every wiring of the stage closures. The stem
    output feeds both the first denoiser block and a decoder skip, so this
    also pins the order in which its gradient terms are summed."""
    _fused_against_composed(monkeypatch, "conv_block", composed_conv_block)


def test_fused_swin_blocks_keep_every_gradient_bitwise(monkeypatch):
    """The ``swin-block`` nodes change no bit of a training loss or of any
    parameter gradient, in every wiring of the stage closures; a stage's
    block output also feeds a skip or the fusion, so this pins the order
    of those gradient terms too."""
    _fused_against_composed(monkeypatch, "swin_block", composed_swin_block)
