import os
import re
import tracemalloc

import numpy as np
import pytest

from detseg.net.checkpoint import load_checkpoint, save_checkpoint, write_atomic
from detseg.net import model as model_module
from detseg.net.layers import Param
from detseg.net.model import DetSegModel, ModelConfig, flatten_per_anchor, unflatten_per_anchor
from detseg.net.optim import AdamState, adam_step

TOY = ModelConfig(num_classes=4, num_object_classes=2, embedding_dim=4, anchors_per_cell=145)
SMALL = ModelConfig(
    num_classes=3, num_object_classes=2, embedding_dim=2, anchors_per_cell=3,
    stem_channels=4, stage_channels=(4, 6, 8), stage_blocks=(1, 1, 1),
    seg_head_channels=(6, 5, 4), det_channels=8,
)


def small_model(seed=0):
    return DetSegModel(SMALL, seed=seed)


class TestForwardShapes:
    def test_published_toy_shapes(self):
        model = DetSegModel(TOY, seed=0)
        out = model.forward(np.zeros((1, 3, 64, 64)))
        assert out["seg_logits"].shape == (1, 4, 64, 64)
        assert out["objectness"].shape == (1, 290, 8, 8)
        assert out["class_scores"].shape == (1, 290, 8, 8)
        assert out["box_deltas"].shape == (1, 580, 8, 8)
        assert out["embeddings"].shape == (1, 580, 8, 8)

    def test_zero_weights_give_even_objectness(self):
        model = small_model()
        for p in model.parameters():
            p.data[...] = 0.0
        out = model.forward(np.zeros((1, 3, 16, 16)))
        obj = flatten_per_anchor(out["objectness"].data[0], SMALL.anchors_per_cell)
        prob = np.exp(obj)
        prob = prob[:, 1] / prob.sum(axis=1)
        assert prob == pytest.approx(np.full(len(prob), 0.5), abs=1e-12)

    def test_zero_weight_model_yields_no_detections_above_half(self):
        from detseg.geom import AnchorTemplate, make_anchor_grid
        from detseg.post import decode_detections

        model = small_model()
        for p in model.parameters():
            p.data[...] = 0.0
        out = model.forward(np.zeros((1, 3, 16, 16)))
        grid = make_anchor_grid(16, 16, 8, [AnchorTemplate(1.0, 64)] * SMALL.anchors_per_cell)
        per_image = {k: v.data[0] for k, v in out.items()}
        assert len(decode_detections(per_image, grid, score_threshold=0.6)) == 0

    def test_doubling_height_doubles_outputs(self):
        model = small_model()
        a = model.forward(np.zeros((1, 3, 16, 16)))
        b = model.forward(np.zeros((1, 3, 32, 16)))
        assert b["seg_logits"].shape[2] == 2 * a["seg_logits"].shape[2]
        assert b["objectness"].shape[2] == 2 * a["objectness"].shape[2]

    def test_rejects_indivisible_input(self):
        model = small_model()
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 3, 20, 16)))
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 4, 16, 16)))

    def test_deterministic_per_seed(self):
        x = np.random.default_rng(0).random((1, 3, 16, 16))
        out1 = DetSegModel(SMALL, seed=9).forward(x)
        out2 = DetSegModel(SMALL, seed=9).forward(x)
        out3 = DetSegModel(SMALL, seed=10).forward(x)
        assert np.array_equal(out1["seg_logits"].data, out2["seg_logits"].data)
        assert not np.array_equal(out1["seg_logits"].data, out3["seg_logits"].data)


class TestBackward:
    def test_sum_loss_gradient_flows(self):
        model = small_model()
        x = np.random.default_rng(1).random((1, 3, 16, 16))
        out = model.forward(x, training=True)
        upstream = {k: np.ones(v.shape) for k, v in out.items()}
        model.zero_grad()
        dx = model.backward(upstream)
        assert dx.shape == x.shape
        grads = np.concatenate([p.grad.reshape(-1) for p in model.parameters()])
        assert np.isfinite(grads).all()
        assert np.abs(grads).max() > 0

    def test_missing_heads_mean_zero_gradient(self):
        model = small_model()
        x = np.random.default_rng(2).random((1, 3, 16, 16))
        out = model.forward(x, training=True)
        model.zero_grad()
        model.backward({"seg_logits": np.zeros(out["seg_logits"].shape)})
        assert all(np.all(p.grad == 0.0) for p in model.parameters())

    def test_backward_before_forward_rejected(self):
        with pytest.raises(RuntimeError):
            small_model().backward({})

    def test_backward_after_eval_forward_rejected(self):
        model = small_model()
        x = np.random.default_rng(3).random((1, 3, 16, 16))
        out = model.forward(x)
        upstream = {k: np.ones(v.shape) for k, v in out.items()}
        with pytest.raises(RuntimeError, match="DetSegModel.backward needs a forward with training=True"):
            model.backward(upstream)
        # a training forward's caches do not survive a later eval forward
        model.forward(x, training=True)
        model.backward(upstream)
        model.forward(x)
        with pytest.raises(RuntimeError, match="training=True"):
            model.backward(upstream)

    def test_unknown_or_misshaped_upstream_rejected(self):
        model = small_model()
        out = model.forward(np.zeros((1, 3, 16, 16)), training=True)
        with pytest.raises(KeyError):
            model.backward({"bogus": np.zeros((1, 1, 1, 1))})
        with pytest.raises(ValueError):
            model.backward({"seg_logits": np.zeros((1, 3, 8, 8))})

    def test_finite_difference_through_whole_model(self):
        from detseg.oracles import finite_difference, gradients_close

        config = ModelConfig(
            num_classes=2, num_object_classes=1, embedding_dim=1, anchors_per_cell=1,
            stem_channels=2, stage_channels=(2, 2, 3), stage_blocks=(1, 1, 1),
            seg_head_channels=(3, 2, 2), det_channels=3,
        )
        model = DetSegModel(config, seed=3)
        rng = np.random.default_rng(4)
        # 16x16 leaves a 2x2 final map; at 1x1 training-mode BN outputs beta and
        # every head is constant in the input
        x = rng.random((1, 3, 16, 16))
        out = model.forward(x, training=True)
        weights = {k: rng.standard_normal(v.shape) for k, v in out.items()}

        def value():
            result = model.forward(x, training=True)
            return float(sum((result[k].data * weights[k]).sum() for k in weights))

        model.forward(x, training=True)
        model.zero_grad()
        dx = model.backward(weights)
        assert np.abs(dx).max() > 0
        sample = rng.choice(x.size, size=64, replace=False)
        fd = finite_difference(value, x, indices=sample)
        assert gradients_close(dx.reshape(-1)[sample], fd)
        params = dict(model.named_params())
        for name in list(params)[:3] + ["backbone.1.conv1.pointwise.weight"]:
            p = params[name]
            fd_p = finite_difference(value, p.data)
            assert np.abs(p.grad).max() > 0, name
            assert gradients_close(p.grad, fd_p), name


class TestInferencePath:
    def test_eval_forward_equals_frozen_training_forward_and_keeps_no_cache(self):
        from detseg.selftest import check_inference_path

        heads_equal, cached = check_inference_path(seed=1)
        assert heads_equal
        assert cached == []

    def test_eval_forward_leaves_only_its_outputs_allocated(self):
        model = DetSegModel(ModelConfig(), seed=0)
        x = np.random.default_rng(6).random((1, 3, 128, 256))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = model.forward(x)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = sum(v.data.nbytes for v in out.values())
        mib = 1 << 20
        assert after - before <= outputs + mib, (after - before) / mib
        assert peak - before < 40 * mib, (peak - before) / mib


class TestAnchorLayout:
    def test_flatten_unflatten_inverse(self):
        rng = np.random.default_rng(5)
        head = rng.standard_normal((6 * 3, 4, 5))
        rows = flatten_per_anchor(head, 3)
        assert rows.shape == (4 * 5 * 3, 6)
        assert np.array_equal(unflatten_per_anchor(rows, 3, 4, 5), head)

    def test_layout_matches_grid_indexing(self):
        t, rows_n, cols_n, k = 2, 3, 4, 5
        head = np.zeros((t * k, rows_n, cols_n))
        head[1 * k + 2, 1, 3] = 7.0  # template 1, component 2, cell (1, 3)
        rows = flatten_per_anchor(head, t)
        anchor_index = (1 * cols_n + 3) * t + 1
        assert rows[anchor_index, 2] == 7.0

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ValueError):
            flatten_per_anchor(np.zeros((7, 2, 2)), 3)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = Param(np.array([1.0, -2.0]))
        state = AdamState.for_params([p])
        adam_step([p], state, lr=0.1)
        assert np.array_equal(p.data, [1.0, -2.0])
        assert state.step == 1

    def test_descent_direction(self):
        p = Param(np.array([1.0]))
        p.grad[...] = 4.0
        state = AdamState.for_params([p])
        adam_step([p], state, lr=0.01)
        assert p.data[0] < 1.0
        # first bias-corrected step is close to -lr * sign(g)
        assert p.data[0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_replay_is_bit_identical(self):
        def run():
            rng = np.random.default_rng(6)
            p = Param(rng.standard_normal(5))
            state = AdamState.for_params([p])
            for i in range(50):
                p.grad[...] = np.sin(p.data * (i + 1))
                adam_step([p], state, lr=0.01)
            return p.data.copy()

        assert np.array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        p = Param(np.zeros(3))
        state = AdamState.for_params([p])
        with pytest.raises(ValueError):
            adam_step([p, Param(np.zeros(2))], state, lr=0.1)

    def test_flat_buffer_equals_per_param_bit_for_bit(self):
        # Adam is elementwise, so one update of the packed buffer is the
        # per-parameter update, bit for bit
        per_param, packed = small_model(seed=4), small_model(seed=4)
        params = per_param.parameters()
        flat = packed.flat_params()
        states = AdamState.for_params(params), AdamState.for_params([flat])
        rng = np.random.default_rng(5)
        for _ in range(20):
            for p, q in zip(params, packed.parameters()):
                p.grad[...] = q.grad[...] = rng.standard_normal(p.grad.shape)
            adam_step(params, states[0], lr=0.01)
            adam_step([flat], states[1], lr=0.01)
        assert np.concatenate([p.data.reshape(-1) for p in params]).tobytes() == flat.data.tobytes()


class TestFlatParams:
    def test_params_become_views_of_one_buffer_in_walk_order(self):
        model = small_model(seed=2)
        params = model.parameters()
        for i, p in enumerate(params):
            p.grad[...] = i
        before = [(p.data.copy(), p.grad.copy()) for p in params]
        flat = model.flat_params()
        assert model.flat_params() is flat
        assert flat.data.flags.c_contiguous and flat.grad.flags.c_contiguous
        item = flat.data.itemsize
        offset = 0
        for p, (data, grad) in zip(params, before):
            for arr, buffer in ((p.data, flat.data), (p.grad, flat.grad)):
                assert np.shares_memory(arr, buffer)
                start = arr.__array_interface__["data"][0] - buffer.__array_interface__["data"][0]
                assert start == offset * item  # in walk order, each right after the last
            assert p.data.tobytes() == data.tobytes() and p.grad.tobytes() == grad.tobytes()
            offset += p.data.size
        assert offset == flat.data.size == flat.grad.size

    def test_load_state_and_zero_grad_act_through_the_buffer(self):
        model = small_model(seed=2)
        flat = model.flat_params()
        source = small_model(seed=3)
        model.load_state(source.state_tensors())
        assert flat.data.tobytes() == np.concatenate([p.data.reshape(-1) for p in source.parameters()]).tobytes()
        for p in model.parameters():
            p.grad[...] = 2.0
        assert np.all(flat.grad == 2.0)
        model.zero_grad()
        assert not flat.grad.any()
        assert all(not p.grad.any() for p in model.parameters())

    def test_inference_never_packs(self, monkeypatch):
        def fail(params):
            raise AssertionError("an inference path packed the parameters")

        monkeypatch.setattr(model_module, "pack_params", fail)
        model = small_model()
        model.load_state(small_model(seed=1).state_tensors())
        model.forward(np.random.default_rng(9).random((1, 3, 16, 16)))


class TestSeedlessBuild:
    def test_draws_nothing_and_zeroes_the_weights(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a seedless build made a generator")

        monkeypatch.setattr(np.random, "default_rng", fail)
        model = DetSegModel(SMALL, seed=None)
        for name, tensor in model.state_tensors().items():
            if name.endswith(("gamma", "running_var")):
                assert np.all(tensor == 1.0), name
            else:
                assert not tensor.any(), name

    def test_loaded_outputs_equal_the_seeded_path(self, tmp_path):
        path = os.path.join(tmp_path, "model.nnad")
        source = small_model(seed=5)
        source.forward(np.random.default_rng(6).normal(1.0, 2.0, (2, 3, 16, 16)), training=True)  # move BN stats
        save_checkpoint(path, {}, source.state_tensors())
        _, tensors = load_checkpoint(path)
        seeded, seedless = DetSegModel(SMALL, seed=0), DetSegModel(SMALL, seed=None)
        seeded.load_state(tensors)
        seedless.load_state(tensors)
        assert list(seedless.state_tensors()) == list(seeded.state_tensors())
        x = np.random.default_rng(7).random((1, 3, 16, 16))
        expected, got = seeded.forward(x), seedless.forward(x)
        for head in expected:
            assert got[head].data.tobytes() == expected[head].data.tobytes(), head

    def test_state_order_is_parameters_then_buffers_in_walk_order(self):
        model = small_model()
        names = [name for name, _ in model.named_params()] + [name for name, _ in model.named_buffers()]
        assert list(model.state_tensors()) == names


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = small_model(seed=7)
        path = os.path.join(tmp_path, "model.nnad")
        save_checkpoint(path, {"seed": 7, "model": {"embedding_dim": 2}}, model.state_tensors())
        config, tensors = load_checkpoint(path)
        assert config == {"seed": 7, "model": {"embedding_dim": 2}}
        other = small_model(seed=8)
        other.load_state(tensors)
        x = np.random.default_rng(9).random((1, 3, 16, 16))
        a = model.forward(x)["seg_logits"].data
        b = other.forward(x)["seg_logits"].data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_written_file_mode_follows_the_umask(self, tmp_path, umask, mode):
        path = os.path.join(tmp_path, "out.bin")
        previous = os.umask(umask)
        try:
            write_atomic(path, b"new")
        finally:
            os.umask(previous)
        assert os.stat(path).st_mode & 0o777 == mode
        assert open(path, "rb").read() == b"new"

    def test_rejects_bad_magic(self, tmp_path):
        path = os.path.join(tmp_path, "bad.nnad")
        with open(path, "wb") as fh:
            fh.write(b"XXXX" + b"\0" * 32)
        with pytest.raises(ValueError, match="bad magic"):
            load_checkpoint(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = os.path.join(tmp_path, "model.nnad")
        save_checkpoint(path, {}, {"w": np.zeros(2)})
        blob = bytearray(open(path, "rb").read())
        blob[4] = 99
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_rejects_truncation(self, tmp_path):
        path = os.path.join(tmp_path, "model.nnad")
        save_checkpoint(path, {}, {"w": np.arange(8, dtype=np.float64)})
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:-6])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = os.path.join(tmp_path, "model.nnad")
        save_checkpoint(path, {}, {"w": np.arange(8, dtype=np.float64)})
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(path)

    def test_rejects_non_finite_tensor_by_name(self, tmp_path):
        path = os.path.join(tmp_path, "model.nnad")
        save_checkpoint(path, {}, {"w": np.zeros(3), "b": np.array([[1.0, np.inf]])})
        with pytest.raises(ValueError, match="tensor 'b' has non-finite values"):
            load_checkpoint(path)

    def test_non_finite_tensors_name_the_first_in_file_order(self, tmp_path):
        path = os.path.join(tmp_path, "model.nnad")
        save_checkpoint(path, {}, {"w": np.zeros(3), "b": np.array([np.nan]), "c": np.array([-np.inf])})
        with pytest.raises(ValueError, match="tensor 'b' has non-finite values"):
            load_checkpoint(path)

    @pytest.mark.parametrize("fault, message", [
        ("truncated", "truncated file"),
        ("trailing", "trailing bytes after the payload"),
    ])
    def test_fault_of_layout_is_reported_before_a_non_finite_tensor(self, tmp_path, fault, message):
        # the finiteness pass runs once the whole file has parsed
        path = os.path.join(tmp_path, "model.nnad")
        save_checkpoint(path, {}, {"b": np.array([np.nan, 1.0]), "w": np.arange(4, dtype=np.float64)})
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:-6] if fault == "truncated" else blob + b"\0")
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}: {message}") + "$"):
            load_checkpoint(path)

    def test_tensors_are_writeable_float64_views_of_one_buffer(self, tmp_path):
        path = os.path.join(tmp_path, "model.nnad")
        saved = small_model(seed=4).state_tensors()
        save_checkpoint(path, {}, saved)
        _, tensors = load_checkpoint(path)

        def owner(arr):
            while isinstance(arr, np.ndarray):
                arr = arr.base
            return arr.obj if isinstance(arr, memoryview) else arr

        assert isinstance(owner(tensors["backbone.0.weight"]), bytearray)
        assert len({id(owner(t)) for t in tensors.values()}) == 1
        for name, tensor in tensors.items():
            assert tensor.dtype == np.float64 and tensor.flags.writeable and not tensor.flags.owndata, name
            assert tensor.shape == saved[name].shape and tensor.tobytes() == saved[name].tobytes(), name
        tensors["backbone.0.weight"][...] = 1.0
        assert np.all(tensors["backbone.0.weight"] == 1.0)
        assert tensors["backbone.0.bias"].tobytes() == saved["backbone.0.bias"].tobytes()

    def test_missing_parameter_rejected(self, tmp_path):
        model = small_model()
        tensors = model.state_tensors()
        tensors.pop(sorted(tensors)[0])
        with pytest.raises(KeyError):
            model.load_state(tensors)

    def test_extra_tensors_ignored(self):
        model = small_model()
        tensors = dict(model.state_tensors())
        tensors["uncertainty.s"] = np.zeros(5)
        model.load_state(tensors)
