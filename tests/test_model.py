import dataclasses
import errno
import hashlib
import io
import os
import re
import struct
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import forward_bag, init_checkpoint_out_of_place, pooled_logit_with_grad
from vlaad import model
from vlaad.errors import DimensionMismatchError, ValidationError
from vlaad.mil import Bag, lse_pool
from vlaad.model import (ModelCheckpoint, Workspace, adapter_forward, bag_logits,
                         forward_rows, init_checkpoint, load_checkpoint,
                         param_blocks, param_layout, param_views, save_checkpoint)


def tiny_adapter(rng, dim=6, hidden=4, scale=0.1):
    """A checkpoint with every parameter drawn at random."""
    size = param_layout(dim, hidden)[-1].stop
    return ModelCheckpoint(scale * rng.standard_normal(size), dim=dim,
                           hidden=hidden, gamma=10.0, seed=0)


def adapt(e, ckpt):
    """The adapted embedding of one vector, through the shared row forward."""
    return adapter_forward(np.asarray(e, dtype=np.float64)[None, :], ckpt,
                           Workspace())[1][0]


def identity_adapter(w, b):
    """Zero first layer and adapter biases: the adapter is the identity, so
    the logit is the detector alone."""
    ckpt = init_checkpoint(dim=len(w), hidden=4, seed=0, zero_first_layer=True)
    ckpt.w, ckpt.b = w, b
    return ckpt


def detect_logit(e, ckpt):
    return float(forward_rows(np.asarray(e, dtype=np.float64)[None, :], ckpt,
                              Workspace())[2][0])


def make_bag(rng, t=3, dim=6):
    return Bag("bag0", rng.standard_normal((t, dim)).astype(np.float32),
               np.arange(t, dtype=np.float64), 1)


class TestAdapt:
    def test_zero_mlp_is_identity(self, rng):
        params = init_checkpoint(dim=6, hidden=4, seed=0, zero_first_layer=True)
        params.w2 = 0.3 * rng.standard_normal((4, 6))
        e = rng.standard_normal(6)
        np.testing.assert_array_equal(adapt(e, params), e)

    def test_matches_standalone_forward(self, rng):
        """Independent matrix-arithmetic recomputation of the residual MLP."""
        params = tiny_adapter(rng)
        e = rng.standard_normal(6)
        expected = e + np.tanh(e @ params.w1 + params.b1) @ params.w2 + params.b2
        np.testing.assert_allclose(adapt(e, params), expected, atol=1e-6)

    def test_deterministic(self, rng):
        params = tiny_adapter(rng)
        e = rng.standard_normal(6)
        assert np.array_equal(adapt(e, params), adapt(e, params))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            forward_rows(rng.standard_normal((1, 5)), tiny_adapter(rng), Workspace())


class TestDetectLogit:
    def test_zero_map(self):
        params = identity_adapter(np.zeros(6), 0.0)
        assert detect_logit(np.ones(6), params) == 0.0

    def test_constructed_inner_product(self, rng):
        e = rng.standard_normal(6)
        params = identity_adapter(e / float(e @ e), 0.0)
        assert detect_logit(e, params) == pytest.approx(1.0, abs=1e-12)

    def test_dot_product_oracle(self, rng):
        e = rng.standard_normal(6)
        w = rng.standard_normal(6)
        b = float(rng.standard_normal())
        expected = float(np.dot(w, e) + b)  # standalone recomputation
        assert detect_logit(e, identity_adapter(w, b)) == pytest.approx(
            expected, abs=1e-6)

    def test_non_finite_params_rejected(self, tmp_path):
        ckpt = init_checkpoint(dim=6, hidden=4, seed=0)
        ckpt.w = np.array([0.0, np.inf, 0.0, 0.0, 0.0, 0.0])
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        # w starts after w1, b1, w2, b2: 36 + 4 * (24 + 4 + 24 + 6 + 1)
        with pytest.raises(ValidationError, match="tensor w has a non-finite "
                           "value at byte 272$"):
            load_checkpoint(path)


class TestForwardBag:
    def test_single_snippet_identity(self, rng, small_ckpt):
        bag = Bag("b", rng.standard_normal((1, 16)).astype(np.float32),
                  np.array([0.0]), 0)
        trace = forward_bag(bag, small_ckpt)
        assert trace.pooled == pytest.approx(float(trace.logits[0]), abs=1e-12)

    def test_constant_bag(self, rng, small_ckpt):
        row = rng.standard_normal(16).astype(np.float32)
        bag = Bag("b", np.tile(row, (4, 1)), np.arange(4.0), 0)
        trace = forward_bag(bag, small_ckpt)
        assert np.ptp(trace.logits) == 0.0
        assert trace.pooled == pytest.approx(float(trace.logits[0]), abs=1e-12)

    def test_composed_oracle(self, rng):
        """adapt + detect + pooling recomposed independently, to 1e-6."""
        ckpt = init_checkpoint(dim=6, hidden=4, gamma=10.0, seed=5,
                               zero_first_layer=False)
        bag = make_bag(rng)
        trace = forward_bag(bag, ckpt)
        logits = []
        for row in bag.snippets.astype(np.float64):
            a = (row + np.tanh(row @ ckpt.w1 + ckpt.b1) @ ckpt.w2 + ckpt.b2)
            logits.append(float(a @ ckpt.w + ckpt.b))
        np.testing.assert_allclose(trace.logits, logits, atol=1e-6)
        expected_pool = (np.log(np.sum(np.exp(10.0 * np.array(logits))))
                         - np.log(3.0)) / 10.0
        assert trace.pooled == pytest.approx(expected_pool, abs=1e-6)
        assert trace.prob == pytest.approx(
            1.0 / (1.0 + np.exp(-trace.pooled)), abs=1e-12)

    def test_permutation_shares_parameters(self, rng, small_ckpt):
        snips = rng.standard_normal((5, 16)).astype(np.float32)
        perm = rng.permutation(5)
        a = forward_bag(Bag("a", snips, np.arange(5.0), 0), small_ckpt)
        b = forward_bag(Bag("b", snips[perm], np.arange(5.0), 0), small_ckpt)
        np.testing.assert_allclose(b.logits, a.logits[perm], atol=1e-12)
        assert b.pooled == pytest.approx(a.pooled, abs=1e-12)

    def test_residual_init_equals_detector_on_raw(self, rng):
        ckpt = init_checkpoint(dim=6, hidden=4, seed=0, zero_first_layer=True)
        bag = make_bag(rng)
        expected = bag.snippets.astype(np.float64) @ ckpt.w
        np.testing.assert_allclose(bag_logits(bag, ckpt), expected, atol=1e-12)


class TestPooledLogitGradient:
    def test_matches_finite_differences(self, rng):
        """Analytic bag-logit gradient vs central differences, 64-bit."""
        ckpt = init_checkpoint(dim=6, hidden=4, gamma=10.0, seed=9,
                               zero_first_layer=False)
        bag = make_bag(rng, t=4)
        _, grad = pooled_logit_with_grad(bag, ckpt)
        # every head parameter; s_sim and s_cls do not reach the bag logit
        flat_grad = grad[:-2]
        vec = ckpt.theta[:-2]

        def pooled_of(v):
            full = np.concatenate([v, [ckpt.s_sim, ckpt.s_cls]])
            return lse_pool(bag_logits(bag, dataclasses.replace(ckpt, theta=full)),
                            ckpt.gamma)

        step = 1e-5
        worst = 0.0
        check = np.random.default_rng(0).choice(
            vec.size, min(80, vec.size), replace=False)
        for idx in check:
            up, down = vec.copy(), vec.copy()
            up[idx] += step
            down[idx] -= step
            fd = (pooled_of(up) - pooled_of(down)) / (2 * step)
            denom = max(abs(fd), abs(flat_grad[idx]), 1e-8)
            worst = max(worst, abs(fd - flat_grad[idx]) / denom)
        assert worst <= 1e-4


class TestCheckpointIO:
    def test_round_trip(self, tmp_path, rng):
        ckpt = init_checkpoint(dim=6, hidden=4, gamma=7.5, seed=42,
                               zero_first_layer=False)
        ckpt.epoch = 13
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert (loaded.dim, loaded.hidden) == (6, 4)
        assert loaded.gamma == 7.5
        assert loaded.seed == 42
        assert loaded.epoch == 13
        # float32 storage: round-trip equals the f32-rounded parameters
        np.testing.assert_array_equal(loaded.w2, ckpt.w2.astype(np.float32))
        np.testing.assert_array_equal(loaded.w, ckpt.w.astype(np.float32))

    def test_golden_bytes(self, tmp_path):
        """The VLAD v1 bytes of a fixed checkpoint, and load -> save keeps them."""
        ckpt = init_checkpoint(dim=6, hidden=4, gamma=7.5, seed=42,
                               zero_first_layer=False)
        ckpt.epoch = 13
        path = tmp_path / "model.bin"
        save_checkpoint(path, ckpt)
        data = path.read_bytes()
        # 36-byte header + (2*D*H + H + 2*D + 3) float32 values
        assert len(data) == 36 + 4 * 67
        assert hashlib.sha256(data).hexdigest() == (
            "7b50a3959c2f69a35ce258eefdf3eab80bfb7851d048a699d1789cdb6866cc0f")
        again = tmp_path / "again.bin"
        save_checkpoint(again, load_checkpoint(path))
        assert again.read_bytes() == data

    def test_failed_save_leaves_previous_file(self, tmp_path):
        """A write that raises after the header leaves the previous
        checkpoint byte for byte, and no temporary file."""
        writes = []

        class FullDisk(io.FileIO):
            def write(self, data):
                writes.append(bytes(data))
                if len(writes) > 1:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

        good = init_checkpoint(dim=6, hidden=4, gamma=7.5, seed=42,
                               zero_first_layer=False)
        path = tmp_path / "model.bin"
        save_checkpoint(path, good)
        before = path.read_bytes()
        good.epoch = 1
        with mock.patch.object(model, "open", create=True, new=FullDisk):
            with pytest.raises(OSError, match="No space left"):
                save_checkpoint(path, good)
        assert writes[0] == before[:36 - 4] + (1).to_bytes(4, "little")
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.bin"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(ValidationError):
            load_checkpoint(path)

    def test_param_views_names_the_size_it_needs(self):
        """D=2, H=1: w1 2, b1 1, w2 2, b2 2, w 2, b, s_sim and s_cls 1 each."""
        with pytest.raises(DimensionMismatchError,
                           match=r"^parameter vector has shape \(11,\), D=2, H=1 "
                                 r"need \(12,\)$"):
            param_views(np.zeros(11), 2, 1)
        assert param_views(np.zeros(12), 2, 1)["w"].shape == (2,)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 400), st.integers(0, 400))
    def test_param_blocks_walk_theta_once(self, dim, hidden):
        """The runs cover θ in order, each index once; none is longer than
        ``THETA_BLOCK`` or spans two slots."""
        layout = param_layout(dim, hidden)
        at = 0
        for slot, lo, hi in param_blocks(layout):
            assert slot in layout and slot.start <= lo == at < hi <= slot.stop
            assert hi - lo <= model.THETA_BLOCK
            at = hi
        assert at == layout[-1].stop

    @pytest.mark.parametrize("zero_first_layer", [True, False])
    @pytest.mark.parametrize("dim, hidden", [(768, 256), (32, 8), (5, 0)])
    def test_init_equals_its_out_of_place_oracle(self, dim, hidden, zero_first_layer):
        """Drawing each tensor in place into θ gives θ bit for bit."""
        for seed in range(5):
            got = init_checkpoint(dim, hidden, 7.5, seed, zero_first_layer)
            want = init_checkpoint_out_of_place(dim, hidden, 7.5, seed, zero_first_layer)
            assert got.theta.tobytes() == want.theta.tobytes()

    # D = H = 256: θ holds 131,843 values in runs of up to 16,384 that never
    # span two tensors.  w2 (65,792 to 131,328) fills four runs: 82,175 and
    # 82,176 sit either side of its first edge, 131,071 and 131,072 inside
    # its last run.  s_cls is the last run.
    @pytest.mark.parametrize("index, name", [
        (65_792, "w2"), (82_175, "w2"), (82_176, "w2"), (131_071, "w2"),
        (131_072, "w2"), (131_327, "w2"), (131_328, "b2"), (131_842, "s_cls")])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_named_across_blocks(self, tmp_path, index, name, value):
        """A non-finite value in any run is named with its tensor and byte,
        also in a tensor that spans several runs and in the last run."""
        path = tmp_path / "model.bin"
        ckpt = init_checkpoint(dim=256, hidden=256, seed=0)
        assert ckpt.theta.size == 131_843 and model.THETA_BLOCK == 16_384
        save_checkpoint(path, ckpt)
        data = bytearray(path.read_bytes())
        at = 36 + 4 * index
        data[at:at + 4] = struct.pack("<f", value)
        path.write_bytes(data)
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: checkpoint "
                           f"tensor {name} has a non-finite value at byte {at}$"):
            load_checkpoint(path)

    def test_file_cut_while_read(self, tmp_path):
        """A file that ends short of the size its check saw is refused as
        truncated, naming the byte where the read ended."""
        path = tmp_path / "model.bin"
        save_checkpoint(path, init_checkpoint(dim=6, hidden=4, seed=0))
        data = path.read_bytes()
        assert len(data) == 304
        path.write_bytes(data[:-6])
        with mock.patch.object(model.os, "fstat",
                               return_value=types.SimpleNamespace(st_size=304)):
            with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: truncated "
                               "checkpoint: read ended at byte 298 of 304$"):
                load_checkpoint(path)

    def test_dims_header_must_match(self, rng):
        good = init_checkpoint(dim=6, hidden=4, seed=0)
        with pytest.raises(DimensionMismatchError):
            ModelCheckpoint(good.theta, dim=7, hidden=4, gamma=10.0, seed=0)
