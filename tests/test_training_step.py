"""The in-place training step against its out-of-place oracles.

Adapter forward, heads backward, the stacked objective and the Adam step
work in place, yet must do the same float operations in the same order as
the out-of-place bodies in ``oracles``: results are compared bit for bit,
and every array a caller passed in must be unchanged afterwards.  The
layers and the objective run in a fresh ``model.Workspace`` or in one that
an earlier, larger call grew and left dirty; one workspace serves a small,
a larger and a small objective, growing once, and ragged batches at a
``ROW_BLOCK`` edge, objective and forward in turn.  ``tracemalloc`` guards bound
what one objective and one Adam step allocate, in a fresh workspace and in
a written one, and what checkpoint init, save and load allocate beside θ;
a further guard checks that Adam keeps nothing θ-sized but its moments.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (AdamOutOfPlace, adapter_forward_out_of_place,
                     batch_objective_out_of_place, forward_stack_out_of_place,
                     heads_backward_out_of_place)
from vlaad import model
from vlaad.datakit import SynthConfig, generate_synthetic_dataset
from vlaad.embeddings import StubEncoder
from vlaad.model import (Workspace, adapter_forward, heads_backward, init_checkpoint,
                         load_checkpoint, save_checkpoint)
from vlaad.trainer import (AdamState, TrainConfig, TrainExample,
                           batch_objective, forward_stack, prepare_examples,
                           scores_for)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def random_ckpt(seed, dim, hidden, gamma=10.0):
    """A checkpoint with every tensor, the log-variances included, random."""
    ckpt = init_checkpoint(dim=dim, hidden=hidden, gamma=gamma, seed=seed,
                           zero_first_layer=False)
    rng = np.random.default_rng([seed, 3])
    ckpt.theta[:] = rng.standard_normal(ckpt.theta.size) * 0.5
    return ckpt


def snapshot(*arrays):
    return [np.array(a, copy=True) for a in arrays]


def assert_unchanged(arrays, copies):
    for a, c in zip(arrays, copies):
        assert_same_bits(a, c)


# None: a fresh workspace; else the rows that a decoy call, run first in
# the workspace to grow it and leave it written, has beyond the call's own
extra_rows = st.sampled_from([None, 1, 9])


def decoy_examples(batch, extra):
    """``batch`` with other snippets, captions and labels, plus ``extra``
    one-row clips: an objective over more rows than ``batch``'s."""
    return ([TrainExample(ex.clip_id, ex.snippets * 3, -ex.text, 1 - ex.label)
             for ex in batch]
            + [TrainExample(f"x{i}", batch[0].snippets[:1] * 2, batch[0].text, i % 2)
               for i in range(extra)])


@st.composite
def objective_cases(draw):
    mode = draw(st.sampled_from(["mil", "clip"]))
    n = draw(st.integers(1, 7))
    lengths = (draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
               if mode == "mil" else [1] * n)
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return dict(mode=mode, lengths=lengths, labels=labels,
                seed=draw(st.integers(0, 2 ** 32 - 1)),
                dim=draw(st.integers(2, 12)), hidden=draw(st.integers(1, 8)),
                pos_weight=draw(st.floats(0.05, 20.0)),
                gamma=draw(st.floats(0.5, 20.0)),
                row_block=draw(st.sampled_from([1, 4, model.ROW_BLOCK])),
                snippet_dtype=draw(st.sampled_from([np.float32, np.float64])),
                extra=draw(extra_rows))


class TestObjectiveBitForBit:
    @settings(max_examples=200, deadline=None)
    @given(objective_cases())
    def test_equals_out_of_place_objective(self, case):
        dim, seed = case["dim"], case["seed"]
        ckpt = random_ckpt(seed % 1000, dim, case["hidden"], case["gamma"])
        rng = np.random.default_rng(seed)
        batch = [TrainExample(f"e{i}", rng.standard_normal((t, dim)).astype(
                                  case["snippet_dtype"]),
                              rng.standard_normal(dim), y)
                 for i, (t, y) in enumerate(zip(case["lengths"], case["labels"]))]
        unmatched = None
        if case["mode"] == "clip":
            unmatched = list(rng.standard_normal((len(batch), dim)))
        inputs = ([ckpt.theta] + [ex.snippets for ex in batch]
                  + [ex.text for ex in batch] + (unmatched or []))
        copies = snapshot(*inputs)

        with mock.patch.object(model, "ROW_BLOCK", case["row_block"]):
            ws = Workspace()
            if case["extra"] is not None:  # a larger step grows and writes the rows
                decoy = decoy_examples(batch, case["extra"])
                batch_objective(ckpt, decoy, case["mode"], 1.0,
                                unmatched and [ex.text for ex in decoy[::-1]],
                                workspace=ws)
            got, g_got = batch_objective(ckpt, batch, case["mode"],
                                         case["pos_weight"], unmatched, workspace=ws)
        assert_unchanged(inputs, copies)
        want, g_want = batch_objective_out_of_place(
            ckpt, batch, case["mode"], case["pos_weight"], unmatched)
        assert got == want
        assert_same_bits(g_got, g_want)

    @pytest.mark.parametrize("mode", ["mil", "clip"])
    def test_one_workspace_small_large_small(self, mode):
        """One workspace serves a small, a larger and a small objective with
        the bits of a fresh workspace for each; only the larger one grows
        its buffers, and the small one after it reuses them."""
        ckpt = random_ckpt(7, 6, 4)
        rng = np.random.default_rng(7)
        sizes = ([[2, 3, 1], [4, 5, 3, 6, 2], [3, 1]] if mode == "mil"
                 else [[1] * 3, [1] * 8, [1] * 2])
        ws, held = Workspace(), []
        for i, lengths in enumerate(sizes):
            batch = [TrainExample(f"e{i}.{j}", rng.standard_normal((t, 6)),
                                  rng.standard_normal(6), j % 2)
                     for j, t in enumerate(lengths)]
            unmatched = ([ex.text for ex in batch[1:] + batch[:1]]
                         if mode == "clip" else None)
            got, g_got = batch_objective(ckpt, batch, mode, 1.5, unmatched,
                                         workspace=ws)
            held.append(dict(ws._buffers))
            want, g_want = batch_objective(ckpt, batch, mode, 1.5, unmatched,
                                           workspace=Workspace())
            assert got == want
            assert_same_bits(g_got, g_want)
        small, large, again = held
        assert small.keys() == large.keys() == again.keys()
        assert {name for name in large if large[name] is not small[name]} == {
            "b", "h", "g_u", "scratch"} | ({"unmatched"} if mode == "clip" else set())
        assert all(again[name] is large[name] for name in large)


@st.composite
def block_edge_cases(draw):
    """A ragged batch whose rows total one less than, equal to or one more
    than a whole number of ``ROW_BLOCK``s: clips of 1-12 rows (one in clip
    mode), the last cut to fit."""
    mode = draw(st.sampled_from(["mil", "clip"]))
    total = draw(st.integers(1, 3)) * model.ROW_BLOCK + draw(st.sampled_from([-1, 0, 1]))
    lengths = []
    while sum(lengths) < total:
        lengths.append(1 if mode == "clip" else
                       min(draw(st.integers(1, 12)), total - sum(lengths)))
    return dict(mode=mode, lengths=lengths,
                labels=draw(st.lists(st.integers(0, 1), min_size=len(lengths),
                                     max_size=len(lengths))),
                seed=draw(st.integers(0, 2 ** 32 - 1)),
                dim=draw(st.integers(2, 12)), hidden=draw(st.integers(1, 8)),
                snippet_dtype=draw(st.sampled_from([np.float32, np.float64])))


class TestRowBlockEdges:
    @settings(max_examples=60, deadline=None)
    @given(block_edge_cases())
    def test_objective_then_forward_in_one_workspace(self, case):
        """``batch_objective``, then ``forward_stack`` over the rows it left
        in the workspace, then the objective again, each equal the
        out-of-place oracle bit for bit at a ``ROW_BLOCK`` edge."""
        dim, seed, mode = case["dim"], case["seed"], case["mode"]
        ckpt = random_ckpt(seed % 1000, dim, case["hidden"])
        rng = np.random.default_rng(seed)
        batch = [TrainExample(f"e{i}", rng.standard_normal((t, dim)).astype(
                                  case["snippet_dtype"]), rng.standard_normal(dim), y)
                 for i, (t, y) in enumerate(zip(case["lengths"], case["labels"]))]
        unmatched = (list(rng.standard_normal((len(batch), dim)))
                     if mode == "clip" else None)
        want, g_want = batch_objective_out_of_place(ckpt, batch, mode, 1.5, unmatched)
        _, *fw_want = forward_stack_out_of_place(ckpt, batch)
        ws = Workspace()
        for _ in range(2):
            got, g_got = batch_objective(ckpt, batch, mode, 1.5, unmatched, workspace=ws)
            assert got == want
            assert_same_bits(g_got, g_want)
            fw = forward_stack(ckpt, batch, ws)
            assert len(fw) == len(fw_want)
            for g, w in zip(fw, fw_want):
                assert_same_bits(g, w)


class TestLayersBitForBit:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 12),
           st.integers(1, 8), st.sampled_from([np.float32, np.float64]), extra_rows,
           st.sampled_from([None, 0, 5]))
    def test_adapter_forward(self, seed, rows, dim, hidden, dtype, extra, cut):
        """(hidden, adapted) equal the oracle's; the pre-activation becomes
        the hidden rows in place.  With ``cut`` set, the rows come as two
        blocks cut there, stacked into the workspace's ``b`` that the
        adapted rows overwrite."""
        ckpt = random_ckpt(seed % 1000, dim, hidden)
        rng = np.random.default_rng(seed)
        snips = rng.standard_normal((rows, dim)).astype(dtype)
        copies = snapshot(snips, ckpt.theta)
        ws = Workspace()
        if extra is not None:
            adapter_forward(rng.standard_normal((rows + extra, dim)), ckpt, ws)
        if cut is None:
            got = adapter_forward(snips, ckpt, ws)
        else:
            blocks = [snips[:cut], snips[cut:]]
            stacked = np.concatenate(blocks, out=ws.buffer("b", snips.shape),
                                     casting="safe")
            got = adapter_forward(stacked, ckpt, ws, blocks)
        assert_unchanged([snips, ckpt.theta], copies)
        _, *want = adapter_forward_out_of_place(snips, ckpt)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bits(g, w)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 12),
           st.integers(1, 8), st.sampled_from(["default", "scalar", "row", "array"]),
           st.sampled_from([1, 5, model.ROW_BLOCK]), extra_rows, st.integers(0, 12))
    def test_heads_backward(self, seed, rows, dim, hidden, d_kind, row_block,
                            extra, cut):
        """The caller's detector part, out of place, then ``heads_backward``
        (its 1 - h² formed ``row_block`` rows at a time, the rows passed as
        two blocks cut at ``cut``) equals the whole backward written out of
        place."""
        ckpt = random_ckpt(seed % 1000, dim, hidden)
        rng = np.random.default_rng(seed)
        snips = rng.standard_normal((rows, dim))
        _, h, adapted = adapter_forward_out_of_place(snips, ckpt)
        dz = rng.standard_normal(rows)
        d_adapted = {"default": 0.0, "scalar": float(rng.standard_normal()),
                     "row": rng.standard_normal(dim),
                     "array": rng.standard_normal((rows, dim))}[d_kind]
        g_adapted = d_adapted + dz[:, None] * ckpt.w[None, :]
        g_w = adapted.T @ dz
        inputs = [snips, h, ckpt.theta, dz, g_adapted, g_w]
        copies = snapshot(*inputs)
        with mock.patch.object(model, "ROW_BLOCK", row_block):
            ws = Workspace()
            if extra is not None:
                big = rows + extra
                heads_backward([rng.standard_normal((big, dim))],
                               rng.standard_normal((big, hidden)), ckpt,
                               dz=rng.standard_normal(big),
                               g_adapted=rng.standard_normal((big, dim)),
                               g_w=rng.standard_normal(dim), workspace=ws)
            got = heads_backward([snips[:cut], snips[cut:]], h, ckpt, dz=dz,
                                 g_adapted=g_adapted, g_w=g_w, workspace=ws)
        assert_unchanged(inputs, copies)
        assert_same_bits(got, heads_backward_out_of_place(
            snips, h, adapted, ckpt, dz=dz, d_adapted=d_adapted))


class TestAdamBitForBit:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(5, 8),
           st.floats(1e-5, 0.5), st.floats(1e-6, 0.5),
           st.sampled_from([7, model.THETA_BLOCK]))
    def test_consecutive_steps(self, seed, steps, lr, weight_decay, block):
        """θ has 46 entries: a 7-entry block splits the w1, w2 and w slots
        and ends short at each slot's end; the default block holds a slot
        whole."""
        ckpt = random_ckpt(seed % 1000, 5, 3)
        theta_ref = ckpt.theta.copy()
        adam = AdamState(ckpt)
        ref = AdamOutOfPlace(ckpt)
        rng = np.random.default_rng(seed)
        with mock.patch.object(model, "THETA_BLOCK", block):
            for _ in range(steps):
                grad = rng.standard_normal(ckpt.theta.size)
                before = grad.copy()
                adam.step(ckpt.theta, grad, lr, weight_decay)
                ref.step(theta_ref, grad, lr, weight_decay)
                assert_same_bits(grad, before)
                assert_same_bits(ckpt.theta, theta_ref)
                assert_same_bits(adam.m, ref.m)
                assert_same_bits(adam.v, ref.v)


def traced_peak(fn):
    """Bytes ``fn()`` allocates at its peak, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


ACCEPTANCE_ROWS, ACCEPTANCE_DIM, ACCEPTANCE_HIDDEN = 1000, 768, 256
ONE_BLOCK = ACCEPTANCE_ROWS * ACCEPTANCE_DIM * 8  # one (N, D) float64 block
# A fresh workspace grows to 2.25 blocks: one (N, D) block ``b`` (the stacked
# rows, then the adapted rows over them), the (N, H) hidden rows ``h`` and
# their gradient ``g_u``, a 64-row scratch and the θ-sized gradient; clip mode
# adds a 64-row ``unmatched`` block, 2.31.  Per-row vectors bring the measured
# peak to 2.27 (MIL) and 2.34 (clip).
OBJECTIVE_BLOCKS = 2.4


def acceptance_examples(rng, clips, rows):
    return [TrainExample(f"e{i}", rng.standard_normal((rows, ACCEPTANCE_DIM)).astype(
                             np.float32), rng.standard_normal(ACCEPTANCE_DIM), i % 2)
            for i in range(clips)]


def acceptance_ckpt():
    return init_checkpoint(dim=ACCEPTANCE_DIM, hidden=ACCEPTANCE_HIDDEN, seed=0,
                           zero_first_layer=False)


class TestAllocations:
    def test_objective_at_acceptance_shape(self):
        """One objective over N=1000 rows at D=768, H=256, in a fresh
        workspace, peaks at no more than the workspace it grows: no
        caption block, no second (N, D) block, no θ-sized temporary."""
        ckpt = acceptance_ckpt()
        batch = acceptance_examples(np.random.default_rng(0), ACCEPTANCE_ROWS // 5, 5)
        # lazy numpy set-up first
        batch_objective(ckpt, batch, "mil", 1.0, workspace=Workspace())
        peak = traced_peak(lambda: batch_objective(ckpt, batch, "mil", 1.0,
                                                   workspace=Workspace()))
        assert peak / ONE_BLOCK <= OBJECTIVE_BLOCKS

    def test_clip_mode_within_the_mil_bound(self):
        """Clip mode at N=1000 one-row clips forms its unmatched-caption term
        a block of rows at a time, so it peaks within the MIL bound too."""
        ckpt = acceptance_ckpt()
        batch = acceptance_examples(np.random.default_rng(0), ACCEPTANCE_ROWS, 1)
        unmatched = [ex.text for ex in batch[1:] + batch[:1]]
        batch_objective(ckpt, batch, "clip", 1.0, unmatched, workspace=Workspace())
        peak = traced_peak(lambda: batch_objective(ckpt, batch, "clip", 1.0, unmatched,
                                                   workspace=Workspace()))
        assert peak / ONE_BLOCK <= OBJECTIVE_BLOCKS

    def test_step_in_a_workspace_allocates_little(self):
        """Once the first step has written the workspace, one objective, one
        Adam step and one validation pass (100 clips in chunks of 64)
        allocate less than 0.3 (N, D) block: per-row vectors only."""
        ckpt = acceptance_ckpt()
        rng = np.random.default_rng(0)
        batch = acceptance_examples(rng, ACCEPTANCE_ROWS // 5, 5)
        val = acceptance_examples(rng, 100, 5)
        ws = Workspace()
        adam = AdamState(ckpt)

        def step():
            _, grad = batch_objective(ckpt, batch, "mil", 1.0, None, workspace=ws)
            adam.step(ckpt.theta, grad, 1e-3, 1e-4)
            scores_for(ckpt, val, 64, ws)

        step()
        assert traced_peak(step) / ONE_BLOCK < 0.3

    def test_adam_step_allocates_nothing_theta_sized(self):
        ckpt = init_checkpoint(dim=768, hidden=256, seed=0, zero_first_layer=False)
        grad = np.random.default_rng(0).standard_normal(ckpt.theta.size)
        adam = AdamState(ckpt)
        adam.step(ckpt.theta, grad, 1e-3, 1e-4)
        peak = traced_peak(lambda: adam.step(ckpt.theta, grad, 1e-3, 1e-4))
        assert peak < ckpt.theta.nbytes

    def test_checkpoint_init_save_load_hold_theta_once(self, tmp_path):
        """At D=H=1024 (θ = 16 MB) init and load allocate θ and at most one
        block of ``THETA_BLOCK`` float64 values beside it, and save at most
        that block: no tensor-sized temporary."""
        block = 8 * model.THETA_BLOCK
        path = tmp_path / "model.bin"

        def init():
            return init_checkpoint(dim=1024, hidden=1024, seed=0, zero_first_layer=False)

        ckpt = init()
        save_checkpoint(path, ckpt)  # lazy numpy set-up first
        load_checkpoint(path)
        theta = ckpt.theta.nbytes
        assert theta == 8 * (2 * 1024 * 1024 + 3 * 1024 + 3)
        assert traced_peak(init) <= theta + block
        assert traced_peak(lambda: save_checkpoint(path, ckpt)) <= block
        assert traced_peak(lambda: load_checkpoint(path)) <= theta + block

    def test_adam_holds_only_the_moments_theta_sized(self):
        ckpt = init_checkpoint(dim=768, hidden=256, seed=0)
        adam = AdamState(ckpt)
        adam.step(ckpt.theta, np.ones_like(ckpt.theta), 1e-3, 1e-4)
        held = [name for name, value in vars(adam).items()
                if isinstance(value, np.ndarray) and value.size >= ckpt.theta.size]
        assert held == ["m", "v"]


class CountingTextEncoder(StubEncoder):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.captions = []

    def encode_text(self, caption):
        self.captions.append(caption)
        return super().encode_text(caption)


def test_prepare_examples_encodes_each_caption_once():
    records = generate_synthetic_dataset(SynthConfig(6, 6, feature_dim=4, seed=2))
    distinct = {r.caption for r in records}
    assert len(distinct) < len(records)
    encoder = CountingTextEncoder(dim=16, seed=0)
    config = TrainConfig(embed_dim=16)
    examples = prepare_examples(records, encoder, config)
    assert sorted(encoder.captions) == sorted(distinct)
    plain = StubEncoder(dim=16, seed=0)
    for rec, ex in zip(records, examples):
        want = plain.encode_text(rec.caption).values.astype(np.float64)
        assert_same_bits(ex.text, want)
        assert not ex.text.flags.writeable
