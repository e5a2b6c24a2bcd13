import tracemalloc

import numpy as np
import pytest

from dp2guard.attacks import LabelFlipSpec, label_flip
from dp2guard.client import epoch_gradient, local_gradient, split_and_mask
from dp2guard.data import synth_dataset
from dp2guard.models import Model, sgd_step
from dp2guard.numeric import decode_fixed, encode_fixed, substream

from test_models import reference_grad
from test_numeric import CHI2_CRIT_255, chi_square_uniform_bytes


class TestSplitAndMask:
    def test_shares_reconstruct_exactly(self):
        rng = substream(40, "split")
        for _ in range(50):
            g = rng.uniform(-10, 10, size=64)
            s1, s2 = split_and_mask(g, 16, substream(41, "m", _))
            assert s1.dtype == s2.dtype == np.uint64
            assert np.array_equal(np.add(s1, s2), encode_fixed(g, 16))

    def test_zero_gradient_shares_are_negatives(self):
        s1, s2 = split_and_mask(np.zeros(16), 16, substream(42, "m"))
        assert not np.any(np.add(s1, s2))

    def test_fresh_randomness_same_reconstruction(self):
        g = substream(43, "g").uniform(-5, 5, size=32)
        a1, a2 = split_and_mask(g, 16, substream(44, "m", 0))
        b1, b2 = split_and_mask(g, 16, substream(44, "m", 1))
        assert not np.array_equal(a1, b1)
        assert np.array_equal(np.add(a1, a2), np.add(b1, b2))

    def test_each_share_marginally_uniform(self):
        # The testable shadow of the privacy claim: either share alone looks
        # uniform over the ring, whatever the underlying gradient.
        g = np.full(100_000, 3.14159)
        s1, s2 = split_and_mask(g, 16, substream(45, "m"))
        for share in (s1, s2):
            low = (share & np.uint64(0xFF)).astype(np.int64)
            assert chi_square_uniform_bytes(low) < CHI2_CRIT_255

    def test_draws_one_word_per_entry_and_share_one_is_that_word(self):
        d = 257
        g = substream(47, "g").uniform(-5, 5, size=d)
        rng, reference = substream(47, "m"), substream(47, "m")
        s1, _ = split_and_mask(g, 16, rng)
        assert np.array_equal(s1, reference.bit_generator.random_raw(d))
        # The stream moved exactly d words: its next word is the reference's.
        assert rng.bit_generator.random_raw() == reference.bit_generator.random_raw()

    def test_writes_into_the_given_arrays(self):
        # The round loop hands the words of its two upload payloads: the
        # shares land there, bit for bit the pair returned without `out`.
        g = substream(48, "g").uniform(-5, 5, size=33)
        want = split_and_mask(g, 16, substream(48, "m"))
        out = (np.zeros(33, dtype=np.uint64), np.zeros(33, dtype=np.uint64))
        got = split_and_mask(g, 16, substream(48, "m"), out=out)
        assert got[0] is out[0] and got[1] is out[1]
        assert np.array_equal(out[0], want[0]) and np.array_equal(out[1], want[1])

    def test_masking_into_payload_words_allocates_only_the_draw(self):
        # Clip, scale, rint, range check and cast run in the two output
        # word arrays, share 1's words serving as the float scratch, so a
        # warm call allocates the rng's d-word draw and nothing else.
        d = 100_000
        g = substream(49, "g").uniform(-5, 5, size=d)
        out = (np.empty(d, dtype=np.uint64), np.empty(d, dtype=np.uint64))
        split_and_mask(g, 16, substream(49, "m", 0), out=out)  # warm
        rng = substream(49, "m", 1)
        tracemalloc.start()
        try:
            split_and_mask(g, 16, rng, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * d * 8

    def test_oversized_entries_are_clipped_not_fatal(self):
        g = np.array([2.0**60, -1.0, 1.0])
        s1, s2 = split_and_mask(g, 16, substream(46, "m"))
        back = decode_fixed(np.add(s1, s2), 16)
        assert back[1] == -1.0 and back[2] == 1.0
        assert np.isfinite(back[0])


def _dataset(seed, n=60):
    return synth_dataset(n, 6, 3, 3.0, substream(seed, "data"))


class TestClientRound:
    """The client's part of a round as the loop runs it: local_gradient,
    then split_and_mask."""

    def test_deterministic_given_streams(self):
        data = _dataset(50)
        model = Model("logreg", 6, 3)
        params = model.init_params(substream(50, "init"))

        def shares():
            grad = local_gradient(data, model, params, "epoch", 16, 0.1,
                                  substream(50, "g", 3))
            return split_and_mask(grad, 16, substream(50, "m", 3))

        (a1, a2), (b1, b2) = shares(), shares()
        assert np.array_equal(a1, b1)
        assert np.array_equal(a2, b2)

    def test_reconstruction_matches_plaintext_gradient(self):
        data = _dataset(51)
        model = Model("logreg", 6, 3)
        params = model.init_params(substream(51, "init"))
        grad = local_gradient(data, model, params, "epoch", 16, 0.1,
                              substream(51, "g"))
        s1, s2 = split_and_mask(grad, 16, substream(51, "m"))
        back = decode_fixed(np.add(s1, s2), 16)
        assert np.max(np.abs(back - grad)) <= 2.0**-16

    def test_label_flip_client_matches_poisoned_oracle(self):
        spec = LabelFlipSpec(offset=1, fraction=0.5)
        clean = _dataset(52)
        poisoned_data = label_flip(clean, spec.offset, spec.fraction,
                                   substream(52, "p"))
        model = Model("logreg", 6, 3)
        params = model.init_params(substream(52, "init"))
        got = local_gradient(poisoned_data, model, params, "epoch", 16, 0.1,
                             substream(52, "g"))
        want = epoch_gradient(model, params, poisoned_data, 16, 0.1,
                              substream(52, "g"))
        assert np.array_equal(got, want)


class TestLocalTraining:
    def test_epoch_gradient_matches_manual_sgd(self):
        data = synth_dataset(40, 5, 2, 2.0, substream(54, "d"))
        model = Model("logreg", 5, 2)
        params = substream(54, "w").standard_normal(model.dim) * 0.1
        eta, bs = 0.2, 8
        order = substream(54, "order").permutation(len(data))
        expect = params.copy()
        for lo in range(0, len(order), bs):
            batch = order[lo:lo + bs]
            g = model.grad(expect, data.features[batch], data.labels[batch])
            expect = sgd_step(expect, g, eta)
        got = epoch_gradient(model, params, data, bs, eta, substream(54, "order"))
        assert np.allclose(sgd_step(params, got, eta), expect, atol=1e-12)

    def test_batch_mode_uses_single_minibatch(self):
        data = synth_dataset(40, 5, 2, 2.0, substream(55, "d"))
        model = Model("logreg", 5, 2)
        params = np.zeros(model.dim)
        got = local_gradient(data, model, params, "batch", 8, 0.1,
                             substream(55, "b"))
        batch = substream(55, "b").choice(len(data), size=8, replace=False)
        want = model.grad(params, data.features[batch], data.labels[batch])
        assert np.array_equal(got, want)


@pytest.mark.parametrize("mode", ["epoch", "batch"])
def test_local_gradient_writes_into_the_given_row(mode):
    # The round loop hands each client its row of the (N, d) stack: the
    # gradient lands there, bit for bit the one returned without `out`, and
    # the neighbouring rows stay untouched.
    model = Model("mlp", 12, 4, hidden=9)
    data = synth_dataset(50, 12, 4, 3.0, substream(58, "d"))
    params = model.init_params(substream(58, "w"))
    want = local_gradient(data, model, params, mode, 16, 0.05, substream(58, "o"))
    stack = np.full((3, model.dim), np.nan)
    got = local_gradient(data, model, params, mode, 16, 0.05, substream(58, "o"),
                         out=stack[1])
    assert np.shares_memory(got, stack[1])
    assert np.array_equal(stack[1], want)
    assert np.isnan(stack[[0, 2]]).all()


def reference_epoch_gradient(model, params, dataset, batch_size, eta, rng):
    """The local epoch as first written: a copied working vector, a fresh
    vector per step and the reference gradient."""
    order = rng.permutation(len(dataset))
    current = params.copy()
    for lo in range(0, len(order), batch_size):
        batch = order[lo:lo + batch_size]
        g = reference_grad(model, current, dataset.features[batch], dataset.labels[batch])
        current = current - eta * g
    return (params - current) / eta


@pytest.mark.parametrize("model", [Model("logreg", 12, 4), Model("mlp", 12, 4, hidden=9)],
                         ids=["logreg", "mlp"])
@pytest.mark.parametrize("n,batch_size", [(20, 32), (20, 20), (50, 16), (37, 1)])
def test_epoch_gradient_bit_identical_to_reference(model, n, batch_size):
    # In-place steps and a single forward pass per batch must not move a
    # bit, on one-batch and many-batch epochs alike, and must leave the
    # caller's params untouched.
    data = synth_dataset(n, 12, 4, 3.0, substream(56, "d", n))
    params = model.init_params(substream(56, "w")) + 0.01
    before = params.copy()
    got = epoch_gradient(model, params, data, batch_size, 0.05, substream(56, "o", n))
    want = reference_epoch_gradient(model, params, data, batch_size, 0.05,
                                    substream(56, "o", n))
    assert np.array_equal(got, want)
    assert np.array_equal(params, before)
    assert not np.shares_memory(got, params)


def test_epoch_gradient_allocates_few_parameter_vectors():
    # 50 samples in batches of 32 through an MLP with d = 6,762: the working
    # vector, the gradient of the batch in flight and the batch's feature
    # rows.  Copying params, concatenating gradient blocks and allocating
    # each step afresh measured 4.89 x d * 8 bytes; in-place steps 3.98.
    model = Model("mlp", 200, 10, hidden=32)
    data = synth_dataset(50, 200, 10, 3.0, substream(57, "d"))
    params = model.init_params(substream(57, "w"))
    epoch_gradient(model, params, data, 32, 0.1, substream(57, "o"))  # warm
    tracemalloc.start()
    try:
        epoch_gradient(model, params, data, 32, 0.1, substream(57, "o"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.4 * model.dim * 8
