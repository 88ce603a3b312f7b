"""Unit tests for the dense-network substrate."""
import json
import math

import numpy as np
import pytest
from gradcheck import check_params
from helpers import (PerParamAdam, every_block_backward,
                     every_block_dense_backward, write_checkpoint_bytes)
from hypothesis import given, settings
from hypothesis import strategies as st

from apil_lab.agent import PersonaAgent
from apil_lab.nncore import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, MLP,
                             AdamState, Dense, DropoutSpec, Embedding,
                             ParamSet, atomic_open,
                             categorical_cdf, draw, init_weight,
                             load_checkpoint,
                             sample_dropout_mask, save_checkpoint, softmax,
                             softmax_nll)
from apil_lab.query import (ASK_CONTINUE, ASK_IGNORE, ASK_QUERY, ErrPredNet,
                            QueryNet, StepRecord, query_imitation_loss)
from apil_lab.teachers import TeacherResponse
from apil_lab.training import write_csv


def test_dense_identity_weights_pass_input_through():
    params = ParamSet()
    layer = Dense(params, "l", 2, 2, "identity", np.random.default_rng(0))
    layer.w.value[...] = np.eye(2)
    layer.b.value[...] = 0.0
    y, _ = layer.forward(np.array([0.3, -1.2]))
    assert np.allclose(y, [0.3, -1.2])


def test_dense_zero_input_returns_bias():
    params = ParamSet()
    layer = Dense(params, "l", 3, 2, "identity", np.random.default_rng(0))
    layer.b.value[...] = [1.0, 2.0]
    y, _ = layer.forward(np.zeros(3))
    assert np.allclose(y, [1.0, 2.0])


def test_dense_rejects_unknown_activation():
    with pytest.raises(ValueError, match="activation"):
        Dense(ParamSet(), "l", 2, 2, "relu", np.random.default_rng(0))


def test_dense_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    params = ParamSet()
    layer = Dense(params, "l", 4, 3, "tanh", rng)
    x = rng.normal(size=4)
    target = 1

    def loss():
        return softmax_nll(layer.forward(x)[0], target)[1]

    def backward():
        y, cache = layer.forward(x)
        layer.backward(cache, softmax_nll(y, target)[2])

    assert check_params(params, backward, loss) < 1e-4


def test_softmax_is_stable_for_huge_logits():
    for logits in ([1e4, 0.0, -1e4], [1000.0, 999.0], [-1e4, -1e4]):
        p = softmax(np.array(logits))
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) <= 1e-9


def test_softmax_of_a_stack_equals_its_rows():
    logits = np.random.default_rng(0).normal(size=(7, 5)) * 10.0
    stacked = softmax(logits)
    assert stacked.shape == (7, 5)
    for row, probs in zip(logits, stacked):
        assert np.array_equal(softmax(row), probs)


def test_categorical_matches_generator_choice():
    """A draw from ``categorical_cdf(p)`` gives the indices of ``rng.choice(
    len(p), size, p=p)`` and leaves the stream where it does, also when one
    kept cdf is drawn from again."""
    rng = np.random.default_rng(0)
    for trial in range(50):
        p = rng.random(int(rng.integers(1, 7)))
        p[rng.random(p.size) < 0.3] = 0.0
        p[0] += 1e-3  # keep one entry positive
        p /= p.sum()
        cdf = categorical_cdf(p)
        for size in (None, 1, 5, 50, (2, 3)):
            ours = np.random.default_rng(trial)
            theirs = np.random.default_rng(trial)
            for _ in range(2):
                got = draw(cdf, ours, size)
                want = theirs.choice(p.size, size=size, p=p)
                assert np.array_equal(got, want)
                assert np.shape(got) == np.shape(want)
            assert ours.random() == theirs.random()


def test_categorical_rejects_what_choice_rejects():
    rng = np.random.default_rng(0)
    for bad in ([np.nan, 1.0], [np.inf, 0.0], [1.5, -0.5], [0.5, 0.4],
                [0.6, 0.6], [], [[0.5, 0.5]]):
        with pytest.raises(ValueError):
            categorical_cdf(np.array(bad))
        with pytest.raises(ValueError):
            rng.choice(2, p=np.array(bad))
    categorical_cdf(np.array([0.5, 0.5 + 1e-9]))  # within sqrt(eps) of 1


def test_categorical_cdf_of_a_stack_equals_its_rows():
    """A stack's cdf rows are the rows' 1-d cdfs bitwise, and each row is
    checked as a 1-d call checks it."""
    rng = np.random.default_rng(1)
    for trial in range(20):
        p = rng.random((int(rng.integers(1, 9)), int(rng.integers(1, 7))))
        p[rng.random(p.shape) < 0.3] = 0.0
        p[:, 0] += 1e-3
        p /= p.sum(axis=1, keepdims=True)
        stacked = categorical_cdf(p, stack=True)
        assert stacked.shape == p.shape
        for row, cdf in zip(p, stacked):
            assert categorical_cdf(row).tobytes() == cdf.tobytes()
    good = [0.25, 0.75]
    for bad, message in (([np.nan, 1.0], "finite"),
                         ([1.5, -0.5], "non-negative"),
                         ([0.5, 0.4], "sum to 1")):
        with pytest.raises(ValueError, match=message):
            categorical_cdf(np.array([good, bad, good]), stack=True)
    for shape in ((2,), (2, 0), (1, 2, 2)):
        with pytest.raises(ValueError, match="stack of non-empty rows"):
            categorical_cdf(np.full(shape, 0.5), stack=True)


@pytest.mark.parametrize("bad,message", [
    ([np.nan, 1.0], "finite"), ([np.nan, np.nan], "finite"),
    ([np.inf, 0.0], "finite"), ([1.5, -0.5], "non-negative"),
    ([0.5, 0.4], "sum to 1"), ([0.6, 0.6], "sum to 1"),
    ([], "non-empty"), ([[0.5, 0.5]], "1-d"),
])
def test_categorical_rejection_messages(bad, message):
    with pytest.raises(ValueError, match=message):
        categorical_cdf(np.array(bad))


def test_softmax_nll_uniform_case():
    probs, loss, dlogits = softmax_nll(np.zeros(2), 0)
    assert np.allclose(probs, [0.5, 0.5])
    assert loss == pytest.approx(math.log(2), abs=1e-15)
    assert np.allclose(dlogits, [-0.5, 0.5])


def test_softmax_nll_saturated_case_no_overflow():
    _, loss, _ = softmax_nll(np.array([1000.0, 0.0]), 0)
    assert 0.0 <= loss < 1e-9


def test_softmax_nll_target_out_of_range():
    with pytest.raises(IndexError):
        softmax_nll(np.zeros(2), 2)


def test_adam_zero_gradients_leave_parameters_unchanged():
    params = ParamSet()
    p = params.add("w", np.array([1.0, -2.0]))
    opt = AdamState(params, lr=0.1)
    opt.step(params)
    assert np.array_equal(p.value, [1.0, -2.0])


def test_adam_first_step_is_bias_corrected():
    params = ParamSet()
    p = params.add("w", np.array([0.0]))
    opt = AdamState(params, lr=0.1)
    p.grad[...] = 1.0
    opt.step(params)
    assert p.value[0] == pytest.approx(-0.1, abs=1e-6)
    assert np.array_equal(p.grad, [0.0])


def test_adam_descends_a_quadratic():
    params = ParamSet()
    p = params.add("w", np.array([1.0]))
    opt = AdamState(params, lr=0.1)
    losses = []
    for _ in range(10):
        losses.append(float(p.value[0] ** 2))
        p.grad[...] = 2.0 * p.value
        opt.step(params)
    losses.append(float(p.value[0] ** 2))
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_adam_names_parameter_with_nonfinite_gradient():
    params = ParamSet()
    params.add("ok", np.zeros(2))
    bad = params.add("broken.W", np.zeros(2))
    bad.grad[...] = np.nan
    with pytest.raises(FloatingPointError, match="broken.W"):
        AdamState(params).step(params)


def _three_params():
    params = ParamSet()
    for name in ("a", "b", "c"):
        params.add(name, np.ones(2))
        params[name].grad[...] = 0.5
    return params


@pytest.mark.parametrize("bad", [
    {"b": [np.nan]}, {"a": [np.inf]}, {"c": [-np.inf]},
    {"a": [np.inf], "b": [-np.inf]},  # a pair whose sum is NaN
    {"b": [np.inf, -np.inf]},
], ids=["nan", "+inf", "-inf", "inf-pair", "inf-pair-in-one"])
def test_adam_refuses_a_nonfinite_gradient_as_the_loop_does(bad):
    """The one-sum check raises on every non-finite gradient with the
    per-parameter loop's message, naming the first bad parameter, and
    leaves the values and the step count alone."""
    params = _three_params()
    for name, values in bad.items():
        params[name].grad[:len(values)] = values
    opt = AdamState(params)
    with pytest.raises(FloatingPointError) as got:
        opt.step(params)
    with pytest.raises(FloatingPointError) as want:
        PerParamAdam(params).step(params)
    assert str(got.value) == str(want.value)
    assert opt.t == 0 and np.array_equal(params.values, np.ones(6))


def test_adam_steps_finite_gradients_whose_sum_overflows():
    """Finite gradients whose float sum (and sum of squares) is inf are
    stepped, not refused, bit for bit as the per-parameter loop steps
    them."""
    fused, looped = _three_params(), _three_params()
    for params in (fused, looped):
        params["a"].grad[...] = [1e308, 1e308]
        params["b"].grad[...] = [-2.0, 1e308]
    opt, oracle = AdamState(fused, lr=0.01), PerParamAdam(looped, lr=0.01)
    with np.errstate(over="ignore"):  # the sums and g * g overflow to inf
        assert fused.grads.sum() == fused.grads @ fused.grads == np.inf
        opt.step(fused)
        oracle.step(looped)
    assert opt.t == 1 and not np.any(fused.grads)
    assert fused.values.tobytes() == np.concatenate(
        [p.value.ravel() for p in looped]).tobytes()
    assert not np.array_equal(fused.values, np.ones(6))


def test_flat_adam_step_equals_the_per_parameter_loop():
    """Several steps of the fused step over the flat buffers give the
    parameters and moments of the per-parameter loop, bit for bit, on an MLP
    whose embedding table gets a repeated index."""
    def make():
        return MLP("m", 6, 5, 3, np.random.default_rng(4), lr=0.01,
                   embed=("e", 4, 2))
    fused, looped = make(), make()
    oracle = PerParamAdam(looped.params, lr=0.01)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.normal(size=(4, 6))
        index = np.array([1, 3, 1, 1])
        target = rng.integers(3, size=4)
        for net in (fused, looped):
            logits, cache = net.forward(x, index)
            net.backward(cache, softmax_nll(logits, target)[2])
        fused.update()
        oracle.step(looped.params)
        for a, b in zip(fused.params, looped.params):
            assert np.array_equal(a.value, b.value), a.name
            assert not np.any(a.grad) and not np.any(b.grad)
        m = np.concatenate([oracle.m[p.name].ravel() for p in looped.params])
        v = np.concatenate([oracle.v[p.name].ravel() for p in looped.params])
        assert np.array_equal(fused.opt._m, m)
        assert np.array_equal(fused.opt._v, v)
    assert fused.opt.t == oracle.t == 5


def test_paramset_views_share_one_buffer():
    params = ParamSet()
    a = params.add("a", np.arange(6.0).reshape(2, 3))
    b = params.add("b", np.array([7.0, 8.0]))
    assert params.values.shape == params.grads.shape == (8,)
    assert np.array_equal(params.values, [0, 1, 2, 3, 4, 5, 7, 8])
    for p in (a, b):  # the views are re-bound as parameters are added
        assert np.shares_memory(p.value, params.values)
        assert np.shares_memory(p.grad, params.grads)
    assert a.value.shape == a.grad.shape == (2, 3)
    params.load_arrays({"a": np.full((2, 3), -1.0), "b": np.zeros(2)})
    assert np.array_equal(params.values, [-1] * 6 + [0, 0])
    b.grad[...] = 3.0
    assert np.array_equal(params.grads, [0] * 6 + [3, 3])
    params.grads.fill(0.0)
    assert not np.any(b.grad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_paramset_refuses_a_nonfinite_load(value):
    params = ParamSet()
    params.add("a", np.zeros(2))
    params.add("b.W", np.zeros((2, 2)))
    bad = np.ones((2, 2))
    bad[1, 0] = value
    with pytest.raises(ValueError, match=r"non-finite value in 'b.W'"):
        params.load_arrays({"a": np.ones(2), "b.W": bad})
    assert not np.any(params["b.W"].value)


def test_paramset_rejects_duplicates_and_bad_loads():
    params = ParamSet()
    params.add("w", np.zeros(2))
    with pytest.raises(ValueError, match="duplicate"):
        params.add("w", np.zeros(2))
    with pytest.raises(ValueError, match="'w'"):
        params.load_arrays({})
    with pytest.raises(ValueError, match="shape"):
        params.load_arrays({"w": np.zeros(3)})


def test_init_weight_shape_and_bound():
    w = init_weight(np.random.default_rng(0), 16, 8)
    assert w.shape == (8, 16)
    assert np.all(np.abs(w) <= 0.25)


def test_embedding_lookup_and_row_sparse_gradient():
    params = ParamSet()
    table = Embedding(params, "emb", 3, 2, np.random.default_rng(0))
    table.table.value[0] = [0.1, 0.2]
    assert np.allclose(table.forward(0), [0.1, 0.2])
    table.backward(1, np.array([1.0, 1.0]))
    assert np.array_equal(table.table.grad[0], [0.0, 0.0])
    assert np.array_equal(table.table.grad[2], [0.0, 0.0])
    assert np.array_equal(table.table.grad[1], [1.0, 1.0])
    with pytest.raises(IndexError):
        table.forward(3)
    with pytest.raises(IndexError):
        table.forward(-1)


def test_repeated_index_rows_accumulate_every_gradient():
    """Two rows of one identity give twice the one-row gradient: a repeated
    index must not drop a row's contribution."""
    net = MLP("m", 3, 4, 2, np.random.default_rng(0), embed=("e", 3, 2))
    x = np.array([0.3, -0.2, 0.5])
    dy = np.array([0.7, -0.4])
    _, cache = net.forward(x, 1)
    net.backward(cache, dy)
    once = {p.name: p.grad.copy() for p in net.params}
    net.params.grads.fill(0.0)
    _, cache = net.forward(np.stack([x, x]), np.array([1, 1]))
    net.backward(cache, np.stack([dy, dy]))
    for p in net.params:
        assert np.allclose(p.grad, 2.0 * once[p.name], rtol=1e-14, atol=0.0)
    assert np.any(net.params["m.e"].grad[1] != 0.0)


def test_one_row_and_a_stack_of_rows_share_one_path():
    rng = np.random.default_rng(1)
    net = MLP("m", 3, 4, 2, rng, embed=("e", 3, 2))
    xs = rng.normal(size=(5, 3))
    index = np.array([0, 2, 2, 1, 0])
    stacked, _ = net.forward(xs, index)
    assert stacked.shape == (5, 2)
    for x, k, y in zip(xs, index, stacked):
        assert np.allclose(net.forward(x, k)[0], y, rtol=0.0, atol=1e-14)
    # one row under several embedding rows: the row is shared, not copied
    shared, _ = net.forward(xs[0], index)
    for k, y in zip(index, shared):
        assert np.allclose(net.forward(xs[0], k)[0], y, rtol=0.0, atol=1e-14)
    probs, loss, dlogits = softmax_nll(stacked, index % 2)
    assert loss.shape == (5,)
    for row, target, p, l, d in zip(stacked, index % 2, probs, loss, dlogits):
        want = softmax_nll(row, int(target))
        assert np.allclose(want[0], p, rtol=0.0, atol=1e-15)
        assert abs(want[1] - l) <= 1e-15
        assert np.allclose(want[2], d, rtol=0.0, atol=1e-15)
    with pytest.raises(IndexError):
        softmax_nll(stacked, np.array([0, 1, 2, 0, 1]))
    with pytest.raises(IndexError):
        softmax_nll(stacked, np.array([0, 1, -1, 0, 1]))
    with pytest.raises(IndexError):
        net.forward(xs, np.array([0, 1, -1, 0, 1]))


def test_mlp_layout_embedding_gradient_and_update():
    net = MLP("m", 3, 4, 2, np.random.default_rng(0), lr=0.1,
              embed=("e", 5, 2))
    # checkpoints and the random stream depend on this order
    assert [p.name for p in net.params] == ["m.hidden.W", "m.hidden.b", "m.out.W",
                                  "m.out.b", "m.e"]
    assert net.hidden.w.value.shape == (4, 3 + 2)
    net.update()  # nothing accumulated: no Adam step
    assert net.opt.t == 0
    y, cache = net.forward(np.ones(3), 1)
    assert y.shape == (2,)
    net.backward(cache, np.ones(2))
    grad = net.params["m.e"].grad
    assert np.any(grad[1] != 0.0)
    assert np.array_equal(grad[[0, 2, 3, 4]], np.zeros((4, 2)))
    assert net.pending == 1
    net.update()
    assert (net.pending, net.opt.t) == (0, 1)
    assert not np.any(grad)  # the step zeroes the accumulators


def test_dense_backward_returns_the_block_asked_for():
    """d(input) of the one block asked for, by number or from the last,
    with the bits of an every-block backward; none when none is asked."""
    rng = np.random.default_rng(2)
    layer = Dense(ParamSet(), "l", 7, 4, "tanh", rng)
    blocks = (rng.normal(size=(3, 2)), rng.normal(size=(3, 5)))
    _, cache = layer.forward(*blocks)
    dy = rng.normal(size=(3, 4))
    want = [dx.tobytes()
            for dx in every_block_dense_backward(layer, cache, dy)]
    assert layer.backward(cache, dy) is None
    for block, index in ((0, 0), (1, 1), (-1, 1), (-2, 0)):
        assert layer.backward(cache, dy, block).tobytes() == want[index]


def _fresh_views_forward(layer, *blocks):
    """``Dense.forward``'s output with W's columns cut afresh."""
    z, start = layer.b.value, 0
    for x in blocks:
        z = z + x @ layer.w.value[:, start:start + x.shape[-1]].T
        start += x.shape[-1]
    return np.tanh(z)


def test_dense_reads_the_current_weights():
    """The block views a layer keeps see a load, an Adam step, the buffer a
    later ``ParamSet.add`` rebinds W to, and every block split: each forward
    has the bits of one with views cut afresh, and a backward of an earlier
    split's cache adds that split's gradient."""
    rng = np.random.default_rng(8)
    params = ParamSet()
    layer = Dense(params, "l", 5, 3, "tanh", rng)
    x = rng.normal(size=(2, 5))
    # each check starts with the split the last one ended with, so only
    # the array-identity test can see that W moved to another buffer
    splits = [(x[:, :2], x[:, 2:]), (x,), (x[:, :4], x[:, 4:]), (x[0],)]
    dy = rng.normal(size=(2, 3))

    def check():
        for blocks in splits:
            y, _ = layer.forward(*blocks)
            want = _fresh_views_forward(layer, *blocks)
            assert y.tobytes() == want.tobytes()
        y, cache = layer.forward(*splits[0])
        layer.forward(*splits[2])  # the views are cut at other widths
        layer.backward(cache, dy)
        dz = dy * (1.0 - y * y)
        want = np.concatenate([dz.T @ block for block in splits[0]], axis=1)
        assert params.grads[:15].tobytes() == want.tobytes()  # W's
        params.grads.fill(0.0)

    check()
    params.load_arrays({"l.W": rng.normal(size=(3, 5)),
                        "l.b": rng.normal(size=3)})
    check()
    layer.backward(layer.forward(*splits[0])[1], dy)
    AdamState(params).step(params)
    check()
    params.add("later", np.zeros(4))  # W and its gradient move buffers
    params.load_arrays({"l.W": rng.normal(size=(3, 5)),
                        "l.b": rng.normal(size=3), "later": np.ones(4)})
    check()


@pytest.mark.parametrize("rows", [1, 6])
def test_gradients_equal_an_every_block_backward(monkeypatch, rows):
    """The agent's losses, the ask-imitation loss and ErrPred's loss leave
    every parameter gradient bitwise where ``helpers.every_block_backward``,
    which computes d(input) of every block, leaves it."""
    def gradients():
        rng = np.random.default_rng(rows)
        agent = PersonaAgent(5, 3, 2, rng, hidden=8, persona_dim=4)
        ask = QueryNet(5, 3, horizon=4, rng=rng, hidden=7)
        errpred = ErrPredNet(5, 3, rng, hidden=6)
        head = errpred.mlp.out.w.value  # off its zero start, so the hidden
        head[...] = rng.normal(size=head.shape)  # layer gets a gradient
        features = rng.normal(size=(rows, 5))
        means = softmax(rng.normal(size=(rows, 3)))
        agent.exe_losses(features, [
            TeacherResponse(int(a), int(k), 1.0)
            for a, k in zip(rng.integers(3, size=rows),
                            rng.integers(2, size=rows))])
        labels = [ASK_QUERY, *rng.choice([ASK_CONTINUE, ASK_QUERY, ASK_IGNORE],
                                         size=rows - 1)]
        query_imitation_loss(ask, [
            StepRecord(features=x, exe_action=0, ask_action=0, mean_policy=m,
                       remaining=int(left))
            for x, m, left in zip(features, means,
                                  rng.integers(1, 5, size=rows))], labels)
        errpred.accumulate_sq_loss(features, means, rng.random(rows))
        nets = (agent.exe_net, agent.id_net, ask.mlp, errpred.mlp)
        for net in nets:
            assert np.any(net.params.grads != 0.0)
            assert np.any(net.hidden.w.grad != 0.0)
        return {p.name: p.grad.tobytes() for net in nets for p in net.params}

    ours = gradients()
    monkeypatch.setattr(MLP, "backward", every_block_backward)
    assert gradients() == ours


def test_dropout_rate_zero_is_the_identity_mask():
    spec = DropoutSpec(0.0)
    a = sample_dropout_mask(spec, 8, np.random.default_rng(1))
    b = sample_dropout_mask(spec, 8, np.random.default_rng(2))
    assert np.array_equal(a, np.ones(8))
    assert np.array_equal(a, b)


def test_dropout_mask_statistics_and_determinism():
    spec = DropoutSpec(0.2)
    mask = sample_dropout_mask(spec, 10_000, np.random.default_rng(0))
    assert set(np.unique(mask)) <= {0.0, 1.25}
    assert 0.98 <= mask.mean() <= 1.02
    again = sample_dropout_mask(spec, 10_000, np.random.default_rng(0))
    assert np.array_equal(mask, again)


def test_dropout_invalid_rate_rejected():
    for rate in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            DropoutSpec(rate)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {"a.W": rng.normal(size=(3, 4)), "a.b": rng.normal(size=5),
              "scalar": np.float64(1.5)}
    path = tmp_path / "ck.npz"
    save_checkpoint(path, arrays)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(arrays)
    for name, value in arrays.items():
        assert np.array_equal(loaded[name], np.asarray(value))


class _Unwritable:
    """A value whose text form raises part way through a write."""

    def __str__(self):
        raise RuntimeError("unwritable value")


@pytest.mark.parametrize("writer", ["csv", "checkpoint", "manifest json"])
def test_a_write_that_raises_leaves_the_old_file(writer, tmp_path):
    """A CSV, a checkpoint or a JSON document (as the sweep's manifest) that
    fails after its first bytes leaves the old file and no temporary file."""
    path = tmp_path / "out"
    path.write_bytes(b"old bytes")
    with pytest.raises((RuntimeError, TypeError, ValueError)):
        if writer == "csv":
            write_csv(path, ["a"], [{"a": 1.0}, {"a": _Unwritable()}])
        elif writer == "checkpoint":
            save_checkpoint(path, {"w": np.zeros(3), "bad": np.array(["x"])})
        else:
            with atomic_open(path) as fh:
                json.dump({"ok": 1, "bad": _Unwritable()}, fh)
    assert path.read_bytes() == b"old bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    write_csv(path, ["a"], [{"a": 1.0}])
    assert path.read_text() == "a\n1.0\n"


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"NOTACKPTxxxxxxxxxxxx")
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "v"
    for version in (CHECKPOINT_VERSION - 1, CHECKPOINT_VERSION + 1):
        write_checkpoint_bytes(path, CHECKPOINT_MAGIC
                               + version.to_bytes(4, "little")
                               + (2).to_bytes(4, "little") + b"{}")
        with pytest.raises(ValueError, match=f"version {version}"):
            load_checkpoint(path)


def test_checkpoint_rejects_truncated_payload(tmp_path):
    """A file whose CRC holds but whose header names more values than its
    body has."""
    path = tmp_path / "ck"
    save_checkpoint(path, {"w": np.zeros(4)})
    write_checkpoint_bytes(path, path.read_bytes()[:-4 - 8])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_flipped_bit_or_a_cut_checkpoint_is_refused(tmp_path_factory, data):
    """Any one flipped bit, or any cut, of a checkpoint raises ValueError:
    no corrupt file loads as arrays."""
    path = tmp_path_factory.getbasetemp() / "flipped.ckpt"
    save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3),
                           "b": np.array([0.5, -1.5])})
    blob = bytearray(path.read_bytes())
    if data.draw(st.booleans(), label="flip"):
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
        blob[bit // 8] ^= 1 << (bit % 8)
    else:
        del blob[data.draw(st.integers(0, len(blob) - 1), label="cut"):]
    path.write_bytes(blob)
    with pytest.raises(ValueError):
        load_checkpoint(path)
