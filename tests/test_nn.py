"""Neural kernel tests: gradients vs finite differences, Adam, MC dropout, checkpoints."""

from __future__ import annotations

import copy
import json
import math
import pickle
import re

import numpy as np
import pytest

from resnav.errors import ConfigurationError, UsageError
from resnav.nn import Adam, Mlp, load_checkpoint, mc_statistics, polyak_update, save_checkpoint
from resnav.td3 import widened
from tests.conftest import FLOAT32_AGREEMENT, narrowed, param_grad, relative_error


def random_net(rng, sizes=None, output_activation=None, dropout_p=0.0) -> Mlp:
    sizes = sizes or [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 5)))]
    act = output_activation or ("tanh" if rng.random() < 0.5 else "identity")
    net = Mlp(sizes, act, dropout_p, rng=rng)
    # shift biases off zero so ReLU kinks are exercised
    for b in net.biases:
        b += rng.normal(0.0, 0.3, b.shape)
    return net


def per_array(net: Mlp, flat):
    """Split a vector laid out like net.params into its weight and bias arrays."""
    shapes = [a.shape for pair in zip(net.weights, net.biases) for a in pair]
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


def masked_forward(net: Mlp, x, masks):
    """Forward pass with the given dropout masks (None: no dropout)."""
    h = np.atleast_2d(x)
    for i in range(net.n_hidden):
        h = np.maximum(h @ net.weights[i] + net.biases[i], 0.0)
        if masks is not None:
            h = h * masks[i]
    pre = h @ net.weights[-1] + net.biases[-1]
    return np.tanh(pre) if net.output_activation == "tanh" else pre


def loss_and_grads(net: Mlp, x, target, masks):
    """Half squared error against a fixed target, with fixed dropout masks."""
    y = masked_forward(net, x, masks)
    return 0.5 * float(np.sum((y - target) ** 2))


def analytic_grads(net: Mlp, x, target, masks):
    x2 = np.atleast_2d(x)
    trace_y, trace = net.forward_trace(x2, rng=None)
    # re-run with the provided masks by patching the trace path
    if masks is not None:
        # forward_trace with rng=None never applies masks; redo manually
        trace.masks = masks
        h = x2
        trace.inputs = []
        trace.relu_pos = []
        for i in range(net.n_hidden):
            trace.inputs.append(h)
            pre = h @ net.weights[i] + net.biases[i]
            trace.relu_pos.append(pre > 0.0)
            h = np.maximum(pre, 0.0) * masks[i]
        trace.inputs.append(h)
        pre = h @ net.weights[-1] + net.biases[-1]
        trace.output = np.tanh(pre) if net.output_activation == "tanh" else pre
    upstream = trace.output - np.atleast_2d(target)
    return per_array(net, param_grad(net, trace, upstream))


class TestForward:
    def test_identity_single_layer(self):
        net = Mlp([3, 3], "identity", rng=None)
        for w in net.weights:
            w[...] = np.eye(3)
        x = np.array([0.3, -1.2, 4.0])
        assert np.array_equal(net.forward(x), x)

    def test_zero_net_tanh_outputs_zero(self):
        net = Mlp([4, 8, 2], "tanh", rng=None)
        assert np.array_equal(net.forward(np.ones(4)), np.zeros(2))

    def test_tanh_outputs_bounded(self):
        rng = np.random.default_rng(2)
        net = random_net(rng, sizes=[5, 16, 16, 3], output_activation="tanh")
        for w in net.weights:
            w *= 50.0  # force saturation
        y = net.forward(rng.normal(0, 10, 5))
        assert np.all(np.abs(y) <= 1.0)

    def test_off_equals_p_zero(self):
        rng = np.random.default_rng(3)
        net = random_net(rng, sizes=[6, 12, 4], dropout_p=0.0)
        x = rng.normal(0, 1, 6)
        a = net.forward(x)  # rng None: dropout off
        b = net.forward(x, rng=np.random.default_rng(99))  # p = 0, rng irrelevant
        assert np.array_equal(a, b)

    def test_dim_mismatch_rejected(self):
        net = Mlp([4, 2], "identity", rng=None)
        with pytest.raises(UsageError):
            net.forward(np.zeros(5))

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(4)
        net = random_net(rng, sizes=[5, 9, 3])
        xs = rng.normal(0, 1, (7, 5))
        batch = net.forward(xs)
        rows = np.stack([net.forward(x) for x in xs])
        assert np.allclose(batch, rows, atol=1e-15)


class TestGradients:
    def rel_err(self, a, b):
        denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
        return np.abs(a - b).max() / denom

    def finite_diff(self, net, x, target, masks, eps=1e-6):
        p = net.params
        g = np.zeros_like(p)
        for idx in range(p.size):
            orig = p[idx]
            p[idx] = orig + eps
            lo_hi = loss_and_grads(net, x, target, masks)
            p[idx] = orig - eps
            lo_lo = loss_and_grads(net, x, target, masks)
            p[idx] = orig
            g[idx] = (lo_hi - lo_lo) / (2 * eps)
        return per_array(net, g)

    def test_gradcheck_deterministic(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            net = random_net(rng)
            x = rng.normal(0, 1, net.layer_sizes[0])
            target = rng.normal(0, 1, net.layer_sizes[-1])
            got = analytic_grads(net, x, target, None)
            want = self.finite_diff(net, x, target, None)
            for a, b in zip(got, want):
                assert self.rel_err(a, b) < 1e-4

    def test_gradcheck_with_dropout_masks(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            net = random_net(rng, dropout_p=0.4)
            x = rng.normal(0, 1, net.layer_sizes[0])
            target = rng.normal(0, 1, net.layer_sizes[-1])
            masks = net.draw_masks(1, rng)
            if masks is None:  # single-layer nets have no hidden masks
                continue
            got = analytic_grads(net, x, target, masks)
            want = self.finite_diff(net, x, target, masks)
            for a, b in zip(got, want):
                assert self.rel_err(a, b) < 1e-4

    def test_duplicated_example_doubles_gradient(self):
        rng = np.random.default_rng(12)
        net = random_net(rng, sizes=[4, 8, 2])
        x = rng.normal(0, 1, 4)
        t = rng.normal(0, 1, 2)

        def grads_for(batch_x, batch_t):
            y, trace = net.forward_trace(batch_x)
            return per_array(net, param_grad(net, trace, y - batch_t))

        single = grads_for(x[None, :], t[None, :])
        double = grads_for(np.stack([x, x]), np.stack([t, t]))
        for a, b in zip(single, double):
            assert np.allclose(2 * a, b, atol=1e-12)

    def test_input_gradient(self):
        rng = np.random.default_rng(13)
        net = random_net(rng, sizes=[5, 7, 3], output_activation="identity")
        x = rng.normal(0, 1, 5)
        y, trace = net.forward_trace(x[None, :])
        upstream = np.ones_like(y)
        dx = net.backward(trace, upstream)
        eps = 1e-6
        for i in range(5):
            xp = x.copy(); xp[i] += eps
            xm = x.copy(); xm[i] -= eps
            want = (net.forward(xp).sum() - net.forward(xm).sum()) / (2 * eps)
            assert dx[0, i] == pytest.approx(want, abs=1e-6)

    def test_input_only_backward_matches_full(self):
        rng = np.random.default_rng(81)
        net = random_net(rng, sizes=[5, 7, 7, 1], dropout_p=0.3)
        _, trace = net.forward_trace(rng.normal(size=(9, 5)), rng)
        upstream = rng.normal(size=(9, 1))
        dx = net.backward(trace, upstream)  # no out: no parameter gradients
        assert np.array_equal(dx, net.backward(trace, upstream, out=np.empty_like(net.params)))

    def test_parameter_only_backward_matches_full(self):
        rng = np.random.default_rng(82)
        for sizes in ([5, 7, 7, 1], [5, 2]):
            net = random_net(rng, sizes=sizes, dropout_p=0.3)
            _, trace = net.forward_trace(rng.normal(size=(9, 5)), rng)
            upstream = rng.normal(size=(9, sizes[-1]))
            grad = np.empty_like(net.params)
            assert net.backward(trace, upstream, out=grad, input_grad=False) is None
            assert np.array_equal(grad, param_grad(net, trace, upstream))

    def test_traced_relu_masks_are_float_and_match_bool_masks(self):
        rng = np.random.default_rng(84)
        net = random_net(rng, sizes=[5, 7, 7, 2], dropout_p=0.3)
        _, trace = net.forward_trace(rng.normal(size=(9, 5)), rng)
        upstream = rng.normal(size=(9, 2))
        assert all(m.dtype == np.float64 for m in trace.relu_pos)
        want = param_grad(net, trace, upstream), net.backward(trace, upstream)
        trace.relu_pos = [m > 0.0 for m in trace.relu_pos]
        assert param_grad(net, trace, upstream).tobytes() == want[0].tobytes()
        assert net.backward(trace, upstream).tobytes() == want[1].tobytes()

    def test_backward_writes_into_a_given_buffer(self):
        rng = np.random.default_rng(83)
        net = random_net(rng, sizes=[5, 7, 7, 2], dropout_p=0.3)
        _, trace = net.forward_trace(rng.normal(size=(9, 5)), rng)
        upstream = rng.normal(size=(9, 2))
        buf = np.full(net.params.size + 3, np.nan)
        net.backward(trace, upstream, out=buf[1:-2])
        assert np.array_equal(buf[1:-2], param_grad(net, trace, upstream))
        assert np.isnan(buf[0]) and np.isnan(buf[-2:]).all()
        with pytest.raises(UsageError):
            net.backward(trace, upstream, out=buf)


def reference_adam_step(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as a textbook expression, with fresh arrays: the bitwise reference."""
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    p -= lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)


class TestAdam:
    def test_first_step_closed_form(self):
        for g0 in (3.7, -0.2, 1e-4):
            p = np.array([1.0])
            opt = Adam(p, lr=0.01)
            opt.step(p, np.array([g0]))
            want = 1.0 - 0.01 * g0 / (abs(g0) + 1e-8)
            assert abs(p[0] - want) < 1e-10

    def test_quadratic_converges(self):
        p = np.array([1.0])
        opt = Adam(p, lr=0.1)
        for _ in range(200):
            opt.step(p, 2.0 * p)  # d/dw of w^2
        assert abs(p[0]) < 0.01

    def test_momentum_carries_past_zero_gradient(self):
        # after one nonzero gradient, a zero gradient still moves the parameter
        p = np.array([0.0])
        opt = Adam(p, lr=0.1)
        opt.step(p, np.array([1.0]))
        after_one = p[0]
        opt.step(p, np.array([0.0]))
        assert p[0] != after_one

    def test_steps_equal_the_textbook_expression(self):
        rng = np.random.default_rng(70)
        net = Mlp([5, 8, 8, 2], "tanh", rng=rng)
        ref, m, v = net.params.copy(), np.zeros(net.params.size), np.zeros(net.params.size)
        opt = Adam(net.params, lr=1e-2)
        for t in range(1, 6):
            g = rng.normal(size=net.params.shape)
            opt.step(net.params, g)
            reference_adam_step(ref, g, m, v, t, 1e-2)
            assert np.array_equal(net.params, ref)

    def test_one_step_over_adjacent_networks_equals_one_step_each(self):
        rng = np.random.default_rng(71)
        nets = [Mlp([4, 6, 1], "identity", rng=rng) for _ in range(2)]
        joint = np.concatenate([net.params for net in nets])
        ends = np.cumsum([net.params.size for net in nets])[:-1]
        joint_opt = Adam(joint, lr=1e-2)
        opts = [Adam(net.params, lr=1e-2) for net in nets]
        for _ in range(4):
            g = rng.normal(size=joint.shape)
            joint_opt.step(joint, g)
            for net, opt, part in zip(nets, opts, np.split(g, ends)):
                opt.step(net.params, part)
        assert np.array_equal(joint, np.concatenate([net.params for net in nets]))

    def test_shape_mismatch_rejected(self):
        p = np.zeros(3)
        opt = Adam(p, lr=0.1)
        with pytest.raises(UsageError):
            opt.step(p, np.zeros(4))
        with pytest.raises(UsageError):
            opt.step(np.zeros(2), np.zeros(2))


class TestMcStatistics:
    def test_unbiased_single_hidden_linear_output(self):
        # one hidden layer + identity output: inverted dropout is exactly unbiased
        rng = np.random.default_rng(20)
        net = Mlp([4, 32, 2], "identity", dropout_p=0.2, rng=rng)
        for b in net.biases:
            b += rng.normal(0, 0.2, b.shape)
        x = rng.normal(0, 1, 4)
        mean, var = mc_statistics(net, x, 10_000, np.random.default_rng(7))
        off = net.forward(x)
        se = np.sqrt(var / 10_000)
        assert np.all(np.abs(mean - off) <= 3 * se + 1e-12)

    def test_single_unit_bernoulli_variance(self):
        # h fixed positive, p = 0.5: output is 0 or 2wh equally likely
        net = Mlp([1, 1, 1], "identity", dropout_p=0.5, rng=None)
        net.weights[0][...] = 1.0
        net.biases[0][...] = 0.5
        net.weights[1][...] = 0.8
        x = np.array([1.0])
        h = 1.5
        want_var = (0.8 * h) ** 2
        mean, var = mc_statistics(net, x, 100_000, np.random.default_rng(21))
        assert var[0] == pytest.approx(want_var, rel=0.05)
        assert mean[0] == pytest.approx(0.8 * h, rel=0.05)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(22)
        net = Mlp([3, 16, 2], "tanh", dropout_p=0.3, rng=rng)
        x = rng.normal(0, 1, 3)
        a = mc_statistics(net, x, 64, np.random.default_rng(5))
        b = mc_statistics(net, x, 64, np.random.default_rng(5))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_p_zero_short_circuit(self):
        net = Mlp([3, 8, 2], "tanh", dropout_p=0.0, rng=np.random.default_rng(1))
        x = np.zeros(3)
        mean, var = mc_statistics(net, x, 50, np.random.default_rng(2))
        assert np.array_equal(mean, net.forward(x))
        assert np.all(var == 0.0)

    def test_too_few_passes_rejected(self):
        net = Mlp([2, 2], "identity", rng=None)
        with pytest.raises(UsageError):
            mc_statistics(net, np.zeros(2), 1, np.random.default_rng(0))


def tiled_mc_reference(net: Mlp, x, n_passes: int, rng):
    """MC statistics as n_passes tiled rows: one mask draw per layer, full forward, mean/var."""
    keep = 1.0 - net.dropout_p
    masks = [(rng.random((n_passes, w.shape[1])) >= net.dropout_p).astype(np.float64) / keep
             for w in net.weights[:-1]]
    ys = masked_forward(net, np.tile(x, (n_passes, 1)), masks)
    return ys.mean(axis=0), ys.var(axis=0)


def mc_case(rng, k: int):
    """The k-th architecture of the one-pass MC cases, cycling over six kinds."""
    n_in = int(rng.integers(1, 24))
    n_out = int(rng.integers(1, 4))
    a, b, c = (int(n) for n in rng.integers(2, 80, 3))
    sizes = [
        [21, 64, 64, 2],
        [n_in, a, b, n_out],  # unequal widths
        [n_in, 1, n_out],
        [n_in, a, b, c, n_out],
        [n_in, a, 2],  # identity output
        [n_in, n_out],  # no hidden layer
    ][k % 6]
    act = "identity" if k % 6 == 4 else ("tanh" if rng.random() < 0.5 else "identity")
    return random_net(rng, sizes=sizes, output_activation=act, dropout_p=float(rng.uniform(0.05, 0.9)))


class TestMcOnePass:
    def test_bit_equal_to_the_tiled_forward(self):
        rng = np.random.default_rng(50)
        for k in range(240):
            net = mc_case(rng, k)
            x = rng.normal(0, 1, net.layer_sizes[0])
            n_passes = (2, 100)[(k // 6) % 2]
            seed = int(rng.integers(2**32))
            got = mc_statistics(net, x, n_passes, np.random.default_rng(seed))
            want = tiled_mc_reference(net, x, n_passes, np.random.default_rng(seed))
            assert np.array_equal(got[0], want[0]), (k, net.layer_sizes, n_passes)
            assert np.array_equal(got[1], want[1]), (k, net.layer_sizes, n_passes)

    def test_draw_masks_is_the_per_layer_stream(self):
        rng = np.random.default_rng(51)
        for k in range(30):
            net = mc_case(rng, k)
            batch = int(rng.integers(1, 130))
            a, b = np.random.default_rng(k), np.random.default_rng(k)
            got = net.draw_masks(batch, a)
            keep = 1.0 - net.dropout_p
            want = [(b.random((batch, w.shape[1])) >= net.dropout_p).astype(np.float64) / keep
                    for w in net.weights[:-1]]
            if net.n_hidden == 0:
                assert got is None
                continue
            assert len(got) == len(want)
            for g, m in zip(got, want):
                assert g.dtype == np.float64 and np.array_equal(g, m)
            # the same number of draws was consumed
            assert a.random() == b.random()


class TestDropoutPlacement:
    def test_output_layer_never_dropped(self):
        # huge dropout on a single-hidden net: outputs vary, but bias path intact
        rng = np.random.default_rng(30)
        net = Mlp([2, 64, 2], "identity", dropout_p=0.9, rng=rng)
        net.biases[-1][...] = (5.0, -3.0)
        ys = np.stack([net.forward(np.ones(2), rng=rng) for _ in range(50)])
        # if dropout hit the output, some rows would zero out the bias too
        assert np.all(ys[:, 0] != 0.0)
        # mask variance shows up upstream of the bias
        assert ys[:, 0].std() > 0.0

    def test_mask_scale_preserves_expectation(self):
        rng = np.random.default_rng(31)
        net = Mlp([2, 512, 1], "identity", dropout_p=0.2, rng=rng)
        masks = net.draw_masks(10_000, np.random.default_rng(3))
        assert masks[0].mean() == pytest.approx(1.0, abs=0.01)
        vals = np.unique(masks[0])
        assert np.allclose(vals, [0.0, 1.25])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(40)
        net = Mlp([21, 64, 64, 2], "tanh", dropout_p=0.2, rng=rng)
        path = tmp_path / "actor.ckpt"
        save_checkpoint(net, "residual", path)
        loaded, mode = load_checkpoint(path)
        assert mode == "residual"
        assert loaded.layer_sizes == net.layer_sizes
        assert loaded.dropout_p == net.dropout_p
        assert loaded.output_activation == net.output_activation
        assert np.array_equal(net.params, loaded.params)
        # saving again produces identical bytes
        save_checkpoint(loaded, "residual", tmp_path / "again.ckpt")
        assert (tmp_path / "actor.ckpt").read_bytes() == (tmp_path / "again.ckpt").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"not a checkpoint")
        with pytest.raises(ConfigurationError, match="magic"):
            load_checkpoint(p)

    def test_truncated_blob_rejected(self, tmp_path):
        net = Mlp([3, 4, 2], "tanh", rng=np.random.default_rng(1))
        p = tmp_path / "a.ckpt"
        save_checkpoint(net, "residual", p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(ConfigurationError, match="blob"):
            load_checkpoint(p)

    def test_non_integer_layer_size_in_header_rejected(self, tmp_path):
        p = tmp_path / "a.ckpt"
        save_checkpoint(Mlp([4, 3, 2], "tanh", rng=np.random.default_rng(1)), "residual", p)
        raw = p.read_bytes()
        # the blob still fits [4, 3, 2], which a truncating load would build
        p.write_bytes(raw.replace(b'"layer_sizes": [4, 3, 2]', b'"layer_sizes": [4, 3.7, 2]', 1))
        with pytest.raises(ConfigurationError, match=re.escape(f"{p}: header: layer_sizes must be an integer, got 3.7")):
            load_checkpoint(p)

    @pytest.mark.parametrize("key, value", [
        ("dropout_p", "x"), ("dropout_p", None), ("layer_sizes", 5), ("layer_sizes", [4, 3.7, 2]), ("mode", 7),
        ("extra", 1), ("hidden_activation", ...),
    ], ids=["dropout_p=x", "dropout_p=null", "layer_sizes=5", "layer_sizes=3.7", "mode=7", "extra_key", "missing_key"])
    def test_corrupt_header_names_the_file_and_the_field(self, tmp_path, key, value):
        p = tmp_path / "a.ckpt"
        save_checkpoint(Mlp([4, 3, 2], "tanh", rng=np.random.default_rng(1)), "residual", p)
        magic, line, blob = p.read_bytes().split(b"\n", 2)
        header = json.loads(line)
        if value is ...:
            del header[key]
        else:
            header[key] = value
        p.write_bytes(b"\n".join([magic, json.dumps(header).encode(), blob]))
        with pytest.raises(ConfigurationError, match=rf"^{re.escape(str(p))}: header: .*\b{key}\b"):
            load_checkpoint(p)

    def test_non_finite_parameters_rejected_by_file(self, tmp_path):
        # a NaN weight would make the gate's epsilon NaN, so it could never fall back
        net = Mlp([21, 64, 64, 2], "tanh", 0.2, rng=np.random.default_rng(40))
        net.params[7], net.params[-1] = np.nan, np.inf
        p = tmp_path / "actor.ckpt"
        save_checkpoint(net, "residual", p)
        with pytest.raises(ConfigurationError, match=re.escape(f"{p}: 2 parameter(s) are not finite")):
            load_checkpoint(p)

    def test_impossible_layer_sizes_named(self):
        # beyond what numpy can address, so it refuses without allocating
        with pytest.raises(ConfigurationError, match=re.escape("layer sizes [21, 1000000000000000000, 2] cannot")):
            Mlp([21, 10**18, 2])


class TestCopies:
    @pytest.mark.parametrize("clone", [
        lambda net: pickle.loads(pickle.dumps(net)), copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_layer_views_follow_the_copied_params(self, clone):
        net = Mlp([4, 8, 2], "tanh", 0.2, rng=np.random.default_rng(6))
        x = np.linspace(-1.0, 1.0, 4)
        want = net.forward(x)
        dup = clone(net)
        assert dup.params is not net.params
        assert np.array_equal(dup.forward(x), want)
        assert all(np.shares_memory(w, dup.params) for w in dup.weights + dup.biases)
        dup.params[:] = 0.0  # as an Adam step, a Polyak update or a load would write
        assert np.array_equal(dup.forward(x), np.zeros(2))
        assert np.array_equal(net.forward(x), want)


def stack_of(*nets: Mlp) -> Mlp:
    """The networks as one stack over a fresh (K, P) params array, bound as Td3Nets binds its critics."""
    return nets[0].with_params(np.stack([net.params for net in nets]))


class TestStack:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sizes, batch", [
        ([23, 64, 64, 1], 128),  # a critic at desk scale
        ([23, 16, 16, 1], 8),  # the tests' small critics
        ([23, 32, 1], 16),  # one hidden layer
    ])
    def test_each_slice_is_bit_equal_to_its_row(self, sizes, batch, dtype):
        rng = np.random.default_rng(90)
        stack = stack_of(*(random_net(rng, sizes, "identity") for _ in range(2)))
        stack = stack.with_params(stack.params.astype(dtype))
        # a column slice of wider rows, as the replay buffer hands the critics their input
        x = rng.normal(size=(batch, sizes[0] + 5)).astype(dtype)[:, :sizes[0]]
        upstream = rng.normal(size=(2, batch, 1)).astype(dtype)
        y, trace = stack.forward_trace(x)
        grad = param_grad(stack, trace, upstream)
        d_input = stack.backward(trace, upstream)
        assert y.shape == (2, batch, 1) and grad.shape == stack.params.shape and d_input.shape == (2, *x.shape)
        for k in (0, 1):
            row = stack.row(k)
            y_k, trace_k = row.forward_trace(x)
            assert row.forward(x).tobytes() == y_k.tobytes() == y[k].tobytes() == stack.forward(x)[k].tobytes()
            assert param_grad(row, trace_k, upstream[k]).tobytes() == grad[k].tobytes()
            assert row.backward(trace_k, upstream[k]).tobytes() == d_input[k].tobytes()

    def test_a_single_input_gives_one_output_per_network(self):
        rng = np.random.default_rng(91)
        stack = stack_of(*(random_net(rng, [4, 6, 3], "tanh") for _ in range(2)))
        x = rng.normal(size=4)
        assert np.array_equal(stack.forward(x), np.stack([stack.row(k).forward(x) for k in (0, 1)]))

    def test_row_is_a_view_of_the_stack(self):
        stack = stack_of(*(Mlp([3, 4, 1], "identity", rng=np.random.default_rng(k)) for k in (1, 2)))
        row = stack.row(1)
        assert np.shares_memory(row.params, stack.params) and row.params.ndim == 1
        stack.params[1] = 0.5
        assert np.all(row.params == 0.5) and np.all(row.biases[-1] == 0.5)
        assert np.all(stack.row(0).params != 0.5)

    def test_a_stack_has_no_dropout(self):
        net = Mlp([3, 4, 1], "identity", 0.2, rng=np.random.default_rng(3))
        with pytest.raises(ConfigurationError, match="no dropout"):
            stack_of(net, net)

    def test_a_plain_network_has_no_rows(self):
        with pytest.raises(UsageError):
            Mlp([3, 4, 1], "identity").row(0)


class TestPolyak:
    def test_exact_formula(self):
        rng = np.random.default_rng(50)
        live = Mlp([3, 5, 2], "tanh", rng=rng)
        target = Mlp([3, 5, 2], "tanh", rng=rng)
        before = target.params.copy()
        polyak_update(target.params, live.params, tau=0.005)
        assert np.allclose(target.params, 0.005 * live.params + 0.995 * before, atol=1e-15)

    def test_tau_one_copies_tau_zero_freezes(self):
        rng = np.random.default_rng(51)
        live = Mlp([2, 4, 1], "identity", rng=rng)
        target = Mlp([2, 4, 1], "identity", rng=rng)
        frozen = target.params.copy()
        polyak_update(target.params, live.params, tau=0.0)
        assert np.array_equal(target.params, frozen)
        polyak_update(target.params, live.params, tau=1.0)
        assert np.array_equal(target.params, live.params)

    def test_one_update_over_adjacent_networks_equals_one_update_each(self):
        rng = np.random.default_rng(52)
        live = rng.normal(size=40)
        target = rng.normal(size=40)
        each = target.copy()
        polyak_update(target, live, tau=0.1)
        polyak_update(each[:25], live[:25], tau=0.1)
        polyak_update(each[25:], live[25:], tau=0.1)
        assert np.array_equal(target, each)

    def test_bad_tau_rejected(self):
        with pytest.raises(ConfigurationError):
            polyak_update(np.zeros(2), np.zeros(2), tau=1.5)


class TestInit:
    def test_he_hidden_and_small_output(self):
        rng = np.random.default_rng(60)
        net = Mlp([64, 256, 256, 2], "tanh", rng=rng)
        assert net.weights[0].std() == pytest.approx(math.sqrt(2.0 / 64), rel=0.1)
        assert net.weights[1].std() == pytest.approx(math.sqrt(2.0 / 256), rel=0.1)
        assert np.abs(net.weights[-1]).max() <= 1e-3
        for b in net.biases:
            assert np.all(b == 0.0)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            Mlp([4], "tanh")
        with pytest.raises(ConfigurationError):
            Mlp([4, 2], "sigmoid")
        with pytest.raises(ConfigurationError):
            Mlp([4, 2], "tanh", dropout_p=1.0)

    @pytest.mark.parametrize("size", [1.5, True], ids=["float", "bool"])
    def test_layer_size_must_be_an_integer(self, size):
        # int() would truncate either one to a width of 1
        with pytest.raises(ConfigurationError, match=f"layer size {size!r} is not an integer"):
            Mlp([3, size, 2], "tanh")


class TestDtype:
    def test_float64_network_keeps_float64_masks(self):
        rng = np.random.default_rng(85)
        net = random_net(rng, sizes=[5, 7, 7, 2], dropout_p=0.3)
        assert net.params.dtype == np.float64
        y, trace = net.forward_trace(rng.normal(size=(9, 5)).astype(np.float32), rng)
        assert y.dtype == np.float64
        assert all(a.dtype == np.float64 for a in (*trace.inputs, *trace.relu_pos, *trace.masks))
        assert net.backward(trace, np.ones((9, 2), np.float32)).dtype == np.float64

    def test_float32_network_runs_in_float32(self):
        rng = np.random.default_rng(86)
        net = narrowed(random_net(rng, sizes=[5, 7, 7, 2], dropout_p=0.3))
        assert net.params.dtype == np.float32
        y, trace = net.forward_trace(rng.normal(size=(9, 5)), rng)
        assert y.dtype == np.float32 and net.forward(np.zeros(5)).dtype == np.float32
        assert all(a.dtype == np.float32 for a in (*trace.inputs, *trace.relu_pos, *trace.masks))
        assert net.backward(trace, np.ones((9, 2))).dtype == np.float32

    def test_float32_masks_are_the_float64_masks_narrowed(self):
        wide = Mlp([5, 7, 7, 2], "tanh", 0.3, rng=np.random.default_rng(87))
        narrow = narrowed(wide)
        masks = zip(wide.draw_masks(4, np.random.default_rng(1)), narrow.draw_masks(4, np.random.default_rng(1)))
        for mask64, mask32 in masks:
            assert mask32.dtype == np.float32 and np.array_equal(mask32, mask64.astype(np.float32))


@pytest.mark.parametrize("sizes, activation, dropout_p", [
    ([23, 64, 64, 1], "identity", 0.0),  # a critic at desk scale
    ([21, 64, 64, 2], "tanh", 0.2),  # a residual actor at desk scale, dropout live
])
def test_float32_forward_and_backward_agree_with_float64(sizes, activation, dropout_p):
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(20):
        narrow = narrowed(Mlp(sizes, activation, dropout_p, rng=rng))
        # every parameter off its initial value, so the biases are not zero
        narrow.params += rng.normal(0.0, 0.1, narrow.params.size).astype(np.float32)
        wide = widened(narrow)
        x = rng.normal(size=(128, sizes[0])).astype(np.float32)
        upstream = rng.normal(size=(128, sizes[-1])).astype(np.float32)
        mask_seed = int(rng.integers(2**32))
        (y32, t32), (y64, t64) = (net.forward_trace(x, np.random.default_rng(mask_seed)) for net in (narrow, wide))
        results = [(y32, y64), (param_grad(narrow, t32, upstream), param_grad(wide, t64, upstream)),
                   (narrow.backward(t32, upstream), wide.backward(t64, upstream))]
        worst = max(worst, *(relative_error(a, b) for a, b in results))
    assert worst < FLOAT32_AGREEMENT
