import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (finite_difference_grad, model_from_layers, relative_error,
                     scalar_adam_trace)
from metafew.errors import ContractError, NumericError, ShapeError
from metafew.network import (Layer, ModelParams, apply_adam, apply_sgd,
                             backprop_from_output, forward,
                             grad_through_adaptation, hvp_xent, init_adam,
                             init_mlp, load_checkpoint, save_checkpoint, softmax,
                             xent_loss, xent_loss_grad)


def random_net(rng, dims=None, activations=None):
    if dims is None:
        n_hidden = int(rng.integers(0, 3))
        dims = [int(rng.integers(2, 6))]
        dims += [int(rng.integers(2, 9)) for _ in range(n_hidden)]
        dims.append(int(rng.integers(2, 5)))
    params = init_mlp(dims, rng, activations)
    # random biases keep relu pre-activations off the kink, where finite
    # differences and the a.e. derivative disagree
    for layer in params.layers:
        layer.bias[...] = rng.uniform(-0.3, 0.3, layer.bias.shape)
    return params


def random_batch(rng, d_in, n_classes, rows):
    x = rng.standard_normal((rows, d_in))
    y = np.eye(n_classes)[rng.integers(0, n_classes, rows)]
    return x, y


# -- forward ---------------------------------------------------------------

def test_forward_identity_layer_passes_input_through():
    params = model_from_layers([Layer(np.eye(3), np.zeros(3), "identity")])
    x = np.array([[1.0, -2.0, 0.5], [0.0, 4.0, -1.0]])
    assert np.array_equal(forward(params, x), x)

def test_forward_relu_clips_negatives():
    params = model_from_layers([Layer(np.eye(2), np.zeros(2), "relu")])
    out = forward(params, np.array([[-1.0, 2.0]]))
    assert np.array_equal(out, [[0.0, 2.0]])

def test_forward_matches_explicit_loop_arithmetic():
    rng = np.random.default_rng(7)
    params = random_net(rng, dims=[3, 4, 2])
    x = rng.standard_normal((5, 3))
    got = forward(params, x)
    for b in range(5):
        h = [0.0] * 4
        for j in range(4):
            for i in range(3):
                h[j] += x[b, i] * params.layers[0].weights[i, j]
            h[j] = max(h[j] + params.layers[0].bias[j], 0.0)
        for j in range(2):
            z = params.layers[1].bias[j]
            for i in range(4):
                z += h[i] * params.layers[1].weights[i, j]
            assert got[b, j] == pytest.approx(z, rel=1e-12)

def test_forward_is_pure_and_deterministic():
    rng = np.random.default_rng(3)
    params = random_net(rng, dims=[4, 6, 3])
    x = rng.standard_normal((8, 4))
    a = forward(params, x)
    b = forward(params, x)
    assert a.tobytes() == b.tobytes()

def test_forward_rejects_width_mismatch():
    params = random_net(np.random.default_rng(0), dims=[4, 2])
    with pytest.raises(ShapeError):
        forward(params, np.zeros((3, 5)))


# -- cross-entropy loss and gradient ------------------------------------------

def test_uniform_logits_loss_is_log_n():
    for n in (2, 3, 7):
        params = model_from_layers([Layer(np.zeros((3, n)), np.zeros(n), "identity")])
        x = np.ones((4, 3))
        y = np.eye(n)[np.arange(4) % n]
        assert xent_loss(params, x, y) == pytest.approx(np.log(n), rel=1e-12)

def test_two_class_zero_logit_gradient():
    # logits (0,0), label class 0 -> loss ln 2, dL/dlogits = (-0.5, +0.5)/B
    params = model_from_layers([Layer(np.zeros((1, 2)), np.zeros(2), "identity")])
    x = np.ones((1, 1))
    y = np.array([[1.0, 0.0]])
    loss, grads = xent_loss_grad(params, x, y)
    assert loss == pytest.approx(np.log(2), rel=1e-12)
    # bias gradient equals the logit gradient
    assert grads.layers[0].bias == pytest.approx([-0.5, 0.5], rel=1e-12)

def test_rejects_non_onehot_labels():
    params = random_net(np.random.default_rng(1), dims=[2, 2])
    x = np.zeros((2, 2))
    with pytest.raises(ContractError):
        xent_loss_grad(params, x, np.array([[0.5, 0.5], [1.0, 0.0]]))
    with pytest.raises(ContractError):
        xent_loss_grad(params, x, np.array([[1.0, 1.0], [1.0, 0.0]]))

@pytest.mark.parametrize("seed", range(6))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    params = random_net(rng)
    x, y = random_batch(rng, params.in_dim, params.out_dim, int(rng.integers(1, 7)))
    _, grads = xent_loss_grad(params, x, y)
    fd = finite_difference_grad(lambda p: xent_loss(p, x, y), params)
    assert relative_error(grads, fd) <= 1e-4

@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_loss_invariant_under_joint_class_permutation(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    params = random_net(rng, dims=[3, n])
    x, y = random_batch(rng, 3, n, 4)
    perm = rng.permutation(n)
    permuted = model_from_layers([Layer(params.layers[0].weights[:, perm],
                                  params.layers[0].bias[perm], "identity")])
    assert xent_loss(params, x, y) == pytest.approx(
        xent_loss(permuted, x, y[:, perm]), rel=1e-12)


# -- Hessian-vector products and meta-gradients ---------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_hvp_matches_finite_difference_of_gradient(seed):
    rng = np.random.default_rng(40 + seed)
    params = random_net(rng)
    x, y = random_batch(rng, params.in_dim, params.out_dim, 5)
    direction = random_net(rng, dims=[l.weights.shape[0] for l in params.layers]
                           + [params.out_dim],
                           activations=[l.activation for l in params.layers])
    hv = hvp_xent(params, x, y, direction)
    h = 1e-6
    up = ModelParams(params.vector + h * direction.vector, params.spec)
    down = ModelParams(params.vector - h * direction.vector, params.spec)
    _, gu = xent_loss_grad(up, x, y)
    _, gd = xent_loss_grad(down, x, y)
    fd = ModelParams((gu.vector - gd.vector) / (2 * h), params.spec)
    assert relative_error(hv, fd) <= 1e-4

def test_meta_grad_zero_steps_equals_query_gradient():
    rng = np.random.default_rng(5)
    params = random_net(rng, dims=[3, 4, 2])
    tx, ty = random_batch(rng, 3, 2, 4)
    qx, qy = random_batch(rng, 3, 2, 6)
    loss0, g0 = grad_through_adaptation(params, (tx, ty), (qx, qy), 0.1, 0)
    loss1, g1 = xent_loss_grad(params, qx, qy)
    assert loss0 == loss1
    assert relative_error(g0, g1) == 0.0

def test_meta_grad_zero_lr_equals_zero_steps():
    rng = np.random.default_rng(6)
    params = random_net(rng, dims=[3, 4, 2])
    tx, ty = random_batch(rng, 3, 2, 4)
    qx, qy = random_batch(rng, 3, 2, 6)
    la, ga = grad_through_adaptation(params, (tx, ty), (qx, qy), 0.0, 5)
    lb, gb = grad_through_adaptation(params, (tx, ty), (qx, qy), 0.1, 0)
    assert la == lb
    assert np.array_equal(ga.vector, gb.vector)

def test_one_step_meta_grad_matches_analytic_softmax_hessian():
    # single identity layer, one input: weight row and bias add into the
    # logits identically, so the parameter Hessian is the logit Hessian
    # (diag(p) - p p^T)/B tiled over the four parameter blocks.
    rng = np.random.default_rng(8)
    w = rng.standard_normal((1, 2))
    params = model_from_layers([Layer(w, rng.standard_normal(2), "identity")])
    tx = np.ones((1, 1))
    ty = np.array([[1.0, 0.0]])
    qx, qy = np.ones((1, 1)), np.array([[0.0, 1.0]])
    lr = 0.3
    _, meta = grad_through_adaptation(params, (tx, ty), (qx, qy), lr, 1)
    p = softmax(forward(params, tx))[0]
    h_logits = np.diag(p) - np.outer(p, p)
    h_full = np.block([[h_logits, h_logits], [h_logits, h_logits]])
    _, g_train = xent_loss_grad(params, tx, ty)
    adapted = apply_sgd(params, g_train, lr)
    _, gq = xent_loss_grad(adapted, qx, qy)
    gq_vec = gq.vector
    expect = (np.eye(4) - lr * h_full) @ gq_vec
    assert meta.vector == pytest.approx(expect, rel=1e-10)

@pytest.mark.parametrize("steps,first_order", [(1, False), (3, False), (2, True)])
def test_meta_grad_against_finite_differences(steps, first_order):
    rng = np.random.default_rng(50 + steps)
    params = random_net(rng, dims=[3, 5, 3])
    tx, ty = random_batch(rng, 3, 3, 6)
    qx, qy = random_batch(rng, 3, 3, 9)
    lr = 0.2

    def query_loss_after_adaptation(p):
        theta = p
        for _ in range(steps):
            _, g = xent_loss_grad(theta, tx, ty)
            theta = apply_sgd(theta, g, lr)
        return xent_loss(theta, qx, qy)

    _, meta = grad_through_adaptation(params, (tx, ty), (qx, qy), lr, steps,
                                      first_order=first_order)
    fd = finite_difference_grad(query_loss_after_adaptation, params)
    err = relative_error(meta, fd)
    if first_order:
        # the first-order approximation must NOT match the exact derivative here
        assert err > 1e-3
    else:
        assert err <= 1e-4

def test_second_order_terms_are_nonzero():
    rng = np.random.default_rng(9)
    params = random_net(rng, dims=[3, 4, 2])
    tx, ty = random_batch(rng, 3, 2, 4)
    qx, qy = random_batch(rng, 3, 2, 6)
    _, full = grad_through_adaptation(params, (tx, ty), (qx, qy), 0.2, 2)
    _, first = grad_through_adaptation(params, (tx, ty), (qx, qy), 0.2, 2,
                                       first_order=True)
    assert relative_error(full, first) > 1e-3

def test_adaptation_rejects_negative_arguments():
    rng = np.random.default_rng(60)
    params = random_net(rng, dims=[2, 2])
    batch = (np.zeros((1, 2)), np.array([[1.0, 0.0]]))
    with pytest.raises(ContractError):
        grad_through_adaptation(params, batch, batch, 0.1, -1)
    with pytest.raises(ContractError):
        grad_through_adaptation(params, batch, batch, -0.1, 1)

# -- stacked tasks ---------------------------------------------------------------

def task_slice(params, b):
    """Task b of a stacked ModelParams, as a single model."""
    return ModelParams(params.vector[b], params.spec)


def stacked_batches(rng, tasks, d_in, n_classes, train_rows=6, query_rows=9):
    """Per-task (train, query) batches and the same batches stacked."""
    per_task = [(random_batch(rng, d_in, n_classes, train_rows),
                 random_batch(rng, d_in, n_classes, query_rows))
                for _ in range(tasks)]
    stacked = tuple(tuple(np.stack([batches[i][j] for batches in per_task])
                          for j in range(2)) for i in range(2))
    return per_task, stacked


@pytest.mark.parametrize("tasks", [1, 3, 8])
@pytest.mark.parametrize("first_order", [False, True])
def test_stacked_meta_grad_equals_per_task_calls(tasks, first_order):
    rng = np.random.default_rng(70 + tasks)
    params = random_net(rng, dims=[4, 6, 5, 3])
    per_task, (train, query) = stacked_batches(rng, tasks, 4, 3)
    losses, stacked = grad_through_adaptation(params, train, query, 0.2, 3,
                                              first_order=first_order)
    assert losses.shape == (tasks,)
    for b, (tb, qb) in enumerate(per_task):
        loss, g = grad_through_adaptation(params, tb, qb, 0.2, 3, first_order=first_order)
        assert losses[b] == loss
        assert np.array_equal(task_slice(stacked, b).vector, g.vector)

def test_stacked_meta_grad_matches_finite_differences():
    rng = np.random.default_rng(75)
    params = random_net(rng, dims=[3, 5, 3])
    per_task, (train, query) = stacked_batches(rng, 2, 3, 3)
    steps, lr = 2, 0.2
    _, stacked = grad_through_adaptation(params, train, query, lr, steps)
    for b, ((tx, ty), (qx, qy)) in enumerate(per_task):
        def query_loss_after_adaptation(p):
            theta = p
            for _ in range(steps):
                _, g = xent_loss_grad(theta, tx, ty)
                theta = apply_sgd(theta, g, lr)
            return xent_loss(theta, qx, qy)

        fd = finite_difference_grad(query_loss_after_adaptation, params)
        assert relative_error(task_slice(stacked, b), fd) <= 1e-4

def test_stacked_hvp_and_gradient_equal_per_task_calls():
    rng = np.random.default_rng(76)
    params = random_net(rng, dims=[4, 6, 3])
    per_task, ((x, y), _) = stacked_batches(rng, 3, 4, 3)
    # per-task models and directions, as in the inner loop of adaptation
    models = [random_net(rng, dims=[4, 6, 3]) for _ in range(3)]
    dirs = [random_net(rng, dims=[4, 6, 3]) for _ in range(3)]
    stack = lambda ps: ModelParams(np.stack([p.vector for p in ps]), params.spec)
    losses, grads = xent_loss_grad(stack(models), x, y)
    hv = hvp_xent(stack(models), x, y, stack(dirs))
    for b, ((tx, ty), _) in enumerate(per_task):
        loss, g = xent_loss_grad(models[b], tx, ty)
        assert losses[b] == loss
        assert np.array_equal(task_slice(grads, b).vector, g.vector)
        assert np.array_equal(task_slice(hv, b).vector,
                              hvp_xent(models[b], tx, ty, dirs[b]).vector)

def test_stacked_inputs_must_match_task_stack():
    rng = np.random.default_rng(77)
    models = ModelParams.zeros([(4, 2, "identity")], (3,))
    with pytest.raises(ShapeError):
        forward(models, np.zeros((2, 5, 4)))
    with pytest.raises(ShapeError):
        forward(models, np.zeros((5, 4)))
    with pytest.raises(ShapeError):
        apply_sgd(models, ModelParams.zeros([(4, 2, "identity")], (2,)), 1.0)

def test_stacked_labels_must_be_onehot():
    params = random_net(np.random.default_rng(79), dims=[2, 2])
    y = np.array([[[1.0, 0.0]], [[0.5, 0.5]]])
    with pytest.raises(ContractError):
        xent_loss_grad(params, np.zeros((2, 1, 2)), y)

def test_xent_gradient_is_backprop_of_its_cotangent():
    rng = np.random.default_rng(78)
    params = random_net(rng, dims=[4, 6, 5, 3])
    x, y = random_batch(rng, 4, 3, 7)
    _, g = xent_loss_grad(params, x, y)
    cotangent = (softmax(forward(params, x)) - y) / x.shape[0]
    assert np.array_equal(g.vector,
                          backprop_from_output(params, x, cotangent).vector)

def test_non_finite_input_reports_step_index():
    rng = np.random.default_rng(10)
    params = random_net(rng, dims=[2, 2])
    tx = np.array([[np.inf, 0.0]])
    ty = np.array([[1.0, 0.0]])
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match="step 0"):
            grad_through_adaptation(params, (tx, ty), (tx, ty), 0.1, 2)

def test_non_finite_stacked_input_reports_step_index():
    rng = np.random.default_rng(10)
    params = random_net(rng, dims=[2, 2])
    tx = np.array([[[0.5, 0.0]], [[np.inf, 0.0]]])
    ty = np.array([[[1.0, 0.0]], [[1.0, 0.0]]])
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError, match="step 0"):
            grad_through_adaptation(params, (tx, ty), (tx, ty), 0.1, 2)


# -- optimizers ---------------------------------------------------------------

def test_sgd_examples():
    params = model_from_layers([Layer(np.array([[0.0]]), np.zeros(1), "identity")])
    grads = model_from_layers([Layer(np.array([[-6.0]]), np.zeros(1), "identity")])
    assert apply_sgd(params, grads, 0.0).layers[0].weights[0, 0] == 0.0
    # w=0, grad=-6, lr=0.25 -> w'=1.5 (gradient step on L=(w-3)^2 at w=0)
    assert apply_sgd(params, grads, 0.25).layers[0].weights[0, 0] == 1.5
    zero = ModelParams.zeros(params.spec)
    out = apply_sgd(params, zero, 0.7)
    assert np.array_equal(out.vector, params.vector)

@given(st.lists(st.integers(-2 ** 20, 2 ** 20), min_size=4, max_size=4),
       st.lists(st.integers(-2 ** 20, 2 ** 20), min_size=4, max_size=4),
       st.sampled_from([0.25, 0.5, 1.0, 2.0]))
@settings(max_examples=60, deadline=None)
def test_sgd_step_and_inverse_step_return_exactly(wk, gk, lr):
    # dyadic rationals: lr*g and w - lr*g are exact, so the affine update
    # composes associatively with its inverse
    w = np.array([v / 1024.0 for v in wk]).reshape(2, 2)
    g = np.array([v / 1024.0 for v in gk]).reshape(2, 2)
    params = model_from_layers([Layer(w, np.zeros(2), "identity")])
    grads = model_from_layers([Layer(g, np.zeros(2), "identity")])
    back = apply_sgd(apply_sgd(params, grads, lr), grads, -lr)
    assert np.array_equal(back.layers[0].weights, w)

def test_adam_zero_grads_zero_moments_is_identity():
    rng = np.random.default_rng(11)
    params = random_net(rng, dims=[3, 2])
    state = init_adam(params, lr=0.001)
    out, state2 = apply_adam(params, ModelParams.zeros(params.spec), state)
    assert np.array_equal(out.vector, params.vector)
    assert state2.step == 1

def test_adam_first_step_magnitude_is_learning_rate():
    params = model_from_layers([Layer(np.array([[0.0]]), np.zeros(1), "identity")])
    grads = model_from_layers([Layer(np.array([[2.0]]), np.zeros(1), "identity")])
    state = init_adam(params, lr=0.001)
    out, _ = apply_adam(params, grads, state)
    # bias-corrected first step ~ -lr * sign(g)
    assert out.layers[0].weights[0, 0] == pytest.approx(-0.001, rel=1e-6)

def test_adam_matches_scalar_oracle_over_two_steps():
    params = model_from_layers([Layer(np.array([[0.3]]), np.zeros(1), "identity")])
    state = init_adam(params, lr=0.01)
    gs = [1.7, -0.4]
    for g in gs:
        grads = model_from_layers([Layer(np.array([[g]]), np.zeros(1), "identity")])
        params, state = apply_adam(params, grads, state)
    trace = scalar_adam_trace(gs, w0=0.3, lr=0.01)
    assert params.layers[0].weights[0, 0] == pytest.approx(trace[-1], abs=1e-15)
    assert state.step == 2

def test_adam_rejects_mismatched_shapes():
    rng = np.random.default_rng(12)
    params = random_net(rng, dims=[3, 2])
    other = random_net(rng, dims=[4, 2])
    with pytest.raises(ShapeError):
        apply_adam(params, other, init_adam(params, lr=0.1))


# -- checkpoint I/O --------------------------------------------------------------

def test_checkpoint_round_trip_exact(tmp_path):
    rng = np.random.default_rng(13)
    params = init_mlp([5, 16, 16, 4], rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert [l.activation for l in loaded.layers] == [l.activation for l in params.layers]
    assert np.array_equal(loaded.vector, params.vector)

def test_checkpoint_preserves_relu_final_layer(tmp_path):
    rng = np.random.default_rng(14)
    params = init_mlp([5, 8], rng, activations=["relu"])
    path = tmp_path / "emb.ckpt"
    save_checkpoint(params, path, config_text="kind=embedding")
    loaded = load_checkpoint(path)
    assert loaded.layers[-1].activation == "relu"

def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(Exception):
        load_checkpoint(path)
