import numpy as np
import pytest

from helpers import (finite_difference_grad, model_from_layers, on_one_dataset,
                     params_mean, relative_error, task_from_arrays)
from metafew.data import synth_mixture
from metafew.errors import ShapeError
from metafew.metalearn import (MetaConfig, build_maml_model, build_protonet_model,
                               maml_adapt, maml_predict, meta_train,
                               protonet_classify, protonet_loss_grad,
                               protonet_predict, protonet_prototypes, prune_head)
from metafew.network import (Layer, apply_adam, forward, grad_through_adaptation,
                             init_adam, xent_loss_grad)
from metafew.partition import generate_partitions
from metafew.tasks import (TaskStreamConfig, make_supervised_task_stream,
                           make_task_stream, stack_tasks)


def toy_task(rng, n_way=2, k=3, q=4, d=3, separation=3.0):
    centers = rng.standard_normal((n_way, d)) * separation
    perm = rng.permutation(n_way)
    tx = np.concatenate([centers[i] + 0.1 * rng.standard_normal((k, d))
                         for i in range(n_way)])
    qx = np.concatenate([centers[i] + 0.1 * rng.standard_normal((q, d))
                         for i in range(n_way)])
    return task_from_arrays(tx, qx, perm, k, q)


@pytest.fixture(scope="module")
def mixture():
    return synth_mixture(10, 24, 6, 4, noise=0.35, seed=110)


# -- MAML -------------------------------------------------------------------------

def test_meta_train_zero_iterations_returns_init(mixture):
    cfg = MetaConfig(meta_iterations=0, n_way=3, seed=1)
    init = build_maml_model(mixture.d_in, 3, np.random.default_rng(0))
    out = meta_train(cfg, iter(()), init)
    assert np.array_equal(out.vector, init.vector)

def test_zero_inner_lr_reduces_to_adam_on_query_loss(mixture):
    rng = np.random.default_rng(111)
    task = toy_task(rng, n_way=3)
    cfg = MetaConfig(meta_iterations=4, task_batch_size=1, inner_lr=0.0,
                     n_way=3, outer_lr=0.01)
    init = build_maml_model(3, 3, np.random.default_rng(1))
    got = meta_train(cfg, iter([task] * 4), init)
    # reference: plain Adam on the query batch
    ref = init.copy()
    state = init_adam(ref, 0.01)
    for _ in range(4):
        _, g = xent_loss_grad(ref, task.query_x, task.query_y)
        ref, state = apply_adam(ref, g, state)
    assert np.allclose(got.vector, ref.vector)

def test_meta_training_improves_over_init(mixture):
    parts = generate_partitions(mixture, 4, 10, seed=112)
    stream_cfg = TaskStreamConfig(tasks=120 * 4, n_way=5, k_shot=1, q_queries=5,
                                  seed=113)
    cfg = MetaConfig(meta_iterations=120, task_batch_size=4, n_way=5,
                     inner_steps_train=3, seed=114)
    init = build_maml_model(mixture.d_in, 5, np.random.default_rng(2))
    trained = meta_train(cfg, make_task_stream(stream_cfg, parts, mixture), init)

    eval_cfg = TaskStreamConfig(tasks=60, n_way=5, k_shot=1, q_queries=5, seed=115)
    eval_tasks = list(make_supervised_task_stream(eval_cfg, mixture))

    def accuracy(params):
        hits = []
        for t in eval_tasks:
            pred = maml_predict(params, t, inner_lr=0.05, steps=20)
            hits.append((pred == t.query_labels_int()).mean())
        return float(np.mean(hits))

    assert accuracy(trained) > accuracy(init) + 0.1

def test_meta_train_logs_and_determinism(mixture):
    parts = generate_partitions(mixture, 2, 8, seed=116)
    def run():
        rows = []
        stream_cfg = TaskStreamConfig(tasks=20, n_way=3, k_shot=1, q_queries=4,
                                      seed=117)
        cfg = MetaConfig(meta_iterations=10, task_batch_size=2, n_way=3, seed=118)
        init = build_maml_model(mixture.d_in, 3, np.random.default_rng(3))
        out = meta_train(cfg, make_task_stream(stream_cfg, parts, mixture),
                              init, log_cb=lambda it, loss, val: rows.append((it, loss)))
        return out, rows
    a, rows_a = run()
    b, rows_b = run()
    assert a.vector.tobytes() == b.vector.tobytes()
    assert rows_a == rows_b
    assert [r[0] for r in rows_a] == list(range(10))

@pytest.mark.parametrize("first_order", [False, True])
def test_stacked_meta_train_equals_per_task_reference(mixture, first_order):
    parts = generate_partitions(mixture, 2, 8, seed=116)
    # three tasks per batch: 1/3 is inexact, so the order of the mean shows
    stream_cfg = TaskStreamConfig(tasks=3 * 3, n_way=3, k_shot=1, q_queries=4,
                                  seed=117)
    cfg = MetaConfig(meta_iterations=3, task_batch_size=3, n_way=3,
                     inner_steps_train=3, first_order=first_order, seed=118)
    init = build_maml_model(mixture.d_in, 3, np.random.default_rng(3))
    rows = []
    got = meta_train(cfg, make_task_stream(stream_cfg, parts, mixture), init,
                          log_cb=lambda it, loss, val: rows.append(loss))
    # reference: one 2-d meta-gradient per task, averaged as a list
    tasks = list(make_task_stream(stream_cfg, parts, mixture))
    ref, state, ref_rows = init.copy(), init_adam(init, cfg.outer_lr), []
    for it in range(cfg.meta_iterations):
        losses, grads = [], []
        for t in tasks[it * 3:(it + 1) * 3]:
            loss, g = grad_through_adaptation(ref, (t.train_x, t.train_y),
                                              (t.query_x, t.query_y), cfg.inner_lr,
                                              cfg.inner_steps_train, first_order)
            losses.append(loss)
            grads.append(g)
        ref_rows.append(float(np.mean(losses)))
        ref, state = apply_adam(ref, params_mean(grads), state)
    assert got.vector.tobytes() == ref.vector.tobytes()
    assert rows == ref_rows

def test_meta_batch_of_unequal_task_shapes_is_rejected():
    rng = np.random.default_rng(124)
    tasks = [toy_task(rng, n_way=2, k=3), toy_task(rng, n_way=2, k=2)]
    cfg = MetaConfig(meta_iterations=1, task_batch_size=2, n_way=2)
    init = build_maml_model(3, 2, np.random.default_rng(4))
    with pytest.raises(ShapeError, match="meta-iteration 0"):
        meta_train(cfg, iter(tasks), init)

def test_adapt_zero_steps_returns_same_params():
    rng = np.random.default_rng(119)
    task = toy_task(rng)
    params = build_maml_model(3, 2, rng)
    out = maml_adapt(params, task, steps=0)
    assert np.array_equal(out.vector, params.vector)

def test_adapt_reaches_full_train_accuracy_on_separable_task():
    rng = np.random.default_rng(120)
    task = toy_task(rng, n_way=2, k=5, separation=4.0)
    params = build_maml_model(3, 2, rng)
    adapted = maml_adapt(params, task, inner_lr=0.05, steps=50)
    pred = forward(adapted, task.train_x).argmax(axis=1)
    assert np.array_equal(pred, task.train_labels_int())

def test_adapt_leaves_input_untouched():
    rng = np.random.default_rng(121)
    task = toy_task(rng)
    params = build_maml_model(3, 2, rng)
    before = params.vector.copy()
    maml_adapt(params, task, steps=5)
    assert np.array_equal(params.vector, before)

def test_adapt_rejects_width_mismatch():
    rng = np.random.default_rng(122)
    task = toy_task(rng, d=4)
    params = build_maml_model(3, 2, rng)
    with pytest.raises(ShapeError):
        maml_adapt(params, task)

def test_head_pruning_for_narrow_tasks():
    rng = np.random.default_rng(123)
    wide = build_maml_model(3, 10, rng)
    narrow = prune_head(wide, 4)
    assert narrow.out_dim == 4
    assert np.array_equal(narrow.layers[-1].weights,
                          wide.layers[-1].weights[:, :4])
    task = toy_task(rng, n_way=4, d=3)
    pred = maml_predict(wide, task, steps=5)
    assert pred.max() < 4

@pytest.mark.parametrize("B", [1, 3, 8])
def test_stacked_maml_adapt_and_predict_equal_per_task_calls(B):
    rng = np.random.default_rng(125)
    tasks = on_one_dataset([toy_task(rng, n_way=3, k=2, q=4, separation=1.0)
                            for _ in range(B)])
    wide = build_maml_model(3, 5, np.random.default_rng(126), hidden=(8, 6))
    stacked = stack_tasks(tasks)
    adapted = maml_adapt(prune_head(wide, 3), stacked, inner_lr=0.3, steps=7)
    assert adapted.task_shape == (B,)
    pred = maml_predict(wide, stacked, inner_lr=0.3, steps=7)
    for i, task in enumerate(tasks):
        ref = maml_adapt(prune_head(wide, 3), task, inner_lr=0.3, steps=7)
        for got, want in zip(adapted.layers, ref.layers):
            assert got.weights[i].tobytes() == want.weights.tobytes()
            assert got.bias[i].tobytes() == want.bias.tobytes()
        assert np.array_equal(pred[i], maml_predict(wide, task, inner_lr=0.3, steps=7))


# -- prototypical networks -------------------------------------------------------------

def test_embed_identity_and_relu():
    ident = model_from_layers([Layer(np.eye(3), np.zeros(3), "identity")])
    x = np.array([[1.0, -2.0, 0.0]])
    assert np.array_equal(forward(ident, x), x)
    relu = model_from_layers([Layer(np.eye(3), np.zeros(3), "relu")])
    assert np.array_equal(forward(relu, -np.ones((2, 3))), np.zeros((2, 3)))

def test_embed_matches_hand_computation():
    rng = np.random.default_rng(124)
    net = build_protonet_model(2, rng, hidden=(3,))
    x = np.array([[0.5, -1.5]])
    w, b = net.layers[0].weights, net.layers[0].bias
    expect = np.maximum(x @ w + b, 0.0)
    assert np.allclose(forward(net, x), expect)

def test_prototypes_examples():
    e = np.array([[0.0, 0.0], [2.0, 2.0]])
    y = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(Exception):
        protonet_prototypes(e, y)  # class 1 missing
    y2 = np.eye(2)
    protos = protonet_prototypes(e, y2)
    assert np.array_equal(protos, e)
    both = protonet_prototypes(e, np.array([[1.0, 0], [1.0, 0]])[:, :1])
    assert np.array_equal(both, [[1.0, 1.0]])

def test_single_shot_prototype_is_the_shot():
    rng = np.random.default_rng(125)
    e = rng.standard_normal((3, 4))
    protos = protonet_prototypes(e, np.eye(3))
    assert np.array_equal(protos, e)

def test_prototypes_invariant_to_shot_order():
    rng = np.random.default_rng(126)
    e = rng.standard_normal((6, 3))
    y = np.eye(2).repeat(3, axis=0)
    perm = rng.permutation(6)
    a = protonet_prototypes(e, y)
    b = protonet_prototypes(e[perm], y[perm])
    assert np.allclose(a, b)

def test_classify_examples():
    protos = np.array([[0.0, 0.0], [1.0, 1.0]])
    logits = protonet_classify(protos, np.array([[0.9, 1.2]]))
    assert logits.argmax(axis=1)[0] == 1
    assert logits[0, 0] == pytest.approx(-2.25)
    assert logits[0, 1] == pytest.approx(-0.05)
    exact = protonet_classify(protos, protos[:1])
    assert exact.argmax(axis=1)[0] == 0

def test_classify_translation_and_rotation_invariance():
    rng = np.random.default_rng(127)
    protos = rng.standard_normal((4, 3))
    queries = rng.standard_normal((6, 3))
    base = protonet_classify(protos, queries).argmax(axis=1)
    shift = rng.standard_normal(3)
    assert np.array_equal(
        protonet_classify(protos + shift, queries + shift).argmax(axis=1), base)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    assert np.array_equal(
        protonet_classify(protos @ q, queries @ q).argmax(axis=1), base)

@pytest.mark.parametrize("seed", range(3))
def test_protonet_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(130 + seed)
    net = build_protonet_model(3, rng, hidden=(5, 4))
    for layer in net.layers:
        layer.bias[...] = rng.uniform(-0.3, 0.3, layer.bias.shape)
    task = toy_task(rng, n_way=3, k=2, q=3, d=3)
    _, grads = protonet_loss_grad(net, task)

    def loss_fn(p):
        es = forward(p, task.train_x)
        eq = forward(p, task.query_x)
        protos = protonet_prototypes(es, task.train_y)
        logits = protonet_classify(protos, eq)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return float(-(logp * task.query_y).sum(axis=1).mean())

    fd = finite_difference_grad(loss_fn, net)
    assert relative_error(grads, fd) <= 1e-4

@pytest.mark.parametrize("k,q", [(1, 15), (5, 5)])
@pytest.mark.parametrize("B", [1, 3, 8])
def test_stacked_protonet_equals_per_task_calls(B, k, q):
    rng = np.random.default_rng(140)
    tasks = on_one_dataset([toy_task(rng, n_way=5, k=k, q=q, d=3, separation=1.0)
                            for _ in range(B)])
    net = build_protonet_model(3, np.random.default_rng(141), hidden=(8, 6))
    stacked = stack_tasks(tasks)
    losses, grads = protonet_loss_grad(net, stacked)
    assert losses.shape == (B,) and grads.task_shape == (B,)
    pred = protonet_predict(net, stacked)
    for i, task in enumerate(tasks):
        loss, ref = protonet_loss_grad(net, task)
        assert losses[i] == loss
        for got, want in zip(grads.layers, ref.layers):
            assert got.weights[i].tobytes() == want.weights.tobytes()
            assert got.bias[i].tobytes() == want.bias.tobytes()
        assert np.array_equal(pred[i], protonet_predict(net, task))

def test_protonet_meta_train_equals_per_task_reference(mixture):
    parts = generate_partitions(mixture, 2, 8, seed=142)
    stream_cfg = TaskStreamConfig(tasks=3 * 3, n_way=3, k_shot=1, q_queries=4,
                                  seed=143)
    cfg = MetaConfig(learner="protonet", meta_iterations=3, task_batch_size=3,
                     n_way=3, q_queries=4, seed=144)
    init = build_protonet_model(mixture.d_in, np.random.default_rng(8), hidden=(8,))
    rows = []
    got = meta_train(cfg, make_task_stream(stream_cfg, parts, mixture), init,
                     log_cb=lambda it, loss, val: rows.append(loss))
    # reference: one 2-d loss gradient per task, averaged as a list
    tasks = list(make_task_stream(stream_cfg, parts, mixture))
    ref, state, ref_rows = init.copy(), init_adam(init, cfg.outer_lr), []
    for it in range(cfg.meta_iterations):
        losses, grads = zip(*(protonet_loss_grad(ref, t)
                              for t in tasks[it * 3:(it + 1) * 3]))
        ref_rows.append(float(np.mean(losses)))
        ref, state = apply_adam(ref, params_mean(list(grads)), state)
    assert got.vector.tobytes() == ref.vector.tobytes()
    assert rows == ref_rows

def test_protonet_batch_of_unequal_task_shapes_is_rejected():
    rng = np.random.default_rng(145)
    tasks = [toy_task(rng, n_way=2, k=3), toy_task(rng, n_way=2, k=2)]
    cfg = MetaConfig(learner="protonet", meta_iterations=1, task_batch_size=2, n_way=2)
    init = build_protonet_model(3, np.random.default_rng(9), hidden=(4,))
    with pytest.raises(ShapeError, match="meta-iteration 0"):
        meta_train(cfg, iter(tasks), init)

def test_protonet_zero_iterations_returns_init(mixture):
    cfg = MetaConfig(learner="protonet", meta_iterations=0, task_batch_size=1, seed=4)
    init = build_protonet_model(mixture.d_in, np.random.default_rng(5))
    out = meta_train(cfg, iter(()), init)
    assert np.array_equal(out.vector, init.vector)

def test_protonet_training_beats_chance_and_is_deterministic(mixture):
    parts = generate_partitions(mixture, 3, 10, seed=131)
    def run():
        stream_cfg = TaskStreamConfig(tasks=400, n_way=5, k_shot=1, q_queries=5,
                                      seed=132)
        cfg = MetaConfig(learner="protonet", meta_iterations=400, task_batch_size=1,
                         n_way=5, seed=133)
        init = build_protonet_model(mixture.d_in, np.random.default_rng(6))
        return meta_train(cfg, make_task_stream(stream_cfg, parts, mixture), init)
    trained = run()
    trained2 = run()
    assert trained.vector.tobytes() == trained2.vector.tobytes()

    eval_cfg = TaskStreamConfig(tasks=60, n_way=5, k_shot=1, q_queries=5, seed=134)
    tasks = list(make_supervised_task_stream(eval_cfg, mixture))
    accuracy = float(np.mean([(protonet_predict(trained, t) == t.query_labels_int()).mean()
                              for t in tasks]))
    assert accuracy > 0.2 + 0.2  # far above 5-way chance

def test_matched_shot_advantage_shrinks_at_high_shot():
    # a 1-shot meta-trained protonet holds its largest edge over the
    # embedding linear classifier at 1-shot evaluation; at 20-shot the
    # baseline closes part of the gap
    from metafew.baselines import linear_fit, linear_predict
    mix = synth_mixture(10, 40, 6, 4, noise=0.35, seed=109)
    parts = generate_partitions(mix, 3, 10, seed=135)
    stream_cfg = TaskStreamConfig(tasks=600, n_way=5, k_shot=1, q_queries=5, seed=136)
    cfg = MetaConfig(learner="protonet", meta_iterations=600, task_batch_size=1,
                     n_way=5, seed=137)
    init = build_protonet_model(mix.d_in, np.random.default_rng(7))
    trained = meta_train(cfg, make_task_stream(stream_cfg, parts, mix), init)

    def gap_at(k_shot):
        eval_cfg = TaskStreamConfig(tasks=120, n_way=5, k_shot=k_shot, q_queries=5,
                                    seed=138)
        tasks = list(make_supervised_task_stream(eval_cfg, mix))
        proto, lin = [], []
        for t in tasks:
            proto.append((protonet_predict(trained, t) == t.query_labels_int()).mean())
            tr = mix.embeddings[t.train_indices]
            qu = mix.embeddings[t.query_indices]
            model = linear_fit(tr, t.train_labels_int(), t.n_way)
            lin.append((linear_predict(model, qu) == t.query_labels_int()).mean())
        return float(np.mean(proto)) - float(np.mean(lin))

    assert gap_at(20) < gap_at(1)
