"""Dense feed-forward classifiers with exact reverse-mode gradients.

Everything here is double precision and pure: functions return fresh
arrays and never mutate their inputs. The meta-gradient of a query loss
taken through inner SGD adaptation is computed exactly (second-order
terms included) with Hessian-vector products, so no general autodiff
graph is needed.

The forward, backward and Hessian-vector passes take either one task's
2-d batch (n, d) or a stack of B tasks (B, n, d). Stacked passes carry a
leading task axis through every array: per-task weights (B, in, out) and
biases (B, out), or a single model broadcast over the stack. Each task in
a stack gets the same bits as it would alone.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError, NumericError, ShapeError
from .ioutil import read_config_trailer, write_config_trailer

ACTIVATIONS = ("identity", "relu")
_ACT_CODE = {"identity": 0, "relu": 1}
_ACT_NAME = {code: name for name, code in _ACT_CODE.items()}

CHECKPOINT_MAGIC = b"CMP1"


@dataclass
class Layer:
    weights: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray     # (out_dim,)
    activation: str = "identity"

    def copy(self) -> "Layer":
        return Layer(self.weights.copy(), self.bias.copy(), self.activation)


@dataclass
class ModelParams:
    """A stack of dense layers; also reused as the container for gradients
    and optimizer moment tensors (same shapes, same layer order)."""

    layers: list[Layer]

    @property
    def in_dim(self) -> int:
        return self.layers[0].weights.shape[-2]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weights.shape[-1]

    @property
    def task_shape(self) -> tuple[int, ...]:
        """() for one model, (B,) for a stack of B per-task models."""
        return self.layers[0].weights.shape[:-2]

    def dims(self) -> list[tuple[int, int]]:
        return [layer.weights.shape for layer in self.layers]

    def copy(self) -> "ModelParams":
        return ModelParams([layer.copy() for layer in self.layers])

    def validate(self) -> None:
        for i, layer in enumerate(self.layers):
            if layer.activation not in ACTIVATIONS:
                raise ContractError(f"layer {i}: unknown activation {layer.activation!r}")
            if layer.weights.ndim != 2 or layer.bias.shape != (layer.weights.shape[1],):
                raise ShapeError(f"layer {i}: weights {layer.weights.shape} / bias {layer.bias.shape}")
            if i > 0 and self.layers[i - 1].weights.shape[1] != layer.weights.shape[0]:
                raise ShapeError(
                    f"layer {i - 1} out_dim {self.layers[i - 1].weights.shape[1]} "
                    f"!= layer {i} in_dim {layer.weights.shape[0]}"
                )
            if not (np.isfinite(layer.weights).all() and np.isfinite(layer.bias).all()):
                raise NumericError(f"layer {i}: non-finite parameter entries")


def init_mlp(dims: list[int], rng: np.random.Generator,
             activations: list[str] | None = None) -> ModelParams:
    """Uniform init on +-sqrt(6/(in+out)), zero bias. Hidden layers default
    to relu, the final layer to identity."""
    if len(dims) < 2:
        raise ShapeError("need at least input and output dims")
    if activations is None:
        activations = ["relu"] * (len(dims) - 2) + ["identity"]
    if len(activations) != len(dims) - 1:
        raise ShapeError("one activation per layer required")
    layers = []
    for d_in, d_out, act in zip(dims[:-1], dims[1:], activations):
        bound = np.sqrt(6.0 / (d_in + d_out))
        w = rng.uniform(-bound, bound, size=(d_in, d_out))
        layers.append(Layer(w, np.zeros(d_out), act))
    return ModelParams(layers)


# -- elementwise tree arithmetic over ModelParams -------------------------

def zeros_like_params(params: ModelParams) -> ModelParams:
    return ModelParams([
        Layer(np.zeros_like(l.weights), np.zeros_like(l.bias), l.activation)
        for l in params.layers
    ])


def params_add_scaled(params: ModelParams, delta: ModelParams, scale: float) -> ModelParams:
    """params + scale * delta, elementwise over every layer tensor."""
    _check_same_shape(params, delta)
    return ModelParams([
        Layer(_add_scaled(p.weights, d.weights, scale),
              _add_scaled(p.bias, d.bias, scale), p.activation)
        for p, d in zip(params.layers, delta.layers)
    ])


def _add_scaled(p: np.ndarray, d: np.ndarray, scale: float) -> np.ndarray:
    out = scale * d
    if out.ndim < p.ndim:  # one delta broadcast over a task stack
        return p + out
    out += p  # in place saves a temporary; addition commutes, so same bits
    return out


def params_scale(params: ModelParams, scale: float) -> ModelParams:
    return ModelParams([
        Layer(scale * l.weights, scale * l.bias, l.activation) for l in params.layers
    ])


def params_mean(items: list[ModelParams]) -> ModelParams:
    acc = zeros_like_params(items[0])
    for item in items:
        acc = params_add_scaled(acc, item, 1.0)
    return params_scale(acc, 1.0 / len(items))


def params_task_mean(stacked: ModelParams) -> ModelParams:
    """Mean over the leading task axis. The sum adds the tasks in order, as
    params_mean does over a list; the two can differ only in the sign of an
    exact zero."""
    return params_scale(ModelParams([
        Layer(l.weights.sum(axis=0), l.bias.sum(axis=0), l.activation)
        for l in stacked.layers
    ]), 1.0 / stacked.task_shape[0])


def params_stack(models: list[ModelParams]) -> ModelParams:
    """Per-task models of equal shapes as one stack with a leading task axis."""
    return ModelParams([
        Layer(np.stack([m.layers[i].weights for m in models]),
              np.stack([m.layers[i].bias for m in models]), layer.activation)
        for i, layer in enumerate(models[0].layers)
    ])


def params_allfinite(params: ModelParams) -> bool:
    return all(np.isfinite(l.weights).all() and np.isfinite(l.bias).all()
               for l in params.layers)


def params_flatten(params: ModelParams) -> np.ndarray:
    return np.concatenate([np.concatenate([l.weights.ravel(), l.bias.ravel()])
                           for l in params.layers])


def params_unflatten(vector: np.ndarray, template: ModelParams) -> ModelParams:
    layers, pos = [], 0
    for l in template.layers:
        wn, bn = l.weights.size, l.bias.size
        w = vector[pos:pos + wn].reshape(l.weights.shape)
        b = vector[pos + wn:pos + wn + bn].reshape(l.bias.shape)
        layers.append(Layer(w.copy(), b.copy(), l.activation))
        pos += wn + bn
    if pos != vector.size:
        raise ShapeError(f"vector length {vector.size} != parameter count {pos}")
    return ModelParams(layers)


def _check_same_shape(a: ModelParams, b: ModelParams) -> None:
    """Per-model layer shapes must agree. A task stack on one side may meet
    a single model on the other, which then broadcasts over the tasks."""
    if len(a.layers) != len(b.layers):
        raise ShapeError(f"layer counts differ: {len(a.layers)} vs {len(b.layers)}")
    for i, (la, lb) in enumerate(zip(a.layers, b.layers)):
        if la.weights.shape == lb.weights.shape and la.bias.shape == lb.bias.shape:
            continue
        if ((la.weights.ndim == 2 or lb.weights.ndim == 2)
                and la.weights.shape[-2:] == lb.weights.shape[-2:]
                and la.bias.shape[-1:] == lb.bias.shape[-1:]):
            continue
        raise ShapeError(f"layer {i} shapes differ: {la.weights.shape}/{la.bias.shape} "
                         f"vs {lb.weights.shape}/{lb.bias.shape}")


# -- forward / loss / gradients --------------------------------------------

def _apply_activation(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    return z


def _activation_mask(z: np.ndarray, activation: str) -> np.ndarray | float:
    # derivative of the activation at z; relu uses the a.e. choice 1{z > 0}
    if activation == "relu":
        return (z > 0.0).astype(np.float64)
    return 1.0


def _t(a: np.ndarray) -> np.ndarray:
    # transpose of the trailing matrix; a task axis stays in front
    return a.swapaxes(-1, -2)


def _forward_cached(params: ModelParams, inputs: np.ndarray):
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ShapeError(f"inputs must be a 2-d batch or a 3-d task stack, "
                         f"got shape {x.shape}")
    if x.shape[-2] < 1:
        raise ShapeError("batch must be nonempty")
    if x.shape[-1] != params.in_dim:
        raise ShapeError(f"input width {x.shape[-1]} != model in_dim {params.in_dim}")
    if params.task_shape and x.shape[:-2] != params.task_shape:
        raise ShapeError(f"input task stack {x.shape[:-2]} != model task stack "
                         f"{params.task_shape}")
    acts = [x]
    pre = []
    for layer in params.layers:
        z = acts[-1] @ layer.weights
        z += layer.bias[..., None, :]  # in place: a fresh add with this view is slower
        pre.append(z)
        acts.append(_apply_activation(z, layer.activation))
    return pre, acts


def _backward(params: ModelParams, pre: list, acts: list, g: np.ndarray) -> ModelParams:
    """Parameter gradients of sum(output * g), given a cached forward pass."""
    grads = [None] * len(params.layers)
    for l in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[l]
        d = g * _activation_mask(pre[l], layer.activation)
        grads[l] = Layer(_t(acts[l]) @ d, d.sum(axis=-2), layer.activation)
        if l > 0:
            g = d @ _t(layer.weights)
    return ModelParams(grads)


def forward(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """Batched forward pass; output of the final layer (logits or embedding)."""
    _, acts = _forward_cached(params, inputs)
    return acts[-1]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def check_onehot(labels: np.ndarray) -> np.ndarray:
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim not in (2, 3):
        raise ContractError(f"labels must be one-hot rows, got shape {y.shape}")
    ok = ((y == 0.0) | (y == 1.0)).all() and (y.sum(axis=-1) == 1.0).all()
    if not ok:
        raise ContractError("labels must be exact one-hot rows")
    return y


def backprop_from_output(params: ModelParams, inputs: np.ndarray,
                         output_cotangent: np.ndarray) -> ModelParams:
    """Parameter gradients of sum(output * output_cotangent)."""
    pre, acts = _forward_cached(params, inputs)
    g = np.asarray(output_cotangent, dtype=np.float64)
    if g.shape != acts[-1].shape:
        raise ShapeError(f"cotangent shape {g.shape} != output shape {acts[-1].shape}")
    return _backward(params, pre, acts, g)


def _mean_xent(logp: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    # a float for one task, one loss per task for a stack
    loss = -(logp * y).sum(axis=-1).mean(axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def xent_loss(params: ModelParams, inputs: np.ndarray,
              onehot_labels: np.ndarray) -> float | np.ndarray:
    y = check_onehot(onehot_labels)
    logits = forward(params, inputs)
    if y.shape != logits.shape:
        raise ShapeError(f"labels {y.shape} vs logits {logits.shape}")
    return _mean_xent(log_softmax(logits), y)


def xent_loss_grad(params: ModelParams, inputs: np.ndarray,
                   onehot_labels: np.ndarray) -> tuple[float | np.ndarray, ModelParams]:
    """Mean softmax cross-entropy over the batch and its exact parameter
    gradient (log-sum-exp stabilized). A task stack gives one loss and one
    gradient per task."""
    y = check_onehot(onehot_labels)
    pre, acts = _forward_cached(params, inputs)
    logits = acts[-1]
    if y.shape != logits.shape:
        raise ShapeError(f"labels {y.shape} vs logits {logits.shape}")
    logp = log_softmax(logits)
    g = (np.exp(logp) - y) / logits.shape[-2]
    return _mean_xent(logp, y), _backward(params, pre, acts, g)


def hvp_xent(params: ModelParams, inputs: np.ndarray, onehot_labels: np.ndarray,
             direction: ModelParams) -> ModelParams:
    """Exact Hessian-vector product of the cross-entropy loss.

    Forward-over-reverse: the forward and backward passes are rerun while
    carrying directional tangents (Pearlmutter's trick). The relu mask is
    piecewise constant, so its tangent vanishes almost everywhere.
    """
    y = check_onehot(onehot_labels)
    _check_same_shape(params, direction)
    pre, acts = _forward_cached(params, inputs)
    masks = [_activation_mask(z, layer.activation) for z, layer in zip(pre, params.layers)]
    r_acts = [np.zeros_like(acts[0])]
    for l, (layer, tangent) in enumerate(zip(params.layers, direction.layers)):
        rz = r_acts[l] @ layer.weights
        rz += acts[l] @ tangent.weights
        rz += tangent.bias[..., None, :]
        r_acts.append(rz * masks[l])
    logits = acts[-1]
    if y.shape != logits.shape:
        raise ShapeError(f"labels {y.shape} vs logits {logits.shape}")
    batch = logits.shape[-2]
    p = softmax(logits)
    g = (p - y) / batch
    rp = p * (r_acts[-1] - (p * r_acts[-1]).sum(axis=-1, keepdims=True))
    rg = rp / batch
    out = [None] * len(params.layers)
    for l in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[l]
        d = g * masks[l]
        rd = rg * masks[l]
        out[l] = Layer(_t(r_acts[l]) @ d + _t(acts[l]) @ rd, rd.sum(axis=-2),
                       layer.activation)
        if l > 0:
            g = d @ _t(layer.weights)
            rg = rd @ _t(layer.weights) + d @ _t(direction.layers[l].weights)
    return ModelParams(out)


def grad_through_adaptation(params: ModelParams,
                            train_batch: tuple[np.ndarray, np.ndarray],
                            query_batch: tuple[np.ndarray, np.ndarray],
                            inner_lr: float, inner_steps: int,
                            first_order: bool = False
                            ) -> tuple[float | np.ndarray, ModelParams]:
    """Query loss after inner SGD adaptation and its exact gradient with
    respect to the initial parameters.

    The full derivative chains (I - lr*H) factors through every inner step
    via Hessian-vector products; with first_order=True the gradient is
    instead evaluated at the adapted parameters and copied back.

    Batches stacked as (B, n, d) inputs and (B, n, classes) labels adapt B
    tasks at once from the shared initial parameters and return B losses
    and gradients with a leading task axis, each equal to its own 2-d call.
    """
    if inner_steps < 0:
        raise ContractError("inner_steps must be >= 0")
    if inner_lr < 0:
        raise ContractError("inner_lr must be >= 0")
    tx, ty = train_batch
    qx, qy = query_batch
    trajectory = []  # the parameters each inner step starts from
    theta = params
    for step in range(inner_steps):
        loss, g = xent_loss_grad(theta, tx, ty)
        if not (np.isfinite(loss).all() and params_allfinite(g)):
            raise NumericError(f"non-finite inner loss/gradient at adaptation step {step}")
        trajectory.append(theta)
        theta = apply_sgd(theta, g, inner_lr)
    query_loss, v = xent_loss_grad(theta, qx, qy)
    del theta  # the backward pass needs only the trajectory
    if not (np.isfinite(query_loss).all() and params_allfinite(v)):
        raise NumericError(f"non-finite query loss/gradient after step {inner_steps}")
    if first_order or inner_steps == 0 or inner_lr == 0.0:
        return query_loss, v
    for step in range(inner_steps - 1, -1, -1):
        # popping frees each step's parameters once they are used
        hv = hvp_xent(trajectory.pop(), tx, ty, v)
        v = params_add_scaled(v, hv, -inner_lr)
        if not params_allfinite(v):
            raise NumericError(f"non-finite meta-gradient while backing through step {step}")
    return query_loss, v


# -- optimizers -------------------------------------------------------------

def apply_sgd(params: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    """params - lr * grads."""
    return params_add_scaled(params, grads, -lr)


@dataclass
class OptimizerState:
    kind: str
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    m: ModelParams | None = None
    v: ModelParams | None = None
    step: int = 0


def init_adam(params: ModelParams, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, epsilon: float = 1e-8) -> OptimizerState:
    if lr <= 0:
        raise ContractError("learning rate must be positive")
    return OptimizerState("adam", lr, beta1, beta2, epsilon,
                          zeros_like_params(params), zeros_like_params(params), 0)


def apply_adam(params: ModelParams, grads: ModelParams,
               state: OptimizerState) -> tuple[ModelParams, OptimizerState]:
    """One bias-corrected Adam step; returns fresh params and state."""
    if state.kind != "adam":
        raise ContractError(f"optimizer state kind {state.kind!r} is not adam")
    _check_same_shape(params, grads)
    _check_same_shape(params, state.m)
    t = state.step + 1
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    new_layers, new_m, new_v = [], [], []
    for p, g, m, v in zip(params.layers, grads.layers, state.m.layers, state.v.layers):
        mw = state.beta1 * m.weights + (1 - state.beta1) * g.weights
        mb = state.beta1 * m.bias + (1 - state.beta1) * g.bias
        vw = state.beta2 * v.weights + (1 - state.beta2) * g.weights ** 2
        vb = state.beta2 * v.bias + (1 - state.beta2) * g.bias ** 2
        w = p.weights - state.lr * (mw / c1) / (np.sqrt(vw / c2) + state.epsilon)
        b = p.bias - state.lr * (mb / c1) / (np.sqrt(vb / c2) + state.epsilon)
        new_layers.append(Layer(w, b, p.activation))
        new_m.append(Layer(mw, mb, p.activation))
        new_v.append(Layer(vw, vb, p.activation))
    new_state = OptimizerState(state.kind, state.lr, state.beta1, state.beta2,
                               state.epsilon, ModelParams(new_m), ModelParams(new_v), t)
    return ModelParams(new_layers), new_state


# -- checkpoint I/O ---------------------------------------------------------

def save_checkpoint(params: ModelParams, path, config_text: str | None = None) -> None:
    """Versioned binary checkpoint: magic, layer count, per-layer
    (in_dim, out_dim, activation code), then row-major little-endian
    float64 weights and bias per layer."""
    params.validate()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(params.layers)))
        for layer in params.layers:
            d_in, d_out = layer.weights.shape
            fh.write(struct.pack("<III", d_in, d_out, _ACT_CODE[layer.activation]))
        for layer in params.layers:
            fh.write(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())
        if config_text is not None:
            write_config_trailer(fh, config_text)


def load_checkpoint(path) -> ModelParams:
    params, _ = load_checkpoint_with_config(path)
    return params


def load_checkpoint_with_config(path) -> tuple[ModelParams, str | None]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: bad checkpoint magic {blob[:4]!r}")

    def need(pos: int, size: int, what: str) -> None:
        if pos + size > len(blob):
            raise DataError(f"{path}: truncated checkpoint: {what} needs {size} "
                            f"bytes at offset {pos}, the file has {len(blob)}")

    need(4, 4, "layer count")
    (n_layers,) = struct.unpack_from("<I", blob, 4)
    pos = 8
    need(pos, 12 * n_layers, "layer table")
    headers = []
    for _ in range(n_layers):
        d_in, d_out, act = struct.unpack_from("<III", blob, pos)
        if act not in _ACT_NAME:
            raise DataError(f"{path}: unknown activation code {act}")
        headers.append((d_in, d_out, _ACT_NAME[act]))
        pos += 12
    layers = []
    for i, (d_in, d_out, act) in enumerate(headers):
        wn = d_in * d_out * 8
        need(pos, wn, f"layer {i} weights")
        w = np.frombuffer(blob, dtype="<f8", count=d_in * d_out, offset=pos).reshape(d_in, d_out)
        pos += wn
        need(pos, d_out * 8, f"layer {i} bias")
        b = np.frombuffer(blob, dtype="<f8", count=d_out, offset=pos)
        pos += d_out * 8
        layers.append(Layer(w.astype(np.float64), b.astype(np.float64), act))
    try:
        config = read_config_trailer(blob, pos)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    params = ModelParams(layers)
    params.validate()
    return params, config
