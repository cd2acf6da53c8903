"""Dense feed-forward classifiers with exact reverse-mode gradients.

Everything here is double precision and pure: functions return fresh
arrays and never mutate their inputs. The meta-gradient of a query loss
taken through inner SGD adaptation is computed exactly (second-order
terms included) with Hessian-vector products, so no general autodiff
graph is needed.

A model's parameters are one flat vector, so optimizer steps, finiteness
checks and task means are single array operations; its layers are views
into that vector.

The forward, backward and Hessian-vector passes take either one task's
2-d batch (n, d) or a stack of B tasks (B, n, d). Stacked passes carry a
leading task axis through every array: per-task parameter vectors (B, P),
whose layer views are weights (B, in, out) and biases (B, out), or a
single model broadcast over the stack. Each task in a stack gets the same
bits as it would alone.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ContractError, DataError, NumericError, ShapeError
from .ioutil import naming, read_config_trailer, write_config_trailer

ACTIVATIONS = ("identity", "relu")
_ACT_CODE = {"identity": 0, "relu": 1}
_ACT_NAME = {code: name for name, code in _ACT_CODE.items()}

CHECKPOINT_MAGIC = b"CMP1"


@dataclass
class Layer:
    weights: np.ndarray  # (*task_shape, in_dim, out_dim)
    bias: np.ndarray     # (*task_shape, out_dim)
    activation: str = "identity"


class ModelParams:
    """A stack of dense layers as one float64 vector of shape
    (*task_shape, P) in the order W0, b0, W1, b1, ..., each weight matrix
    row-major; spec holds each layer's (in_dim, out_dim, activation).
    Gradients use the same container and spec. layers are Layer views
    into the vector, so writing to them writes the vector."""

    def __init__(self, vector: np.ndarray, spec):
        self.spec = tuple(spec)
        if vector.shape[-1:] != (_param_count(self.spec),):
            raise ShapeError(f"parameter vector of shape {vector.shape} for "
                             f"{_param_count(self.spec)} parameters")
        self.vector = vector

    @classmethod
    def zeros(cls, spec, task_shape: tuple[int, ...] = ()) -> "ModelParams":
        spec = tuple(spec)
        return cls(np.zeros(tuple(task_shape) + (_param_count(spec),)), spec)

    @cached_property
    def layers(self) -> list[Layer]:
        task, layers, pos = self.task_shape, [], 0
        for d_in, d_out, act in self.spec:
            w = self.vector[..., pos:pos + d_in * d_out].reshape(*task, d_in, d_out)
            pos += d_in * d_out
            layers.append(Layer(w, self.vector[..., pos:pos + d_out], act))
            pos += d_out
        return layers

    @property
    def in_dim(self) -> int:
        return self.spec[0][0]

    @property
    def out_dim(self) -> int:
        return self.spec[-1][1]

    @property
    def task_shape(self) -> tuple[int, ...]:
        """() for one model, (B,) for a stack of B per-task models."""
        return self.vector.shape[:-1]

    def copy(self) -> "ModelParams":
        return ModelParams(self.vector.copy(), self.spec)

    def validate(self) -> None:
        """One model (no task axis) of chained layers with known
        activations and finite entries."""
        for i, (d_in, _, act) in enumerate(self.spec):
            if act not in ACTIVATIONS:
                raise ContractError(f"layer {i}: unknown activation {act!r}")
            if i > 0 and self.spec[i - 1][1] != d_in:
                raise ShapeError(f"layer {i - 1} out_dim {self.spec[i - 1][1]} "
                                 f"!= layer {i} in_dim {d_in}")
        if self.vector.ndim != 1:
            raise ShapeError(f"one model expected, got a task stack {self.task_shape}")
        if not np.isfinite(self.vector).all():
            raise NumericError("non-finite parameter entries")


def _param_count(spec) -> int:
    return sum(d_in * d_out + d_out for d_in, d_out, _ in spec)


def _check_compatible(a: ModelParams, b: ModelParams) -> None:
    """The layer specs must agree. A task stack on one side may meet a
    single model on the other, which then broadcasts over the tasks."""
    if a.spec != b.spec or (a.task_shape and b.task_shape
                            and a.task_shape != b.task_shape):
        raise ShapeError(f"parameters differ: {a.task_shape} x {a.spec} vs "
                         f"{b.task_shape} x {b.spec}")


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
    params = ModelParams.zeros(zip(dims[:-1], dims[1:], activations))
    for layer in params.layers:
        d_in, d_out = layer.weights.shape
        bound = np.sqrt(6.0 / (d_in + d_out))
        layer.weights[...] = rng.uniform(-bound, bound, size=(d_in, d_out))
    return params


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
    """Parameter gradients of sum(output * g), given a cached forward pass,
    one vector per task of the batch."""
    grads = ModelParams(np.empty(g.shape[:-2] + params.vector.shape[-1:]), params.spec)
    for l in range(len(params.spec) - 1, -1, -1):
        layer, out = params.layers[l], grads.layers[l]
        d = g * _activation_mask(pre[l], layer.activation)
        np.matmul(_t(acts[l]), d, out=out.weights)
        d.sum(axis=-2, out=out.bias)
        if l > 0:
            g = d @ _t(layer.weights)
    return grads


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
    _check_compatible(params, direction)
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
    out = ModelParams(np.empty(rg.shape[:-2] + params.vector.shape[-1:]), params.spec)
    for l in range(len(params.spec) - 1, -1, -1):
        layer, hv = params.layers[l], out.layers[l]
        d = g * masks[l]
        rd = rg * masks[l]
        # summed in a fresh array, then copied in: an in-place add into a
        # strided (B, in, out) view runs several times slower
        w = _t(r_acts[l]) @ d
        w += _t(acts[l]) @ rd
        hv.weights[...] = w
        rd.sum(axis=-2, out=hv.bias)
        if l > 0:
            g = d @ _t(layer.weights)
            rg = rd @ _t(layer.weights) + d @ _t(direction.layers[l].weights)
    return out


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
        if not (np.isfinite(loss).all() and np.isfinite(g.vector).all()):
            raise NumericError(f"non-finite inner loss/gradient at adaptation step {step}")
        trajectory.append(theta)
        theta = apply_sgd(theta, g, inner_lr)
    query_loss, v = xent_loss_grad(theta, qx, qy)
    del theta  # the backward pass needs only the trajectory
    if not (np.isfinite(query_loss).all() and np.isfinite(v.vector).all()):
        raise NumericError(f"non-finite query loss/gradient after step {inner_steps}")
    if first_order or inner_steps == 0 or inner_lr == 0.0:
        return query_loss, v
    for step in range(inner_steps - 1, -1, -1):
        # popping frees each step's parameters once they are used
        hv = hvp_xent(trajectory.pop(), tx, ty, v).vector
        hv *= -inner_lr
        v.vector += hv  # v is this call's own; the bits of apply_sgd(v, hv, inner_lr)
        if not np.isfinite(v.vector).all():
            raise NumericError(f"non-finite meta-gradient while backing through step {step}")
    return query_loss, v


# -- optimizers -------------------------------------------------------------

def apply_sgd(params: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    """params - lr * grads, computed as params + (-lr) * grads (the same
    bits). A single model meets a gradient stack by broadcasting."""
    _check_compatible(params, grads)
    out = -lr * grads.vector
    if out.ndim < params.vector.ndim:  # one step broadcast over a task stack
        return ModelParams(params.vector + out, params.spec)
    out += params.vector  # in place saves a temporary; addition commutes, so same bits
    return ModelParams(out, params.spec)


@dataclass
class OptimizerState:
    kind: str
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    m: np.ndarray | None = None  # moment vectors, shaped like the parameters'
    v: np.ndarray | None = None
    step: int = 0


def init_adam(params: ModelParams, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, epsilon: float = 1e-8) -> OptimizerState:
    if lr <= 0:
        raise ContractError("learning rate must be positive")
    return OptimizerState("adam", lr, beta1, beta2, epsilon,
                          np.zeros_like(params.vector), np.zeros_like(params.vector), 0)


def apply_adam(params: ModelParams, grads: ModelParams,
               state: OptimizerState) -> tuple[ModelParams, OptimizerState]:
    """One bias-corrected Adam step; returns fresh params and state."""
    if state.kind != "adam":
        raise ContractError(f"optimizer state kind {state.kind!r} is not adam")
    _check_compatible(params, grads)
    if state.m.shape != params.vector.shape:
        raise ShapeError(f"optimizer moments {state.m.shape} != parameters "
                         f"{params.vector.shape}")
    t = state.step + 1
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    g = grads.vector
    m = state.beta1 * state.m + (1 - state.beta1) * g
    v = state.beta2 * state.v + (1 - state.beta2) * g ** 2
    w = params.vector - state.lr * (m / c1) / (np.sqrt(v / c2) + state.epsilon)
    return ModelParams(w, params.spec), replace(state, m=m, v=v, step=t)


# -- checkpoint I/O ---------------------------------------------------------

def save_checkpoint(params: ModelParams, path, config_text: str | None = None) -> None:
    """Versioned binary checkpoint: magic, layer count, per-layer
    (in_dim, out_dim, activation code), then the parameter vector as
    row-major little-endian float64 (weights and bias of each layer)."""
    params.validate()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(params.spec)))
        for d_in, d_out, act in params.spec:
            fh.write(struct.pack("<III", d_in, d_out, _ACT_CODE[act]))
        fh.write(np.ascontiguousarray(params.vector, dtype="<f8").tobytes())
        if config_text is not None:
            write_config_trailer(fh, config_text)


def load_checkpoint(path) -> ModelParams:
    """Read a save_checkpoint file. A config trailer, if present, must be
    well formed; its text is not returned."""
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
    if n_layers == 0:
        raise DataError(f"{path}: checkpoint has no layers")
    pos = 8
    need(pos, 12 * n_layers, "layer table")
    spec = []
    for _ in range(n_layers):
        d_in, d_out, act = struct.unpack_from("<III", blob, pos)
        if act not in _ACT_NAME:
            raise DataError(f"{path}: unknown activation code {act}")
        spec.append((d_in, d_out, _ACT_NAME[act]))
        pos += 12
    size = _param_count(spec)
    need(pos, 8 * size, "parameter vector")
    vector = np.frombuffer(blob, dtype="<f8", count=size, offset=pos).astype(np.float64)
    with naming(path):
        read_config_trailer(blob, pos + 8 * size)
        params = ModelParams(vector, spec)
        params.validate()
    return params
