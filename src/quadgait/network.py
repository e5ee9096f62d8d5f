"""From-scratch dense network stack for behavior cloning.

Both architectures have one layer layout: a shared trunk of two hidden
layers feeding one head per task, each head a hidden layer plus a linear
output, so every task's path is 34 -> 128 -> 128 -> 128 -> 12.

* multi_task: one head per gait.  Only the head matching a sample's task
  id sees its gradient; the trunk sees all.
* single_task: the one-head case, with no task conditioning: every task
  id goes to the one head.  Its parameters, initial draws, forward and
  backward passes and QMP1 layer records are those of a one-head
  multi_task net; only the QMP1 kind code differs.

All hidden layers use ELU.  Inputs are z-score normalized with the
statistics carried inside the network, so a weights file is
self-contained for inference.  Arithmetic is float64; files store
float32.  The training objective is the sum over tasks of the summed
squared errors; minibatch gradients use the per-sample mean (a scalar
rescaling of the same direction).
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import multiprocessing
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import read_container, write_container
from .dataset import ACT_DIM, OBS_DIM, Dataset, NormStats, fit_norm_stats, usable_cpus
from .errors import EmptyDataset, NonFiniteLoss, ShapeMismatch, TruncatedFile, UnknownTask

MULTI_TASK = "multi_task"
SINGLE_TASK = "single_task"


@functools.lru_cache(maxsize=None)
def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS bundled with
    numpy's wheels, or None when there is none to be found."""
    root = Path(np.__file__).parent
    libs = sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")])
    for path in libs:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                return get, set_
    return None


def elu(x):
    """ELU with alpha = 1: x for x > 0, exp(x) - 1 otherwise.  No
    np.where (it mispredicts on mixed signs): expm1(0) = 0 exactly."""
    x = np.asarray(x, dtype=float)
    out = np.expm1(np.minimum(x, 0.0))
    out += np.maximum(x, 0.0)
    return out


def elu_grad(x):
    """exp(min(x, 0)): 1 for x > 0, exactly, since exp(0) = 1."""
    return np.exp(np.minimum(np.asarray(x, dtype=float), 0.0))


@dataclass
class ArchSpec:
    kind: str = MULTI_TASK
    input_dim: int = OBS_DIM
    output_dim: int = ACT_DIM
    hidden_width: int = 128
    num_tasks: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (MULTI_TASK, SINGLE_TASK):
            raise ValueError(f"unknown architecture kind '{self.kind}'")
        if self.kind == SINGLE_TASK:
            self.num_tasks = 1
        if self.hidden_width < 1 or self.num_tasks < 1:
            raise ValueError("hidden_width and num_tasks must be >= 1")


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 256
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    val_fraction: float = 0.1
    seed: int = 0
    # std of Gaussian noise added to raw observation features during
    # training, expressed in units of each feature's own std (a Jacobian
    # regularizer: keeps the policy tame one step off the data manifold).
    # Validation always runs on clean data.
    input_noise: float = 0.05

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.val_fraction <= 0.5:
            raise ValueError("val_fraction must be in (0, 0.5]")
        if self.input_noise < 0:
            raise ValueError("input_noise must be >= 0")


class MtlNetwork:
    """Parameters plus normalization stats; see module docstring.

    Weight matrices are (out_features, in_features); layers are stored
    trunk-first, then per-head (hidden, output) in task order.
    """

    def __init__(self, arch: ArchSpec, norm: NormStats, params: list[np.ndarray] | None = None):
        self.arch = arch
        self.norm = norm
        if params is None:
            params = _init_params(arch)
        self.params = params

    # layout helpers: trunk and heads hold two layers (W, b) each ----------
    def trunk(self):
        return self.params[:4]

    def head(self, k: int):
        return self.params[4 * (k + 1) : 4 * (k + 2)]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.params)

    def copy(self) -> "MtlNetwork":
        return MtlNetwork(
            self.arch,
            NormStats(self.norm.mean.copy(), self.norm.std.copy()),
            [p.copy() for p in self.params],
        )

    # inference -----------------------------------------------------------
    def _check_task(self, task_id: int):
        """The head index of `task_id`; a single-task net sends every id to
        its one head."""
        if self.arch.kind == SINGLE_TASK:
            return 0
        if not 0 <= task_id < self.arch.num_tasks:
            raise UnknownTask(f"task id {task_id} outside 0..{self.arch.num_tasks - 1}")
        return task_id

    def forward(self, obs: np.ndarray, task_id: int) -> np.ndarray:
        """Joint position targets for one observation or a batch."""
        task_id = self._check_task(task_id)
        obs = np.asarray(obs, dtype=float)
        out = self._forward(np.atleast_2d(obs), task_id)
        return out[0] if obs.ndim == 1 else out

    def _forward(self, obs: np.ndarray, task_id: int, keep: list | None = None) -> np.ndarray:
        """Outputs for a batch and a checked task id.  With a list `keep`,
        each layer's (input, pre-activation) pair is appended to it, input
        layer first: what backprop needs.  Without one, each activation is
        dropped once the next layer has read it."""
        x = self.norm.normalize(obs)
        layers = self.trunk() + self.head(task_id)
        for i in range(0, len(layers), 2):
            z = x @ layers[i].T + layers[i + 1]
            if keep is not None:
                keep.append((x, z))
            x = elu(z) if i + 2 < len(layers) else z
        return x


def _layer_shapes(arch: ArchSpec):
    """(rows, cols) of the weight matrices as (trunk, one head): the
    parameter list is the trunk's layers, then each head's in task order."""
    h, d_in, d_out = arch.hidden_width, arch.input_dim, arch.output_dim
    return [(h, d_in), (h, h)], [(h, h), (d_out, h)]


def _layer_bytes(shapes) -> int:
    """QMP1 bytes of these layers: a shape pair, f32 weights and bias each."""
    return sum(_SHAPE.size + 4 * (rows * cols + rows) for rows, cols in shapes)


def _init_params(arch: ArchSpec) -> list[np.ndarray]:
    """He-style init scaled for ELU (std = sqrt(1.55 / fan_in)), zero biases."""
    rng = np.random.default_rng(arch.seed)
    trunk, head = _layer_shapes(arch)
    params: list[np.ndarray] = []
    for rows, cols in trunk + head * arch.num_tasks:
        params += [rng.standard_normal((rows, cols)) * np.sqrt(1.55 / cols), np.zeros(rows)]
    return params


# ---------------------------------------------------------------------------
# loss and gradients

def total_loss(net: MtlNetwork, batches: dict[int, tuple[np.ndarray, np.ndarray]]):
    """Objective over per-task batches: sum of summed squared errors.

    Returns (raw_sum, per_sample_mean, per_task_sums) accumulated in
    fixed task-then-record order.
    """
    raw = 0.0
    count = 0
    per_task = {}
    for task in sorted(batches):
        obs, act = batches[task]
        if len(obs) == 0:
            per_task[task] = 0.0
            continue
        err = net.forward(obs, task) - act
        s = float(np.sum(err * err))
        per_task[task] = s
        raw += s
        count += len(obs)
    mean = raw / count if count else 0.0
    return raw, mean, per_task


def backward(net: MtlNetwork, batches: dict[int, tuple[np.ndarray, np.ndarray]], scale: str = "mean"):
    """Exact reverse-mode gradients of the batch loss for every parameter.

    Samples of task k contribute only to head k and the trunk.  With
    scale="mean" the loss is the per-sample mean of squared errors
    (used for optimization); "sum" matches the raw objective.  Returns
    (grads, loss).
    """
    grad, per_task, factor = _backward_per_task(net, batches, scale)
    return _views(grad, net.params), sum(per_task[task] for task in sorted(per_task)) * factor


def _backward_per_task(net: MtlNetwork, batches, scale: str):
    """backward(), returning (gradient, per-task summed squared errors
    of the batch, loss scale) instead: the gradient as one flat vector in
    parameter order, the errors taken at the parameters it was computed
    at, and the factor that turns their sum into the loss."""
    grad = np.zeros(net.num_parameters())
    grads = _views(grad, net.params)
    per_task = {task: 0.0 for task in batches}
    n_total = sum(len(obs) for obs, _ in batches.values())
    factor = 1.0 / n_total if scale == "mean" and n_total else 1.0

    for task in sorted(batches):
        obs, act = batches[task]
        if len(obs) == 0:
            continue
        task_idx = net._check_task(task)
        kept = []
        out = net._forward(np.asarray(obs, dtype=float), task_idx, keep=kept)
        err = out - np.asarray(act, dtype=float)
        per_task[task] = float(np.sum(err * err))

        # parameter index of each layer's weights, input layer first
        head = 4 * (task_idx + 1)
        weights = [0, 2, head, head + 2]
        delta = 2.0 * factor * err
        for layer in range(len(weights) - 1, -1, -1):
            w = weights[layer]
            x, z = kept[layer]
            if layer < len(weights) - 1:
                delta *= elu_grad(z)
            grads[w] += delta.T @ x
            grads[w + 1] += delta.sum(axis=0)
            if layer > 0:
                delta = delta @ net.params[w]
    return grad, per_task, factor


def _views(flat: np.ndarray, like) -> list[np.ndarray]:
    """Views of the 1-D `flat` shaped like the arrays of `like`, in order."""
    ends = np.cumsum([p.size for p in like])
    return [flat[end - p.size : end].reshape(p.shape) for p, end in zip(like, ends)]


# ---------------------------------------------------------------------------
# Adam

@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    scratch: list[np.ndarray]
    t: int = 0

    @staticmethod
    def for_params(params) -> "AdamState":
        return AdamState(*([np.zeros_like(p) for p in params] for _ in range(3)))


def adam_step(params, grads, state: AdamState, cfg: TrainConfig):
    """Standard bias-corrected Adam update, in place; the gradients are
    overwritten as scratch.  Each operation is one ufunc pass per array,
    so train() passes its parameters as one flat vector."""
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for p, g, m, v, s in zip(params, grads, state.m, state.v, state.scratch):
        np.multiply(g, 1.0 - b2, out=s)
        s *= g
        v *= b2
        v += s
        g *= 1.0 - b1
        m *= b1
        m += g
        np.divide(v, c2, out=s)
        np.sqrt(s, out=s)
        s += cfg.eps
        np.divide(m, c1, out=g)
        g *= cfg.learning_rate
        g /= s
        p -= g


# ---------------------------------------------------------------------------
# training loop

@dataclass
class EpochRecord:
    """Per-task losses of one epoch: train_loss is the per-sample mean
    over its minibatches, each taken before its update; val_loss is
    taken at the epoch's end."""

    epoch: int
    train_loss: dict[int, float]
    val_loss: dict[int, float]


def _split_train_val(n: int, val_fraction: float, rng: np.random.Generator):
    idx = rng.permutation(n)
    n_val = max(1, int(round(n * val_fraction)))
    return idx[n_val:], idx[:n_val]


def _task_mean_loss(net: MtlNetwork, obs: np.ndarray, act: np.ndarray, task: int) -> float:
    """Per-sample mean of squared 12-dim error, chunked for memory."""
    chunk = 8192
    total = 0.0
    for i in range(0, len(obs), chunk):
        err = net.forward(obs[i : i + chunk], task) - act[i : i + chunk]
        total += float(np.sum(err * err))
    return total / max(len(obs), 1)


def train(
    datasets: dict[int, Dataset],
    arch: ArchSpec,
    cfg: TrainConfig,
    log_fn=None,
):
    """Train on per-task datasets; returns (best network, epoch records).

    Minibatches are balanced across tasks: each step draws an equal
    share of every task's shuffled stream.  The training loss of an
    epoch is the per-sample mean over its minibatches, each measured in
    the gradient pass, before its update.  Validation loss is tracked
    per task; the returned parameters are the snapshot with the best
    total validation loss.  OpenBLAS runs on one thread meanwhile (at
    these shapes a second one costs more than it gains), and the caller's
    thread count is restored on return; the weights do not depend on it.
    """
    if not datasets:
        raise EmptyDataset("no training datasets")
    tasks = sorted(datasets)
    if arch.kind == MULTI_TASK and len(tasks) != arch.num_tasks:
        raise ValueError("num_tasks must match the number of datasets")

    rng = np.random.default_rng(cfg.seed)
    splits = {}
    for task in tasks:
        ds = datasets[task]
        if len(ds) < 4:
            raise EmptyDataset(f"task {task} has too few records")
        tr, va = _split_train_val(len(ds), cfg.val_fraction, rng)
        obs = ds.obs.astype(float)
        act = ds.act.astype(float)
        splits[task] = (obs[tr], act[tr], obs[va], act[va])

    train_obs_all = np.concatenate([splits[t][0] for t in tasks])
    norm = fit_norm_stats(train_obs_all)
    net = MtlNetwork(arch, norm)
    flat = np.concatenate([p.ravel() for p in net.params])
    net.params = _views(flat, net.params)
    adam = AdamState.for_params([flat])

    share = max(cfg.batch_size // len(tasks), 1)
    steps_per_epoch = max(1, min(len(splits[t][0]) // share for t in tasks))

    get_threads, set_threads = _openblas_threads() or (lambda: None, lambda n: None)
    threads = get_threads()
    set_threads(1)
    try:
        best_total = np.inf
        best_params = None
        history: list[EpochRecord] = []
        for epoch in range(1, cfg.epochs + 1):
            order = {t: rng.permutation(len(splits[t][0])) for t in tasks}
            running = {t: 0.0 for t in tasks}
            running_n = {t: 0 for t in tasks}
            for s in range(steps_per_epoch):
                batch = {}
                for t in tasks:
                    sel = order[t][s * share : (s + 1) * share]
                    obs_b = splits[t][0][sel]
                    if cfg.input_noise > 0:
                        obs_b = obs_b + cfg.input_noise * norm.std * rng.standard_normal(obs_b.shape)
                    batch[t] = (obs_b, splits[t][1][sel])
                grad, batch_loss, _ = _backward_per_task(net, batch, scale="mean")
                adam_step([flat], [grad], adam, cfg)
                for t in tasks:
                    running[t] += batch_loss[t]
                    running_n[t] += len(batch[t][0])

            train_loss = {t: running[t] / max(running_n[t], 1) for t in tasks}
            val_loss = {t: _task_mean_loss(net, splits[t][2], splits[t][3], t) for t in tasks}
            total_val = sum(val_loss.values())
            if not np.isfinite(total_val) or not all(np.isfinite(v) for v in train_loss.values()):
                raise NonFiniteLoss(epoch)
            history.append(EpochRecord(epoch, train_loss, val_loss))
            if total_val < best_total:
                best_total = total_val
                best_params = flat.copy()
            if log_fn:
                log_fn(epoch, train_loss, val_loss)

        if best_params is not None:
            net.params = _views(best_params, net.params)
        return net, history
    finally:
        set_threads(threads)


def train_many(jobs):
    """Train independent (datasets, arch, cfg) jobs; returns their
    (network, history) pairs in job order.

    The jobs run in spawned processes (so a calling script guards its
    entry point), one per usable CPU; each result is bitwise what
    train() returns for the same job.  On a single usable CPU, or for a
    single job, they run in this process.
    """
    jobs = list(jobs)
    workers = min(usable_cpus(), len(jobs))
    if workers > 1:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            return list(pool.map(train, *zip(*jobs)))
    return [train(*job) for job in jobs]


# ---------------------------------------------------------------------------
# QMP1 weights file

_MAGIC = b"QMP1"
_VERSION = 1
_KIND_CODE = {MULTI_TASK: 0, SINGLE_TASK: 1}
_KIND_NAME = {v: k for k, v in _KIND_CODE.items()}
# after the version: kind code, input dim, output dim, hidden width, task count
_HEADER = struct.Struct("<BIIII")
_SHAPE = struct.Struct("<II")


def save_weights(path, net: MtlNetwork):
    """QMP1: container framing around the architecture header, f32 norm
    stats and per-layer (rows, cols, W, b)."""
    arch = net.arch
    body = [_HEADER.pack(_KIND_CODE[arch.kind], arch.input_dim, arch.output_dim,
                         arch.hidden_width, arch.num_tasks),
            net.norm.mean.astype("<f4").tobytes(), net.norm.std.astype("<f4").tobytes()]
    for i in range(0, len(net.params), 2):
        W, b = net.params[i], net.params[i + 1]
        body += [_SHAPE.pack(*W.shape), W.astype("<f4").tobytes(), b.astype("<f4").tobytes()]
    write_container(path, _MAGIC, _VERSION, b"".join(body))


def load_weights(path) -> MtlNetwork:
    body = read_container(path, _MAGIC, _VERSION, _HEADER.size)
    kind_code, d_in, d_out, h, k = _HEADER.unpack_from(body)
    if kind_code not in _KIND_NAME:
        raise ShapeMismatch(f"{path}: unknown architecture code {kind_code}")
    try:
        arch = ArchSpec(kind=_KIND_NAME[kind_code], input_dim=d_in, output_dim=d_out,
                        hidden_width=h, num_tasks=k)
    except ValueError as exc:
        raise ShapeMismatch(f"{path}: {exc}") from None
    # the size the header implies, checked before anything is allocated
    trunk, head = _layer_shapes(arch)
    need = _HEADER.size + 8 * d_in + _layer_bytes(trunk) + k * _layer_bytes(head)
    if need > len(body):
        raise TruncatedFile(f"{path}: header implies {need} body bytes, found {len(body)}")
    if need < len(body):
        raise ShapeMismatch(f"{path}: {len(body) - need} trailing bytes")
    off = _HEADER.size
    mean = np.frombuffer(body, dtype="<f4", count=d_in, offset=off).astype(float)
    off += 4 * d_in
    std = np.frombuffer(body, dtype="<f4", count=d_in, offset=off).astype(float)
    off += 4 * d_in
    params = []
    for rows, cols in trunk + head * k:
        shape = _SHAPE.unpack_from(body, off)
        off += _SHAPE.size
        if shape != (rows, cols):
            raise ShapeMismatch(f"{path}: layer shape {shape}, expected {(rows, cols)}")
        W = np.frombuffer(body, dtype="<f4", count=rows * cols, offset=off).astype(float)
        off += 4 * rows * cols
        b = np.frombuffer(body, dtype="<f4", count=rows, offset=off).astype(float)
        off += 4 * rows
        params += [W.reshape(rows, cols), b]
    return MtlNetwork(arch, NormStats(mean, std), params)
