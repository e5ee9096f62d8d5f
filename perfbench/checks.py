"""Output checks written from the documented file layouts and physics,
independently of the quadgait readers they check.

Each check raises `CheckFailed` with a message naming the file and the
property that does not hold.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

F32_EPS = float(np.finfo(np.float32).eps)


class CheckFailed(Exception):
    pass


def require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# QGD1 datasets

def decode_qgd1(path) -> dict:
    """QGD1 as the README lays it out: magic, little-endian header
    (version, obs_dim, act_dim, task count, record count, sample rate),
    length-prefixed UTF-8 task names, packed (u32 task, f32 obs, f32 act)
    records, trailing CRC32 of every preceding byte."""
    blob = Path(path).read_bytes()
    require(blob[:4] == b"QGD1", f"{path}: magic {blob[:4]!r}")
    (crc,) = struct.unpack("<I", blob[-4:])
    require(zlib.crc32(blob[:-4]) == crc, f"{path}: CRC32 does not match the bytes")
    version, obs_dim, act_dim, n_tasks, count, rate = struct.unpack_from("<IIIIQf", blob, 4)
    off = 4 + struct.calcsize("<IIIIQf")
    names = []
    for _ in range(n_tasks):
        (n,) = struct.unpack_from("<I", blob, off)
        names.append(blob[off + 4 : off + 4 + n].decode("utf-8"))
        off += 4 + n
    rec = np.dtype([("task", "<u4"), ("obs", "<f4", (obs_dim,)), ("act", "<f4", (act_dim,))])
    require(off + count * rec.itemsize == len(blob) - 4, f"{path}: {count} records do not fill the file")
    records = np.frombuffer(blob, dtype=rec, count=count, offset=off)
    return {"version": version, "names": names, "rate": rate, "task": records["task"],
            "obs": records["obs"], "act": records["act"]}


def check_dataset_file(path, dataset, cells: int, samples: int, joint_limits: np.ndarray, dt: float):
    """One collected .qgd file against its decoded bytes, its plan and
    the simulator's integration rule."""
    raw = decode_qgd1(path)
    require(raw["version"] == 1, f"{path}: version {raw['version']}")
    require(raw["names"] == list(dataset.task_names), f"{path}: task names differ from read_dataset")
    require(raw["rate"] == np.float32(dataset.sample_rate_hz), f"{path}: sample rate differs")
    for key, theirs in (("task", dataset.task_id), ("obs", dataset.obs), ("act", dataset.act)):
        require(np.array_equal(raw[key], theirs), f"{path}: {key} differs from read_dataset")
    require(len(raw["task"]) == cells * samples,
            f"{path}: {len(raw['task'])} records, expected {cells} cells x {samples}")
    obs, act = raw["obs"], raw["act"]
    require(np.isfinite(obs).all() and np.isfinite(act).all(), f"{path}: non-finite values")
    flags = obs[:, 30:34]
    require(np.isin(flags, (0.0, 1.0)).all(), f"{path}: contact flags other than 0/1")
    q, v = obs[:, 6:18], obs[:, 18:30]
    lo = joint_limits[:, 0].astype(np.float32)
    hi = joint_limits[:, 1].astype(np.float32)
    require(((q >= lo) & (q <= hi)).all(), f"{path}: joint position outside joint_limits")
    # semi-implicit Euler: q[k+1] = q[k] + v[k+1] dt, to float32 rounding,
    # except where the joint stop clipped q[k+1] (and zeroed v[k+1])
    q64, v64 = q.astype(float), v.astype(float)
    for c in range(cells):
        sl = slice(c * samples, (c + 1) * samples)
        qc, vc = q64[sl], v64[sl]
        lhs = qc[1:] - qc[:-1]
        rhs = vc[1:] * dt
        tol = (np.spacing(np.abs(q[sl][1:])) + np.spacing(np.abs(q[sl][:-1]))).astype(float) \
            + 4 * F32_EPS * np.abs(rhs)
        at_stop = (q[sl][1:] == lo) | (q[sl][1:] == hi)
        bad = (np.abs(lhs - rhs) > tol) & ~at_stop
        require(not bad.any(),
                f"{path}: cell {c}: q[k+1]-q[k] != v[k+1]*dt at {int(bad.sum())} entries "
                f"(worst {np.max(np.abs(lhs - rhs)[bad]) if bad.any() else 0:.3g})")


def check_collection_report(path, cells: int):
    first = Path(path).read_text().splitlines()[0]
    require(first.startswith(f"cells={cells} diverged=0 "), f"{path}: {first!r}")


# ---------------------------------------------------------------------------
# QMP1 weights and the clone's outputs

def _elu(z):
    return np.where(z > 0, z, np.exp(np.minimum(z, 0.0)) - 1.0)


def reference_forward(path, obs: np.ndarray, task: int) -> np.ndarray:
    """MLP forward read straight from the QMP1 layout: header, f32
    z-score stats, (rows, cols, W, b) layers trunk-first then per head;
    ELU on hidden layers, linear output."""
    blob = Path(path).read_bytes()
    require(blob[:4] == b"QMP1", f"{path}: magic {blob[:4]!r}")
    (crc,) = struct.unpack("<I", blob[-4:])
    require(zlib.crc32(blob[:-4]) == crc, f"{path}: CRC32 does not match the bytes")
    _version, kind, d_in, _d_out, _h, n_heads = struct.unpack_from("<IBIIII", blob, 4)
    off = 4 + struct.calcsize("<IBIIII")
    mean = np.frombuffer(blob, "<f4", d_in, off).astype(float)
    std = np.frombuffer(blob, "<f4", d_in, off + 4 * d_in).astype(float)
    off += 8 * d_in
    layers = []
    while off < len(blob) - 4:
        rows, cols = struct.unpack_from("<II", blob, off)
        W = np.frombuffer(blob, "<f4", rows * cols, off + 8).astype(float).reshape(rows, cols)
        b = np.frombuffer(blob, "<f4", rows, off + 8 + 4 * rows * cols).astype(float)
        layers.append((W, b))
        off += 8 + 4 * (rows * cols + rows)
    if kind == 0:   # multi-task: 2 trunk layers, then (hidden, output) per head
        require(len(layers) == 2 + 2 * n_heads, f"{path}: {len(layers)} layers")
        chain = layers[:2] + layers[2 + 2 * task : 4 + 2 * task]
    else:           # single task: 3 hidden layers and the output
        require(len(layers) == 4, f"{path}: {len(layers)} layers")
        chain = layers
    x = (np.asarray(obs, dtype=float) - mean) / std
    for W, b in chain[:-1]:
        x = _elu(x @ W.T + b)
    W, b = chain[-1]
    return x @ W.T + b


def pooled_r2(pred: np.ndarray, truth: np.ndarray) -> float:
    err = pred - truth
    return 1.0 - float(np.sum(err * err)) / float(np.sum((truth - truth.mean()) ** 2))


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_curves(path, ratio: float = 0.2):
    """Best validation loss below `ratio` x the epoch-1 loss, per task."""
    _, rows = read_csv(path)
    first, best = {}, {}
    for epoch, task, _train, val in rows:
        val = float(val)
        if int(epoch) == 1:
            first[task] = val
        best[task] = min(best.get(task, np.inf), val)
    require(first, f"{path}: no epoch 1")
    for task, v1 in first.items():
        require(best[task] < ratio * v1, f"{path}: {task} best val {best[task]:.4g} vs epoch 1 {v1:.4g}")


# ---------------------------------------------------------------------------
# rollout logs

def _half_unit_9g(x: np.ndarray) -> np.ndarray:
    """Half a unit in the last place of a value printed with '%.9g'."""
    mag = np.floor(np.log10(np.maximum(np.abs(x), 1e-300)))
    return 0.5 * 10.0 ** (mag - 8)


def body_x_velocity(quat: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """x component of R(q)^T v for unit quaternions (w, x, y, z)."""
    w, x, y, z = quat.T
    return (1 - 2 * (y * y + z * z)) * vel[:, 0] + 2 * (x * y + w * z) * vel[:, 1] \
        + 2 * (x * z - w * y) * vel[:, 2]


def check_rollout_log(path, dt: float, duration: float, vx_cmd: float, transient: float,
                      nominal_height: float):
    header, rows = read_csv(path)
    data = np.array(rows, dtype=float)
    col = {name: i for i, name in enumerate(header)}
    n = int(round(duration / dt))
    require(data.shape == (n, len(header)), f"{path}: shape {data.shape}, expected {n} rows")
    require(np.isfinite(data).all(), f"{path}: non-finite values")
    t = data[:, col["t"]]
    dt_err = np.abs(np.diff(t) - dt)
    require((dt_err <= _half_unit_9g(t[1:]) + _half_unit_9g(t[:-1]) + 1e-15).all(),
            f"{path}: t does not step by dt (worst {dt_err.max():.3g})")
    pz, vz = data[:, col["pz"]], data[:, col["vz"]]
    z_err = np.abs(np.diff(pz) - vz[1:] * dt)
    tol = _half_unit_9g(pz[1:]) + _half_unit_9g(pz[:-1]) + _half_unit_9g(vz[1:]) * dt + 1e-15
    require((z_err <= tol).all(), f"{path}: pz[k+1]-pz[k] != vz[k+1]*dt (worst {z_err.max():.3g})")
    quat = data[:, [col["qw"], col["qx"], col["qy"], col["qz"]]]
    norm_err = np.abs(np.linalg.norm(quat, axis=1) - 1.0)
    require((norm_err < 1e-8).all(), f"{path}: quaternion norm off by {norm_err.max():.3g}")
    height = data[:, col["pz"]]
    require(((height >= 0.4 * nominal_height) & (height <= 1.6 * nominal_height)).all(),
            f"{path}: height {height.min():.3f}..{height.max():.3f} leaves the survival band")
    w, x, y, z = quat.T
    roll = np.arctan2(2 * (w * x + y * z), 1 - 2 * (x * x + y * y))
    pitch = np.arcsin(np.clip(2 * (w * y - z * x), -1.0, 1.0))
    require((np.abs(roll) < 0.6).all() and (np.abs(pitch) < 0.6).all(),
            f"{path}: tilt leaves the survival band")
    if vx_cmd != 0.0:
        vel = data[:, [col["vx"], col["vy"], col["vz"]]]
        after = t >= transient
        mean_vx = float(np.mean(body_x_velocity(quat[after], vel[after])))
        require(np.sign(mean_vx) == np.sign(vx_cmd),
                f"{path}: mean body vx {mean_vx:+.3f} against command {vx_cmd:+.3f}")
