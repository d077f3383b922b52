"""Conditional prediction network with explicit forward/backward passes.

One architecture serves both training objectives: the network maps a noisy
or interpolated latent, a scalar time in [0, 1], and a fixed condition
embedding to a latent-shaped prediction (noise for the diffusion objective,
velocity for the flow objective).  Gradients are computed analytically; no
autograd framework is involved.
"""

import json
import struct

import numpy as np

from .errors import CheckpointError, DivergenceError
from .rng import SeededRng

DEFAULT_HIDDEN = 128
DEFAULT_TIME_DIM = 16
DEFAULT_TIME_BASE = 2.0

_PARAM_ORDER = ("w1", "b1", "w2", "b2", "w3", "b3")


def time_embedding(t, dim: int = DEFAULT_TIME_DIM, base: float = DEFAULT_TIME_BASE) -> np.ndarray:
    """Sinusoidal features of scalar time(s) in [0, 1].

    Feature layout is [sin(w_0 t), ..., sin(w_{F-1} t), cos(w_0 t), ...,
    cos(w_{F-1} t)] with F = dim/2 geometric frequencies w_j = pi * base**j.
    The lowest pair (sin(pi t), cos(pi t)) alone is injective on [0, 1], so
    distinct times map to distinct embeddings.
    """
    if dim < 2 or dim % 2 != 0:
        raise ValueError(f"time embedding dim must be a positive even number, got {dim}")
    t = np.asarray(t, dtype=np.float64)
    if t.size and (t.min() < 0.0 or t.max() > 1.0):
        raise ValueError(f"time values must lie in [0, 1], got range [{t.min()}, {t.max()}]")
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    freqs = np.pi * base ** np.arange(dim // 2)
    phase = t[:, None] * freqs[None, :]
    emb = np.concatenate([np.sin(phase), np.cos(phase)], axis=1)
    return emb[0] if scalar else emb


def _silu(z):
    sig = 1.0 / (1.0 + np.exp(-z))
    return z * sig


def _silu_grad(z):
    sig = 1.0 / (1.0 + np.exp(-z))
    return sig * (1.0 + z * (1.0 - sig))


class PriorNetwork:
    """Two-hidden-layer SiLU MLP: [latent | time features | condition] -> latent.

    Parameters live in ``self.params`` (a name -> array dict) so the
    optimizer and checkpoint code can treat them uniformly.
    """

    def __init__(self, d_latent: int, d_cond: int, hidden: int = DEFAULT_HIDDEN,
                 d_time: int = DEFAULT_TIME_DIM, time_base: float = DEFAULT_TIME_BASE):
        self.d_latent = d_latent
        self.d_cond = d_cond
        self.hidden = hidden
        self.d_time = d_time
        self.time_base = time_base
        d_in = d_latent + d_time + d_cond
        self.params = {
            "w1": np.zeros((d_in, hidden)),
            "b1": np.zeros(hidden),
            "w2": np.zeros((hidden, hidden)),
            "b2": np.zeros(hidden),
            "w3": np.zeros((hidden, d_latent)),
            "b3": np.zeros(d_latent),
        }

    @property
    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    @classmethod
    def initialized(cls, d_latent: int, d_cond: int, rng: SeededRng,
                    hidden: int = DEFAULT_HIDDEN, d_time: int = DEFAULT_TIME_DIM,
                    time_base: float = DEFAULT_TIME_BASE) -> "PriorNetwork":
        """Uniform fan-in initialization: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
        net = cls(d_latent, d_cond, hidden=hidden, d_time=d_time, time_base=time_base)
        for w_name, b_name in (("w1", "b1"), ("w2", "b2"), ("w3", "b3")):
            w = net.params[w_name]
            bound = 1.0 / np.sqrt(w.shape[0])
            net.params[w_name] = (rng.uniform(w.size).reshape(w.shape) * 2.0 - 1.0) * bound
            b = net.params[b_name]
            net.params[b_name] = (rng.uniform(b.size) * 2.0 - 1.0) * bound
        return net

    def copy(self) -> "PriorNetwork":
        dup = PriorNetwork(self.d_latent, self.d_cond, hidden=self.hidden,
                           d_time=self.d_time, time_base=self.time_base)
        dup.params = {k: v.copy() for k, v in self.params.items()}
        return dup

    def _assemble(self, x_t: np.ndarray, t: np.ndarray, cond: np.ndarray) -> np.ndarray:
        x_t = np.asarray(x_t, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        cond = np.asarray(cond, dtype=np.float64)
        if x_t.ndim != 2 or x_t.shape[1] != self.d_latent:
            raise ValueError(f"latent batch must be [B x {self.d_latent}], got {x_t.shape}")
        if t.shape != (x_t.shape[0],):
            raise ValueError(f"time vector must be [B]={x_t.shape[0]}, got {t.shape}")
        if cond.shape != (x_t.shape[0], self.d_cond):
            raise ValueError(
                f"condition batch must be [B x {self.d_cond}], got {cond.shape}")
        t_feat = time_embedding(t, self.d_time, self.time_base)
        return np.concatenate([x_t, t_feat, cond], axis=1)

    def forward(self, x_t: np.ndarray, t: np.ndarray, cond: np.ndarray) -> np.ndarray:
        out, _ = self.forward_cached(x_t, t, cond)
        return out

    def forward_cached(self, x_t, t, cond):
        """Forward pass returning (output, cache-for-backward)."""
        p = self.params
        u = self._assemble(x_t, t, cond)
        z1 = u @ p["w1"] + p["b1"]
        h1 = _silu(z1)
        z2 = h1 @ p["w2"] + p["b2"]
        h2 = _silu(z2)
        out = h2 @ p["w3"] + p["b3"]
        cache = {"u": u, "z1": z1, "h1": h1, "z2": z2, "h2": h2}
        return out, cache

    def backward(self, cache: dict, dout: np.ndarray) -> dict:
        """Gradients of a scalar loss w.r.t. every parameter.

        ``dout`` is the loss gradient at the network output; contributions
        are summed over the batch, so any mean-reduction factors belong in
        ``dout`` itself.
        """
        if not cache:
            raise ValueError("backward called without cached forward activations")
        p = self.params
        dout = np.asarray(dout, dtype=np.float64)
        if dout.shape != cache["h2"].shape[:1] + (self.d_latent,):
            raise ValueError(
                f"output gradient must be [B x {self.d_latent}], got {dout.shape}")
        grads = {}
        grads["w3"] = cache["h2"].T @ dout
        grads["b3"] = dout.sum(axis=0)
        dh2 = dout @ p["w3"].T
        dz2 = dh2 * _silu_grad(cache["z2"])
        grads["w2"] = cache["h1"].T @ dz2
        grads["b2"] = dz2.sum(axis=0)
        dh1 = dz2 @ p["w2"].T
        dz1 = dh1 * _silu_grad(cache["z1"])
        grads["w1"] = cache["u"].T @ dz1
        grads["b1"] = dz1.sum(axis=0)
        return grads


class AdamW:
    """AdamW with decoupled weight decay and bias-corrected moments.

    The decay term uses the pre-update parameter value and never enters the
    moment estimates.
    """

    def __init__(self, lr: float = 2e-4, beta1: float = 0.9, beta2: float = 0.99,
                 weight_decay: float = 0.01, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.weight_decay = weight_decay
        self.eps = eps
        self.step_count = 0
        self.m = None
        self.v = None

    def step(self, params: dict, grads: dict) -> None:
        """Apply one update in place."""
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise DivergenceError(f"non-finite gradient for parameter '{name}'")
        if self.m is None:
            self.m = {k: np.zeros_like(p) for k, p in params.items()}
            self.v = {k: np.zeros_like(p) for k, p in params.items()}
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name, p in params.items():
            g = grads[name]
            decay = self.lr * self.weight_decay * p
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps) + decay


# --- checkpoint container -------------------------------------------------
#
# Layout (little-endian):
#   8 bytes   magic b"PBCKPT1\n"
#   u32       UTF-8 JSON header length
#   ...       JSON header: {"version": 1, "arch": {...}, "meta": {...},
#                           "arrays": [{"name": str, "shape": [int, ...]}]}
#   ...       per array, float64 C-order raw bytes, in header order

CHECKPOINT_MAGIC = b"PBCKPT1\n"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, net: PriorNetwork, meta: dict) -> None:
    """Write network parameters plus run metadata to ``path``."""
    arch = {
        "d_latent": net.d_latent,
        "d_cond": net.d_cond,
        "hidden": net.hidden,
        "d_time": net.d_time,
        "time_base": net.time_base,
    }
    names = list(_PARAM_ORDER)
    header = {
        "version": CHECKPOINT_VERSION,
        "arch": arch,
        "meta": meta,
        "arrays": [{"name": n, "shape": list(net.params[n].shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(net.params[n], dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (PriorNetwork, metadata dict).

    Raises CheckpointError on a truncated, padded or inconsistent file.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = blob[:len(CHECKPOINT_MAGIC)]
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic {magic!r})")
    start = len(CHECKPOINT_MAGIC) + 4
    hlen = int.from_bytes(blob[len(CHECKPOINT_MAGIC):start], "little")
    if len(blob) < start + hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[start:start + hlen].decode("utf8"))
        version, arch, meta = header["version"], header["arch"], header["meta"]
        net = PriorNetwork(arch["d_latent"], arch["d_cond"], hidden=arch["hidden"],
                           d_time=arch["d_time"], time_base=arch["time_base"])
        layout = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc!r}") from exc
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version!r}")
    expected = [(name, net.params[name].shape) for name in _PARAM_ORDER]
    if layout != expected:
        raise CheckpointError(
            f"{path}: arrays {layout} do not match the architecture's {expected}")
    offset = start + hlen
    if len(blob) - offset != 8 * net.param_count:
        raise CheckpointError(f"{path}: array payload is {len(blob) - offset} bytes, "
                              f"expected {8 * net.param_count}")
    for name, shape in layout:
        count = net.params[name].size
        data = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        net.params[name] = data.reshape(shape).astype(np.float64)
        offset += 8 * count
    return net, meta
