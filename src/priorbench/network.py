"""Conditional prediction network with explicit forward/backward passes.

One architecture serves both training objectives: the network maps a noisy
or interpolated latent, a scalar time in [0, 1], and a fixed condition
embedding to a latent-shaped prediction (noise for the diffusion objective,
velocity for the flow objective).  Gradients are computed analytically; no
autograd framework is involved.  Parameters, gradients, AdamW moments and
the checkpoint payload share one flat layout, stated once in ``PriorNetwork``.
"""

import json
import math
import struct

import numpy as np

from .errors import CheckpointError, DivergenceError
from .rng import SeededRng

DEFAULT_HIDDEN = 128
DEFAULT_TIME_DIM = 16
DEFAULT_TIME_BASE = 2.0


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


def _silu(z, sig, out):
    """``out = z * sigmoid(z)``, with ``sig`` (shaped like ``z``) as scratch.

    The sigmoid is built in the order 1 / (1 + exp(-z)), so the result is
    bit-identical to evaluating that expression with fresh temporaries.
    """
    np.negative(z, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    return np.multiply(z, sig, out=out)


def _silu_grad(z):
    sig = 1.0 / (1.0 + np.exp(-z))
    return sig * (1.0 + z * (1.0 - sig))


def _layout(d_latent, d_cond, hidden, d_time, time_base) -> tuple:
    """``PriorNetwork(**arch).layout``, without allocating; takes exactly the
    constructor's arguments, though ``time_base`` shapes nothing."""
    d_in = d_latent + d_time + d_cond
    return (("w1", (d_in, hidden)), ("b1", (hidden,)),
            ("w2", (hidden, hidden)), ("b2", (hidden,)),
            ("w3", (hidden, d_latent)), ("b3", (d_latent,)))


class PriorNetwork:
    """Two-hidden-layer SiLU MLP: [latent | time features | condition] -> latent.

    All parameters live in one float64 vector, ``flat``: the C-order blocks of
    ``layout``'s (name, shape) pairs, back to back.  ``params`` maps each name
    to a view of its block, so write through it in place
    (``net.params["w1"][...] = w``); rebinding an entry detaches it from ``flat``.
    """

    def __init__(self, d_latent: int, d_cond: int, hidden: int = DEFAULT_HIDDEN,
                 d_time: int = DEFAULT_TIME_DIM, time_base: float = DEFAULT_TIME_BASE):
        self.d_latent = d_latent
        self.d_cond = d_cond
        self.hidden = hidden
        self.d_time = d_time
        self.time_base = time_base
        self.layout = _layout(d_latent, d_cond, hidden, d_time, time_base)
        self._blocks = []
        end = 0
        for name, shape in self.layout:
            start, end = end, end + math.prod(shape)
            self._blocks.append((name, slice(start, end), shape))
        self.flat = np.zeros(end)
        self.params = self.views(self.flat)

    @property
    def param_count(self) -> int:
        return self.flat.size

    @property
    def arch(self) -> dict:
        """Constructor arguments: ``PriorNetwork(**net.arch)`` has the same layout."""
        return {"d_latent": self.d_latent, "d_cond": self.d_cond, "hidden": self.hidden,
                "d_time": self.d_time, "time_base": self.time_base}

    def views(self, vec: np.ndarray) -> dict:
        """Name the blocks of a vector laid out like ``flat``: name -> shaped view."""
        return {name: vec[span].reshape(shape) for name, span, shape in self._blocks}

    @classmethod
    def initialized(cls, d_latent: int, d_cond: int, rng: SeededRng,
                    hidden: int = DEFAULT_HIDDEN, d_time: int = DEFAULT_TIME_DIM,
                    time_base: float = DEFAULT_TIME_BASE) -> "PriorNetwork":
        """Uniform fan-in initialization: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
        net = cls(d_latent, d_cond, hidden=hidden, d_time=d_time, time_base=time_base)
        blocks = list(net.params.values())
        for w, b in zip(blocks[::2], blocks[1::2]):
            bound = 1.0 / np.sqrt(w.shape[0])
            for p in (w, b):
                p[...] = (rng.uniform(p.size).reshape(p.shape) * 2.0 - 1.0) * bound
        return net

    def _assemble(self, x_t, t, cond, work: dict) -> np.ndarray:
        """Write [latent | time features | condition] into ``work["u"]``.

        Fills ``work`` with fresh activation buffers when it holds none for
        this row count.
        """
        x_t = np.asarray(x_t, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        cond = np.asarray(cond, dtype=np.float64)
        if x_t.ndim != 2 or x_t.shape[1] != self.d_latent:
            raise ValueError(f"latent batch must be [B x {self.d_latent}], got {x_t.shape}")
        b = x_t.shape[0]
        if t.shape != (b,):
            raise ValueError(f"time vector must be [B]={b}, got {t.shape}")
        if cond.shape != (b, self.d_cond):
            raise ValueError(
                f"condition batch must be [B x {self.d_cond}], got {cond.shape}")
        if "u" not in work or work["u"].shape[0] != b:
            work["u"] = np.empty((b, self.d_latent + self.d_time + self.d_cond))
            for name in ("z1", "h1", "z2", "h2", "sig"):
                work[name] = np.empty((b, self.hidden))
        u = work["u"]
        d, e = self.d_latent, self.d_latent + self.d_time
        u[:, :d] = x_t
        u[:, d:e] = time_embedding(t, self.d_time, self.time_base)
        u[:, e:] = cond
        return u

    def forward(self, x_t: np.ndarray, t: np.ndarray, cond: np.ndarray,
                work: dict = None) -> np.ndarray:
        """Network output for a batch; ``work`` as in ``forward_cached``."""
        out, _ = self.forward_cached(x_t, t, cond, work)
        return out

    def forward_cached(self, x_t, t, cond, work: dict = None):
        """Forward pass returning (output, cache-for-backward).

        ``work`` is a dict of activation buffers owned by the caller. The
        pass writes its activations into it, allocating them on first use or
        when the row count changes, and returns it as the cache, so the cache
        stays valid only until the next call with the same ``work``.  The
        output is always a fresh array and never lives in ``work``.  With
        ``work=None`` every call gets fresh buffers of its own.
        """
        p = self.params
        work = {} if work is None else work
        u = self._assemble(x_t, t, cond, work)
        z1, h1, z2, h2, sig = (work[name] for name in ("z1", "h1", "z2", "h2", "sig"))
        np.matmul(u, p["w1"], out=z1)
        z1 += p["b1"]
        _silu(z1, sig, h1)
        np.matmul(h1, p["w2"], out=z2)
        z2 += p["b2"]
        _silu(z2, sig, h2)
        out = h2 @ p["w3"] + p["b3"]
        return out, work

    def backward(self, cache: dict, dout: np.ndarray) -> np.ndarray:
        """Gradient of a scalar loss w.r.t. every parameter, laid out like ``flat``.

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
        grad = np.empty(self.param_count)
        g = self.views(grad)
        np.matmul(cache["h2"].T, dout, out=g["w3"])
        dout.sum(axis=0, out=g["b3"])
        dh2 = dout @ p["w3"].T
        dz2 = dh2 * _silu_grad(cache["z2"])
        np.matmul(cache["h1"].T, dz2, out=g["w2"])
        dz2.sum(axis=0, out=g["b2"])
        dh1 = dz2 @ p["w2"].T
        dz1 = dh1 * _silu_grad(cache["z1"])
        np.matmul(cache["u"].T, dz1, out=g["w1"])
        dz1.sum(axis=0, out=g["b1"])
        return grad


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

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Update the parameter vector ``params`` in place from ``grad``."""
        if not np.all(np.isfinite(grad)):
            raise DivergenceError("non-finite gradient")
        if self.m is None:
            self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        decay = self.lr * self.weight_decay * params
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / bc1
        v_hat = self.v / bc2
        params -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps) + decay


# --- checkpoint container -------------------------------------------------
#
# Layout (little-endian):
#   8 bytes   magic b"PBCKPT1\n"
#   u32       UTF-8 JSON header length
#   ...       JSON header: {"version": 1, "arch": {...}, "meta": {...},
#                           "arrays": [{"name": str, "shape": [int, ...]}]}
#   ...       PriorNetwork.flat as float64 raw bytes: the arrays, each in C
#             order, in header (= layout) order

CHECKPOINT_MAGIC = b"PBCKPT1\n"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, net: PriorNetwork, meta: dict) -> None:
    """Write network parameters plus run metadata to ``path``."""
    header = {
        "version": CHECKPOINT_VERSION,
        "arch": net.arch,
        "meta": meta,
        "arrays": [{"name": name, "shape": list(shape)} for name, shape in net.layout],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(net.flat.astype("<f8").tobytes())


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
        version, meta, arch = header["version"], header["meta"], header["arch"]
        want = list(_layout(**arch))
        if not all(isinstance(n, int) and n > 0 for _, shape in want for n in shape):
            raise ValueError(f"arch {arch} does not give positive integer shapes")
        if not isinstance(meta, dict):
            raise ValueError(f"meta {meta!r} is not a JSON object")
        count = sum(math.prod(shape) for _, shape in want)
        layout = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc!r}") from exc
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version!r}")
    if layout != want:
        raise CheckpointError(
            f"{path}: arrays {layout} do not match the architecture's {want}")
    offset = start + hlen   # sizes are checked before the network is allocated
    if len(blob) - offset != 8 * count:
        raise CheckpointError(f"{path}: array payload is {len(blob) - offset} bytes, "
                              f"expected {8 * count}")
    net = PriorNetwork(**arch)
    net.flat[:] = np.frombuffer(blob, dtype="<f8", offset=offset)
    return net, meta
