"""MLP forward/backward, sinusoidal time features, AdamW, checkpoints."""

import hashlib
import json
import struct

import numpy as np
import pytest

from priorbench.errors import CheckpointError, DivergenceError
from priorbench.network import (AdamW, CHECKPOINT_MAGIC, PriorNetwork,
                                load_checkpoint, save_checkpoint,
                                time_embedding)
from priorbench.rng import SeededRng


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def test_time_embedding_layout():
    t = np.array([0.0, 0.25, 1.0])
    emb = time_embedding(t, dim=4, base=2.0)
    assert emb.shape == (3, 4)
    # frequencies pi * 2**j for j = 0, 1; [sins | coses] layout
    freqs = np.pi * np.array([1.0, 2.0])
    np.testing.assert_allclose(emb[:, :2], np.sin(t[:, None] * freqs), atol=1e-15)
    np.testing.assert_allclose(emb[:, 2:], np.cos(t[:, None] * freqs), atol=1e-15)


def test_time_embedding_t0_and_injectivity():
    emb = time_embedding(np.array([0.0]), dim=8)
    np.testing.assert_allclose(emb[0, :4], 0.0, atol=1e-15)
    np.testing.assert_allclose(emb[0, 4:], 1.0, atol=1e-15)
    # cos(pi t) is injective on [0, 1], so distinct t map to distinct features
    t = np.linspace(0.0, 1.0, 101)
    col = time_embedding(t, dim=8)[:, 4]
    assert np.all(np.diff(col) < 0.0)


def test_time_embedding_domain_checks():
    with pytest.raises(ValueError):
        time_embedding(np.array([1.5]))
    with pytest.raises(ValueError):
        time_embedding(np.array([0.5]), dim=3)


def test_forward_hand_computed():
    net = PriorNetwork(d_latent=1, d_cond=1, hidden=2, d_time=2)
    net.params["w1"][...] = np.array([[0.3, -0.2], [0.1, 0.4], [-0.5, 0.2], [0.7, 0.1]])
    net.params["b1"][...] = np.array([0.05, -0.05])
    net.params["w2"][...] = np.array([[0.6, -0.3], [0.2, 0.8]])
    net.params["b2"][...] = np.array([0.0, 0.1])
    net.params["w3"][...] = np.array([[1.2], [-0.7]])
    net.params["b3"][...] = np.array([0.25])
    x = np.array([[0.4]])
    t = np.array([0.3])
    c = np.array([[-0.6]])
    u = np.concatenate([[0.4], [np.sin(np.pi * 0.3), np.cos(np.pi * 0.3)], [-0.6]])
    z1 = u @ net.params["w1"] + net.params["b1"]
    h1 = z1 * sigmoid(z1)
    z2 = h1 @ net.params["w2"] + net.params["b2"]
    h2 = z2 * sigmoid(z2)
    expected = h2 @ net.params["w3"] + net.params["b3"]
    np.testing.assert_allclose(net.forward(x, t, c), expected[None, :], atol=1e-14)


def test_backward_matches_finite_differences():
    rng = SeededRng(31)
    net = PriorNetwork.initialized(2, 3, rng, hidden=5, d_time=4)
    x = rng.standard_normal(3, 2)
    t = rng.uniform(3)
    c = rng.standard_normal(3, 3)
    g_out = rng.standard_normal(3, 2)  # loss = sum(out * g_out)

    out, cache = net.forward_cached(x, t, c)
    grads = net.views(net.backward(cache, g_out))

    h = 1e-6
    worst = 0.0
    for name, p in net.params.items():
        flat = p.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = float(np.sum(net.forward(x, t, c) * g_out))
            flat[i] = keep - h
            down = float(np.sum(net.forward(x, t, c) * g_out))
            flat[i] = keep
            fd = (up - down) / (2.0 * h)
            scale = max(abs(fd), abs(grads[name].reshape(-1)[i]), 1e-8)
            worst = max(worst, abs(fd - grads[name].reshape(-1)[i]) / scale)
    assert worst < 1e-6


def test_workspace_forward_is_bit_identical_across_row_counts():
    net = PriorNetwork.initialized(8, 8, SeededRng(12))   # default hidden and time sizes
    rng = SeededRng(13)
    work = {}
    for rows in (1024, 32, 1024):
        x = rng.standard_normal(rows, 8)
        c = rng.standard_normal(rows, 8)
        for t in (0.0, 0.37, 0.999, 1.0):
            fresh = net.forward(x, np.full(rows, t), c)
            reused = net.forward(x, np.full(rows, t), c, work=work)
            np.testing.assert_array_equal(reused, fresh)
            assert not any(np.shares_memory(reused, buf) for buf in work.values())
        assert work["u"].shape[0] == rows


def test_cache_without_work_is_untouched_by_workspace_calls():
    net = PriorNetwork.initialized(8, 8, SeededRng(14))
    rng = SeededRng(15)
    x, t, c = rng.standard_normal(50, 8), rng.uniform(50), rng.standard_normal(50, 8)
    dout = rng.standard_normal(50, 8)
    _, cache = net.forward_cached(x, t, c)
    before = net.backward(cache, dout)
    work = {}
    for rows in (50, 1024):
        batch = (rng.standard_normal(rows, 8), rng.uniform(rows), rng.standard_normal(rows, 8))
        net.forward(*batch, work=work)
        net.forward(*batch)
    np.testing.assert_array_equal(net.backward(cache, dout), before)


def test_backward_requires_matching_dout_shape():
    net = PriorNetwork.initialized(2, 2, SeededRng(1), hidden=3, d_time=2)
    _, cache = net.forward_cached(np.zeros((4, 2)), np.zeros(4), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        net.backward(cache, np.zeros((4, 3)))


def test_initialized_bounds_and_copy_independence():
    net = PriorNetwork.initialized(4, 4, SeededRng(2), hidden=8, d_time=4)
    for w_name in ("w1", "w2", "w3"):
        w = net.params[w_name]
        bound = 1.0 / np.sqrt(w.shape[0])
        assert np.abs(w).max() <= bound


def test_adamw_single_step_hand_example():
    params = np.array([1.0])
    opt = AdamW(lr=0.1, beta1=0.9, beta2=0.99, weight_decay=0.0, eps=1e-8)
    opt.step(params, np.array([1.0]))
    # m_hat = v_hat = 1 after bias correction -> w' = 1 - 0.1 / (1 + 1e-8)
    np.testing.assert_allclose(params, [1.0 - 0.1 / (1.0 + 1e-8)], rtol=1e-15)


def test_adamw_decoupled_weight_decay():
    plain = np.array([2.0])
    decayed = np.array([2.0])
    AdamW(lr=0.1, weight_decay=0.0).step(plain, np.array([0.5]))
    AdamW(lr=0.1, weight_decay=0.25).step(decayed, np.array([0.5]))
    # decay acts on the pre-update parameter and bypasses the moments
    np.testing.assert_allclose(decayed, plain - 0.1 * 0.25 * 2.0, rtol=1e-14)


def test_adamw_matches_independent_recursion():
    rng = SeededRng(44)
    params = rng.standard_normal(6)
    w_ref = params.copy()
    opt = AdamW(lr=0.01, beta1=0.9, beta2=0.99, weight_decay=0.04, eps=1e-8)
    m = np.zeros(6)
    v = np.zeros(6)
    for t in range(1, 8):
        g = rng.standard_normal(6)
        opt.step(params, g)
        m = 0.9 * m + 0.1 * g
        v = 0.99 * v + 0.01 * g * g
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.99**t)
        w_ref = w_ref - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8) - 0.01 * 0.04 * w_ref
    np.testing.assert_allclose(params, w_ref, rtol=1e-12)


def test_adamw_rejects_nonfinite_gradients():
    with pytest.raises(DivergenceError):
        AdamW().step(np.array([1.0]), np.array([np.nan]))


def test_checkpoint_round_trip(tmp_path):
    net = PriorNetwork.initialized(3, 5, SeededRng(77), hidden=6, d_time=4,
                                   time_base=3.0)
    meta = {"objective": "flow", "epoch": 12, "seed": 9}
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net, meta)
    loaded, got_meta = load_checkpoint(path)
    assert got_meta == meta
    assert (loaded.d_latent, loaded.d_cond, loaded.hidden) == (3, 5, 6)
    assert loaded.time_base == 3.0
    for name in net.params:
        np.testing.assert_array_equal(loaded.params[name], net.params[name])
    # pinned version-1 bytes: files already written must keep loading and
    # re-saving unchanged
    blob = path.read_bytes()
    assert len(blob) == 1493
    assert hashlib.sha256(blob).hexdigest() == (
        "997ad251cc068e274f9cf76d18c6434331d84e1326d12114483981508ab71094")
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, loaded, got_meta)
    assert again.read_bytes() == blob


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_checkpoint(path)
    assert CHECKPOINT_MAGIC == b"PBCKPT1\n"


def test_checkpoint_rejects_truncated_padded_and_mismatched_files(tmp_path):
    net = PriorNetwork.initialized(3, 5, SeededRng(77), hidden=6, d_time=4)
    good = tmp_path / "net.ckpt"
    save_checkpoint(good, net, {"objective": "flow", "epoch": 1, "seed": 0})
    blob = good.read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen])
    payload = blob[12 + hlen:]

    def with_header(h):
        text = json.dumps(h).encode("utf8")
        return CHECKPOINT_MAGIC + struct.pack("<I", len(text)) + text + payload

    renamed = json.loads(json.dumps(header))
    renamed["arrays"][0]["name"] = "w9"
    reshaped = json.loads(json.dumps(header))
    reshaped["arrays"][1]["shape"] = [3, 2]
    huge = json.loads(json.dumps(header))
    huge["arch"]["hidden"] = 10**7       # 728 TiB of parameters, if it were allocated
    no_meta = dict(header, meta=5)
    cuts = (0, 5, 10, 12, 12 + hlen // 2, 12 + hlen, 12 + hlen + 13, len(blob) - 1)
    bad_files = [blob[:cut] for cut in cuts] + [
        blob + b"\0" * 8,                                     # over-long payload
        blob[:12] + b"\xff" * hlen + payload,                 # undecodable header
        with_header(renamed),
        with_header(reshaped),
        with_header(huge),
        with_header(no_meta),
    ]
    bad = tmp_path / "bad.ckpt"
    for data in bad_files:
        bad.write_bytes(data)
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)
    assert issubclass(CheckpointError, ValueError)
