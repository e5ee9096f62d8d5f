import numpy as np
import pytest

from quadgait.dataset import ACT_DIM, Dataset, NormStats, OBS_DIM
from quadgait.errors import BadMagic, ChecksumMismatch, NonFiniteLoss, ShapeMismatch, UnknownTask
from quadgait.network import (
    AdamState,
    ArchSpec,
    MtlNetwork,
    TrainConfig,
    adam_step,
    backward,
    elu,
    elu_grad,
    load_weights,
    save_weights,
    total_loss,
    train,
    train_many,
)
from quadgait.network import _openblas_threads


def unit_norm(dim=OBS_DIM):
    return NormStats(np.zeros(dim), np.ones(dim))


def tiny_net(kind="multi_task", h=8, k=2, seed=0, d_in=OBS_DIM, d_out=ACT_DIM):
    arch = ArchSpec(kind=kind, input_dim=d_in, output_dim=d_out, hidden_width=h,
                    num_tasks=k, seed=seed)
    return MtlNetwork(arch, unit_norm(d_in))


class TestElu:
    def test_values(self):
        assert elu(0.0) == 0.0
        assert elu(2.0) == 2.0
        assert elu(-1.0) == pytest.approx(np.exp(-1) - 1, abs=1e-12)

    def test_vectorized(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(elu(x), [np.expm1(-2), np.expm1(-0.5), 0.0, 0.5, 2.0])

    def test_same_bytes_as_the_select_forms(self):
        # elu and elu_grad avoid np.where; these are the forms they replace
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                            5e-324, -5e-324, -745.2, 709.0])
        for x in (special, np.random.default_rng(19).standard_normal(10**6)):
            select = np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))
            select_grad = np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))
            assert elu(x).tobytes() == select.tobytes()
            assert elu_grad(x).tobytes() == select_grad.tobytes()


class TestForward:
    def test_zero_weights_zero_output(self):
        net = tiny_net()
        for p in net.params:
            p[:] = 0.0
        obs = np.random.default_rng(0).standard_normal(OBS_DIM)
        np.testing.assert_allclose(net.forward(obs, 0), 0.0, atol=1e-15)

    def test_head_isolation(self):
        net = tiny_net(k=3, seed=1)
        other = net.copy()
        for p in other.head(1):
            p += 1.0  # perturb a head we do not use
        obs = np.random.default_rng(1).standard_normal(OBS_DIM)
        np.testing.assert_array_equal(net.forward(obs, 0), other.forward(obs, 0))
        np.testing.assert_array_equal(net.forward(obs, 2), other.forward(obs, 2))
        assert not np.allclose(net.forward(obs, 1), other.forward(obs, 1))

    def test_matrix_chain_oracle(self):
        # independent loop-based forward implementation
        net = tiny_net(kind="multi_task", h=6, k=2, seed=2)
        rng = np.random.default_rng(3)
        obs = rng.standard_normal(OBS_DIM)

        def oracle(obs, task):
            x = (obs - net.norm.mean) / net.norm.std
            layers = net.trunk()
            for i in range(2):
                W, b = layers[2 * i], layers[2 * i + 1]
                z = np.array([W[r] @ x + b[r] for r in range(W.shape[0])])
                x = np.array([zi if zi > 0 else np.exp(zi) - 1 for zi in z])
            Wh, bh, Wo, bo = net.head(task)
            z = np.array([Wh[r] @ x + bh[r] for r in range(Wh.shape[0])])
            x = np.array([zi if zi > 0 else np.exp(zi) - 1 for zi in z])
            return np.array([Wo[r] @ x + bo[r] for r in range(Wo.shape[0])])

        for task in (0, 1):
            ours = net.forward(obs, task)
            ref = oracle(obs, task)
            assert np.max(np.abs(ours - ref)) / np.max(np.abs(ref)) < 1e-12

    def test_unknown_task(self):
        net = tiny_net(k=2)
        with pytest.raises(UnknownTask):
            net.forward(np.zeros(OBS_DIM), 5)

    def test_single_task_ignores_task_id(self):
        net = tiny_net(kind="single_task", k=1, seed=4)
        obs = np.random.default_rng(4).standard_normal(OBS_DIM)
        np.testing.assert_array_equal(net.forward(obs, 0), net.forward(obs, 7))

    def test_parameter_count_formula(self):
        h, k = 16, 3
        net = tiny_net(h=h, k=k)
        expected = h * (OBS_DIM + 1) + h * (h + 1) + k * (h * (h + 1) + ACT_DIM * (h + 1))
        assert net.num_parameters() == expected

    def test_single_task_depth(self):
        net = tiny_net(kind="single_task", h=16)
        assert [W.shape for W in net.params[::2]] == [(16, 34), (16, 16), (16, 16), (12, 16)]
        assert len(net.params) == 2 * 4  # 3 hidden + 1 output layer

    def test_single_task_is_the_one_head_layout(self, tmp_path):
        # only the kind differs: the same draws, passes and QMP1 layer records
        single = tiny_net(kind="single_task", h=16, seed=20)
        one_head = tiny_net(kind="multi_task", h=16, k=1, seed=20)
        for a, b in zip(single.params, one_head.params, strict=True):
            assert a.tobytes() == b.tobytes()
        rng = np.random.default_rng(20)
        obs = rng.standard_normal((9, OBS_DIM))
        act = rng.standard_normal((9, ACT_DIM))
        assert single.forward(obs, 0).tobytes() == one_head.forward(obs, 0).tobytes()
        (g_single, l_single), (g_one, l_one) = (backward(n, {0: (obs, act)}) for n in (single, one_head))
        assert l_single == l_one
        for a, b in zip(g_single, g_one, strict=True):
            assert a.tobytes() == b.tobytes()
        save_weights(tmp_path / "single.qmp", single)
        save_weights(tmp_path / "one_head.qmp", one_head)
        a = (tmp_path / "single.qmp").read_bytes()
        b = (tmp_path / "one_head.qmp").read_bytes()
        kind = 8  # after the magic and the u32 version
        assert len(a) == len(b) and (a[kind], b[kind]) == (1, 0)
        assert a[:kind] == b[:kind] and a[kind + 1 : -4] == b[kind + 1 : -4]
        assert a[-4:] != b[-4:]  # the CRC32


class TestLoss:
    def test_perfect_predictions_zero(self):
        net = tiny_net(seed=5)
        obs = np.random.default_rng(5).standard_normal((4, OBS_DIM))
        batches = {0: (obs, net.forward(obs, 0)), 1: (obs, net.forward(obs, 1))}
        raw, mean, per_task = total_loss(net, batches)
        assert raw == pytest.approx(0.0, abs=1e-18)
        assert mean == pytest.approx(0.0, abs=1e-18)

    def test_hand_computed_two_tasks(self):
        net = tiny_net(seed=6)
        obs = np.random.default_rng(6).standard_normal((1, OBS_DIM))
        batches = {}
        for task in (0, 1):
            act = net.forward(obs, task).copy()
            act[0, 0] += 0.1  # off by 0.1 in exactly one output
            batches[task] = (obs, act)
        raw, mean, per_task = total_loss(net, batches)
        assert raw == pytest.approx(0.02, abs=1e-12)
        assert per_task[0] == pytest.approx(0.01, abs=1e-12)
        assert mean == pytest.approx(0.01, abs=1e-12)

    def test_order_invariance(self):
        net = tiny_net(seed=7)
        rng = np.random.default_rng(7)
        obs = rng.standard_normal((32, OBS_DIM))
        act = rng.standard_normal((32, ACT_DIM))
        raw1, _, _ = total_loss(net, {0: (obs, act)})
        perm = rng.permutation(32)
        raw2, _, _ = total_loss(net, {0: (obs[perm], act[perm])})
        assert raw1 == pytest.approx(raw2, rel=1e-12)


class TestBackward:
    @pytest.mark.parametrize("kind", ["multi_task", "single_task"])
    def test_finite_difference_check(self, kind):
        rng = np.random.default_rng(8)
        net = tiny_net(kind=kind, h=8, k=2, seed=8)
        obs = rng.standard_normal((20, OBS_DIM))
        act = rng.standard_normal((20, ACT_DIM))
        batches = {0: (obs[:12], act[:12])}
        if kind == "multi_task":
            batches[1] = (obs[12:], act[12:])
        grads, _ = backward(net, batches, scale="sum")

        def loss_at():
            raw, _, _ = total_loss(net, batches)
            return raw

        h = 1e-5
        worst = 0.0
        for pi, p in enumerate(net.params):
            flat = p.reshape(-1)
            idx = rng.choice(flat.size, size=min(20, flat.size), replace=False)
            for j in idx:
                orig = flat[j]
                flat[j] = orig + h
                up = loss_at()
                flat[j] = orig - h
                down = loss_at()
                flat[j] = orig
                fd = (up - down) / (2 * h)
                g = grads[pi].reshape(-1)[j]
                denom = max(abs(fd), abs(g), 1e-8)
                worst = max(worst, abs(fd - g) / denom)
        assert worst < 1e-4

    def test_task_routing_zero_gradients(self):
        net = tiny_net(k=3, seed=9)
        rng = np.random.default_rng(9)
        batches = {0: (rng.standard_normal((8, OBS_DIM)), rng.standard_normal((8, ACT_DIM)))}
        grads, _ = backward(net, batches)
        base = len(net.trunk())
        for k in (1, 2):
            for offset in range(4):
                np.testing.assert_array_equal(grads[base + 4 * k + offset], 0.0)

    def test_trunk_gradient_additivity(self):
        net = tiny_net(k=2, seed=10)
        rng = np.random.default_rng(10)
        b0 = (rng.standard_normal((6, OBS_DIM)), rng.standard_normal((6, ACT_DIM)))
        b1 = (rng.standard_normal((6, OBS_DIM)), rng.standard_normal((6, ACT_DIM)))
        g_both, _ = backward(net, {0: b0, 1: b1}, scale="sum")
        g0, _ = backward(net, {0: b0}, scale="sum")
        g1, _ = backward(net, {1: b1}, scale="sum")
        for i in range(len(net.trunk())):
            np.testing.assert_allclose(g_both[i], g0[i] + g1[i], atol=1e-12)

    def test_loss_is_the_objective(self):
        net = tiny_net(k=2, seed=11)
        rng = np.random.default_rng(11)
        batches = {
            1: (rng.standard_normal((5, OBS_DIM)), rng.standard_normal((5, ACT_DIM))),
            0: (rng.standard_normal((7, OBS_DIM)), rng.standard_normal((7, ACT_DIM))),
        }
        raw, mean, _ = total_loss(net, batches)
        assert backward(net, batches, scale="sum")[1] == pytest.approx(raw, rel=1e-12)
        assert backward(net, batches)[1] == pytest.approx(mean, rel=1e-12)
        assert backward(net, {0: (np.zeros((0, OBS_DIM)), np.zeros((0, ACT_DIM)))})[1] == 0.0


class TestAdam:
    def test_first_step_is_signed_lr(self):
        cfg = TrainConfig(learning_rate=1e-3)
        params = [np.array([1.0, -2.0, 3.0])]
        grads = [np.array([0.5, -0.2, 3.0])]
        state = AdamState.for_params(params)
        adam_step(params, grads, state, cfg)
        np.testing.assert_allclose(
            params[0], [1.0 - 1e-3, -2.0 + 1e-3, 3.0 - 1e-3], atol=1e-9
        )

    def test_zero_gradient_no_change(self):
        cfg = TrainConfig()
        params = [np.array([1.0, 2.0])]
        state = AdamState.for_params(params)
        adam_step(params, [np.zeros(2)], state, cfg)
        np.testing.assert_array_equal(params[0], [1.0, 2.0])

    def test_bitwise_determinism(self):
        def run():
            rng = np.random.default_rng(11)
            cfg = TrainConfig(learning_rate=3e-3)
            params = [rng.standard_normal(5)]
            state = AdamState.for_params(params)
            for _ in range(50):
                adam_step(params, [rng.standard_normal(5)], state, cfg)
            return params[0]

        np.testing.assert_array_equal(run(), run())

    def test_flat_update_equals_per_layer_update(self):
        # train() steps one flat vector; per element that must be the
        # per-layer update of the textbook formula, bit for bit
        cfg = TrainConfig(learning_rate=3e-3)
        net = MtlNetwork(ArchSpec(hidden_width=128, num_tasks=3, seed=19), unit_norm())
        layers = [p.copy() for p in net.params]
        m = [np.zeros_like(p) for p in layers]
        v = [np.zeros_like(p) for p in layers]
        flat = np.concatenate([p.ravel() for p in net.params])
        state = AdamState.for_params([flat])
        rng = np.random.default_rng(19)
        for t in range(1, 8):
            grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 2) for p in layers]
            c1, c2 = 1.0 - cfg.beta1**t, 1.0 - cfg.beta2**t
            for p, g, mi, vi in zip(layers, grads, m, v):
                mi *= cfg.beta1
                mi += (1.0 - cfg.beta1) * g
                vi *= cfg.beta2
                vi += (1.0 - cfg.beta2) * g * g
                p -= cfg.learning_rate * (mi / c1) / (np.sqrt(vi / c2) + cfg.eps)
            adam_step([flat], [np.concatenate([g.ravel() for g in grads])], state, cfg)
        assert flat.tobytes() == np.concatenate([p.ravel() for p in layers]).tobytes()
        assert state.m[0].tobytes() == np.concatenate([mi.ravel() for mi in m]).tobytes()
        assert state.v[0].tobytes() == np.concatenate([vi.ravel() for vi in v]).tobytes()


def synthetic_tasks(rng, n_tasks=2, n=400):
    """Smooth synthetic obs->act maps, one per task."""
    tasks = {}
    for k in range(n_tasks):
        W = rng.standard_normal((ACT_DIM, OBS_DIM)) / np.sqrt(OBS_DIM)
        obs = rng.standard_normal((n, OBS_DIM))
        act = np.tanh(obs @ W.T) + 0.1 * k
        tasks[k] = Dataset.from_records(
            [f"task{k}"], np.full(n, 0, np.uint32), obs, act
        )
    return tasks


class TestTrain:
    def test_loss_decreases(self):
        rng = np.random.default_rng(12)
        tasks = synthetic_tasks(rng)
        net, hist = train(tasks, ArchSpec(hidden_width=32, num_tasks=2, seed=12),
                          TrainConfig(epochs=12, batch_size=64, seed=12, input_noise=0.0))
        first = sum(hist[0].val_loss.values())
        best = min(sum(h.val_loss.values()) for h in hist)
        assert best < 0.5 * first

    def test_overfit_tiny_dataset(self):
        rng = np.random.default_rng(13)
        obs = rng.standard_normal((64, OBS_DIM))
        act = rng.standard_normal((64, ACT_DIM)) * 0.3
        ds = {0: Dataset.from_records(["t"], np.zeros(64, np.uint32), obs, act)}
        net, hist = train(
            ds,
            ArchSpec(hidden_width=64, num_tasks=1, seed=13),
            TrainConfig(epochs=500, batch_size=64, learning_rate=3e-3, seed=13,
                        val_fraction=0.1, input_noise=0.0),
        )
        # capacity sanity: the training split must be memorized
        tr = hist[-1].train_loss[0]
        assert tr < 1e-6

    def test_train_loss_is_measured_before_each_update(self):
        # one step per epoch and no input noise: the first epoch's
        # training loss is the error of the initial parameters
        rng = np.random.default_rng(17)
        tasks = synthetic_tasks(rng, n_tasks=1, n=40)
        arch = ArchSpec(hidden_width=8, num_tasks=1, seed=17)
        cfg = TrainConfig(epochs=1, batch_size=64, seed=17, input_noise=0.0)
        _, hist = train(tasks, arch, cfg)
        split_rng = np.random.default_rng(17)
        tr = split_rng.permutation(40)[4:]
        obs, act = tasks[0].obs[tr].astype(float), tasks[0].act[tr].astype(float)
        from quadgait.dataset import fit_norm_stats

        initial = MtlNetwork(arch, fit_norm_stats(obs))
        err = initial.forward(obs, 0) - act
        assert hist[0].train_loss[0] == pytest.approx(float(np.sum(err * err)) / len(obs), rel=1e-12)

    def test_train_many_matches_train(self, monkeypatch):
        import quadgait.network as network

        monkeypatch.setattr(network, "usable_cpus", lambda: 2)
        rng = np.random.default_rng(18)
        tasks = synthetic_tasks(rng, n_tasks=2, n=120)
        jobs = [
            (tasks, ArchSpec(kind=kind, hidden_width=8, num_tasks=2, seed=seed),
             TrainConfig(epochs=2, batch_size=32, seed=seed))
            for seed in (1, 2)
            for kind in ("multi_task", "single_task")
        ]
        for (net_a, hist_a), (net_b, hist_b) in zip(train_many(jobs), [train(*job) for job in jobs]):
            assert net_a.arch == net_b.arch
            for pa, pb in zip(net_a.params, net_b.params):
                np.testing.assert_array_equal(pa, pb)
            assert [(h.train_loss, h.val_loss) for h in hist_a] == [
                (h.train_loss, h.val_loss) for h in hist_b]

    @pytest.mark.skipif(_openblas_threads() is None, reason="numpy bundles no OpenBLAS")
    def test_one_blas_thread(self):
        # train runs on one OpenBLAS thread whatever the caller's count,
        # gives the same weights and history at either count, and hands
        # the caller's count back, also when it raises
        get, set_ = _openblas_threads()
        tasks = synthetic_tasks(np.random.default_rng(20), n_tasks=2, n=200)
        arch = ArchSpec(hidden_width=16, num_tasks=2, seed=20)
        cfg = TrainConfig(epochs=3, batch_size=32, seed=20)
        inside = []
        before = get()
        runs = []
        try:
            for threads in (1, 2):
                set_(threads)
                runs.append(train(tasks, arch, cfg, log_fn=lambda *_: inside.append(get())))
                assert get() == threads
            tasks[0].obs[0, 0] = np.nan
            with pytest.raises(NonFiniteLoss):
                train(tasks, arch, cfg)
            assert get() == 2
        finally:
            set_(before)
        assert inside == [1] * 6
        (net_a, hist_a), (net_b, hist_b) = runs
        for pa, pb in zip(net_a.params, net_b.params):
            assert pa.tobytes() == pb.tobytes()
        assert [(h.train_loss, h.val_loss) for h in hist_a] == [
            (h.train_loss, h.val_loss) for h in hist_b]

    def test_deterministic_history(self):
        rng = np.random.default_rng(14)
        tasks = synthetic_tasks(rng, n_tasks=2, n=200)
        out = []
        for _ in range(2):
            net, hist = train(tasks, ArchSpec(hidden_width=16, num_tasks=2, seed=14),
                              TrainConfig(epochs=3, batch_size=32, seed=14))
            out.append((hist[-1].train_loss[0], hist[-1].val_loss[1],
                        net.params[0].copy()))
        assert out[0][0] == out[1][0]
        assert out[0][1] == out[1][1]
        np.testing.assert_array_equal(out[0][2], out[1][2])

    def test_nonfinite_loss_aborts(self):
        rng = np.random.default_rng(15)
        obs = rng.standard_normal((64, OBS_DIM))
        obs[0, 0] = np.nan
        act = rng.standard_normal((64, ACT_DIM))
        tasks = {0: Dataset.from_records(["t"], np.zeros(64, np.uint32), obs, act)}
        with pytest.raises(NonFiniteLoss):
            train(tasks, ArchSpec(hidden_width=16, num_tasks=1, seed=15),
                  TrainConfig(epochs=5, batch_size=32, seed=15))


class TestWeightsFile:
    def test_round_trip_outputs_identical(self, tmp_path):
        net = tiny_net(k=3, seed=16)
        p1 = tmp_path / "a.qmp"
        save_weights(p1, net)
        loaded = load_weights(p1)
        p2 = tmp_path / "b.qmp"
        save_weights(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        rng = np.random.default_rng(16)
        for _ in range(100):
            obs = rng.standard_normal(OBS_DIM)
            for task in range(3):
                a = load_weights(p1).forward(obs, task)
                b = load_weights(p2).forward(obs, task)
                np.testing.assert_array_equal(a, b)

    def test_norm_stats_embedded(self, tmp_path):
        arch = ArchSpec(hidden_width=8, num_tasks=1, seed=17)
        norm = NormStats(np.full(OBS_DIM, 3.0), np.full(OBS_DIM, 2.0))
        net = MtlNetwork(arch, norm)
        path = tmp_path / "n.qmp"
        save_weights(path, net)
        loaded = load_weights(path)
        np.testing.assert_allclose(loaded.norm.mean, 3.0)
        np.testing.assert_allclose(loaded.norm.std, 2.0)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.qmp"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(BadMagic):
            load_weights(path)

    def test_tampered_shape_header(self, tmp_path):
        import struct
        import zlib

        net = tiny_net(seed=18)
        path = tmp_path / "s.qmp"
        save_weights(path, net)
        blob = bytearray(path.read_bytes())[:-4]
        off = 4 + 21 + 8 * OBS_DIM  # first layer shape header
        struct.pack_into("<II", blob, off, 999, 999)
        blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(ShapeMismatch):
            load_weights(path)

    def test_corrupted_payload(self, tmp_path):
        net = tiny_net(seed=19)
        path = tmp_path / "c.qmp"
        save_weights(path, net)
        blob = bytearray(path.read_bytes())
        blob[50] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            load_weights(path)

    @staticmethod
    def _with_header_field(path, offset, value):
        """Rewrite one u32 of the QMP1 header and recompute the CRC."""
        import struct
        import zlib

        blob = bytearray(path.read_bytes())[:-4]
        struct.pack_into("<I", blob, offset, value)
        blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))

    def test_huge_task_count_fails_before_allocating(self, tmp_path):
        # num_tasks sits at offset 21 (magic 4, version 4, kind 1, three
        # dims); a million heads imply far more bytes than the file holds
        import tracemalloc

        from quadgait.errors import FileFormatError

        path = tmp_path / "k.qmp"
        save_weights(path, tiny_net(h=4, seed=20))
        self._with_header_field(path, 21, 10**6)
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError):
                load_weights(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("offset", [17, 21], ids=["hidden_width", "num_tasks"])
    def test_zero_size_architecture_is_shape_mismatch(self, tmp_path, offset):
        path = tmp_path / "z.qmp"
        save_weights(path, tiny_net(h=4, seed=21))
        self._with_header_field(path, offset, 0)
        with pytest.raises(ShapeMismatch, match="must be >= 1"):
            load_weights(path)
