import numpy as np
import pytest

from quadgait import cli
from quadgait.dataset import NormStats, read_dataset
from quadgait.network import ArchSpec, MtlNetwork, save_weights

FAST_CONFIG = """
data.gaits = trot,bound
data.vx_grid = 0,0.2
data.vy_grid = 0
data.cells_per_gait = 2
data.samples_per_traj = 250
data.holdout_vx = 0.1
train.hidden_width = 24
train.epochs = 2
train.batch_size = 64
eval.rollout_duration = 0.4
seed = 5
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(FAST_CONFIG)
    return root, cfg


@pytest.fixture(scope="module")
def collected(workspace):
    root, cfg = workspace
    data = root / "data"
    rc = cli.main(["collect", "--config", str(cfg), "--out", str(data)])
    assert rc == 0
    return data


@pytest.fixture(scope="module")
def trained(workspace, collected):
    root, cfg = workspace
    model = root / "model.qmp"
    rc = cli.main(["train", "--config", str(cfg), "--data", str(collected),
                   "--out", str(model)])
    assert rc == 0
    return model


class TestCollect:
    def test_writes_expected_files(self, collected):
        names = sorted(p.name for p in collected.glob("*.qgd"))
        assert names == ["bound_holdout.qgd", "bound_train.qgd",
                         "trot_holdout.qgd", "trot_train.qgd"]
        assert (collected / "collection_report.txt").exists()

    def test_dataset_contents(self, collected):
        ds = read_dataset(collected / "trot_train.qgd")
        assert ds.task_names == ["trot"]
        assert len(ds) == 2 * 250

    def test_single_gait_file_count(self, workspace, tmp_path):
        root, cfg = workspace
        out = tmp_path / "walkdata"
        rc = cli.main(["collect", "--config", str(cfg), "--gaits", "walk",
                       "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.glob("*.qgd")) == [
            "walk_holdout.qgd", "walk_train.qgd"]

    def test_failed_gate_is_one_line_numeric_error(self, tmp_path, capsys):
        # without a height loop the trot expert sags out of its gate
        cfg = tmp_path / "sag.cfg"
        cfg.write_text(FAST_CONFIG + "data.samples_per_traj = 50\n"
                       "expert.kp_height = 0\nexpert.kd_height = 0\n")
        rc = cli.main(["collect", "--config", str(cfg), "--out", str(tmp_path / "d")])
        assert rc == cli.EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "gait 'trot'" in err[0]

    def test_failed_gate_leaves_no_out_dir(self, tmp_path):
        # the directory is made when the first output is written
        cfg = tmp_path / "sag.cfg"
        cfg.write_text(FAST_CONFIG + "data.samples_per_traj = 50\n"
                       "expert.kp_height = 0\nexpert.kd_height = 0\n")
        out = tmp_path / "d"
        assert cli.main(["collect", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_NUMERIC
        assert not out.exists()

    def test_invalid_gait_usage_error(self, workspace, tmp_path):
        root, cfg = workspace
        rc = cli.main(["collect", "--config", str(cfg), "--gaits", "gallop",
                       "--out", str(tmp_path / "x")])
        assert rc == cli.EXIT_USAGE


class TestTrain:
    def test_outputs(self, trained):
        assert trained.exists()
        assert trained.with_name("model_curves.csv").exists()
        from quadgait.network import load_weights

        net = load_weights(trained)
        assert net.arch.num_tasks == 2
        assert net.arch.kind == "multi_task"

    def test_single_arch(self, workspace, collected, tmp_path):
        root, cfg = workspace
        out = tmp_path / "single.qmp"
        rc = cli.main(["train", "--config", str(cfg), "--data", str(collected),
                       "--arch", "single", "--out", str(out)])
        assert rc == 0
        from quadgait.network import load_weights

        assert load_weights(out).arch.kind == "single_task"

    def test_corrupt_task_name_is_data_error(self, workspace, collected, tmp_path):
        # byte 36 is the first byte of the task name; flipped, it is no
        # longer UTF-8, and the CRC check must report it first
        root, cfg = workspace
        data = tmp_path / "data"
        data.mkdir()
        for name in ("trot_train.qgd", "bound_train.qgd"):
            (data / name).write_bytes((collected / name).read_bytes())
        blob = bytearray((data / "trot_train.qgd").read_bytes())
        blob[36] ^= 0x80
        (data / "trot_train.qgd").write_bytes(bytes(blob))
        rc = cli.main(["train", "--config", str(cfg), "--data", str(data),
                       "--out", str(tmp_path / "m.qmp")])
        assert rc == cli.EXIT_DATA

    def test_non_utf8_task_name_is_data_error(self, workspace, collected, tmp_path, capsys):
        # the flip with the CRC recomputed reaches the name decoder
        import zlib

        root, cfg = workspace
        data = tmp_path / "data"
        data.mkdir()
        for name in ("trot_train.qgd", "bound_train.qgd"):
            (data / name).write_bytes((collected / name).read_bytes())
        blob = bytearray((data / "trot_train.qgd").read_bytes())[:-4]
        blob[36] ^= 0x80
        blob += (zlib.crc32(bytes(blob)) & 0xFFFFFFFF).to_bytes(4, "little")
        (data / "trot_train.qgd").write_bytes(bytes(blob))
        rc = cli.main(["train", "--config", str(cfg), "--data", str(data),
                       "--out", str(tmp_path / "m.qmp")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_DATA
        assert "trot_train.qgd: task name is not UTF-8" in err
        assert "Traceback" not in err

    def test_missing_data_dir(self, workspace, tmp_path):
        root, cfg = workspace
        rc = cli.main(["train", "--config", str(cfg), "--data", str(tmp_path / "nope"),
                       "--out", str(tmp_path / "m.qmp")])
        assert rc == cli.EXIT_DATA


class TestEval:
    def test_metrics_files(self, workspace, collected, trained, tmp_path):
        root, cfg = workspace
        out = tmp_path / "eval"
        rc = cli.main(["eval", "--config", str(cfg), "--model", str(trained),
                       "--data", str(collected), "--out", str(out)])
        assert rc == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "task,split,mse,mae,r2"
        assert len(lines) == 3  # two gaits
        assert (out / "traj_fl.csv").exists()

    def test_baseline_side_by_side(self, workspace, collected, trained, tmp_path):
        root, cfg = workspace
        single = tmp_path / "s.qmp"
        cli.main(["train", "--config", str(cfg), "--data", str(collected),
                  "--arch", "single", "--out", str(single)])
        out = tmp_path / "eval2"
        rc = cli.main(["eval", "--config", str(cfg), "--model", str(trained),
                       "--baseline", str(single), "--data", str(collected),
                       "--out", str(out)])
        assert rc == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 5
        assert any("holdout_baseline" in ln for ln in lines)

    def test_baseline_on_other_gaits_is_data_error(self, workspace, collected, trained, tmp_path):
        # a multi-task baseline with the trot head only has no head for bound
        root, cfg = workspace
        trot_only = tmp_path / "trot.qmp"
        rc = cli.main(["train", "--config", str(cfg), "--gaits", "trot",
                       "--data", str(collected), "--out", str(trot_only)])
        assert rc == 0
        rc = cli.main(["eval", "--config", str(cfg), "--model", str(trained),
                       "--baseline", str(trot_only), "--data", str(collected),
                       "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA

    def test_unknown_model_file(self, workspace, collected, tmp_path):
        root, cfg = workspace
        rc = cli.main(["eval", "--config", str(cfg), "--model", str(tmp_path / "no.qmp"),
                       "--data", str(collected), "--out", str(tmp_path / "e")])
        assert rc == cli.EXIT_DATA
        assert not (tmp_path / "e").exists()


@pytest.fixture(scope="module")
def narrow_model(workspace):
    """A valid QMP1 file whose network takes 10 inputs, not the 34 of an
    observation."""
    root, _ = workspace
    path = root / "narrow.qmp"
    arch = ArchSpec(input_dim=10, hidden_width=8, num_tasks=2)
    save_weights(path, MtlNetwork(arch, NormStats(np.zeros(10), np.ones(10))))
    return path


class TestPolicyShape:
    @pytest.mark.parametrize("command", ["eval", "eval_baseline", "rollout", "switch"])
    def test_wrong_input_dim_is_one_line_data_error(self, workspace, collected, trained,
                                                     narrow_model, tmp_path, capsys, command):
        root, cfg = workspace
        scn = tmp_path / "switch.txt"
        scn.write_text("0.0 trot 0.0 0 0\n")
        common = ["--config", str(cfg)]
        argv = {
            "eval": ["eval", *common, "--model", str(narrow_model), "--data", str(collected),
                     "--out", str(tmp_path / "e")],
            "eval_baseline": ["eval", *common, "--model", str(trained), "--baseline",
                              str(narrow_model), "--data", str(collected),
                              "--out", str(tmp_path / "e")],
            "rollout": ["rollout", *common, "--model", str(narrow_model), "--duration", "0.1"],
            "switch": ["switch", *common, "--model", str(narrow_model), "--scenario", str(scn),
                       "--duration", "0.1"],
        }[command]
        capsys.readouterr()
        assert cli.main(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "10 inputs" in err[0]


class TestRolloutAndSwitch:
    def test_expert_rollout_exit_zero(self, workspace, tmp_path):
        root, cfg = workspace
        log = tmp_path / "roll.csv"
        rc = cli.main(["rollout", "--config", str(cfg), "--expert", "--gait", "trot",
                       "--vx", "0.2", "--duration", "1.2", "--log", str(log)])
        assert rc == 0
        assert log.exists()
        header = log.read_text().splitlines()[0]
        assert header.startswith("t,px,py,pz,qw")

    def test_rollout_needs_model_or_expert(self, workspace):
        root, cfg = workspace
        with pytest.raises(SystemExit) as exc:
            cli.main(["rollout", "--config", str(cfg), "--gait", "trot"])
        assert exc.value.code == cli.EXIT_USAGE

    def test_untrained_policy_rollout_fails_numeric(self, workspace, trained):
        root, cfg = workspace
        rc = cli.main(["rollout", "--config", str(cfg), "--model", str(trained),
                       "--gait", "trot", "--duration", "0.4"])
        assert rc in (cli.EXIT_OK, cli.EXIT_NUMERIC)

    def test_switch_scenario_file(self, workspace, trained, tmp_path):
        root, cfg = workspace
        scn = tmp_path / "switch.txt"
        scn.write_text("# demo\n0.0 trot 0.0 0 0\n0.3 bound 0.0 0 0\n")
        rc = cli.main(["switch", "--config", str(cfg), "--model", str(trained),
                       "--scenario", str(scn), "--duration", "0.6"])
        assert rc in (cli.EXIT_OK, cli.EXIT_NUMERIC)

    def test_switch_unknown_gait_is_data_error(self, workspace, trained, tmp_path):
        root, cfg = workspace
        scn = tmp_path / "bad.txt"
        scn.write_text("0.0 walk 0.0 0 0\n")
        rc = cli.main(["switch", "--config", str(cfg), "--model", str(trained),
                       "--scenario", str(scn), "--duration", "0.5"])
        assert rc == cli.EXIT_DATA

    def test_rollout_duration_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text("eval.rollout_duration = 0.3\n")
        rc = cli.main(["rollout", "--config", str(cfg), "--expert", "--gait", "trot"])
        assert rc == cli.EXIT_OK
        assert "/0.30s" in capsys.readouterr().out

    def test_short_expert_rollout_skips_half_its_duration(self, tmp_path, capsys):
        # 1 s at the default 1 s transient: the summary covers the ticks
        # after 0.5 s, as a switch segment's does
        from quadgait.config import load_config
        from quadgait.evaluation import closed_loop_rollout
        from quadgait.gait import VelocityCommand

        capsys.readouterr()
        rc = cli.main(["rollout", "--expert", "--gait", "trot", "--vx", "0.2", "--duration", "1.0"])
        assert rc == cli.EXIT_OK
        cfg = load_config()
        assert cfg["eval.transient"] == 1.0
        _, s = closed_loop_rollout(cfg.robot(), cfg.contact(), cfg.gait("trot"),
                                   VelocityCommand(0.2, 0.0, 0.0), 1.0, expert_gains=cfg.expert_gains(),
                                   transient=0.5)
        assert f"vx_err={s.mean_vx_error:.3f} height={s.mean_height:.3f}" in capsys.readouterr().out

    def test_scenario_file_missing(self, workspace, trained):
        root, cfg = workspace
        rc = cli.main(["switch", "--config", str(cfg), "--model", str(trained),
                       "--scenario", "/nonexistent.txt"])
        assert rc == cli.EXIT_DATA


class _Files:
    """The paths an error case reads, and a writer for the files it needs."""

    def __init__(self, cfg, collected, trained, narrow, tmp):
        self.cfg, self.data, self.model, self.narrow, self.tmp = cfg, collected, trained, narrow, tmp

    def write(self, name, content):
        path = self.tmp / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        return path

    def corrupt_corpus(self):
        """A train split whose trot file fails its CRC check."""
        blob = bytearray((self.data / "trot_train.qgd").read_bytes())
        blob[40] ^= 0xFF
        self.write("corrupt/trot_train.qgd", bytes(blob))
        return self.write("corrupt/bound_train.qgd", (self.data / "bound_train.qgd").read_bytes()).parent


# id -> (exit code, stderr prefix, argv from a _Files)
ERROR_CASES = {
    "corrupt_qgd": (cli.EXIT_DATA, "error: ", lambda f: [
        "train", "--config", f.cfg, "--data", f.corrupt_corpus(), "--out", f.tmp / "m.qmp"]),
    "missing_qgd": (cli.EXIT_DATA, "error: ", lambda f: [
        "train", "--config", f.cfg, "--data", f.tmp / "nope", "--out", f.tmp / "m.qmp"]),
    "missing_model": (cli.EXIT_DATA, "error: ", lambda f: [
        "eval", "--config", f.cfg, "--model", f.tmp / "no.qmp", "--data", f.data, "--out", f.tmp / "e"]),
    "narrow_model": (cli.EXIT_DATA, "error: ", lambda f: [
        "rollout", "--config", f.cfg, "--model", f.narrow, "--duration", "0.1"]),
    "collect_unknown_gait": (cli.EXIT_USAGE, "error: ", lambda f: [
        "collect", "--config", f.cfg, "--gaits", "gallop", "--out", f.tmp / "d"]),
    "rollout_unknown_gait": (cli.EXIT_USAGE, "error: ", lambda f: [
        "rollout", "--config", f.cfg, "--expert", "--gait", "gallop", "--duration", "0.1"]),
    "scenario_unknown_gait": (cli.EXIT_DATA, "error: ", lambda f: [
        "switch", "--config", f.cfg, "--model", f.model, "--duration", "0.1",
        "--scenario", f.write("walk.txt", "0.0 walk 0.0 0 0\n")]),
    "out_of_envelope": (cli.EXIT_USAGE, "error: ", lambda f: [
        "rollout", "--config", f.cfg, "--expert", "--vx", "5", "--duration", "0.1"]),
    "rollout_duration_negative": (cli.EXIT_USAGE, "error: --duration must be positive", lambda f: [
        "rollout", "--config", f.cfg, "--expert", "--duration", "-1"]),
    "rollout_duration_zero": (cli.EXIT_USAGE, "error: --duration must be positive", lambda f: [
        "rollout", "--config", f.cfg, "--expert", "--duration", "0"]),
    "rollout_duration_nan": (cli.EXIT_USAGE, "error: --duration must be positive", lambda f: [
        "rollout", "--config", f.cfg, "--expert", "--duration", "nan"]),
    "switch_event_after_end": (cli.EXIT_USAGE, "error: event at t=0.5 s is not before", lambda f: [
        "switch", "--config", f.cfg, "--model", f.model, "--duration", "0.4",
        "--scenario", f.write("late.txt", "0.0 trot 0.0 0 0\n0.5 bound 0.0 0 0\n")]),
    "switch_duration_zero": (cli.EXIT_USAGE, "error: --duration must be positive", lambda f: [
        "switch", "--config", f.cfg, "--model", f.model, "--duration", "0",
        "--scenario", f.write("trot.txt", "0.0 trot 0.0 0 0\n")]),
    "bad_scenario_line": (cli.EXIT_USAGE, "error: ", lambda f: [
        "switch", "--config", f.cfg, "--model", f.model, "--duration", "0.1",
        "--scenario", f.write("short.txt", "0.0 trot\n")]),
    "scenario_not_utf8": (cli.EXIT_USAGE, "error: ", lambda f: [
        "switch", "--config", f.cfg, "--model", f.model, "--duration", "0.1",
        "--scenario", f.write("latin1.txt", "0.0 trot 0.0 0 0 # caf\xe9\n".encode("latin-1"))]),
    "missing_scenario": (cli.EXIT_DATA, "error: ", lambda f: [
        "switch", "--config", f.cfg, "--model", f.model, "--scenario", f.tmp / "none.txt"]),
    "bad_config_key": (cli.EXIT_USAGE, "config error: ", lambda f: [
        "collect", "--config", f.write("key.cfg", "robot.wheels = 4\n"), "--out", f.tmp / "d"]),
    "bad_config_value": (cli.EXIT_USAGE, "config error: ", lambda f: [
        "train", "--config", f.write("value.cfg", "train.hidden_width = 0\n"), "--data", f.data]),
    "failed_gate": (cli.EXIT_NUMERIC, "error: ", lambda f: [
        "collect", "--out", f.tmp / "d", "--config", f.write(
            "sag.cfg", FAST_CONFIG + "data.samples_per_traj = 50\nexpert.kp_height = 0\n"
            "expert.kd_height = 0\n")]),
    # these six crashed with a traceback and exit 1
    "missing_config": (cli.EXIT_USAGE, "config error: ", lambda f: [
        "collect", "--config", f.tmp / "none.cfg", "--out", f.tmp / "d"]),
    "config_is_dir": (cli.EXIT_USAGE, "config error: ", lambda f: [
        "collect", "--config", f.tmp, "--out", f.tmp / "d"]),
    "config_not_utf8": (cli.EXIT_USAGE, "config error: ", lambda f: [
        "collect", "--config", f.write("latin1.cfg", "# caf\xe9\n".encode("latin-1")),
        "--out", f.tmp / "d"]),
    "scenario_is_dir": (cli.EXIT_DATA, "error: ", lambda f: [
        "switch", "--config", f.cfg, "--model", f.model, "--scenario", f.tmp]),
    "model_is_dir": (cli.EXIT_DATA, "error: ", lambda f: [
        "rollout", "--config", f.cfg, "--model", f.tmp, "--duration", "0.1"]),
    "out_is_file": (cli.EXIT_DATA, "error: ", lambda f: [
        "collect", "--config", f.cfg, "--out", f.write("taken", "")]),
}


@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_error_is_one_line_with_exit_code(workspace, collected, trained, narrow_model, tmp_path,
                                          capsys, case):
    code, prefix, argv = ERROR_CASES[case]
    _, cfg = workspace
    argv = [str(a) for a in argv(_Files(cfg, collected, trained, narrow_model, tmp_path))]
    capsys.readouterr()
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert rc == code
    assert len(err.splitlines()) == 1 and err.startswith(prefix), err


class TestConfigPlumbing:
    def test_print_config(self, workspace, capsys):
        root, cfg = workspace
        rc = cli.main(["collect", "--config", str(cfg), "--print-config"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "robot.kp = 40.0" in out
        assert "seed = 5" in out

    def test_bad_config_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("robot.wheels = 4\n")
        rc = cli.main(["collect", "--config", str(bad), "--out", str(tmp_path / "d")])
        assert rc == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "command, text",
        [
            ("collect", "data.holdout_vx = 0.15\ndata.vx_grid = 0.15\ndata.vy_grid = 0\ndata.gaits = trot\n"),
            ("train", "train.hidden_width = 0\n"),
            ("train", "data.gaits =\n"),
        ],
        ids=["holdout_overlap", "zero_width", "no_gaits"],
    )
    def test_invalid_value_is_one_line_usage_error(self, tmp_path, capsys, command, text):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        where = "--out" if command == "collect" else "--data"
        rc = cli.main([command, "--config", str(bad), where, str(tmp_path / "d")])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")

    def test_seed_override(self, workspace, capsys):
        root, cfg = workspace
        rc = cli.main(["train", "--config", str(cfg), "--seed", "99", "--data", "x",
                       "--print-config"])
        assert rc == 0
        assert "seed = 99" in capsys.readouterr().out
