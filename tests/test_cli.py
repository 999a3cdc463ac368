import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import TINY_CONFIG

from stagwave import cli
from stagwave.cli import main
from stagwave.config import build_run, parse_config, validate_config
from stagwave.errors import ConfigError
from stagwave.transfer import derive_elemental_pair


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(TINY_CONFIG)
    return path


def test_run_produces_expected_files(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(config_path), "--out", str(out)]) == 0
    seis = (out / "seismogram.csv").read_text().splitlines()
    assert seis[0] == "t,p"
    assert len(seis) == 1 + 51          # header + n_steps+1 samples
    energy = (out / "energy.csv").read_text().splitlines()
    assert energy[0] == "step,t,E"
    assert len(energy) == 1 + 50
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["files"]) == {"config.yaml", "seismogram.csv", "energy.csv"}


def test_run_is_deterministic(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(config_path), "--out", str(out1)]) == 0
    assert main(["run", str(config_path), "--out", str(out2)]) == 0
    for name in ("seismogram.csv", "energy.csv", "config.yaml"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_missing_model_file_exits_2_without_outputs(tmp_path):
    cfg = yaml.safe_load(TINY_CONFIG)
    cfg["medium"] = {"kind": "gridded", "rho_file": str(tmp_path / "nope.bin"),
                     "c_file": str(tmp_path / "nope.bin"), "rows": 4, "cols": 4,
                     "spacing": 0.25}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "never"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_nonpositive_model_value_exits_3_without_outputs(tmp_path, capsys):
    rho, c = tmp_path / "neg.bin", tmp_path / "c.bin"
    np.full(25, -1.0, dtype="<f4").tofile(rho)
    np.ones(25, dtype="<f4").tofile(c)
    cfg = yaml.safe_load(TINY_CONFIG)
    cfg["medium"] = {"kind": "gridded", "rho_file": str(rho), "c_file": str(c),
                     "rows": 5, "cols": 5, "spacing": 0.24}
    path = tmp_path / "neg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "never"
    assert main(["run", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_invalid_config_exits_1(tmp_path):
    cfg = yaml.safe_load(TINY_CONFIG)
    del cfg["time"]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["run", str(path)]) == 1
    assert not Path("bad.out").exists()


def test_single_block_width_mismatch_exits_1_without_outputs(tmp_path):
    cfg = yaml.safe_load(TINY_CONFIG)
    cfg["layout"]["bottom"] = None
    cfg["layout"]["top"] = {"columns": 100, "dx": 0.008, "height": 0.96}  # 0.8 wide
    with pytest.raises(ConfigError):
        validate_config(cfg)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "never"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("path, value", [
    ("time.dt", True), ("time.dt", float("inf")), ("layout.top.height", True),
    ("time.n_steps", True),
    ("outputs.energy", "no"), ("layout.x_left", "abc"), ("layout.y_bottom", "abc"),
    ("sources.0.x", [1]), ("receivers.0.y", None), ("sources.0.t0", "a"),
    ("sources.0.amplitude", "a"), ("medium.split_y", "a"), ("medium.split_y", None),
])
def test_malformed_value_exits_1_without_outputs(path, value, tmp_path):
    cfg = yaml.safe_load(TINY_CONFIG)
    *parents, last = [int(key) if key.isdigit() else key for key in path.split(".")]
    entry = cfg
    for key in parents:
        entry = entry[key]
    entry[last] = value
    with pytest.raises(ConfigError):
        validate_config(cfg)
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "never"
    assert main(["run", str(bad), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("energy", [True, False])
def test_unstable_dt_exits_3_without_outputs(energy, tmp_path):
    cfg = yaml.safe_load(TINY_CONFIG)
    cfg["time"] = {"dt": 0.05, "n_steps": 400}
    cfg["outputs"]["energy"] = energy
    path = tmp_path / "unstable.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "never"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", str(path), "--out", str(out)]) == 3
    assert not out.exists()


def test_existing_output_directory_needs_force(config_path, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", str(config_path), "--out", str(out)]) == 2
    assert list(out.iterdir()) == []
    assert main(["run", str(config_path), "--out", str(out), "--force"]) == 0


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "force"])
def test_output_path_at_or_under_a_regular_file_exits_2_before_stepping(
        config_path, tmp_path, monkeypatch, force):
    def no_stepping(*args, **kwargs):
        raise AssertionError("stepped before checking the output path")

    monkeypatch.setattr(cli, "run_sim", no_stepping)
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    for out in (blocker, blocker / "out"):
        assert main(["run", str(config_path), "--out", str(out), *force]) == 2
    assert blocker.read_text() == "kept"
    assert {path.name for path in tmp_path.iterdir()} == {config_path.name, "file"}


def test_force_replaces_the_files_of_the_earlier_manifest(tmp_path):
    cfg = yaml.safe_load(TINY_CONFIG)
    out = tmp_path / "out"

    def run(snapshot):
        cfg["outputs"]["snapshot"] = snapshot
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["run", str(path), "--out", str(out), "--force"]) == 0
        return {*json.loads((out / "manifest.json").read_text())["files"], "manifest.json"}

    assert "snapshot_p0.bin" in run(True)
    listed = run(False)
    assert {f.name for f in out.iterdir()} == listed
    # a file no manifest lists is not the run's to delete
    (out / "notes.txt").write_text("kept")
    listed = run(True)
    assert {f.name for f in out.iterdir()} == listed | {"notes.txt"}


def test_force_refuses_a_directory_with_an_unreadable_manifest(config_path, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text("not a manifest")
    assert main(["run", str(config_path), "--out", str(out), "--force"]) == 2
    assert [f.name for f in out.iterdir()] == ["manifest.json"]


def test_readme_library_sketch_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1]
    code = sketch.split("```python\n", 1)[1].split("```", 1)[0]
    assert "n_steps=5000" in code
    namespace = {}
    exec(code.replace("n_steps=5000", "n_steps=20"), namespace)
    assert np.all(np.isfinite(namespace["result"].seismograms))


def test_readme_schema_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = readme.split("### Configuration schema", 1)[1]
    block = schema.split("```yaml\n", 1)[1].split("```", 1)[0]
    config = parse_config(block)
    assert config.spec.outputs == {"seismogram": True, "energy": True, "snapshot": False}
    build_run(config)


def test_domain_error_exits_3(tmp_path):
    cfg = yaml.safe_load(TINY_CONFIG)
    cfg["sources"][0]["x"] = 0.017   # not a grid point
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3


def test_config_round_trip(config_path):
    config = parse_config(config_path)
    again = parse_config(config.to_yaml())
    assert again.raw == config.raw


def test_snapshot_output(tmp_path):
    cfg = yaml.safe_load(TINY_CONFIG)
    cfg["outputs"] = {"seismogram": False, "energy": False, "snapshot": True}
    path = tmp_path / "snap.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    meta = json.loads((out / "snapshot_p0.json").read_text())
    data = np.fromfile(out / "snapshot_p0.bin", dtype="<f8")
    assert data.size == meta["shape"][0] * meta["shape"][1]
    assert np.all(np.isfinite(data))


def test_verify_cfl_with_csv_report(tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    code = main(["verify", "cfl", "--csv", str(csv_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 4
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "check,result,value,threshold"
    assert len(lines) == 5


def test_operators_sbp_dump(tmp_path, capsys):
    assert main(["operators", "sbp1d", "--n", "9"]) == 0
    out = capsys.readouterr().out
    assert "exact_structure,True" in out
    assert "-15/8" in out or "-1.875" in out


def test_operators_transfer_tabulated(capsys):
    assert main(["operators", "transfer", "--ratio", "3:2"]) == 0
    out = capsys.readouterr().out
    assert "-13/288" in out
    assert "adjoint_exact,True" in out
    assert "exactness_degree,2" in out


@pytest.mark.parametrize("ratio", ["a:b", "3:0", "3"])
def test_operators_transfer_malformed_ratio_is_a_usage_error(ratio, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["operators", "transfer", "--ratio", ratio])
    assert exc.value.code == 2
    assert "--ratio" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["operators", "transfer", "--ratio", "2:1", "--elements", "0"],
    ["operators", "transfer", "--ratio", "2:1", "--elements", "-2"],
    ["operators", "sbp1d", "--n", "x"],
    ["operators", "periodic", "--n", "0"],
    ["cfl", "1d-periodic", "--n", "0"],
    ["verify", "stability", "--steps", "-1"],
], ids=["elements-0", "elements-neg", "sbp1d-n-x", "periodic-n-0", "cfl-n-0", "steps-neg"])
def test_nonpositive_count_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{argv[-2]}: expected a positive integer" in capsys.readouterr().err


def test_operators_transfer_derived_ratio(capsys):
    assert main(["operators", "transfer", "--ratio", "7:6"]) == 0
    out = capsys.readouterr().out
    assert "adjoint_exact,True" in out


def test_operators_transfer_bad_support_exits_3_even_for_a_tabulated_ratio(capsys):
    for ratio, support in (("3:2", "0"), ("1:1", "3")):
        assert main(["operators", "transfer", "--ratio", ratio, "--support", support]) == 3
        assert "support width must be even and >= 4" in capsys.readouterr().err


def test_operators_transfer_support_derives_the_tabulated_rows(monkeypatch, capsys):
    supports = []

    def derive(ratio, support=None):
        supports.append(support)
        return derive_elemental_pair(ratio, support=support)

    monkeypatch.setattr(cli, "derive_elemental_pair", derive)
    assert main(["operators", "transfer", "--ratio", "3:2", "--support", "4"]) == 0
    derived = capsys.readouterr().out
    assert supports == [4]
    assert main(["operators", "transfer", "--ratio", "3:2"]) == 0
    assert derived == capsys.readouterr().out
    assert supports == [4]


@pytest.mark.parametrize("argv", [["--ratio", "3:2", "--support", "0"], ["--ratio", "1:2"]],
                         ids=["support-0", "ratio-1:2"])
def test_failed_operators_dump_keeps_an_existing_out_file(argv, tmp_path, capsys):
    target = tmp_path / "x.csv"
    target.write_bytes(b"# an earlier dump\n1,2\n")
    assert main(["operators", "transfer", *argv, "--out", str(target)]) == 3
    assert target.read_bytes() == b"# an earlier dump\n1,2\n"
    assert "error" in capsys.readouterr().err


def test_operators_dump_to_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "x.csv"
    assert main(["operators", "transfer", "--ratio", "3:2"]) == 0
    assert main(["operators", "transfer", "--ratio", "3:2", "--out", str(target)]) == 0
    assert target.read_text() == capsys.readouterr().out


def test_cfl_subcommand(capsys):
    assert main(["cfl", "1d-periodic", "--n", "16"]) == 0
    out = capsys.readouterr().out
    assert "dt_max/dx" in out
