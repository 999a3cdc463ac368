import json
import shlex
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import TINY_CONFIG

from stagwave import cli
from stagwave.cli import main
from stagwave import sbp1d
from stagwave.config import build_run, parse_config, validate_config
from stagwave.errors import ConfigError, DomainError, FormatError
from stagwave.grids import StaggeredBlock2D
from stagwave.media import Medium, TwoLayerMedium
from stagwave.transfer import ElementalStencilPair, derive_elemental_pair


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


def test_readme_commands_parse():
    # every command README shows must still parse (catches docs naming a
    # removed option); parsed only, not run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) >= 5 and all(argv[0] == "stagwave" for argv in commands)
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_readme_schema_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = readme.split("### Configuration schema", 1)[1]
    block = schema.split("```yaml\n", 1)[1].split("```", 1)[0]
    spec = validate_config(yaml.safe_load(block))
    assert spec.outputs == {"seismogram": True, "energy": True, "snapshot": False}
    build_run(spec)


def test_domain_error_exits_3(tmp_path):
    cfg = yaml.safe_load(TINY_CONFIG)
    cfg["sources"][0]["x"] = 0.017   # not a grid point
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3


def test_config_round_trip(config_path):
    spec = parse_config(config_path)
    again = validate_config(yaml.safe_load(spec.to_yaml()))
    assert again.raw == spec.raw


def test_validate_config_builds_the_blocks_and_the_medium(config_path):
    spec = parse_config(config_path)
    assert len(spec.blocks) == 2
    assert all(isinstance(block, StaggeredBlock2D) for block in spec.blocks)
    assert [block.p_shape for block in spec.blocks] == [(9, 12), (9, 24)]   # bottom first
    assert isinstance(spec.medium, Medium)
    assert spec.medium == TwoLayerMedium(split_y=0.64, rho_top=0.5, c_top=1.0,
                                         rho_bottom=1.0, c_bottom=2.0)
    built = build_run(spec)
    assert [blk.block for blk in built.system.blocks] == list(spec.blocks)


def test_short_block_and_bad_model_raise_while_validating(tmp_path):
    cfg = yaml.safe_load(TINY_CONFIG)
    cfg["layout"]["top"]["height"] = 0.28   # 8 rows
    with pytest.raises(DomainError, match="at least 9 primary points"):
        validate_config(cfg)
    path = tmp_path / "short.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "never")]) == 3
    cfg = yaml.safe_load(TINY_CONFIG)
    (tmp_path / "short.bin").write_bytes(b"\0" * 8)
    cfg["medium"] = {"kind": "gridded", "rho_file": str(tmp_path / "short.bin"),
                     "c_file": str(tmp_path / "short.bin"), "rows": 4, "cols": 4,
                     "spacing": 0.25}
    with pytest.raises(FormatError):
        validate_config(cfg)
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("root", ["", "- 1", "3"])
def test_config_root_must_be_a_mapping(root, tmp_path):
    path = tmp_path / "root.yaml"
    path.write_text(root)
    with pytest.raises(ConfigError, match="root must be a mapping"):
        parse_config(path)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1


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


def test_verify_stability_refuses_a_short_run_before_stepping(monkeypatch, capsys):
    # t0 + 6/f0 = 1.45 s at dt = 0.0012: ten energy samples after it need 1,218 steps
    from stagwave import verification
    calls = []
    monkeypatch.setattr(verification, "run", lambda *a, **k: calls.append(a))
    assert main(["verify", "stability", "--steps", "100"]) == 3
    err = capsys.readouterr().err
    assert "two_layer_2to1" in err and "1218 steps" in err
    assert calls == []


def test_operators_sbp_dump(tmp_path, capsys):
    assert main(["operators", "sbp1d", "--n", "9"]) == 0
    out = capsys.readouterr().out
    assert "exact_structure,True" in out
    assert "-15/8" in out or "-1.875" in out


@pytest.mark.parametrize("kind", ["periodic"])   # the one dump with a spacing
@pytest.mark.parametrize("dx", ["inf", "nan", "-1", "1e-320", "1e-308"])
def test_operators_non_finite_or_nonpositive_dx_exits_3(kind, dx, capsys):
    assert main(["operators", kind, "--n", "9", "--dx", dx]) == 3
    captured = capsys.readouterr()
    assert "dx must be positive and finite" in captured.err
    assert captured.out == ""


def test_operators_sbp_dump_reads_no_degree_above_four(capsys):
    # the fourth-order interior rows are exact to degree 4, not beyond
    assert main(["operators", "sbp1d", "--n", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    degrees = [int(d) for line in lines if "_row_degrees," in line
               for d in line.split(",")[1].split()]
    assert len(degrees) == 199 and max(degrees) == 4


def test_operators_sbp_dump_measures_q_first_row(monkeypatch, capsys):
    def q_first_row():
        lines = capsys.readouterr().out.splitlines()
        return lines[lines.index("# q_first_row") + 1]

    assert main(["operators", "sbp1d", "--n", "12"]) == 0
    assert q_first_row() == "-1.875,1.25,-0.375,0,0,0,0,0,0,0,0"
    perturbed = list(sbp1d.DV_CLOSURE)
    perturbed[0] = (F(-2), F(3), F(-1), F(1, 7), F(0))
    monkeypatch.setattr(sbp1d, "DV_CLOSURE", tuple(perturbed))
    assert main(["operators", "sbp1d", "--n", "12"]) == 0
    # q[0][3] = a_p[0] * d_v[0][3] = 7/18 * 1/7
    assert q_first_row() == "-1.875,1.25,-0.375,1/18,0,0,0,0,0,0,0"


def test_operators_periodic_dump(capsys):
    assert main(["operators", "periodic", "--n", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# d_p" and lines[9] == "# d_v"
    assert all(len(row.split(",")) == 8 for row in lines[1:9] + lines[10:18])
    assert lines[18:] == ["# wraparound_residual,0.0"]
    assert main(["operators", "periodic", "--n", "8", "--dx", "0.37"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "# wraparound_residual,0.0"


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


def test_operators_transfer_refuses_a_derived_pair_failing_its_certificate(monkeypatch,
                                                                          capsys):
    good = derive_elemental_pair(F(5, 2))
    rows = [dict(r) for r in good.coarse_to_fine]
    rows[0][min(rows[0])] += F(1, 2)          # row sum 3/2
    broken = ElementalStencilPair(F(5, 2), tuple(rows), good.fine_to_coarse)
    monkeypatch.setattr("stagwave.transfer.derive_elemental_pair", lambda ratio: broken)
    assert main(["operators", "transfer", "--ratio", "5:2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fails its certificate" in captured.err


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
