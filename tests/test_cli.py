import json
import math

import pytest

from hplab.cli import _COMMANDS, _OPTIONS, main
from hplab.scurve import trace_compact

from conftest import RAW_P2, RAW_Z, RAW_Z2


@pytest.fixture(scope="module")
def spec_file_z(tmp_path_factory):
    p = tmp_path_factory.mktemp("specs") / "spec_z.json"
    p.write_text(json.dumps(RAW_Z))
    return str(p)


@pytest.fixture(scope="module")
def spec_file_z2(tmp_path_factory):
    p = tmp_path_factory.mktemp("specs") / "spec_z2.json"
    p.write_text(json.dumps(RAW_Z2))
    return str(p)


def _read_all(outdir):
    return {f.name: f.read_bytes() for f in sorted(outdir.iterdir())}


def test_germ_runs_and_reports(spec_file_z, tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["germ", "--spec", spec_file_z, "--out", str(out), "--n", "16",
         "--precision-bits", "512"]
    )
    assert rc == 0
    report = json.loads((out / "germ_report.json").read_text())
    assert report["oracle_max_rel_err"] <= report["tol"]
    germ = json.loads((out / "germ.json").read_text())
    assert len(germ["coeffs"]) == 17
    assert "_provenance" in germ
    assert germ["_provenance"]["command"] == "germ"


def test_outputs_deterministic(spec_file_z, tmp_path):
    out = tmp_path / "out"
    args = ["germ", "--spec", spec_file_z, "--out", str(out), "--n", "12",
            "--precision-bits", "320"]
    assert main(args) == 0
    first = _read_all(out)
    assert main(args) == 0
    second = _read_all(out)
    assert first == second


def test_hp_outputs(spec_file_z, tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["hp", "--spec", spec_file_z, "--out", str(out), "--k", "2", "--n", "4",
         "--precision-bits", "512"]
    )
    assert rc == 0
    report = json.loads((out / "hp_report.json").read_text())
    assert report["achieved_order"] >= report["contract_order"] == 5
    assert not report["degenerate_kernel"]
    for j in (0, 1):
        assert (out / f"Q_4_{j}.json").exists()
        csv = (out / f"Q_4_{j}_roots.csv").read_text().splitlines()
        assert csv[0].startswith("#command: hp")
        assert csv[1].startswith("#config-hash: ")
        assert csv[2] == "re,im,multiplicity"


def test_hp_roots_one_row_per_degree(spec_file_z, tmp_path):
    # the roots are found at the solve's precision: at the default 256 bits
    # the trim rule dropped the leading coefficient of Q_0 as noise
    out = tmp_path / "out"
    assert main(["hp", "--spec", spec_file_z, "--out", str(out), "--n", "18"]) == 0
    for j in range(3):
        rows = (out / f"Q_18_{j}_roots.csv").read_text().splitlines()[3:]
        assert len(rows) == 18


def test_stahl_outputs(spec_file_z, tmp_path):
    out = tmp_path / "out"
    rc = main(["stahl", "--spec", spec_file_z, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "stahl_report.json").read_text())
    assert report["on_second_sheet"]
    assert report["complement_connected"]
    assert report["single_valued"]
    arc = (out / "arc_0.csv").read_text().splitlines()
    assert arc[2] == "s,re_zeta,im_zeta"
    assert len(arc) > 10
    assert (out / "arc_0_projection.csv").exists()


def test_green_outputs(spec_file_z, tmp_path):
    out = tmp_path / "out"
    rc = main(["green", "--spec", spec_file_z, "--out", str(out), "--grid", "20:1.5"])
    assert rc == 0
    report = json.loads((out / "green_report.json").read_text())
    # both Robin routes agree
    assert abs(report["robin_path_integral"] - report["robin_boundary_integral"]) < 1e-6
    assert report["comparison"]["extremal_label"] == "extremal"
    assert report["comparison"]["labels"][0] == "extremal"
    grid = (out / "green_grid.csv").read_text().splitlines()
    assert len(grid) == 3 + 20


def test_green_outputs_complex_pair(tmp_path):
    # A = 0.5 +- 2i: the images of the branch points are a conjugate pair,
    # joined by the chord, with Robin constant log(17/4)
    spec = tmp_path / "spec_c.json"
    spec.write_text(json.dumps(
        {"class": "Z", "A": [["0.5", "2"], ["0.5", "-2"]], "alpha": ["-1/2", "-1/2"]}
    ))
    out = tmp_path / "out"
    rc = main(["green", "--spec", str(spec), "--out", str(out), "--grid", "20:1.5"])
    assert rc == 0
    report = json.loads((out / "green_report.json").read_text())
    assert abs(report["robin_path_integral"] - math.log(17 / 4)) < 1e-10
    assert abs(report["robin_boundary_integral"] - math.log(17 / 4)) < 1e-10
    assert report["comparison"]["labels"][0] == "extremal"
    assert report["comparison"]["extremal_label"] == "extremal"


def test_nuttall_outputs(spec_file_z, tmp_path):
    out = tmp_path / "out"
    rc = main(["nuttall", "--spec", spec_file_z, "--out", str(out), "--grid", "60"])
    assert rc == 0
    report = json.loads((out / "nuttall_report.json").read_text())
    assert min(report["min_gaps"]) > 0
    assert abs(report["slope_u1"] + 3.0) < 1e-8
    assert report["max_abs_sum"] < 1e-12
    grid = (out / "nuttall_grid.csv").read_text().splitlines()
    assert grid[2] == "re_z,im_z,u1,u2,u3,u4"
    assert len(grid) == 3 + 60


@pytest.fixture(scope="module")
def spec_file_p2(tmp_path_factory):
    p = tmp_path_factory.mktemp("specs") / "spec_p2.json"
    p.write_text(json.dumps(RAW_P2))
    return str(p)


def test_equilibrium_refuses_two_arcs(spec_file_p2, tmp_path, capsys):
    # the p = 2 compact has two arcs, and the equilibrium solve takes one
    out = tmp_path / "out"
    rc = main(["equilibrium", "--spec", spec_file_p2, "--out", str(out)])
    assert rc == 1
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["stahl", "green", "nuttall", "equilibrium"])
def test_plane_chain_refuses_two_interval_class(command, spec_file_z2, tmp_path, capsys):
    # the compact of these commands lives on the chart of [-1, 1], which a
    # spec with two intervals does not have
    out = tmp_path / "out"
    rc = main([command, "--spec", spec_file_z2, "--out", str(out)])
    assert rc == 1
    assert "input error" in capsys.readouterr().err
    assert not out.exists()


def test_figure_data_writes_every_arc(spec_file_p2, qd_sheets_p2, tmp_path):
    out = tmp_path / "out"
    rc = main(["figure-data", "--spec", spec_file_p2, "--out", str(out), "--n", "8"])
    assert rc == 0
    rows = (out / "scurve_projection.csv").read_text().splitlines()
    assert rows[2] == "arc,re_z,im_z"
    arcs = [row.split(",")[0] for row in rows[3:]]
    assert sorted(set(arcs)) == ["0", "1"]
    comp = trace_compact(qd_sheets_p2)
    assert len(arcs) == sum(len(a) for a in comp.arcs)


def test_missing_spec_file_is_input_error(tmp_path):
    rc = main(["germ", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 1


def test_invalid_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["germ", "--spec", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1


def test_invalid_parameters_is_input_error(tmp_path):
    bad = tmp_path / "bad_spec.json"
    bad.write_text(json.dumps({"class": "Z", "A": [["1", "0"], ["3", "0"]],
                               "alpha": ["-1/2", "-1/2"]}))
    rc = main(["germ", "--spec", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1


def test_unknown_command_rejected(spec_file_z):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--spec", spec_file_z])


def test_config_hash_tracks_parameters(spec_file_z, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["germ", "--spec", spec_file_z, "--out", str(out_a), "--n", "8",
                 "--precision-bits", "320"]) == 0
    assert main(["germ", "--spec", spec_file_z, "--out", str(out_b), "--n", "10",
                 "--precision-bits", "320"]) == 0
    ha = json.loads((out_a / "germ_report.json").read_text())["_provenance"]["config_hash"]
    hb = json.loads((out_b / "germ_report.json").read_text())["_provenance"]["config_hash"]
    assert ha != hb


_VALID = {"--k": "3", "--n": "8", "--precision-bits": "256", "--tol": "1e-8", "--grid": "10"}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_options_a_command_does_not_read_are_usage_errors(command, spec_file_z, tmp_path):
    out = tmp_path / "out"
    _, taken = _COMMANDS[command]
    assert set(taken) <= set(_OPTIONS)
    for flag in sorted(set(_OPTIONS) - set(taken)) + ["--foo"]:
        with pytest.raises(SystemExit) as exc:
            main([command, "--spec", spec_file_z, "--out", str(out), flag, _VALID.get(flag, "1")])
        assert exc.value.code == 1, flag
    assert not out.exists()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["nuttall", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv", [
    ["hp", "--k", "2", "--n", "0"],
    ["germ", "--n", "0"],
    ["germ", "--precision-bits", "10"],
    ["germ", "--tol", "0"],
    ["stahl", "--tol", "-1e-8"],
    ["green", "--tol", "nan"],
    ["green", "--grid", "abc"],
    ["green", "--grid", "0"],
    ["nuttall", "--grid", "0"],
    ["nuttall", "--grid", "10:0"],
    ["hp", "--k", "5"],
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_bad_option_values_are_usage_errors(argv, spec_file_z, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--spec", spec_file_z, "--out", str(out), *argv[1:]])
    assert exc.value.code == 1
    assert f"argument {argv[-2]}" in capsys.readouterr().err
    assert not out.exists()


def test_config_hash_independent_of_paths(tmp_path):
    runs = []
    for name in ("a", "b"):
        spec = tmp_path / name / "spec.json"
        spec.parent.mkdir()
        spec.write_text(json.dumps(RAW_Z))
        out = tmp_path / f"out_{name}"
        assert main(["stahl", "--spec", str(spec), "--out", str(out)]) == 0
        runs.append(_read_all(out))
    assert runs[0] == runs[1]


def test_nuttall_reports_the_theorem(spec_file_z, spec_file_p2, tmp_path):
    # F = [1/3, 1/2] for RAW_Z, and pi(1/2) = 5/4
    out = tmp_path / "z"
    assert main(["nuttall", "--spec", spec_file_z, "--out", str(out), "--grid", "60"]) == 0
    report = json.loads((out / "nuttall_report.json").read_text())
    assert abs(report["boundary_separation"] - 0.25) < 1e-12
    assert abs(report["disk_margin"] - 0.5) < 1e-12
    # for RAW_P2 the separation is reached at the endpoint 1/(-1.6 + 0.8i),
    # whose projection is -1.05 - 0.275i; the disk margin inside an arc
    out = tmp_path / "p2"
    assert main(["nuttall", "--spec", spec_file_p2, "--out", str(out), "--grid", "100"]) == 0
    report = json.loads((out / "nuttall_report.json").read_text())
    assert abs(report["boundary_separation"] - math.sqrt(0.078125)) < 1e-12
    assert 0 < report["disk_margin"] < 0.5
