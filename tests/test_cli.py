import json

import pytest

from hypstab.cli import main
from hypstab.complexes import to_wire
from hypstab.fixtures import load_fixture


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_volume_regular_ideal_2_exact(capsys):
    code, out, _ = run(capsys, "volume", "--regular-ideal", "2", "--samples", "1e4")
    assert code == 0
    assert "3.141592654" in out and "[exact" in out


def test_volume_regular_ideal_3_series_json(capsys):
    code, out, _ = run(capsys, "volume", "--regular-ideal", "3",
                       "--samples", "1e4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["volume"]["flag"] == "series"
    assert abs(payload["volume"]["value"] - 1.0149416064096536) < 1e-12


def test_volume_from_file_and_determinism(tmp_path, capsys):
    f = tmp_path / "tri.json"
    f.write_text(json.dumps({
        "dim": 2,
        "vertices": [{"x": [1, 0], "ideal": True}, {"x": [-1, 0], "ideal": True},
                     {"x": [0, 1], "ideal": True}],
    }))
    code, out1, _ = run(capsys, "volume", str(f), "--samples", "5e4",
                        "--seed", "3", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "volume", str(f), "--samples", "5e4",
                        "--seed", "3", "--format", "json")
    assert out1 == out2  # byte-identical for identical configs
    payload = json.loads(out1)
    assert abs(payload["volume"]["value"] - 3.14159) < 0.05


def test_volume_parse_error_has_line_number(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"dim": 2,\n "verti')
    with pytest.raises(SystemExit) as exc:
        run(capsys, "volume", str(f))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_volume_degenerate_input(tmp_path, capsys):
    f = tmp_path / "deg.json"
    f.write_text(json.dumps({
        "dim": 2,
        "vertices": [{"x": [1, 0], "ideal": True}, {"x": [-1, 0], "ideal": True},
                     {"x": [0.5, 0.0]}],
    }))
    with pytest.raises(SystemExit) as exc:
        run(capsys, "volume", str(f), "--samples", "1e4")
    assert exc.value.code == 2
    assert "degenerate" in capsys.readouterr().err


def test_triangulation_info_figure_eight(capsys):
    code, out, _ = run(capsys, "triangulation", "info", "fig8")
    assert code == 0
    assert "(1, 2, 4, 2)" in out
    assert "link chi = 0" in out
    assert "[6, 6]" in out


def test_triangulation_cycle_torus(capsys):
    code, out, _ = run(capsys, "triangulation", "cycle", "torus")
    assert code == 0
    assert "cycle verified" in out and "L1 = 2" in out


def test_triangulation_cover_characteristic(capsys):
    code, out, _ = run(capsys, "triangulation", "cover", "torus",
                       "--characteristic", "2")
    assert code == 0
    assert "degree-4" in out and "8 simplices" in out


def test_triangulation_cover_branched_rejected(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"degree": 3, "perms": {"0": [2, 3, 1],
                                                       "1": [2, 1, 3],
                                                       "2": [1, 2, 3]}}))
    code, _, err = run(capsys, "triangulation", "cover", "torus",
                       "--spec", str(spec))
    assert code == 1
    assert "codimension-2 cycle" in err


def test_triangulation_dashboard(capsys):
    code, out, _ = run(capsys, "triangulation", "dashboard", "figure-eight")
    assert code == 0
    assert "2 v_3" in out and "||N|| = 2" in out


def test_triangulation_file_target(tmp_path, capsys):
    f = tmp_path / "torus.json"
    f.write_text(json.dumps(to_wire(load_fixture("torus"))))
    code, out, _ = run(capsys, "triangulation", "info", str(f), "--format", "json")
    assert code == 0
    assert json.loads(out)["euler"] == 0


def test_bounds_seifert(capsys):
    code, out, _ = run(capsys, "bounds", "seifert", "--e", "0", "--chi", "-2",
                       "--d", "1,10,100")
    assert code == 0
    assert "normalized 18 [formula]" in out
    assert "normalized 1.26" in out
    assert "normalized 0.1206" in out


def test_bounds_jsj_json(capsys):
    code, out, _ = run(capsys, "bounds", "jsj", "--va", "5", "--vb", "3",
                       "--vc", "2", "--vd", "1", "--h", "1", "--n", "10",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["bound"] == 582
    assert payload["limit"]["value"] == 5
    assert payload["rows"][0]["normalized"]["flag"] == "formula"


def test_bounds_filling_preset(capsys):
    code, out, _ = run(capsys, "bounds", "filling", "--figure-eight",
                       "--n", "1,1000")
    assert code == 0
    assert "v_A = c(N) = 2" in out
    assert "limit -> v_A = 2" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "res.json"
    code, out, _ = run(capsys, "bounds", "seifert", "--format", "json",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["calculator"] == "seifert"


def test_samples_floor():
    with pytest.raises(SystemExit) as exc:
        main(["volume", "--regular-ideal", "3", "--samples", "10"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, spec", [
    pytest.param(["constants", "--n-min", "3"], None, id="n-min"),
    pytest.param(["volume", "--samples", "10", "--regular-ideal", "3"], None,
                 id="samples"),
    pytest.param(["volume"], None, id="no-simplex"),
    pytest.param(["volume"], {"dim": 2, "vertices": [{"x": ["a", 0]}]},
                 id="simplex-not-numeric"),
    pytest.param(["triangulation", "cover", "torus"], None, id="no-spec"),
    pytest.param(["bounds", "seifert", "--d", "1,x"], None, id="int-list"),
    pytest.param(["triangulation", "bogus", "torus"], None, id="action"),
    pytest.param(["triangulation", "cover", "torus", "--spec"], {"degree": 2},
                 id="spec-no-perms"),
    pytest.param(["triangulation", "cover", "torus", "--spec"],
                 {"degree": 2, "perms": {"0": [1, 1], "1": [1, 2], "2": [1, 2]}},
                 id="spec-not-permutation"),
    pytest.param(["triangulation", "cover", "torus", "--characteristic", "0"], None,
                 id="characteristic-0"),
    pytest.param(["volume", "--samples", "1e4"],
                 {"dim": 2, "vertices": [{"x": [1, 0], "ideal": True},
                                         {"x": [-1, 0], "ideal": True}, {"x": [0.5, 0.0]}]},
                 id="simplex-degenerate"),
    pytest.param(["bounds", "seifert", "--e", "-1"], None, id="seifert-negative-e"),
])
def test_bad_input_exits_2(tmp_path, capsys, argv, spec):
    if spec is not None:
        f = tmp_path / "spec.json"
        f.write_text(json.dumps(spec))
        argv = argv + [str(f)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err


def test_constants_quick(capsys):
    code, out, _ = run(capsys, "constants", "--n-min", "4", "--n-max", "4",
                       "--samples", "1e4", "--restarts", "4", "--depth", "16",
                       "--climb-iters", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["C_n"]["value"] < 1.0
    assert row["C_n"]["flag"] == "empirical-search"
    assert row["k_n"]["value"] == 5
    assert row["v_n"]["flag"] == "monte-carlo"
    for name in ("alpha_n", "k_n", "delta_n", "eta_n", "a_n"):
        assert row[name]["flag"] == "exact"
    assert row["eps_n"]["flag"] == "empirical-search"
    # quick mode widens errors but leaves flags unchanged
    assert row["v_n"]["std_error"] > 1e-4
