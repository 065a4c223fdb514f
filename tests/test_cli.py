import argparse
import contextlib
import copy
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hypstab import cli, constants
from hypstab.cli import main
from hypstab.complexes import (build_cover, characteristic_cover_spec, cover_spec_to_wire,
                               to_wire)
from hypstab.fixtures import load_fixture


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_volume_regular_ideal_2_exact(capsys):
    code, out, _ = run(capsys, "volume", "--regular-ideal", "2")
    assert code == 0
    assert "3.141592654" in out and "[exact" in out


def test_volume_regular_ideal_3_exact_json(capsys):
    code, out, _ = run(capsys, "volume", "--regular-ideal", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["volume"]["flag"] == "exact"
    assert payload["std_error"] == 0.0 and payload["samples"] == 0
    assert "seed" not in payload
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


def test_triangulation_cover_then_cycle(tmp_path, capsys):
    out = tmp_path / "cover.json"
    code, _, _ = run(capsys, "triangulation", "cover", "torus", "--characteristic", "12",
                     "--format", "json", "--out", str(out))
    assert code == 0
    wire = tmp_path / "cover-wire.json"
    wire.write_text(json.dumps(json.loads(out.read_text())["wire"]))
    # the cover's own output reads back through its wire member
    for path in (wire, out):
        code, text, _ = run(capsys, "triangulation", "cycle", str(path), "--format", "json")
        payload = json.loads(text)
        assert code == 0 and payload["cycle_verified"] is True
        assert payload["simplices"] == 288
        assert payload["l1"]["value"] == str(payload["simplices"])


def test_triangulation_cover_branched_rejected(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"degree": 3, "perms": {"0": [2, 3, 1],
                                                       "1": [2, 1, 3],
                                                       "2": [1, 2, 3]}}))
    code, _, err = run(capsys, "triangulation", "cover", "torus",
                       "--spec", str(spec))
    assert code == 1
    assert "codimension-2 cycle" in err


@pytest.mark.parametrize("target, group", [("klein", "Z/2 + Z"), ("sphere", "0"),
                                           ("s3", "0"), ("figure-eight", "Z")])
def test_triangulation_characteristic_needs_h1_z2(capsys, target, group):
    with pytest.raises(SystemExit) as exc:
        main(["triangulation", "cover", target, "--characteristic", "2"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [f"error: characteristic covers need H_1 = Z^2, "
                                    f"not H_1 = {group}"]


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


def test_bounds_filling_reads_h(capsys):
    # h = 1 gave degree 2 and bound 10 whatever --h said
    code, out, _ = run(capsys, "bounds", "filling", "--va", "4", "--vb", "1", "--vd", "1",
                       "--h", "3", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["h"] == 3
    assert payload["rows"] == [{"n": 2, "degree": 6, "bound": 30,
                                "normalized": {"value": 5.0, "flag": "formula"}}]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "res.json"
    code, out, _ = run(capsys, "bounds", "seifert", "--format", "json",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["calculator"] == "seifert"


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_out_unwritable_exits_2(where, tmp_path, capsys):
    target = tmp_path if where == "directory" else tmp_path / "no-such-dir" / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["triangulation", "info", "torus", "--out", str(target)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()] and err.startswith(f"error: cannot write {target}")


def test_samples_floor():
    with pytest.raises(SystemExit) as exc:
        main(["volume", "--regular-ideal", "3", "--samples", "10"])
    assert exc.value.code == 2


#: stands for a directory where a command reads a file
A_DIRECTORY = object()

IDEAL_TRIANGLE = {"dim": 2, "vertices": [{"x": [1, 0], "ideal": True}, {"x": [-1, 0], "ideal": True},
                                         {"x": [0, 1], "ideal": True}]}


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
    pytest.param(["triangulation", "info"], {"dim": "x", "simplices": 1, "pairings": []},
                 id="wire-dim-not-integer"),
    pytest.param(["triangulation", "info"],
                 {"dim": 1, "simplices": 1, "pairings": [{"a": [0, 0], "b": [0, 1], "map": ["q"]}]},
                 id="wire-map-not-integer"),
    # floats and bools are not integers: int() would truncate 0.9 and 1.7
    pytest.param(["triangulation", "info"],
                 {"dim": 2, "simplices": 2,
                  "pairings": [{"a": [0.9, 0], "b": [1, 0], "map": [1.7, 2]}]},
                 id="wire-slot-float"),
    pytest.param(["triangulation", "info"], {"dim": True, "simplices": 1, "pairings": []},
                 id="wire-dim-bool"),
    pytest.param(["triangulation", "cover", "torus", "--spec"],
                 {"degree": 2, "perms": {"0": [2, 1.0], "1": [1, 2], "2": [1, 2]}},
                 id="spec-perm-float"),
    pytest.param(["triangulation", "cover", "torus", "--spec"],
                 {"degree": 2.0, "perms": {"0": [2, 1], "1": [1, 2], "2": [1, 2]}},
                 id="spec-degree-float"),
    pytest.param(["volume", "--regular-ideal", "3", "--samples", "inf"], None, id="samples-inf"),
    # numpy could not size a stratum this large; the sampler counts in int64
    pytest.param(["volume", "--samples", "1e30"],
                 {"dim": 2, "vertices": [{"x": [1, 0], "ideal": True}, {"x": [-1, 0], "ideal": True},
                                         {"x": [0, 1], "ideal": True}]},
                 id="samples-above-int64"),
    pytest.param(["volume", "--samples", "1e4"],
                 {"dim": 2, "vertices": [{"x": [math.nan, 0]}, {"x": [1, 0], "ideal": True},
                                         {"x": [0, 1], "ideal": True}]},
                 id="simplex-nan"),
    pytest.param(["bounds", "jsj", "--n", ","], None, id="jsj-empty-sweep"),
    # an empty --d printed an empty table
    pytest.param(["bounds", "seifert", "--d", ""], None, id="seifert-empty-degrees"),
    # the preset silently replaced a given count
    pytest.param(["bounds", "filling", "--figure-eight", "--va", "3"], None,
                 id="filling-preset-and-count"),
    # a NaN tolerance let an off-sphere "ideal" vertex through
    pytest.param(["volume", "--samples", "1e4", "--tolerance", "nan"],
                 {"dim": 2, "vertices": [{"x": [0.5, 0], "ideal": True},
                                         {"x": [-1, 0], "ideal": True}, {"x": [0, 1], "ideal": True}]},
                 id="tolerance-nan"),
    pytest.param(["volume", "--regular-ideal", "3", "--tolerance", "inf"], None, id="tolerance-inf"),
    pytest.param(["volume", "--regular-ideal", "3", "--tolerance", "-1"], None,
                 id="tolerance-negative"),
    pytest.param(["volume", "--regular-ideal", "4", "--samples", "1e3", "--seed", "-1"], None,
                 id="volume-seed-negative"),
    pytest.param(["constants", "--seed", "-1"], None, id="constants-seed-negative"),
    # an eps search with no restart, step or climb evaluates no simplex
    pytest.param(["constants", "--restarts", "0"], None, id="constants-restarts-0"),
    pytest.param(["constants", "--restarts", "-3"], None, id="constants-restarts-negative"),
    pytest.param(["constants", "--depth", "0"], None, id="constants-depth-0"),
    pytest.param(["constants", "--climb-iters", "-1"], None, id="constants-climb-iters-negative"),
    # v_n is computed, not sampled
    pytest.param(["constants", "--samples", "1e4"], None, id="constants-samples"),
    pytest.param(["volume", "--regular-ideal", "4", "--samples", "1e4"], None,
                 id="regular-ideal-samples"),
    pytest.param(["volume", "--regular-ideal", "4", "--seed", "1"], None, id="regular-ideal-seed"),
    pytest.param(["volume", "--regular-ideal", "4", "--tolerance", "1e-9"], None,
                 id="regular-ideal-tolerance"),
    # flags a subcommand does not read, and csv outside constants
    pytest.param(["bounds", "seifert", "--seed", "1"], None, id="bounds-seed"),
    pytest.param(["bounds", "seifert", "--samples", "1e4"], None, id="bounds-samples"),
    pytest.param(["bounds", "seifert", "--tolerance", "1e-9"], None, id="bounds-tolerance"),
    pytest.param(["triangulation", "info", "torus", "--seed", "1"], None, id="triangulation-seed"),
    pytest.param(["triangulation", "info", "torus", "--samples", "1e4"], None,
                 id="triangulation-samples"),
    pytest.param(["triangulation", "info", "torus", "--tolerance", "1e-9"], None,
                 id="triangulation-tolerance"),
    pytest.param(["constants", "--tolerance", "1e-9"], None, id="constants-tolerance"),
    pytest.param(["volume", "--regular-ideal", "3", "--format", "csv"], None, id="volume-csv"),
    pytest.param(["triangulation", "info", "torus", "--format", "csv"], None,
                 id="triangulation-csv"),
    pytest.param(["bounds", "seifert", "--format", "csv"], None, id="bounds-csv"),
    # only cover reads --spec and --characteristic, and only one of them
    pytest.param(["triangulation", "info", "torus", "--characteristic", "2"], None,
                 id="info-characteristic"),
    pytest.param(["triangulation", "dashboard", "fig8", "--spec", "missing.json"], None,
                 id="dashboard-spec"),
    pytest.param(["triangulation", "cover", "torus", "--characteristic", "2", "--spec"],
                 {"degree": 2, "perms": {"0": [2, 1], "1": [1, 2], "2": [1, 2]}},
                 id="cover-spec-and-characteristic"),
    # a simplex file takes JSON integers, numbers and bools, not their look-alikes
    pytest.param(["volume", "--samples", "1e4"], {**IDEAL_TRIANGLE, "dim": 2.0},
                 id="simplex-dim-float"),
    pytest.param(["volume", "--samples", "1e4"], {**IDEAL_TRIANGLE, "dim": True},
                 id="simplex-dim-bool"),
    pytest.param(["volume", "--samples", "1e4"],
                 {"dim": 2, "vertices": [{"x": [1, 0], "ideal": 1}, *IDEAL_TRIANGLE["vertices"][1:]]},
                 id="simplex-ideal-int"),
    # "false" is a nonempty string, so bool() read this vertex as ideal
    pytest.param(["volume", "--samples", "1e4"],
                 {"dim": 2, "vertices": [{"x": [0.1, 0], "ideal": "false"},
                                         *IDEAL_TRIANGLE["vertices"][1:]]},
                 id="simplex-ideal-string"),
    pytest.param(["volume", "--samples", "1e4"],
                 {"dim": 2, "vertices": [{"x": ["0.1", 0]}, *IDEAL_TRIANGLE["vertices"][1:]]},
                 id="simplex-coordinate-string"),
    pytest.param(["volume", "--samples", "1e4"],
                 {"dim": 2, "vertices": [{"x": [True, 0], "ideal": True},
                                         *IDEAL_TRIANGLE["vertices"][1:]]},
                 id="simplex-coordinate-bool"),
    # a directory, and a file that is not UTF-8, wherever a file is read
    *(pytest.param(argv, bad, id=f"{name}-{kind}")
      for name, argv in (("info", ["triangulation", "info"]),
                         ("volume", ["volume", "--samples", "1e4"]),
                         ("spec", ["triangulation", "cover", "torus", "--spec"]))
      for kind, bad in (("directory", A_DIRECTORY), ("not-utf8", b"\xff\xfe"))),
    # each calculator reads only its own flags; these printed the unchanged table
    pytest.param(["bounds", "seifert", "--va", "3"], None, id="seifert-va"),
    pytest.param(["bounds", "filling", "--vc", "5"], None, id="filling-vc"),
    pytest.param(["bounds", "jsj", "--e", "2"], None, id="jsj-e"),
    pytest.param(["bounds", "seifert", "--h", "2", "--n", "5"], None, id="seifert-h-n"),
    # an abbreviated flag is bad input
    pytest.param(["triangulation", "cover", "torus", "--char", "2"], None,
                 id="cover-abbreviated-characteristic"),
    pytest.param(["constants", "--rest", "2"], None, id="constants-abbreviated-restarts"),
    pytest.param(["volume", "--regular-ideal", "3"], IDEAL_TRIANGLE, id="file-and-regular-ideal"),
    # a flag before the action or calculator read its value as the command
    pytest.param(["triangulation", "--format", "json", "info", "torus"], None,
                 id="triangulation-flag-before-action"),
    pytest.param(["bounds", "--format", "json", "seifert"], None,
                 id="bounds-flag-before-calculator"),
    # a 1-simplex's volume printed numpy warnings and an Infinity that is not JSON
    pytest.param(["volume", "--format", "json"],
                 {"dim": 1, "vertices": [{"x": [1.0], "ideal": True}, {"x": [-0.5]}]},
                 id="volume-1-simplex"),
    # a degree below 1 died in numpy or built an empty cover
    pytest.param(["triangulation", "cover", "torus", "--spec"],
                 {"degree": -1, "perms": {"0": [], "1": [], "2": []}}, id="spec-degree-negative"),
    pytest.param(["triangulation", "cover", "torus", "--spec"],
                 {"degree": 0, "perms": {"0": [], "1": [], "2": []}}, id="spec-degree-0"),
    # an unknown pairing index was ignored, and a missing one read as a failed check
    *(pytest.param(["triangulation", "cover", "torus", "--spec"],
                   {"degree": 2, "perms": {k: [1, 2] for k in keys}}, id=f"spec-keys-{name}")
      for name, keys in (("unknown-7", ("0", "1", "2", "7")), ("unknown-negative", ("-1", "0", "1", "2")),
                         ("missing-2", ("0", "1")),
                         # "00" named pairing 0 again and replaced its permutation
                         ("zero-twice", ("0", "1", "2", "00")))),
    # numpy tried to allocate 16 TiB for dim 40; dim 9 ran
    pytest.param(["triangulation", "info"], {"dim": 9, "simplices": 1, "pairings": []},
                 id="wire-dim-9"),
    # counts and parameters too large for a float or for numpy
    *(pytest.param(argv + [str(10 ** 400)], None, id=name)
      for name, argv in (("jsj-va-huge", ["bounds", "jsj", "--va"]),
                         ("filling-vb-huge", ["bounds", "filling", "--vb"]),
                         ("seifert-e-huge", ["bounds", "seifert", "--e"]),
                         ("characteristic-huge", ["triangulation", "cover", "torus",
                                                  "--characteristic"]))),
])
def test_bad_input_exits_2(tmp_path, capsys, argv, spec):
    if spec is A_DIRECTORY:
        argv = argv + [str(tmp_path)]
    elif spec is not None:
        f = tmp_path / "spec.json"
        if isinstance(spec, bytes):
            f.write_bytes(spec)
        else:
            f.write_text(json.dumps(spec))
        argv = argv + [str(f)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["triangulation", "--format", "json", "info", "torus"],
     "hypstab triangulation: error: --format must follow the action: "
     "hypstab triangulation info --format json ..."),
    (["bounds", "--format", "json", "seifert"],
     "hypstab bounds: error: --format must follow the calculator: "
     "hypstab bounds seifert --format json ..."),
    (["triangulation", "--characteristic", "3", "cover", "torus"],
     "error: --characteristic must follow the action: "
     "hypstab triangulation cover --characteristic 3 ..."),
    (["bounds", "--figure-eight", "filling"],
     "error: --figure-eight must follow the calculator: hypstab bounds filling --figure-eight ..."),
])
def test_flag_before_its_command_names_where_it_goes(capsys, argv, message):
    # argparse took the flag's value for the command: "invalid choice: 'json'"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, command, leftover", [
    pytest.param(["bounds", "seifert", "--va", "3"], "bounds seifert", "--va 3", id="seifert"),
    pytest.param(["bounds", "jsj", "--e", "2", "--chi", "1"], "bounds jsj", "--e 2 --chi 1",
                 id="jsj"),
    pytest.param(["triangulation", "info", "torus", "--seed", "1"], "triangulation info",
                 "--seed 1", id="info"),
    pytest.param(["volume", "--regular-ideal", "3", "--depth=2"], "volume", "--depth=2",
                 id="volume"),
    pytest.param(["constants", "--samples", "1e4"], "constants", "--samples 1e4",
                 id="constants"),
])
def test_unread_flag_is_reported_by_its_command(capsys, argv, command, leftover):
    # argparse hands a leaf's leftovers to the root parser, which printed
    # "usage: hypstab [-h] {constants,...}" instead of the command's flags
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: hypstab {command} [-h]")
    assert f"hypstab {command}: error: unrecognized arguments: {leftover}" in err


#: the flags each command reads, as README's CLI section lists them
OUTPUT_FLAGS = {"--format", "--out"}
FLAGS_READ = {
    "constants": OUTPUT_FLAGS | {"--seed", "--n-min", "--n-max", "--restarts", "--depth",
                                 "--climb-iters"},
    "volume": OUTPUT_FLAGS | {"--seed", "--samples", "--tolerance", "--regular-ideal"},
    **{f"triangulation {action}": OUTPUT_FLAGS for action in ("info", "cycle", "dashboard")},
    "triangulation cover": OUTPUT_FLAGS | {"--spec", "--characteristic"},
    "bounds seifert": OUTPUT_FLAGS | {"--e", "--chi", "--d"},
    "bounds jsj": OUTPUT_FLAGS | {"--va", "--vb", "--vc", "--vd", "--h", "--n"},
    "bounds filling": OUTPUT_FLAGS | {"--va", "--vb", "--vd", "--h", "--n", "--figure-eight"},
}


def _parsers(parser, path=()):
    """(command path, parser, whether it is a leaf) for every parser under ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    yield " ".join(path), parser, not subs
    for action in subs:
        for name, child in action.choices.items():
            yield from _parsers(child, path + (name,))


def test_each_command_declares_only_the_flags_it_reads():
    parsers = list(_parsers(cli.build_parser()))
    declared = {path: {flag for a in p._actions for flag in a.option_strings} - {"-h", "--help"}
                for path, p, leaf in parsers if leaf}
    assert declared == FLAGS_READ
    assert not any(p.allow_abbrev for _, p, _ in parsers)


def readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("hypstab ")]


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_examples_run(line, tmp_path, monkeypatch, capsys):
    argv = shlex.split(line)[1:]
    cli.build_parser().parse_args(argv)
    # parsed only: the default-budget constants table takes about a minute,
    # and my_simplex.json stands for the reader's own file
    if (argv[0] == "constants" and "--restarts" not in argv) or "my_simplex.json" in argv:
        return
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err


def test_simplex_file_ideal_flag_must_be_a_bool(tmp_path, capsys):
    f = tmp_path / "simplex.json"
    f.write_text(json.dumps({"dim": 2, "vertices": [{"x": [0.1, 0], "ideal": "false"},
                                                    *IDEAL_TRIANGLE["vertices"][1:]]}))
    with pytest.raises(SystemExit) as exc:
        main(["volume", str(f)])
    assert exc.value.code == 2
    assert "malformed simplex file" in capsys.readouterr().err


def test_constants_quick(capsys):
    code, out, _ = run(capsys, "constants", "--n-min", "4", "--n-max", "4",
                       "--restarts", "4", "--depth", "16",
                       "--climb-iters", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["C_n"]["value"] < 1.0
    assert row["C_n"]["flag"] == "empirical-search"
    assert row["k_n"]["value"] == 5
    for name in ("v_n", "alpha_n", "k_n", "delta_n", "eta_n", "a_n"):
        assert row[name]["flag"] == "exact"
    assert row["eps_n"]["flag"] == "empirical-search"
    # v_n is computed, not sampled
    assert row["v_n"]["std_error"] == 0.0
    assert "samples" not in payload


def test_constants_flags_default_to_the_search_defaults():
    args = cli.build_parser().parse_args(["constants"])
    defaults = constants.SEARCH_DEFAULTS
    assert (args.restarts, args.depth, args.climb_iters) == (
        defaults["restarts"], defaults["bisection_depth"], defaults["climb_iters"])


def test_constants_json_identical_across_runs(capsys):
    # depth 15 is the least whose descent from 0.9 reaches below the least
    # known n = 4 violator deficit, 7.54e-5 (0.9 / 2^14 = 5.5e-5); at depth
    # 10 the descent ends at 1.76e-3, where a search that finds the
    # violators finds one at every step and so exhausts its budget
    argv = ["constants", "--n-min", "4", "--n-max", "5",
            "--restarts", "2", "--depth", "15", "--climb-iters", "3", "--format", "json"]
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["errors"] == {}
    assert [row["n"] for row in payload["rows"]] == [4, 5]
    assert all(row["C_n"]["value"] < 1.0 for row in payload["rows"])


def test_constants_failed_row_reported_others_emitted(monkeypatch, capsys):
    real, rows = cli.constants_row, {}

    def flaky(n, **kw):
        if n == 4:
            raise RuntimeError("no row at n=4")
        if n not in rows:
            rows[n] = real(n, **kw)
        return rows[n]

    monkeypatch.setattr(cli, "constants_row", flaky)
    argv = ["constants", "--n-min", "4", "--n-max", "5",
            "--restarts", "2", "--depth", "10", "--climb-iters", "3"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["errors"] == {"4": "no row at n=4"}
    assert [row["n"] for row in payload["rows"]] == [5]
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == 1
    assert re.search(r"^ 5 ", out, re.M) and " 4 ERROR: no row at n=4" in out.splitlines()
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 1
    lines = out.rstrip("\n").splitlines()
    assert lines[-1] == "# error n=4: no row at n=4"
    assert [line.split(",")[0] for line in lines[1:-1]] == ["5"]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_constants_stdout_equals_out_file(fmt, monkeypatch, tmp_path, capsys):
    # stdout gets the bytes --out writes, ending in one newline; the n = 5
    # row fails, so the error lines are covered too
    row = constants.constants_row(4, seed=1, restarts=4, bisection_depth=6, climb_iters=4,
                                  cheap_budget=1024, verify_budget=16384, eps_start=1e-3)

    def quick_row(n, **kw):
        if n == 5:
            raise RuntimeError("no row at n=5")
        return row

    monkeypatch.setattr(cli, "constants_row", quick_row)
    argv = ["constants", "--n-min", "4", "--n-max", "5", "--format", fmt]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    target = tmp_path / f"table.{fmt}"
    assert run(capsys, *argv, "--out", str(target)) == (1, "", "")
    assert target.read_bytes() == out.encode()
    assert out.endswith("\n") and not out.endswith("\n\n")


def test_cli_import_loads_no_scipy():
    # the runtime needs numpy only; scipy is the tests' quadrature oracle
    code = ("import sys, hypstab.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out.strip() == "[]"


def run_script(script, args):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, str(root / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("script, args", [
    ("maximality_probe.py", ["--n", "2", "--trials", "5"]),
    ("cover_census.py", ["--fixture", "torus", "--count", "2", "--max-degree", "3"]),
    ("cover_census.py", ["--fixture", "klein", "--count", "3", "--seed", "2"]),
    # H_1(S^3) = 0: no degree has a connected cyclic cover
    ("cover_census.py", ["--fixture", "boundary-4-simplex", "--count", "12",
                         "--max-degree", "6", "--seed", "3"]),
    # the cusp's torus link is not a sphere: vertices are not compared
    ("cover_census.py", ["--fixture", "figure-eight", "--count", "3", "--max-degree", "9"]),
    ("maximality_probe.py", ["--n", "4", "5", "--trials", "3"]),
])
def test_scripts_run(script, args):
    # the scripts import the package API directly; a tiny run catches a break
    done = run_script(script, args)
    assert done.returncode == 0, done.stderr
    if script == "cover_census.py":
        lines = done.stdout.splitlines()[1:]
        assert len(lines) == int(args[args.index("--count") + 1])
        if "boundary-4-simplex" in args:
            assert all(re.search(r": no connected cyclic cover of degree \d+: H_1 = 0$", line)
                       for line in lines)
        else:
            # every cover is connected and its f-vector is d times the
            # base's; a nonorientable one has no fundamental cycle to verify
            skipped = " (from the edges: a vertex link is not a sphere)"
            mult = "multiplicative=True" + (skipped if "figure-eight" in args else "")
            assert all(re.search(re.escape(mult) + r" connected=True, "
                                 r"cycle=(ok, L1=\S+|n/a \(nonorientable\))$", line)
                       for line in lines)


@pytest.mark.parametrize("script, args", [
    ("maximality_probe.py", ["--n", "2", "--trials", "0"]),
    # the probe's volumes are exact, so the sampling budget flag is gone: unknown
    ("maximality_probe.py", ["--n", "2", "--budget-per-trial", "999"]),
    ("maximality_probe.py", ["--n", "6"]),
    ("cover_census.py", ["--max-degree", "1"]),
    ("cover_census.py", ["--count", "0"]),
    ("cover_census.py", ["--seed", "-1"]),
    ("cover_census.py", ["--fixture", "nope"]),
    # abbreviated flags are bad input, as in the CLI
    ("maximality_probe.py", ["--n", "2", "--tri", "3"]),
    ("cover_census.py", ["--fix", "torus", "--cou", "1"]),
])
def test_scripts_bad_input_exits_2(script, args):
    done = run_script(script, args)
    assert done.returncode == 2, done.stderr
    assert len([line for line in done.stderr.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in done.stderr and done.stdout == ""


# ---------------------------------------------------------------------------
# fuzz: a malformed file or list ends in exit 0, 1 or 2, never a traceback

#: small JSON values; integers stay small because the target is malformed
#: input, not scale
SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(-2.0, 2.0)
    | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=5)

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=200)

SIMPLEX_DOC = {"dim": 3, "vertices": [{"x": [0.1, 0.2, 0.0]}, {"x": [1.0, 0.0, 0.0], "ideal": True},
                                      {"x": [0.0, 0.7, 0.0]}, {"x": [0.0, 0.0, -0.6]}]}

#: (valid document, argv with FILE where the document's path goes)
FUZZ_DOCUMENTS = [
    *[pytest.param(to_wire(load_fixture(name)), ["triangulation", action, "FILE"],
                   id=f"wire-{name}-{action}")
      for name in ("torus", "figure-eight") for action in ("info", "cycle", "dashboard")],
    pytest.param(to_wire(load_fixture("torus")),
                 ["triangulation", "cover", "FILE", "--characteristic", "2"], id="wire-cover"),
    pytest.param({"degree": 4, "wire": to_wire(build_cover(
                      load_fixture("torus"), characteristic_cover_spec(load_fixture("torus"), 2)))},
                 ["triangulation", "cycle", "FILE"], id="cover-output-cycle"),
    pytest.param(cover_spec_to_wire(characteristic_cover_spec(load_fixture("torus"), 2)),
                 ["triangulation", "cover", "torus", "--spec", "FILE"], id="cover-spec"),
    pytest.param(SIMPLEX_DOC, ["volume", "FILE", "--samples", "1e3"], id="simplex"),
]


def _paths(doc, prefix=()):
    """The root and every key or index path into a JSON document."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _assert_clean_exit(argv):
    """main returns 0 or 1 or raises SystemExit(2); any other exception fails."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, (argv, sink.getvalue())
    else:
        assert code in (0, 1), (argv, sink.getvalue())


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@pytest.mark.parametrize("doc, argv", FUZZ_DOCUMENTS)
@FUZZ
@given(data=st.data())
def test_fuzz_input_files(fuzz_file, doc, argv, data):
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    fuzz_file.write_text(json.dumps(_replaced(doc, path, data.draw(SMALL_JSON, label="value"))))
    _assert_clean_exit([str(fuzz_file) if a == "FILE" else a for a in argv])


@FUZZ
@given(flag=st.sampled_from([("seifert", "--d"), ("jsj", "--n"), ("filling", "--n")]),
       items=st.lists(st.integers(-3, 2000).map(str) | st.text("0123456789-_ x.,", max_size=4),
                      max_size=4))
def test_fuzz_bounds_lists(flag, items):
    calculator, option = flag
    _assert_clean_exit(["bounds", calculator, f"{option}={','.join(items)}"])
