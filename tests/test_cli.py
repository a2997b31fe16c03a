"""CLI contract tests: schemas, exit codes, formats, determinism."""

import json
import math

import numpy as np
import pytest

from entcost.cli import run, state_from_json
from entcost.channels import SchemaError
from entcost.cost import dephasing_curves
from entcost.entropy import binary_h

DEPH = '{"type":"dephasing","p":0.25}'
BELL = json.dumps({
    "dims": [2, 2],
    "re": [[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]],
})
CC = json.dumps({
    "dims": [2, 2],
    "re": [[0.5, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0.5]],
})


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ec1_dephasing(capsys):
    code, out, _ = invoke(capsys, "ec1", "--channel", DEPH)
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"] is True
    assert payload["ec1"] == pytest.approx(binary_h(0.5 + math.sqrt(3) / 4),
                                           abs=1e-9)


def test_choi_output_shape(capsys):
    code, out, _ = invoke(capsys, "choi", "--channel", '{"type":"identity","d":2}')
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [2, 2]
    mat = np.array(payload["re"]) + 1j * np.array(payload["im"])
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    np.testing.assert_allclose(mat, np.outer(bell, bell), atol=1e-9)


def test_concurrence_and_entropy(capsys):
    code, out, _ = invoke(capsys, "concurrence", "--state", BELL)
    assert code == 0
    assert json.loads(out)["concurrence"] == pytest.approx(1.0, abs=1e-9)
    code, out, _ = invoke(capsys, "entropy", "--state", BELL, "--kind", "conditional")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(-1.0, abs=1e-9)
    code, out, _ = invoke(capsys, "entropy", "--state", CC, "--kind", "h0")
    assert json.loads(out)["value"] == 1.0


def test_eof_closed_form_and_numeric(capsys):
    code, out, _ = invoke(capsys, "eof", "--state", CC)
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "concurrence_closed_form"
    assert payload["eof"] == 0.0
    code, out, _ = invoke(capsys, "eof", "--state", CC, "--numeric",
                          "--restarts", "4", "--seed", "1")
    payload = json.loads(out)
    assert payload["method"] == "decomposition_search"
    assert payload["eof"] <= 1e-6
    assert {"value", "items"} <= set(payload["decomposition"])
    item = payload["decomposition"]["items"][0]
    assert {"p", "vec"} <= set(item)
    assert len(item["vec"]) == 4 and len(item["vec"][0]) == 2


def test_security_region_csv(capsys):
    code, out, _ = invoke(capsys, "security-region", "--family", "depolarizing",
                          "--points", "101", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,ec1,nu_max"
    assert len(lines) == 102
    tail_cells = [ln.split(",") for ln in lines[68:]]  # r >= 0.67
    assert all(cells[2] == "inf" for cells in tail_cells)
    head_cells = lines[1].split(",")
    assert float(head_cells[1]) == pytest.approx(1.0, abs=1e-9)
    assert float(head_cells[2]) == pytest.approx(0.5, abs=1e-9)


def test_dephasing_curves_csv(capsys):
    code, out, _ = invoke(capsys, "dephasing-curves", "--points", "11",
                          "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,q_arrow,ec1,q_e"
    assert len(lines) == 12
    first = [float(c) for c in lines[1].split(",")]
    assert first == [0.0, 1.0, 1.0, 1.0]
    last = [float(c) for c in lines[-1].split(",")]
    assert last[0] == 0.5 and last[2] == 0.0


def test_dephasing_curves_full_grid(capsys):
    # ec1 exceeds q_e for p in (0, 0.00183], which a 1001-point grid samples
    rows = dephasing_curves(np.linspace(0.0, 0.5, 1001))
    assert len(rows) == 1001
    assert all(r.values["q_arrow"] <= r.values["ec1"] for r in rows)
    code, out, _ = invoke(capsys, "dephasing-curves", "--points", "1001")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 1001


def test_smooth_h0_table(capsys, tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("x,y,p\n0,0,0.5\n1,0,0.3\n2,0,0.15\n3,0,0.05\n")
    code, out, _ = invoke(capsys, "smooth-h0", "--table", str(path),
                          "--eps", "0.05")
    assert code == 0
    payload = json.loads(out)
    assert payload["h0"] == 2.0
    # output carries 12 significant digits
    assert payload["smooth_h0"] == pytest.approx(math.log2(3), abs=1e-10)


def test_one_shot_cost(capsys):
    code, out, _ = invoke(capsys, "one-shot-cost", "--state", CC, "--eps", "0",
                          "--restarts", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["upper"] == 0.0
    assert payload["lower_heuristic"] <= payload["upper"]
    assert payload["witness"]["value"] == 0.0


def test_constants(capsys):
    code, out, _ = invoke(capsys, "constants", "--postselection", "--n", "3",
                          "--dimA", "2")
    assert code == 0
    assert json.loads(out)["log2_factor"] == 6.0
    code, out, _ = invoke(capsys, "constants", "--definetti", "--n", "1",
                          "--dimA", "2", "--dimR", "2")
    assert json.loads(out)["log2_count"] == 6.0
    code, out, _ = invoke(capsys, "constants", "--epsnet", "--chi", "1",
                          "--eps", "1.0", "--dimA", "1", "--dimB", "1")
    assert json.loads(out)["log2_size"] == pytest.approx(math.log2(9))


def test_strong_converse_identity(capsys):
    code, out, _ = invoke(capsys, "strong-converse", "--identity",
                          "--rate", "2.0", "--n", "10")
    assert code == 0
    assert json.loads(out)["error_lower_bound"] == 1.0 - 2.0 ** -10


def test_strong_converse_identity_infinite_rate_no_uses(capsys):
    def reject(name):
        raise ValueError(f"invalid JSON constant {name}")

    code, out, _ = invoke(capsys, "strong-converse", "--identity",
                          "--rate", "inf", "--n", "0")
    assert code == 0
    payload = json.loads(out, parse_constant=reject)
    assert payload["error_lower_bound"] == 0.0


def test_strong_converse_channel(capsys):
    code, out, _ = invoke(capsys, "strong-converse", "--channel", DEPH,
                          "--delta1", "1.0", "--delta2", "1.5", "--n", "10000")
    assert code == 0
    payload = json.loads(out)
    assert payload["ec1_certified"] is True
    assert payload["rate"] == pytest.approx(payload["ec1"] + 1.5, abs=1e-9)
    assert payload["error_lower_bound"] == pytest.approx(1.0, abs=1e-6)
    assert payload["error_lower_bound_raw"] <= payload["error_lower_bound"] + 1e-12
    # vacuous regime is clamped for display but reported raw
    code, out, _ = invoke(capsys, "strong-converse", "--channel", DEPH,
                          "--delta1", "1.0", "--delta2", "1.5", "--n", "5")
    payload = json.loads(out)
    assert payload["error_lower_bound"] == 0.0
    assert payload["error_lower_bound_raw"] < 0.0


def test_exit_codes(capsys):
    # unknown flag -> usage error
    code, _, _ = invoke(capsys, "ec1", "--channel", DEPH, "--bogus")
    assert code == 2
    # malformed channel JSON -> usage error
    code, _, err = invoke(capsys, "ec1", "--channel", "{not json")
    assert code == 2 and "error" in err
    # schema violation -> usage error
    code, _, _ = invoke(capsys, "ec1", "--channel", '{"type":"mystery"}')
    assert code == 2
    # completeness violation -> numerical failure
    bad = json.dumps({"type": "kraus", "dim_in": 2, "dim_out": 2,
                      "ops": [[[0.5, 0], [0, 0], [0, 0], [0.5, 0]]]})
    code, _, _ = invoke(capsys, "ec1", "--channel", bad)
    assert code == 1
    # non-PSD state -> numerical failure
    bad_state = json.dumps({"dims": [2], "re": [[1.5, 0], [0, -0.5]]})
    code, _, _ = invoke(capsys, "entropy", "--state", bad_state)
    assert code == 1
    # unknown family rejected by argparse
    code, _, _ = invoke(capsys, "security-region", "--family", "mystery")
    assert code == 2
    # NaN floats rejected by argparse: the output could not be valid JSON
    code, out, _ = invoke(capsys, "strong-converse", "--identity", "--rate", "nan",
                          "--n", "3")
    assert code == 2 and out == ""
    code, out, _ = invoke(capsys, "constants", "--epsnet", "--chi", "1", "--eps", "nan",
                          "--dimA", "2", "--dimB", "2")
    assert code == 2 and out == ""
    code, out, _ = invoke(capsys, "eof", "--state", CC, "--numeric", "--tol", "nan")
    assert code == 2 and out == ""
    # fewer than one restart is a usage error for every seeded search
    code, out, _ = invoke(capsys, "one-shot-cost", "--state", CC, "--eps", "0.1",
                          "--restarts", "-3")
    assert code == 2 and out == ""
    z, o = [0, 0], [1, 0]
    qutrit_to_qubit = json.dumps({"type": "kraus", "dim_in": 3, "dim_out": 2,
                                  "ops": [[o, z, z, z, o, z], [z, z, o, z, z, z]]})
    code, out, _ = invoke(capsys, "ec1", "--channel", qutrit_to_qubit, "--restarts", "-2")
    assert code == 2 and out == ""
    code, out, _ = invoke(capsys, "strong-converse", "--channel", DEPH, "--n", "5",
                          "--restarts", "0")
    assert code == 2 and out == ""


def test_help_exits_zero(capsys):
    for cmd in ("choi", "concurrence", "eof", "ec1", "security-region",
                "strong-converse", "dephasing-curves", "entropy", "smooth-h0",
                "one-shot-cost", "constants"):
        assert run([cmd, "--help"]) == 0
        capsys.readouterr()
    assert run(["--help"]) == 0
    capsys.readouterr()
    assert run(["dephasing-curves", "--help"]) == 0
    assert "grid points on [0, 1/2]" in capsys.readouterr().out


def test_byte_identical_reruns(capsys):
    commands = [
        ("ec1", "--channel", DEPH),
        ("eof", "--state", CC, "--numeric", "--restarts", "3", "--seed", "7"),
        ("one-shot-cost", "--state", BELL, "--eps", "0.1", "--seed", "3"),
        ("security-region", "--family", "amplitude_damping", "--points", "21",
         "--format", "csv"),
        ("dephasing-curves", "--points", "21"),
        ("constants", "--epsnet", "--chi", "2", "--eps", "0.25",
         "--dimA", "2", "--dimB", "2"),
    ]
    for argv in commands:
        outs = set()
        for _ in range(3):
            code = run(list(argv))
            assert code == 0
            outs.add(capsys.readouterr().out)
        assert len(outs) == 1, argv


def test_state_schema_errors():
    with pytest.raises(SchemaError):
        state_from_json({"re": [[1.0]]})
    with pytest.raises(SchemaError):
        state_from_json({"dims": [2], "re": [[1.0, 0.0]]})
    with pytest.raises(SchemaError):
        state_from_json({"dims": [2], "re": [["a", 0.0], [0.0, "b"]]})
