"""CLI contract tests: schemas, exit codes, formats, determinism."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from entcost import channels, cost
from entcost.cli import _emit_curve, _fmt_float, run, state_from_json
from entcost.channels import SchemaError
from entcost.cost import _CHUNK, dephasing_curves, ec1_qubit
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
    # the default kind is the von Neumann entropy: 0 on a pure state
    code, out, _ = invoke(capsys, "entropy", "--state", BELL)
    assert code == 0 and json.loads(out) == {"kind": "von-neumann", "value": 0}


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


def test_csv_cells_print_the_json_values():
    # |x| in [1e12, 1e16) and -0.0 are where a %.12g cell would differ
    cols = {"x": np.array([1.5e12, 2.0, 123456789012.5]),
            "a": np.array([-0.0, 1e-7, 1.5e15]),
            "b": np.array([0.1, math.inf, 1 / 3])}
    csv = "".join(_emit_curve(cols, "csv")).splitlines()
    doc = json.loads("".join(_emit_curve(cols, "json")))
    assert csv[0] == "x,a,b"
    assert csv[1:] == [",".join(str(v) for v in row.values()) for row in doc["rows"]]
    assert csv[1] == "1500000000000,0,0.1"


def test_dephasing_curves_full_grid(capsys):
    # ec1 exceeds q_e for p in (0, 0.00183], which a 1001-point grid samples
    cols = dephasing_curves(np.linspace(0.0, 0.5, 1001))
    assert all(len(col) == 1001 for col in cols.values())
    assert all(cols["q_arrow"][i] <= cols["ec1"][i] for i in range(1001))
    code, out, _ = invoke(capsys, "dephasing-curves", "--points", "1001")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 1001


def test_emit_curve_rejects_nan_prints_inf():
    # JSON cannot carry NaN, so the output boundary refuses a NaN cell, at
    # the call, before any piece of the output exists
    for fmt in ("json", "csv"):
        with pytest.raises(ValueError, match="curve value b is NaN at x 2.0"):
            _emit_curve({"x": np.array([1.0, 2.0]), "b": np.array([0.5, math.nan])}, fmt)
    # infinities are the unbounded marker
    cols = {"x": np.array([1.0, 2.0]), "b": np.array([math.inf, 0.5])}
    assert list(_emit_curve(cols, "csv")) == ["x,b", "\n1,inf\n2,0.5", ""]
    pieces = list(_emit_curve(cols, "json"))
    assert len(pieces) == 3
    assert json.loads("".join(pieces))["rows"] == [{"x": 1, "b": "inf"}, {"x": 2, "b": 0.5}]


def test_emit_curve_pieces_hold_one_chunk_each():
    # the header, one piece per _CHUNK rows, and the closing brackets (none in CSV)
    n = 2 * _CHUNK + 1
    cols = {"x": np.arange(n, dtype=float), "y": np.full(n, 0.5)}
    for fmt in ("csv", "json"):
        pieces = list(_emit_curve(cols, fmt, family="f"))
        assert len(pieces) == 5
        assert max(p.count("0.5") for p in pieces) == _CHUNK


def test_curve_chunk_seams(capsys):
    # 8193 points cross both the sweep's chunk and the 4096-row formatting
    # chunk twice; no row may be lost or doubled at a seam
    n = 8193
    assert 2 * _CHUNK < n
    cases = [(["security-region", "--family", fam], 1.0, getattr(channels, fam))
             for fam in channels.QUBIT_FAMILIES]
    cases.append((["dephasing-curves"], 0.5, channels.dephasing))
    for argv, stop, ctor in cases:
        code, out, _ = invoke(capsys, *argv, "--points", str(n))
        assert code == 0
        rows = json.loads(out)["rows"]
        code, out, _ = invoke(capsys, *argv, "--points", str(n), "--format", "csv")
        assert code == 0
        header, *lines = out.splitlines()
        names = header.split(",")
        assert len(rows) == len(lines) == n, argv
        assert lines == [",".join(str(row[k]) for k in names) for row in rows], argv
        grid = np.linspace(0.0, stop, n).tolist()
        assert [row[names[0]] for row in rows] == [_fmt_float(x) for x in grid], argv
        for i in (4095, 4096, 4097, 8191, 8192):
            assert rows[i]["ec1"] == _fmt_float(ec1_qubit(ctor(grid[i]))), (argv, i)


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
    # a 1024 x 1024 table is the largest accepted (2^20 cells)
    path.write_text("x,y,p\n1023,1023,0.5\n0,0,0.5\n")
    code, out, _ = invoke(capsys, "smooth-h0", "--table", str(path), "--eps", "0")
    assert code == 0 and json.loads(out)["h0"] == 0


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
    # an unbounded simulation error prints as the string "inf"
    code, out, _ = invoke(capsys, "strong-converse", "--channel", DEPH,
                          "--delta1", "1e-200", "--n", str(10 ** 300))
    assert code == 0 and json.loads(out)["simulation_error"] == "inf"


def kraus_json(ops):
    """The kraus wire format of a Kraus stack (k, dim_out, dim_in)."""
    ops = np.asarray(ops, dtype=complex)
    return json.dumps({"type": "kraus", "dim_in": ops.shape[2], "dim_out": ops.shape[1],
                       "ops": [[[z.real, z.imag] for z in op.ravel()] for op in ops]})


def test_strong_converse_rate_note(capsys):
    covered = "rate = ec1 + delta2 >= true entanglement cost + delta2"
    uncovered = ("rate = ec1 + delta2 is not shown to bound the true entanglement cost"
                 " + delta2: E_C(N) <= E_F(J) holds for d->d channels whose Choi state J"
                 " is diagonal in the generalized Bell basis, and outside 2->2 a heuristic"
                 " ec1 may also undershoot")
    # coverage is read off the Choi state, whatever wire format gives the channel
    z = np.diag([1, -1])
    x3, z3 = np.roll(np.eye(3), 1, axis=0), np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    p = np.random.default_rng(7).dirichlet(np.ones(2))
    weyl3 = [np.sqrt(p[0]) * np.eye(3), np.sqrt(p[1]) * x3 @ z3]
    kraus_3to2 = kraus_json([[[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [0, 0, 0]]])
    for channel, note in (('{"type":"identity","d":2}', covered),
                          (DEPH, covered),
                          ('{"type":"depolarizing","r":0.3}', covered),
                          ('{"type":"amplitude_damping","r":1}', covered),
                          ('{"type":"amplitude_damping","r":0.5}', uncovered),
                          (kraus_json([np.eye(2)]), covered),
                          (kraus_json([np.sqrt(0.75) * np.eye(2), np.sqrt(0.25) * z]), covered),
                          (kraus_json(weyl3), covered),
                          (kraus_3to2, uncovered)):
        code, out, _ = invoke(capsys, "strong-converse", "--channel", channel, "--n", "5",
                              "--restarts", "1")
        assert code == 0
        assert json.loads(out)["rate_note"] == note, channel


def test_strong_converse_checks_its_parameters_before_the_search(capsys, monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("the ec1 search ran before the parameter check")

    monkeypatch.setattr(cost, "ec1_general", search)
    channel = kraus_json(channels.random_channel(3, 3, 2, np.random.default_rng(1)).kraus)
    for argv in (("--delta1", "0.2", "--delta2", "0.2", "--n", "5"), ("--n", "0")):
        code, out, err = invoke(capsys, "strong-converse", "--channel", channel, *argv)
        assert (code, out) == (2, "") and err.startswith("error:"), argv


def test_security_region_threshold_label(capsys):
    for family, proven in (("dephasing", True), ("depolarizing", True),
                           ("amplitude_damping", False)):
        code, out, _ = invoke(capsys, "security-region", "--family", family,
                              "--points", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["threshold_proven"] is proven
        assert list(payload) == ["family", "threshold_proven", "rows"]
        # the CSV form carries rows only
        code, out, _ = invoke(capsys, "security-region", "--family", family,
                              "--points", "3", "--format", "csv")
        assert code == 0 and "threshold_proven" not in out


def test_exit_codes(capsys, tmp_path):
    # unknown flag -> usage error
    code, _, _ = invoke(capsys, "ec1", "--channel", DEPH, "--bogus")
    assert code == 2
    # malformed channel JSON -> usage error
    code, _, err = invoke(capsys, "ec1", "--channel", "{not json")
    assert code == 2 and "error" in err
    # schema violation -> usage error
    code, _, _ = invoke(capsys, "ec1", "--channel", '{"type":"mystery"}')
    assert code == 2
    # JSON booleans are not dimensions
    for argv in (("choi", "--channel", '{"type":"identity","d":true}'),
                 ("ec1", "--channel", '{"type":"kraus","dim_in":true,"dim_out":true,'
                                      '"ops":[[[1,0]]]}'),
                 ("entropy", "--state", '{"dims":[true],"re":[[1]]}')):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == "" and "error" in err, argv
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
    # the decomposition size and the agreement tolerance are not options
    for argv in (("eof", "--state", CC, "--max-items", "4"),
                 ("eof", "--state", CC, "--numeric", "--tol", "1e-9"),
                 ("one-shot-cost", "--state", CC, "--eps", "0.1", "--max-items", "4")):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == "" and "unrecognized arguments" in err, argv
    # a negative value in exponent notation reaches the command as a value
    for argv, msg in ((("strong-converse", "--identity", "--rate", "-1e3", "--n", "3"),
                       "the bound applies to rates >= 1"),
                      (("one-shot-cost", "--state", CC, "--eps", "-1e-3"),
                       "eps -0.001 outside [0, 1]")):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == "" and msg in err, argv
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
    # --rate belongs to --identity mode: --channel mode codes at ec1 + delta2,
    # so a rate given there is refused rather than silently replaced
    for rate in ("2", "5"):
        code, out, err = invoke(capsys, "strong-converse", "--channel", DEPH, "--rate", rate,
                                "--n", "5")
        assert code == 2 and out == "" and "--rate" in err, rate
    # --epsnet names only the options without a default (--dimA has one)
    code, out, err = invoke(capsys, "constants", "--epsnet", "--chi", "1")
    assert code == 2 and out == ""
    assert err == "error: --epsnet needs --chi, --eps and --dimB\n"
    # integers too large for a float are usage errors that name the option
    huge = str(10 ** 400)
    for argv in (("constants", "--postselection", "--n", huge),
                 ("constants", "--postselection", "--dimA", huge),
                 ("constants", "--epsnet", "--chi", huge, "--eps", "0.1",
                  "--dimA", "2", "--dimB", "2"),
                 ("strong-converse", "--identity", "--rate", "2", "--n", huge),
                 ("strong-converse", "--channel", DEPH, "--n", huge)):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv
        assert err.count("\n") == 1, argv
        assert argv[argv.index(huge) - 1] in err, argv
    # no single option is out of range when only dimA^2 overflows
    code, out, err = invoke(capsys, "constants", "--postselection",
                            "--dimA", str(10 ** 200))
    assert code == 2 and out == "" and err == "error: int too large to convert to float\n"
    # more usage errors: each raises an exception class that run() maps to 2
    nine = json.dumps({"type": "kraus", "dim_in": 9, "dim_out": 9, "ops": [[[1, 0]] * 81]})
    for argv in (("entropy", "--state", "[1, 2]"),
                 ("smooth-h0", "--table", str(tmp_path / "missing.csv"), "--eps", "0"),
                 ("one-shot-cost", "--state", CC, "--eps", "abc"),
                 ("security-region", "--family", "dephasing", "--points", "1"),
                 ("strong-converse", "--identity", "--n", "3"),
                 ("strong-converse", "--n", "3"),
                 ("strong-converse", "--identity", "--rate", "2", "--channel", DEPH,
                  "--n", "3"),
                 ("constants", "--definetti", "--n", "3"),
                 ("constants", "--epsnet"),
                 ("eof", "--state", CC, "--numeric", "--restarts", "0"),
                 ("choi", "--channel", '{"type":"identity","d":9}'),
                 ("choi", "--channel", nine)):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == "" and "error" in err, argv
    # smooth-h0 tables: a malformed one or one beyond 2^20 cells is a usage
    # error, a negative or non-finite weight numeric
    for name, text, want in (("header", "a,b,c\n0,0,0.5\n", 2),
                             ("row", "x,y,p\n0,zz,0.5\n", 2),
                             ("short", "x,y,p\n0,0\n", 2),
                             ("index", "x,y,p\n-1,0,0.5\n", 2),
                             ("empty", "x,y,p\n", 2),
                             ("huge", "x,y,p\n1000000000000000,0,0.5\n0,0,0.5\n", 2),
                             ("cells", "x,y,p\n1024,1023,0.5\n0,0,0.5\n", 2),
                             ("negative", "x,y,p\n0,0,0.5\n1,0,-0.1\n", 1),
                             ("inf", "x,y,p\n0,0,inf\n", 1),
                             ("nan", "x,y,p\n0,0,nan\n", 1)):
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        code, out, err = invoke(capsys, "smooth-h0", "--table", str(path), "--eps", "0")
        assert code == want and out == "" and "error" in err, name


def test_dense_array_cap_is_a_usage_error(capsys):
    # --points, the start stack restarts * items * rank and the ec1 inputs
    # restarts * dim_in^2 share the 2^20 cap of a dense table: beyond it one
    # error line, not a memory error or a loop that never ends
    huge = str(10 ** 15)
    kraus_3to2 = json.dumps({"type": "kraus", "dim_in": 3, "dim_out": 2, "ops": [
        [[1, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 0]],
        [[0, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0]]]})
    for argv in (("eof", "--state", CC, "--numeric", "--restarts", huge),
                 ("one-shot-cost", "--state", CC, "--eps", "0.1", "--restarts", huge),
                 ("security-region", "--family", "dephasing", "--points", huge),
                 ("dephasing-curves", "--points", huge),
                 ("ec1", "--channel", kraus_3to2, "--restarts", huge),
                 ("strong-converse", "--channel", kraus_3to2, "--n", "10",
                  "--restarts", huge)):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv
        assert err.count("\n") == 1 and "1048576" in err, argv


def test_negative_seed_is_one_usage_error(capsys):
    # the seed is checked before any restart draws from it, so a lone
    # restart refuses it too
    for argv in (("eof", "--state", CC, "--numeric"),
                 ("one-shot-cost", "--state", CC, "--eps", "0.1"),
                 ("ec1", "--channel", DEPH),
                 ("strong-converse", "--channel", DEPH, "--n", "5")):
        for restarts in ("1", "2"):
            code, out, err = invoke(capsys, *argv, "--restarts", restarts, "--seed", "-1")
            assert (code, out, err) == (2, "", "error: seed must be nonnegative, got -1\n"), \
                (argv, restarts)


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
    for dims in ([True], [True, True]):
        with pytest.raises(SchemaError):
            state_from_json({"dims": dims, "re": [[1.0]]})
    # a wrong grid is refused before any dim x dim default is built
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError):
            state_from_json({"dims": [32, 32], "re": [[1.0]], "im": [[0.0]]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(SchemaError):
        state_from_json({"dims": [2], "re": [[1.0, 0.0]]})
    with pytest.raises(SchemaError):
        state_from_json({"dims": [2], "re": [["a", 0.0], [0.0, "b"]]})
    with pytest.raises(SchemaError, match="'im'"):
        state_from_json({"dims": [1], "re": [[1]], "im": [[10 ** 400]]})
