import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pdscodes import pds
from pdscodes.cli import main
from pdscodes.field import FieldSpec, FieldTower
from pdscodes.pds import FieldSubset

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pds_recipe_example31(capsys):
    code, out, _ = run_cli(capsys, "pds", "--recipe", "example-3.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 204
    assert payload["theta1"] == 12
    assert payload["theta2"] == -4
    assert payload["fq_invariant"] is True
    assert payload["direct_check"] == "ok"


def test_pds_recipe_row1(capsys):
    code, out, _ = run_cli(capsys, "pds", "--recipe", "table-2-row-1")
    assert code == 0
    payload = json.loads(out)
    assert (payload["k"], payload["theta1"], payload["theta2"]) == (22, 4, -5)


def test_pds_inline_spec(capsys):
    code, out, _ = run_cli(
        capsys,
        "pds",
        "--field", '{"p": 3, "e": 1, "m": 4}',
        "--subset", '{"quadric": {"kind": "hyperbolic"}}',
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 32
    assert payload["type"] == "latin"


def test_pds_negative_exit_code(capsys):
    code, out, _ = run_cli(
        capsys,
        "pds",
        "--field", '{"p": 3, "e": 1, "m": 4}',
        "--subset", '{"explicit": {"logs": [0, 1, 40, 41]}}',
    )
    assert code == 3
    assert "error" in json.loads(out)


def test_malformed_subset_is_config_error(capsys):
    # J = Z_N is not a proper subset
    code, _, err = run_cli(
        capsys,
        "pds",
        "--field", '{"p": 2, "e": 2, "m": 4}',
        "--subset", '{"cyclotomic": {"N": 5, "J": [0, 1, 2, 3, 4]}}',
    )
    assert code == 2
    assert "error" in err


F44 = '{"p": 2, "e": 2, "m": 4}'
F34 = '{"p": 3, "e": 1, "m": 4}'
GRAM = '{"quadric": {"gram": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, %s]]}}'
FIELD_LIST = str(Path(__file__).parent / "data" / "field-list.json")  # holds [3, 1, 4]


@pytest.mark.parametrize("field, subset, message", [
    (F44, '{"cyclotomic": {"N": 0, "J": [0]}}', "N=0 must be a positive divisor of q^m - 1"),
    (F44, '{"cyclotomic": {"N": -5, "J": [0]}}', "N=-5 must be a positive divisor of q^m - 1"),
    (F34, GRAM % 7, "gram entries must be F_q labels 0..2"),
    (F34, GRAM % -1, "gram entries must be F_q labels 0..2"),
    (F44, '{"cyclotomic": {"N": 5, "J": 3}}', "J must be a list of integers, got 3"),
    (F44, '{"explicit": {"logs": 3}}', "logs must be a list of integers, got 3"),
    (F34, '{"quadric": {"gram": 5}}', "gram must be a list of rows, got 5"),
    (F34, '{"quadric": {"gram": [1, 2, 3, 4]}}', "gram row must be a list of integers, got 1"),
    ('{"p": 2, "e": 2, "m": 4, "modulus": 5}', '{"cyclotomic": {"N": 5, "J": [0]}}',
     "modulus must be a list of integers, got 5"),
    # scalar fields take JSON integers only: no null, no float, no bool
    (F44, '{"cyclotomic": {"N": null, "J": [0]}}', "N must be an integer, got None"),
    (F44, '{"cyclotomic": {"N": 5.9, "J": [0]}}', "N must be an integer, got 5.9"),
    ('{"p": null, "e": 1, "m": 4}', '{"cyclotomic": {"N": 5, "J": [0]}}',
     "p must be an integer, got None"),
    ('{"p": 3.5, "e": 1, "m": 4}', '{"cyclotomic": {"N": 5, "J": [0]}}',
     "p must be an integer, got 3.5"),
    ('{"p": 3, "e": true, "m": 4}', '{"cyclotomic": {"N": 5, "J": [0]}}',
     "e must be an integer, got True"),
    (F34, '{"explicit": {"logs": [1, true]}}', "logs must be a list of integers, got [1, True]"),
    # spec values that must be JSON objects
    (F44, '{"cyclotomic": 5}', "cyclotomic must be a JSON object, got 5"),
    (F34, '{"explicit": []}', "explicit must be a JSON object, got []"),
    (F34, '{"quadric": 5}', "quadric must be a JSON object, got 5"),
    pytest.param(FIELD_LIST, '{"cyclotomic": {"N": 5, "J": [0]}}',
                 "field spec must be a JSON object, got [3, 1, 4]", id="field-file-holds-a-list"),
    pytest.param("[3, 1, 4]", '{"cyclotomic": {"N": 5, "J": [0]}}',
                 "field spec must be a JSON object, got [3, 1, 4]", id="inline-field-list"),
    # a subset spec names one kind
    pytest.param(F34, '{"quadric": {"kind": "elliptic"}, "cyclotomic": {"N": 5, "J": [0]}}',
                 "subset spec must be one of cyclotomic/explicit/quadric, got cyclotomic and "
                 "quadric", id="two-kinds"),
    # a missing key is named together with the spec that lacks it
    ('{"p": 3, "e": 1}', '{"cyclotomic": {"N": 5, "J": [0]}}', "field spec is missing key 'm'"),
    (F44, '{"cyclotomic": {"J": [0]}}', "cyclotomic spec is missing key 'N'"),
    (F44, '{"cyclotomic": {"N": 5}}', "cyclotomic spec is missing key 'J'"),
    (F34, '{"explicit": {}}', "explicit spec is missing key 'logs'"),
    # a huge p or e*m fails before any primality test or power
    ('{"p": 2305843009213693951, "e": 1, "m": 1}', '{"cyclotomic": {"N": 5, "J": [0]}}',
     "exceeds the table cap"),
    ('{"p": 3, "e": 1, "m": 400000000000}', '{"cyclotomic": {"N": 5, "J": [0]}}',
     "exceeds the table cap"),
    # the quadric kind is one of two names
    (F34, '{"quadric": {"kind": ["x"], "gram": [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], '
          '[0, 0, 0, 0]]}}', "kind must be 'hyperbolic' or 'elliptic', got ['x']"),
    (F34, '{"quadric": {"kind": "foo", "gram": [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], '
          '[0, 0, 0, 0]]}}', "kind must be 'hyperbolic' or 'elliptic', got 'foo'"),
])
def test_malformed_spec_field_is_config_error(capsys, field, subset, message):
    code, _, err = run_cli(capsys, "pds", "--field", field, "--subset", subset)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (["pds"], "either --recipe or both --field and --subset are required"),
    (["code", "--recipe", "example-3.1", "--methods", "cover,bogus"], "unknown methods: bogus"),
    (["sss", "--recipe", "example-3.1"], "give --x1-log N or --x1 in-D|in-Dbar"),
    (["pds", "--field", F34, "--subset", '{"random": {}}'],
     "subset spec must be one of cyclotomic/explicit/quadric"),
    (["pds", "--field", F34, "--subset", '{"quadric": {}}'],
     "give a kind (hyperbolic/elliptic) or an explicit gram matrix"),
    (["pds", "--field", F34, "--subset", '{"quadric": {"gram": [[1, 0], [0, 1]]}}'],
     "gram matrix must be 4x4"),
    (["pds", "--field", '{"p": 3, "e": 1, "m": 2, "modulus": [2, 1, 2]}',
      "--subset", '{"cyclotomic": {"N": 2, "J": [0]}}'], "modulus must be monic"),
    # 0 is a value, not a default: the quadric recipe's field refuses it
    (["pds", "--recipe", "example-3.3", "--p", "0"], "p=0 is not prime"),
    (["pds", "--recipe", "example-3.3", "--m", "0"], "e and m must be positive"),
])
def test_input_errors_exit_2_with_their_message(capsys, argv, message):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in err


def test_huge_explicit_logs_reduce_mod_the_group_order(capsys):
    # the squares of F_81 (a Paley PDS), each log shifted by a multiple of 80
    # far past int64
    logs = [2 * k + 80 * 10 ** 22 for k in range(40)]
    code, out, _ = run_cli(capsys, "pds", "--field", F34,
                           "--subset", json.dumps({"explicit": {"logs": logs}}))
    assert code == 0
    _, squares, _ = run_cli(capsys, "pds", "--field", F34,
                            "--subset", '{"cyclotomic": {"N": 2, "J": [0]}}')
    assert json.loads(out) == json.loads(squares)


def test_unknown_recipe_is_config_error(capsys):
    code, _, err = run_cli(capsys, "pds", "--recipe", "nope")
    assert code == 2
    assert err.startswith("error: unknown recipe")


@pytest.mark.parametrize("command", ["pds", "blocking"])
def test_guard_option_only_where_read(command):
    # only code and sss run the exhaustive word scans the guard caps
    with pytest.raises(SystemExit) as exc:
        main([command, "--recipe", "example-3.1", "--guard-codewords", "1"])
    assert exc.value.code == 2


def test_x1_flags_are_exclusive(capsys):
    # with both given, --x1 was dropped in silence and --x1-log read
    with pytest.raises(SystemExit) as exc:
        main(["sss", "--recipe", "example-3.1", "--x1-log", "3", "--x1", "in-D"])
    assert exc.value.code == 2
    assert "argument --x1: not allowed with argument --x1-log" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["", ",", " , "])
def test_empty_methods_is_config_error(capsys, spec):
    # a list that names no method would report "minimal": {} with exit 0
    code, out, err = run_cli(capsys, "code", "--recipe", "example-3.1", "--methods", spec)
    assert (code, out) == (2, "")
    assert err.startswith("error: --methods is empty")


@pytest.mark.parametrize("command", [["code", "--methods", "cover"], ["sss", "--x1", "in-D"]])
def test_negative_guard_is_config_error(capsys, command):
    # a negative cap would leave every scan not_run (exit 4) instead of refusing it
    code, out, err = run_cli(capsys, *command, "--recipe", "example-3.1", "--guard-codewords", "-5")
    assert (code, out) == (2, "")
    assert err.startswith("error: --guard-codewords must be at least 0, got -5")
    code, out, _ = run_cli(capsys, *command, "--recipe", "example-3.1", "--guard-codewords", "0")
    assert code == (4 if command[0] == "code" else 0)
    assert json.loads(out)


def test_code_example31_all_methods(capsys):
    code, out, _ = run_cli(capsys, "code", "--recipe", "example-3.1", "--methods", "all")
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 255
    assert payload["dim"] == 5
    assert payload["weight_class"] == "three"
    minimal = payload["minimal"]
    assert minimal["cover"] == "minimal"
    assert minimal["heng"] == "minimal"
    assert minimal["snc"] == "minimal"
    assert minimal["pds_sufficient"]["verdict"] == "minimal"
    assert minimal["cyclotomic_sufficient"] == "minimal"
    weights = {row["w"]: row["freq"] for row in payload["weights"]}
    assert weights == {0: 1, 188: 612, 192: 255, 204: 156}


def test_code_complement_recipe(capsys):
    code, out, _ = run_cli(
        capsys, "code", "--recipe", "example-3.2-complement", "--methods", "pds,cover"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["minimal"]["pds_sufficient"] == {"verdict": "minimal", "fired": "3b"}
    # min/max nonzero weight is 157/220 > 2/3: the complement code satisfies AB
    # (the violation belongs to the k = 22 code of the same subset)
    assert payload["ab_condition"] is True
    assert payload["weight_class"] == "four"


def test_code_quadric_recipe(capsys):
    code, out, _ = run_cli(
        capsys,
        "code", "--recipe", "example-3.3", "--kind", "hyperbolic", "--p", "3", "--m", "4",
        "--methods", "latin,cover",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["minimal"]["latin_sufficient"] == "minimal"
    assert payload["minimal"]["cover"] == "minimal"


@pytest.mark.parametrize("command", [["pds"], ["code", "--methods", "latin,snc"], ["blocking"],
                                     ["sss", "--x1-log", "2"]])
def test_quadric_recipe_flags_on_every_subcommand(capsys, command):
    # --kind/--p/--m belong to every subcommand, and name the same subset as
    # the quadric spec on the same field; with none of them the recipe is the
    # hyperbolic quadric of F_{3^4}
    code, out, err = run_cli(capsys, command[0], "--recipe", "example-3.3", "--kind", "elliptic",
                             "--p", "3", "--m", "4", *command[1:])
    assert (code, err) == (0, "")
    spec_code, spec_out, _ = run_cli(capsys, command[0], "--field", '{"p":3,"e":1,"m":4}',
                                     "--subset", '{"quadric":{"kind":"elliptic"}}', *command[1:])
    assert (code, out) == (spec_code, spec_out)
    hyperbolic = run_cli(capsys, command[0], "--recipe", "example-3.3", *command[1:])
    assert hyperbolic[1] != out
    assert hyperbolic == run_cli(capsys, command[0], "--field", '{"p":3,"e":1,"m":4}',
                                 "--subset", '{"quadric":{"kind":"hyperbolic"}}', *command[1:])


@pytest.mark.parametrize("args, flag", [
    (["pds", "--recipe", "example-3.1", "--p", "5", "--m", "9"], "--p"),
    (["blocking", "--field", '{"p":3,"e":1,"m":4}', "--subset", '{"quadric":{"kind":"hyperbolic"}}',
      "--kind", "elliptic"], "--kind"),
    (["pds", "--recipe", "example-3.3-hyperbolic", "--kind", "elliptic"], "--kind"),
    (["sss", "--recipe", "table-2-row-1", "--m", "4", "--x1-log", "0"], "--m"),
])
def test_quadric_flags_only_with_the_quadric_recipe(capsys, args, flag):
    # anywhere but --recipe example-3.3 the flags would be silently ignored
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert f"{flag} only applies to --recipe example-3.3" in err


@pytest.mark.parametrize("command", [["pds"], ["code", "--methods", "pds,latin,cyclotomic"]])
def test_quadric_origin_is_not_read_as_cyclotomic(capsys, command):
    # a quadric subset records its Gram matrix as its origin: the F_q^*-invariance
    # cross-check and the cyclotomic criterion must not read it as an (N, J)
    code, out, _ = run_cli(
        capsys, command[0], "--field", '{"p":3,"e":1,"m":4}',
        "--subset", '{"quadric":{"gram":[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]}}',
        *command[1:],
    )
    assert code == 0
    payload = json.loads(out)
    if command[0] == "pds":
        assert (payload["fq_invariant"], payload["type"]) == (True, "latin")
    else:
        assert payload["minimal"] == {"pds_sufficient": {"fired": "3a", "verdict": "minimal"},
                                      "latin_sufficient": "minimal",
                                      "cyclotomic_sufficient": "inconclusive"}


def test_code_guard_partial_exit(capsys):
    code, out, _ = run_cli(
        capsys, "code", "--recipe", "table-2-row-1", "--methods", "cover,pds",
        "--guard-codewords", "10",
    )
    assert code == 4
    payload = json.loads(out)
    assert payload["minimal"]["cover"] == "not_run"
    assert payload["minimal"]["pds_sufficient"]["verdict"] == "minimal"


def test_weights_over_budget_leave_only_heng_unrun(capsys):
    # the weight count on the F_{2^16} elliptic quadric is over its budget, so
    # the weights are predicted and Heng, which reads the weight columns, is
    # not run; cover (its first-column screen) and SNC still decide
    code, out, _ = run_cli(capsys, "code", "--recipe", "example-3.3", "--kind", "elliptic",
                           "--p", "2", "--m", "16", "--methods", "all")
    assert code == 4
    payload = json.loads(out)
    assert payload["weights_source"] == "predicted"
    assert [payload["minimal"][m] for m in ("cover", "heng", "snc")] == [
        "minimal", "not_run", "minimal"]


def test_blocking_recipe(capsys):
    # the cutting test applies to the complement (zero set of the indicator)
    code, out, _ = run_cli(
        capsys,
        "blocking",
        "--field", '{"p": 2, "e": 2, "m": 4}',
        "--subset", '{"cyclotomic": {"N": 5, "J": [0]}}',
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cutting"] is False
    assert "h1_log" in payload["witness"]


def test_sss_recipe(capsys):
    code, out, _ = run_cli(
        capsys, "sss", "--recipe", "table-2-row-1", "--x1-log", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 243


def test_sss_flags_assumed_minimality(capsys):
    # SNC cannot run under this guard, so minimality is assumed, and said
    code, out, _ = run_cli(
        capsys, "sss", "--recipe", "table-2-row-1", "--x1-log", "0", "--guard-codewords", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["minimality_assumed"] is True
    assert payload["note"].startswith("SNC not run") and "over guard 1" in payload["note"]
    assert payload["total"] == 243
    # where the oracle runs, the report carries no such flag
    _, out, _ = run_cli(capsys, "sss", "--recipe", "table-2-row-1", "--x1-log", "0")
    assert "minimality_assumed" not in json.loads(out)


def test_sss_x1_sides(capsys):
    _, out_d, _ = run_cli(capsys, "sss", "--recipe", "example-3.1", "--x1", "in-D")
    _, out_dbar, _ = run_cli(capsys, "sss", "--recipe", "example-3.1", "--x1", "in-Dbar")
    assert json.loads(out_d)["classification"] == "democratic"
    assert json.loads(out_dbar)["classification"] == "dictatorial"


@pytest.mark.parametrize("side, logs, first", [("in-D", [4, 40], 4), ("in-Dbar", [0, 1], 2)])
def test_sss_x1_is_the_least_member(capsys, side, logs, first):
    # a subset holds its members in log order: on F_3^4 the member of least
    # log on the chosen side (gamma^4, and gamma^2 off {1, gamma}) is not the
    # least element there, -1 = 2 = gamma^40, which x1 must be
    f34 = FieldTower(FieldSpec(p=3, e=1, m=4))
    assert int(f34.exp[40]) == 2 and int(f34.exp[first]) > 2
    code, out, _ = run_cli(capsys, "sss", "--field", '{"p": 3, "e": 1, "m": 4}',
                           "--subset", json.dumps({"explicit": {"logs": logs}}), "--x1", side)
    assert code == 0
    payload = json.loads(out)
    assert (payload["x1_log"], payload["x1_in_Dbar"]) == (40, side == "in-Dbar")


@pytest.mark.parametrize("p, e, m", [(2, 1, 6), (3, 1, 4), (2, 2, 4)])
def test_sss_x1_in_dbar_is_the_least_non_member(capsys, p, e, m):
    # read off the element indicator as the least nonzero non-member, which
    # the complement's least member was taken as, on the sweep's sets
    tower = FieldTower(FieldSpec(p=p, e=e, m=m))
    field = json.dumps({"p": p, "e": e, "m": m})
    for spec in _sweep_subsets(p, e, m) + [{"explicit": {"logs": [0, 1]}}]:
        code, out, err = run_cli(capsys, "sss", "--field", field, "--subset", json.dumps(spec),
                                 "--x1", "in-Dbar")
        least = FieldSubset.from_json(tower, spec).complement().members.min()
        assert (code, json.loads(out)["x1_log"]) == (0, tower.log[least]), err


@pytest.mark.parametrize("argv", [["pds", "--recipe", "example-3.1"],
                                  ["code", "--recipe", "example-3.1", "--methods", "all"],
                                  ["pds", "--recipe", "example-3.3-elliptic"]])
def test_one_stabiliser_scan_per_subset(capsys, monkeypatch, argv):
    # the spectrum, the direct check and the code read the subset's cached
    # (d, I), found by one period scan: a class union scans its 4 classes
    # of Z_5, the elliptic quadric on F_3^4 the sorted logs of its 20 zeros,
    # and no raw member array is scanned (`FieldTower.stabiliser`)
    scans, raw = [], []
    period, stabiliser = pds.cyclic_period, FieldTower.stabiliser

    def counted(positions, n):
        scans.append((len(positions), n))
        return period(positions, n)

    def counted_raw(self, members):
        raw.append(len(members))
        return stabiliser(self, members)

    monkeypatch.setattr(pds, "cyclic_period", counted)
    monkeypatch.setattr(FieldTower, "stabiliser", counted_raw)
    assert run_cli(capsys, *argv)[0] == 0
    assert scans == ([(4, 5)] if "example-3.1" in argv else [(20, 80)])
    assert raw == []


def test_table_format_and_out_file(capsys, tmp_path):
    path = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys, "code", "--recipe", "example-3.1", "--methods", "cover",
        "--format", "table", "--out", str(path),
    )
    assert code == 0
    assert out == ""
    text = path.read_text()
    assert "[255,5] code; minimality: minimal" in text
    assert "204\t156" in text


def test_repeated_runs_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "pds", "--recipe", "example-3.1")
    _, out2, _ = run_cli(capsys, "pds", "--recipe", "example-3.1")
    assert out1 == out2


def test_generator_matrix_export(capsys, tmp_path):
    path = tmp_path / "gen.txt"
    code, _, _ = run_cli(
        capsys, "code", "--recipe", "table-2-row-1", "--methods", "cover",
        "--gen-matrix", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 6
    assert all(len(line.split()) == 242 for line in lines)


def test_code_row3_pds_within_budget():
    # F_{3^12}: a dimension read off the weight table would cost O((q^m)^2) here;
    # the enumerated distribution counts d * k = 35 * 15 184 (class, element) pairs
    # and must equal the predicted one
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "pdscodes.cli", "code", "--recipe", "table-2-row-3",
         "--methods", "pds"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["dim"] == 13
    assert payload["weights_source"] == "direct"
    assert payload["minimal"]["pds_sufficient"]["verdict"] == "minimal"


def test_code_3_8_N41_all_within_budget():
    # F_{3^8}, N=41: 9 841 projective classes, 83 stabiliser orbits, 13 with Frobenius
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "pdscodes.cli", "code", "--field", '{"p":3,"e":1,"m":8}',
         "--subset", '{"cyclotomic":{"N":41,"J":[0]}}', "--methods", "all"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["dim"] == 9
    verdicts = {v if isinstance(v, str) else v["verdict"] for v in payload["minimal"].values()}
    assert verdicts - {"inconclusive", "not_run"} == {"minimal"}  # overall: minimal
    assert payload["weights"] == [
        {"freq": 1, "w": 0},
        {"freq": 2, "w": 160},
        {"freq": 12800, "w": 4372},
        {"freq": 6560, "w": 4374},
        {"freq": 320, "w": 4453},
    ]


def test_code_row3_snc_within_budget():
    # 105 zero-set rank tests on F_{3^12}, each settled by the count certificate
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "pdscodes.cli", "code", "--recipe", "table-2-row-3",
         "--methods", "snc"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["minimal"]["snc"] == "minimal"


def test_code_row3_all_within_budget():
    # cover, Heng and SNC scan the 11 orbits that Frobenius leaves of the 71
    # stabiliser orbits; cover computes support columns as it needs them, where
    # a support matrix would take 106 GB
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "pdscodes.cli", "code", "--recipe", "table-2-row-3",
         "--methods", "all"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    minimal = json.loads(proc.stdout)["minimal"]
    assert (minimal["cover"], minimal["heng"], minimal["snc"]) == ("minimal", "minimal", "minimal")


def test_sss_row3_within_budget():
    # the support matrix would need 106 GB; the coverage is read off the generator
    # columns, and SNC decides minimality over 11 orbits instead of taking it on trust
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "pdscodes.cli", "sss", "--recipe", "table-2-row-3",
         "--x1-log", "0"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert "minimality_assumed" not in payload
    assert payload["total"] == 3 ** 12


def test_blocking_row3_within_budget():
    # 35 hyperplane orbits on F_{3^12} instead of 265 720 x 531 441 bool matrices
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "pdscodes.cli", "blocking", "--recipe", "table-2-row-3"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"blocking": True, "contains_subspace": False,
                                       "cutting": True}


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


def _blocking_f2_16(subset):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "pdscodes.cli", "blocking", "--field", '{"p":2,"e":1,"m":16}',
         "--subset", subset],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=_limit_address_space,
    )


def test_blocking_f2_16_cubes_under_memory_limit():
    # three hyperplane orbits; the intersection matrices would need 8.6 GB
    proc = _blocking_f2_16('{"cyclotomic":{"N":3,"J":[0]}}')
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) >= {"blocking", "contains_subspace", "cutting"}


def test_blocking_guard_exits_partial():
    # gamma^0 .. gamma^16999: no stabiliser and no Frobenius power, so 65 535
    # hyperplane orbits of 17 000 members each, over the budget as 65 535 x q^m is
    proc = _blocking_f2_16(json.dumps({"explicit": {"logs": list(range(17000))}}))
    assert proc.returncode == 4, proc.stderr
    merge = 2 * 65535 + 1  # g + 1 + d classes, no map
    assert f"cost {merge + 65535 * 17000} " in proc.stderr
    assert f"{65535 * 65536}) exceeds the budget {2 ** 30}" in proc.stderr


def test_reducible_sextic_modulus_is_named_reducible(capsys):
    # (x + 1)(x^2 + x + 1)(x^3 + x + 1): X^8 = X, and X^4 != X, X^2 != X
    code, out, err = run_cli(capsys, "pds", "--field",
                             '{"p": 2, "e": 1, "m": 6, "modulus": [1, 1, 0, 0, 1, 0, 1]}',
                             "--subset", '{"cyclotomic": {"N": 3, "J": [0]}}')
    assert (code, out) == (2, "")
    assert err == "error: modulus [1, 1, 0, 0, 1, 0, 1] is reducible over F_2\n"


NOT_INVARIANT = "subset is a PDS but not F_q^*-invariant"


@pytest.mark.parametrize("methods", ["all", "pds", "latin", "cover,latin", "cyclotomic"])
def test_code_on_a_pds_that_is_not_invariant(capsys, methods):
    # N = 3, J = {0} on F_{4^4}: a PDS, but F_4^* = <gamma^85> moves class 0 to
    # class 1, so the certificate's predicted weights (85, 3), (181, 255),
    # (192, 255), (197, 510) are not the code's
    code, out, _ = run_cli(capsys, "code", "--field", F44,
                           "--subset", '{"cyclotomic": {"N": 3, "J": [0]}}', "--methods", methods)
    assert code == 0
    payload = json.loads(out)
    assert payload["pds_error"].startswith(NOT_INVARIANT)
    assert [(r["w"], r["freq"]) for r in payload["weights"]] == [
        (0, 1), (85, 3), (189, 510), (192, 255), (197, 255)]
    assert payload["weights_source"] == "direct"
    for key in ("pds_sufficient", "latin_sufficient"):
        assert payload["minimal"].get(key, "inconclusive") == "inconclusive"
    assert "weight_class" not in payload


def test_refused_weight_count_of_a_non_invariant_pds_reports_no_weights(capsys, monkeypatch):
    # with the count refused, the certificate's weights are not reported instead
    monkeypatch.setattr("pdscodes.codes.DEFAULT_ENUM_BUDGET", 10)
    code, out, _ = run_cli(capsys, "code", "--field", '{"p": 2, "e": 2, "m": 2}',
                           "--subset", '{"cyclotomic": {"N": 3, "J": [0]}}', "--methods", "pds")
    assert code == 0
    payload = json.loads(out)
    assert payload["pds_error"].startswith(NOT_INVARIANT)
    assert "weights" not in payload


@pytest.mark.parametrize("command", [["pds"], ["code", "--methods", "all"]])
def test_spectrum_over_budget_exits_partial(capsys, monkeypatch, command):
    # F_{3^4}, N = 10, J = {0}: the orbit count's 0.25 (2 * 81 + 10 * 3) = 48
    argv = [*command, "--field", F34, "--subset", '{"cyclotomic": {"N": 10, "J": [0]}}']
    monkeypatch.setattr("pdscodes.charsums.SPECTRUM_BUDGET", 47)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == "guard: spectrum cost 48 transform additions exceeds the budget 47\n"
    monkeypatch.setattr("pdscodes.charsums.SPECTRUM_BUDGET", 48)
    assert run_cli(capsys, *argv)[0] == 0


F65537 = '{"p": 65537, "e": 1, "m": 1}'
THREE_LOGS = '{"explicit": {"logs": [0, 1, 2]}}'


@pytest.mark.parametrize("methods, expected", [("pds", 0), ("cover", 4), ("all", 4)])
def test_code_on_a_large_prime_field_reads_no_label_tables(capsys, methods, expected):
    # the weight count reads the label of -1 by arithmetic, and its 65537 x
    # 65536 table is over the budget; no q^2-entry F_q table is built
    code, out, err = run_cli(capsys, "code", "--field", F65537, "--subset", THREE_LOGS,
                             "--methods", methods)
    assert code == expected
    assert "weights" not in json.loads(out)


def test_label_tables_past_the_cap_exit_partial(capsys, tmp_path):
    code, out, err = run_cli(capsys, "code", "--field", F65537, "--subset", THREE_LOGS,
                             "--methods", "pds", "--gen-matrix", str(tmp_path / "g.txt"))
    assert (code, out) == (4, "")
    assert err == f"guard: F_q tables of q^2 = {65537 ** 2} entries exceed the table cap {2 ** 26}\n"


def _sweep_subsets(p, e, m):
    """An invariant class union (N the least prime dividing the index of
    F_q^*), for q = 4 the non-invariant N = 3, three explicit logs, and the
    quadrics (m is even on every field swept)."""
    step = (p ** (e * m) - 1) // (p ** e - 1)
    n = next(ell for ell in range(2, step + 1) if step % ell == 0)
    subsets = [{"cyclotomic": {"N": n, "J": [0]}}, {"explicit": {"logs": [0, 1, 2]}},
               {"quadric": {"kind": "hyperbolic"}}, {"quadric": {"kind": "elliptic"}}]
    if p ** e == 4:
        subsets.append({"cyclotomic": {"N": 3, "J": [0]}})
    return subsets


SWEEP_COMMANDS = (["pds"], ["code", "--methods", "all"], ["blocking"],
                  ["sss", "--x1", "in-D"], ["sss", "--x1", "in-Dbar"])


@pytest.mark.parametrize("p, e, m", [(2, 1, 4), (3, 1, 4), (2, 2, 2), (2, 2, 4), (2, 3, 2),
                                     (3, 2, 2), (5, 1, 2)])
def test_small_field_exit_sweep(capsys, p, e, m):
    # every command on every subset ends in a documented exit code, with no
    # exception escaping main
    field = json.dumps({"p": p, "e": e, "m": m})
    for subset in _sweep_subsets(p, e, m):
        for command in SWEEP_COMMANDS:
            code, _, err = run_cli(capsys, *command, "--field", field,
                                   "--subset", json.dumps(subset))
            assert code in (0, 2, 3, 4), (command, subset, err)
