import json
from fractions import Fraction

from stci import rdp
from stci.cli import main
from stci.exact import parse_rational


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phi_human(capsys):
    code, out, err = run_cli(capsys, "phi", "10", "4")
    assert code == 0 and err == ""
    assert out == "(4,3,1^[3])\n"


def test_phi_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "phi", "10", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"n": 10, "k": 4, "phi": "(4,3,1^[3])"}
    assert rdp.parse_type(data["phi"]) == (4, 3, 1, 1, 1)


def test_rdp_info_json(capsys):
    code, out, _ = run_cli(capsys, "rdp", "info", "Dn:7", "--format", "json")
    assert code == 0
    assert out == (
        '{"type": "(3,1^[6])", "order": 4, "delta": "7/4", '
        '"sigma": 7, "deficiency": -2}\n'
    )
    data = json.loads(out)
    assert parse_rational(data["delta"]) == Fraction(7, 4)
    assert rdp.parse_type(data["type"]) == (3, 1, 1, 1, 1, 1, 1)


def test_rdp_config_json(capsys):
    code, out, _ = run_cli(
        capsys, "rdp", "config", "8*A:2:1 + A:3:1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "(9,9,1)"
    assert data["delta"] == "73/12"
    assert data["sigma"] == 19 and data["deficiency"] == 0


def test_rdp_info_csv(capsys):
    code, out, _ = run_cli(capsys, "rdp", "info", "E6", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "type,order,delta,sigma,deficiency",
        '"(2,2)",3,4/3,6,2',
    ]


def test_chow_expand_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "chow", "expand", "--s", "4", "--t", "4", "--d", "4", "--g", "0",
        "--p", "8,8,8", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4
    assert data["h2"] == 0
    assert data["a"] == [0, 0, 0, 0]


def test_thm_commands(capsys):
    code, out, _ = run_cli(
        capsys, "thm1", "--s", "4", "--t", "4", "--d", "4", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "s": 4, "t": 4, "d": 4, "g": 0, "n": 4, "value": "8", "integral": True,
    }

    code, out, _ = run_cli(
        capsys,
        "thm2", "--s", "4", "--t", "4", "--d", "4", "--p", "8,8,8",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4
    assert data["margins"] == [0, 0, 0]
    assert data["rhs"] == [24, 48, 96]
    assert data["holds"] is True

    code, out, _ = run_cli(
        capsys,
        "thm3", "--s", "4", "--d", "4", "--type", "(9,9)", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "(9,9)"
    assert (data["lhs"], data["rhs"], data["holds"]) == ("6", "6", True)


def test_bound_and_bungo(capsys):
    code, out, _ = run_cli(capsys, "bound", "4")
    assert code == 0 and out == "19\n"

    code, out, _ = run_cli(capsys, "bungo", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "n,type",
        '0,"(9,8,2)"',
        '0,"(9,9)"',
        '0,"(9,9,1)"',
    ]


def test_search_config(capsys):
    code, out, _ = run_cli(
        capsys,
        "search-config", "--type", "(9,9)", "--max-def", "1", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert [entry["config"] for entry in data] == ["9*A:2:1", "7*A:2:1 + A:5:2"]
    assert all(entry["order"] == 3 for entry in data)

    code, out, _ = run_cli(
        capsys,
        "search-config", "--type", "(9,8,2)", "--max-def", "0",
        "--contains", "A:4:2", "--format", "json",
    )
    data = json.loads(out)
    assert [entry["config"] for entry in data] == ["6*A:2:1 + A:3:1 + A:4:2"]
    assert data[0]["delta"] == "119/20"


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--d", "4", "--g", "0", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s,t,n,p_s,p_t"
    assert len(lines) == 16
    assert lines[1] == "3,4,3,5,9"
    assert lines[-1] == "28,33,231,99,119"


def test_empty_enumeration_csv(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--d", "4", "--g", "0", "--s-max", "2",
        "--format", "csv",
    )
    assert code == 0
    assert out == "s,t,n,p_s,p_t\n"


def test_byte_identical_reruns(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run_cli(
            capsys, "enumerate", "--d", "4", "--g", "0", "--format", "json"
        )
        outputs.append(out)
    assert outputs[0] == outputs[1]
    data = json.loads(outputs[0])
    assert len(data) == 15
    assert data[0] == {"s": 3, "t": 4, "n": 3, "p_s": "5", "p_t": "9"}


def test_domain_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "rdp", "info", "Dn:4")
    assert code == 1
    assert out == ""
    assert "n >= 5" in err

    code, _, err = run_cli(capsys, "thm1", "--s", "3", "--t", "3", "--d", "4")
    assert code == 1 and "divide" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2
    code, _, _ = run_cli(capsys, "phi", "10")
    assert code == 2
    code, _, _ = run_cli(capsys, "bound", "4", "--bogus")
    assert code == 2
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_zero_curve_degree_is_a_domain_error(capsys):
    for argv in (
        ["chow", "expand", "--s", "4", "--t", "4", "--d", "0", "--p", "1"],
        ["thm1", "--s", "4", "--t", "4", "--d", "0"],
        ["thm2", "--s", "4", "--t", "4", "--d", "0", "--p", "1"],
        ["enumerate", "--d", "0"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err, argv


def test_search_config_sigma_cap_is_a_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "search-config", "--type", "(9,9)", "--max-sigma", "1000000000"
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
