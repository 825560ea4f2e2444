import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stci
from stci import chow, rdp, search, theorems
from stci.cli import _read_strict, build_parser, record, render, run
from stci.errors import DomainError
from stci.exact import parse_rational

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# Exact stdout of one command per subcommand, as (human, json, csv).
GOLDEN = {
    "rdp info Dn:7": (
        "type: (3,1^[6])\norder: 4\ndelta: 7/4\nsigma: 7\ndeficiency: -2\n",
        '{"type": "(3,1^[6])", "order": 4, "delta": "7/4", "sigma": 7, "deficiency": -2}\n',
        'type,order,delta,sigma,deficiency\n"(3,1^[6])",4,7/4,7,-2\n',
    ),
    'rdp config "8*A:2:1 + A:3:1"': (
        "type: (9,9,1)\norder: 12\ndelta: 73/12\nsigma: 19\ndeficiency: 0\n",
        '{"type": "(9,9,1)", "order": 12, "delta": "73/12", "sigma": 19, "deficiency": 0}\n',
        'type,order,delta,sigma,deficiency\n"(9,9,1)",12,73/12,19,0\n',
    ),
    "phi 10 4": (
        "(4,3,1^[3])\n",
        '{"n": 10, "k": 4, "phi": "(4,3,1^[3])"}\n',
        "i,p_i\n1,4\n2,3\n3,1\n4,1\n5,1\n",
    ),
    "chow expand --s 4 --t 4 --d 4 --p 9,8,2": (
        "h2: 0\na: (3,1,-5,-5)\n",
        '{"s": 4, "t": 4, "d": 4, "g": 0, "n": 4, "p": [9, 8, 2, 0], "h2": 0, '
        '"a": [3, 1, -5, -5]}\n',
        "m,a_m\n1,3\n2,1\n3,-5\n4,-5\n",
    ),
    "thm1 --s 4 --t 6 --d 3 --g 1": (
        "value: 18/7\nintegral: no\n",
        '{"s": 4, "t": 6, "d": 3, "g": 1, "n": 8, "value": "18/7", "integral": false}\n',
        "value,integral\n18/7,False\n",
    ),
    "thm2 --s 4 --t 4 --d 4 --p 9,8,2": (
        "k=1: lhs 27 vs rhs 24  (margin 3)\nk=2: lhs 52 vs rhs 48  (margin 4)\n"
        "k=3: lhs 98 vs rhs 96  (margin 2)\nholds: yes\n",
        '{"s": 4, "t": 4, "d": 4, "g": 0, "n": 4, "p": [9, 8, 2], "margins": [3, 4, 2], '
        '"lhs": [27, 52, 98], "rhs": [24, 48, 96], "holds": true}\n',
        "k,lhs,rhs,margin\n1,27,24,3\n2,52,48,4\n3,98,96,2\n",
    ),
    'thm3 --s 4 --d 4 --type "(9,8,2)" --truncate-at 2': (
        "lhs: 35/6\nrhs: 6\nholds: no\n",
        '{"s": 4, "d": 4, "g": 0, "type": "(9,8,2)", "lhs": "35/6", "rhs": "6", "holds": false}\n',
        "lhs,rhs,holds\n35/6,6,False\n",
    ),
    "thmA --s 4 --t 4 --d 1 --g 1": (
        "applies: yes\nconclusion: yes\nwitness: r = 4 <= 19; d <= g + 3 is forced\n",
        '{"s": 4, "t": 4, "d": 1, "g": 1, "applies": true, "conclusion": true, '
        '"witness": "r = 4 <= 19; d <= g + 3 is forced"}\n',
        "applies,conclusion,witness\nTrue,True,r = 4 <= 19; d <= g + 3 is forced\n",
    ),
    "bound 5": ("44\n", '{"s": 5, "bound": 44}\n', "s,bound\n5,44\n"),
    "bungo": (
        "n=0 type=(9,8,2)\nn=0 type=(9,9)\nn=0 type=(9,9,1)\n",
        '[{"n": 0, "type": "(9,8,2)"}, {"n": 0, "type": "(9,9)"}, {"n": 0, "type": "(9,9,1)"}]\n',
        'n,type\n0,"(9,8,2)"\n0,"(9,9)"\n0,"(9,9,1)"\n',
    ),
    'search-config --type "(9,9)" --max-def 1': (
        "9*A:2:1  order=3 delta=6 sigma=18 deficiency=0\n"
        "7*A:2:1 + A:5:2  order=3 delta=6 sigma=19 deficiency=1\n",
        '[{"config": "9*A:2:1", "type": "(9,9)", "order": 3, "delta": "6", "sigma": 18, '
        '"deficiency": 0}, {"config": "7*A:2:1 + A:5:2", "type": "(9,9)", "order": 3, '
        '"delta": "6", "sigma": 19, "deficiency": 1}]\n',
        'config,type,order,delta,sigma,deficiency\n9*A:2:1,"(9,9)",3,6,18,0\n'
        '7*A:2:1 + A:5:2,"(9,9)",3,6,19,1\n',
    ),
    'search-config --type "(9,9)" --max-def 0 --contains E6': (
        "no configurations\n",
        "[]\n",
        "config,type,order,delta,sigma,deficiency\n",
    ),
    "enumerate --d 3 --s-max 6": (
        "(3,3)  n=3  p_s=3  p_t=3\n(5,21)  n=35  p_s=7  p_t=55\n(6,10)  n=20  p_s=10  p_t=22\n",
        '[{"s": 3, "t": 3, "n": 3, "p_s": "3", "p_t": "3"}, '
        '{"s": 5, "t": 21, "n": 35, "p_s": "7", "p_t": "55"}, '
        '{"s": 6, "t": 10, "n": 20, "p_s": "10", "p_t": "22"}]\n',
        "s,t,n,p_s,p_t\n3,3,3,3,3\n5,21,35,7,55\n6,10,20,10,22\n",
    ),
    "enumerate --d 4 --s-max 2": ("no admissible pairs\n", "[]\n", "s,t,n,p_s,p_t\n"),
}

THM1_HELP = """\
usage: stci thm1 [-h] --s S --t T --d D [--g G] [--format {human,json,csv}]

options:
  -h, --help            show this help message and exit
  --s S
  --t T
  --d D
  --g G
  --format {human,json,csv}
                        output format (default: human)
"""

ENUMERATE_USAGE_ERROR = """\
usage: stci enumerate [-h] --d D [--g G] [--one-sided] [--s-max S_MAX]
                      [--t-max T_MAX] [--format {human,json,csv}]
stci enumerate: error: the following arguments are required: --d
"""


def run_cli(capsys, *argv):
    code = run(list(argv))
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


def test_p_entries_past_the_levels(capsys):
    # thm2 reads the first n - 1 entries and ignores the rest, where the
    # library refuses them; chow expand refuses more than n entries
    code, out, err = run_cli(capsys, "thm2", "--s", "4", "--t", "4", "--d", "4", "--p", "9,8,2,7,7,7,7,7")
    assert (code, err) == (0, "")
    assert out == (
        "k=1: lhs 27 vs rhs 24  (margin 3)\n"
        "k=2: lhs 52 vs rhs 48  (margin 4)\n"
        "k=3: lhs 98 vs rhs 96  (margin 2)\n"
        "holds: yes\n"
    )
    code, out, err = run_cli(capsys, "chow", "expand", "--s", "4", "--t", "4", "--d", "4", "--p", "9,8,2,7,7")
    assert (code, out, err) == (1, "", "error: p must have at most 4 entries, got 5\n")


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
    # the quartic acceptance configurations of (9,9,1) and (9,8,2), and a
    # target the least ratio prices past its budget: its one descent call
    # breaks at every first pick
    for command, expected in {
        'search-config --type "(9,9,1)" --max-def 0':
            "8*A:2:1 + A:3:1  order=12 delta=73/12 sigma=19 deficiency=0\n",
        'search-config --type "(9,8,2)" --max-def 0':
            "A:1:1 + 6*A:2:1 + 2*A:3:1  order=12 delta=6 sigma=19 deficiency=0\n"
            "6*A:2:1 + A:3:1 + A:4:2  order=60 delta=119/20 sigma=19 deficiency=0\n",
        'search-config --type "(1000000000000,7,1)"': "no configurations\n",
    }.items():
        assert run_cli(capsys, *shlex.split(command)) == (0, expected, ""), command

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
        ["thm3", "--s", "4", "--d", "-4", "--g", "-3", "--type", "(9,9)"],
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


def test_golden_outputs(capsys):
    for command, expected in GOLDEN.items():
        for fmt, out in zip(("human", "json", "csv"), expected):
            argv = shlex.split(command) + ["--format", fmt]
            assert run_cli(capsys, *argv) == (0, out, ""), argv


def readme_examples(nth=1):
    """(argv, expected stdout, head count or None) from the nth sh block of
    the README's CLI section; the first is the CLI block."""
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n")[nth].split("```", 1)[0]
    for example in block.strip().split("\n\n"):
        command, *output = example.split("\n")
        tokens = shlex.split(command.removeprefix("$ "))
        head = None
        if "|" in tokens:
            cut = tokens.index("|")
            assert tokens[cut + 1] == "head", command
            head = int(tokens[cut + 2].lstrip("-"))
            tokens = tokens[:cut]
        assert tokens[0] == "stci", command
        yield tokens[1:], "".join(line + "\n" for line in output), head


def test_readme_examples(capsys):
    examples = list(readme_examples())
    assert len(examples) == 11
    for argv, expected, head in examples:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv
        if head is not None:
            out = "".join(out.splitlines(keepends=True)[:head])
        assert out == expected, argv


def test_readme_thmA_examples(capsys):
    examples = list(readme_examples(2))
    assert [argv[0] for argv, _, _ in examples] == ["thmA", "thmA"]
    for argv, expected, _ in examples:
        assert run_cli(capsys, *argv) == (0, expected, ""), argv


def test_internal_error_is_one_line(capsys, monkeypatch):
    def broken(s, t, d, g):
        raise AssertionError("hypotheses hold\nbut d > g + 3")

    monkeypatch.setattr(theorems, "thmA_verdict", broken)
    assert run_cli(capsys, "thmA", "--s", "4", "--t", "4", "--d", "1", "--g", "1") == (
        1, "", "internal error: AssertionError: hypotheses hold but d > g + 3\n"
    )


def test_readme_quick_tour():
    """Run the README's python block; a line that ends in ``# <expression>``
    must evaluate to that expression."""
    text = README.read_text()
    block = text.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if comment:
            assert eval(code, namespace) == eval(comment, namespace), line
            checked += 1
        else:
            exec(line, namespace)
    assert checked == 11


def test_import_stci_loads_layers_on_first_access():
    # a layer loads when first read, so a cold command compiles only what
    # it calls; -S keeps site's own imports out of the count
    probe = (
        "import sys, stci\n"
        "print(sorted(name for name in dir(stci) if not name.startswith('_')))\n"
        "print(sorted(m for m in sys.modules if m.startswith('stci.') or m == 'argparse'))\n"
        "print(stci.rdp is sys.modules['stci.rdp'])\n"
        "try:\n"
        "    stci.nonesuch\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    layers = ["chow", "degrees", "errors", "exact", "graphs", "rdp", "search", "theorems"]
    assert out == f"{layers}\n[]\nTrue\nmodule 'stci' has no attribute 'nonesuch'\n"


def test_dir_stci_lists_the_layers():
    # the probe above runs dir(stci) in a child process, which shows that it
    # loads no layer; here it runs in the suite's own process too
    names = dir(stci)
    assert names == sorted(set(names))
    assert {"chow", "degrees", "errors", "exact", "graphs", "rdp", "search", "theorems"} <= set(names)


def test_import_stci_cli_leaves_dataclasses_and_inspect_out():
    # a cold process pays for every module it imports; -S keeps site's own
    # imports out of the count.  The layers are named, because stci.cli
    # alone loads only stci.errors until a handler runs.
    probe = (
        "import sys, stci.cli, stci.chow, stci.degrees, stci.errors, stci.exact, stci.graphs, "
        "stci.rdp, stci.search, stci.theorems; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


# A cold command loads the layers its handler calls and the stdlib modules
# its work and format need, and nothing else: argv -> (exit code, stci
# modules beyond stci itself, which of STDLIB_PROBED).  argparse loads
# only to write a usage error or help; fractions, and decimal with it,
# only where a Fraction is built; re only where a pattern is matched
# (fractions, json, csv and argparse import it too); typing never.  The
# probe runs with -S, since the host's site may preload typing and re.
STDLIB_PROBED = ("argparse", "csv", "decimal", "fractions", "json", "re", "typing")
COLD_LOADS = {
    "phi 10 4": (0, "cli errors rdp", ""),
    "enumerate --d 6": (0, "chow cli degrees errors", ""),
    "chow expand --s 4 --t 4 --d 4 --p 9,8,2 --format json": (0, "chow cli errors", "json re"),
    "phi 3": (2, "cli errors", "argparse re"),
    "bound 4": (0, "chow cli errors theorems", ""),
    "rdp info Dn:7": (0, "cli errors exact rdp", "decimal fractions re"),
    'rdp config "8*A:2:1 + A:3:1"': (0, "cli errors exact rdp", "decimal fractions re"),
    "thm1 --s 4 --t 4 --d 4": (0, "chow cli errors exact theorems", "decimal fractions re"),
    "thm2 --s 4 --t 4 --d 4 --p 9,8,2": (0, "chow cli errors graphs theorems", ""),
    'thm3 --s 4 --d 4 --type "(9,9)"': (0, "chow cli errors exact rdp theorems", "decimal fractions re"),
    "thmA --s 4 --t 4 --d 4": (0, "chow cli errors theorems", ""),
    'search-config --type "(9,9)" --max-def 1':
        (0, "chow cli errors exact rdp search theorems", "decimal fractions re"),
    "bungo --format csv": (0, "cli errors rdp search", "csv re"),
}


@pytest.mark.parametrize("argv", list(COLD_LOADS))
def test_cold_command_loads_only_what_it_calls(argv):
    probe = (
        "import sys\n"
        "from stci.cli import run\n"
        "code = run(sys.argv[1:])\n"
        "layers = sorted(m[5:] for m in sys.modules if m.startswith('stci.'))\n"
        f"stdlib = sorted(set({STDLIB_PROBED!r}) & set(sys.modules))\n"
        "print(code, ' '.join(layers), ' '.join(stdlib), sep='|')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe, *shlex.split(argv)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    code, layers, stdlib = COLD_LOADS[argv]
    assert out.splitlines()[-1] == f"{code}|{layers}|{stdlib}"


@pytest.mark.parametrize(
    "layer", ["chow", "degrees", "errors", "exact", "graphs", "rdp", "search", "theorems"]
)
def test_importing_a_layer_loads_no_typing_and_fractions_only_in_exact(layer):
    # a layer's import statements alone, without site (-S): exact is the one
    # module that imports fractions, and no layer imports typing
    probe = f"import sys, stci.{layer}; print(sorted({{'fractions', 'typing'}} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == ("['fractions']\n" if layer == "exact" else "[]\n")


def test_search_config_help_states_the_sigma_default_and_cap(capsys, monkeypatch):
    # the help text is a literal, so that building the parser loads no layer
    monkeypatch.setenv("COLUMNS", "200")
    code, out, _ = run_cli(capsys, "search-config", "--help")
    bounds = f"(default {theorems.resolution_bound(4)}, at most {search.MAX_SIGMA_CAP})"
    assert code == 0 and f"total sigma cap {bounds}" in out


def test_cold_bound_builds_no_pair_table():
    # only the searches read the typed pair table, and they live in
    # stci.search, so a cold process that never searches must neither build
    # the table nor compile the module
    probe = (
        "import sys, stci.cli\n"
        "code = stci.cli.run(['bound', '4'])\n"
        "print(code, 'stci.search' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "19\n0 False\n"


def test_results_past_the_int_str_limit(capsys):
    # argv is read under Python's 4,300-digit int<->str limit; results are not
    s, t = "9" * 1500, "9" * 2200
    limit = sys.get_int_max_str_digits()
    outputs = [run_cli(capsys, "bound", s), run_cli(capsys, "thm1", "--s", t, "--t", t, "--d", "1")]
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        value = theorems.thm1_value(theorems.StciParams(int(t), int(t), 1, 0))
        expected = [
            f"{theorems.resolution_bound(int(s))}\n",
            f"value: {value.value}\nintegral: {'yes' if value.integral else 'no'}\n",
        ]
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected[0]) > 4300 and len(expected[1]) > 4300
    assert outputs == [(0, out, "") for out in expected]


def test_no_digit_limit_before_python_3_10_7(capsys, monkeypatch):
    # before 3.10.7 sys has no digit limit to lift: _set_int_digits is a
    # no-op that reports no limit, and a command runs as usual
    from stci.cli import _set_int_digits

    monkeypatch.delattr(sys, "set_int_max_str_digits")
    assert _set_int_digits(0) == 0
    assert run_cli(capsys, "bound", "4") == (0, "19\n", "")


def test_help_and_usage_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, "thm1", "--help") == (0, THM1_HELP, "")
    assert run_cli(capsys, "enumerate", "--g", "1") == (2, "", ENUMERATE_USAGE_ERROR)


def _refused(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def _must_not_run(*args, **kwargs):
    raise AssertionError("the cost guard let the work start")


def test_cost_guards_refuse_before_work(capsys, monkeypatch):
    huge = "100000000000"
    for module, name, argv in (
        (rdp, "phi", ["phi", huge, "1"]),
        (rdp, "type_of", ["rdp", "info", f"A:{huge}:1"]),
        (rdp, "type_of", ["rdp", "info", f"Dn:{huge}1"]),
        (rdp, "type_of", ["rdp", "config", f"2*A:{huge}:1"]),
        (rdp, "classify", ["rdp", "config", "1000000000*A:2:1"]),
        (rdp, "normalize_type", ["search-config", "--type", f"(1^[{huge}])"]),
        (rdp, "normalize_type", ["thm3", "--s", "4", "--d", "4", "--type", f"(9,1^[{huge}])"]),
        (chow, "pad_p", ["chow", "expand", "--s", huge, "--t", "1", "--d", "1", "--p", "1"]),
        (theorems, "thm2_margins", ["thm2", "--s", huge, "--t", "1", "--d", "1", "--p", "1"]),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(module, name, _must_not_run)
            assert _refused(capsys, *argv), argv


def test_cost_guard_caps(capsys):
    for argv in (
        ["phi", "300", "1"],
        ["rdp", "info", "Dn:299"],
        ["rdp", "config", "999*A:2:1 + A:300:1"],
        ["thm3", "--s", "4", "--d", "4", "--type", "(1^[300])"],
        ["chow", "expand", "--s", "16", "--t", "16", "--d", "1", "--p", "1"],
        ["thm2", "--s", "16", "--t", "16", "--d", "1", "--p", "1"],
        ["thm2", "--s", "4", "--t", "4", "--d", "4", "--p", "9" * 4300],
    ):
        assert run_cli(capsys, *argv)[0] == 0, argv
    for argv in (
        ["rdp", "info", "D1:301"],
        ["rdp", "config", "1000*A:2:1 + A:300:1"],
        ["thm3", "--s", "4", "--d", "4", "--type", "(1^[300],1)"],
        ["chow", "expand", "--s", "16", "--t", "17", "--d", "1", "--p", "1"],
        ["thm2", "--s", "16", "--t", "17", "--d", "1", "--p", "1"],
        ["thm2", "--s", "4", "--t", "4", "--d", "4", "--p", "9" * 4301],
    ):
        assert _refused(capsys, *argv), argv
    # one argv past each cost cap, with its exact refusal
    work = ": the work grows with it"
    for command, message in {
        "phi 301 1": "phi n must be <= 300, got 301" + work,
        "thm2 --s 300 --t 300 --d 1 --p 1": "n = st/d must be <= 256, got 90000" + work,
        "search-config --type (9,9) --max-sigma 31":
            "max_sigma must be <= 30, got 31: the search grows exponentially in it",
        "enumerate --d 601":
            "curve degree must be <= 600, got 601: the enumeration grows as d^2 log d",
        "thm3 --s 4 --d 4 --type (1^[301])": "type length must be <= 300, got 301",
        "rdp info A:301:1": "pair index must be <= 300, got 301",
    }.items():
        assert run_cli(capsys, *command.split()) == (1, "", f"error: {message}\n"), command


def test_rationals_outside_p_and_p_over_q_are_refused(capsys):
    # Fraction alone also reads decimals and exponents, and builds 10**e
    # for "1e<e>" before the search starts; the cheap values come first
    for value in ("1e1000", "1E5", "0.5", "1e100000000"):
        for flag in ("--require-delta", "--miyaoka-budget"):
            argv = ["search-config", "--type", "(9,9)", flag, value]
            assert _refused(capsys, *argv), argv
    assert run_cli(capsys, "search-config", "--type", "(9,9)", "--require-delta", "0.5") == (
        1, "", "error: not a rational: '0.5'\n"
    )
    assert parse_rational(" -3/4 ") == Fraction(-3, 4)
    assert parse_rational("+6") == 6


def test_empty_filter_values_are_refused(capsys):
    # an empty value is malformed like any other, not an absent filter
    base = ["search-config", "--type", "(9,9)", "--max-def", "1"]
    for flag, message in (
        ("--require-delta=", "not a rational: ''"),
        ("--miyaoka-budget=", "not a rational: ''"),
        ("--contains=", "bad pair descriptor ''"),
    ):
        assert run_cli(capsys, *base, flag) == (1, "", f"error: {message}\n"), flag


def test_long_input_is_named_by_its_length(capsys):
    # past errors.ECHO_CAP characters or digits an error names the input's
    # length instead of repeating it; shorter input is quoted as it was
    nines = "9" * 99_996
    long_argv = (
        ["rdp", "info", f"A:{nines}:1"],
        ["rdp", "info", f"A:5:{nines}"],
        ["rdp", "info", f"D1:-{nines[1:]}9"],
        ["rdp", "info", "x" * 100_000],
        ["thm3", "--s", "4", "--d", "4", "--type", f"(1^[{nines[2:]}])"],
        ["thm3", "--s", "4", "--d", "4", "--type", "x" * 100_000],
        ["rdp", "config", f"{nines[2:]}*A:2:1"],
        ["rdp", "config", f"{nines[:-3]}x*A:2:1"],
        ["rdp", "config", "x" * 100_000],
        ["search-config", "--type", "(9,9)", "--require-delta", "x" * 100_000],
        ["thm2", "--s", "4", "--t", "4", "--d", "4", "--p", "x" * 100_000],
    )
    huge = "9" * 4300  # the most digits argparse reads
    argparse_argv = (
        ["phi", huge, "1"],
        ["phi", "5", huge],
        ["thm1", "--s", huge, "--t", huge, "--d", "7"],
        ["enumerate", "--d", huge],
        ["search-config", "--type", "(9,9)", "--max-sigma", huge],
    )
    for argv in long_argv + argparse_argv:
        assert len(argv[-1]) == 100_000 or huge in argv, argv[:-1]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "", argv[:-1]
        assert err.startswith("error: ") and err.count("\n") == 1, argv[:-1]
        assert len(err.encode()) <= 200, (argv[:-1], err)
    assert run_cli(capsys, "rdp", "info", f"A:{nines}:1") == (
        1, "", "error: pair index must be <= 300, got <99996 digits>\n"
    )
    assert run_cli(capsys, "rdp", "info", "Q:3") == (1, "", "error: bad pair descriptor 'Q:3'\n")


def test_non_decimal_digits_in_a_type_are_a_parse_error(capsys):
    # str.isdigit() accepts superscripts and other digits that int() rejects
    assert run_cli(capsys, "thm3", "--s", "4", "--d", "4", "--type", "(²)") == (
        1, "", "error: bad type entry '²' in '(²)'\n"
    )
    assert run_cli(capsys, "search-config", "--type", "5⁰4") == (
        1, "", "error: bad type entry '5⁰4' in '5⁰4'\n"
    )
    # decimal digits of other scripts are what int() reads
    assert rdp.parse_type("(٩,٩)") == (9, 9)


def test_p_list_starting_negative_needs_an_equals_sign(capsys):
    # argparse reads "-5,-3" after a space as an option, not as --p's value
    base = ["thm2", "--s", "4", "--t", "4", "--d", "4"]
    code, out, err = run_cli(capsys, *base, "--p", "-5,-3")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --p: expected one argument\n")
    code, out, err = run_cli(capsys, *base, "--p=-5,-3", "--format", "csv")
    assert (code, out, err) == (0, "k,lhs,rhs,margin\n1,-15,24,-39\n2,-26,48,-74\n3,-49,96,-145\n", "")


def test_strict_reader_matches_argparse_on_the_corpus():
    # every corpus argv the strict reader accepts gets argparse's namespace;
    # the rest go to argparse
    from test_corpus import load_corpus

    accepted = 0
    for number, line, argv in load_corpus():
        args = _read_strict(argv)
        if args is not None:
            assert vars(args) == vars(build_parser().parse_args(argv)), f"line {number}: {line}"
            accepted += 1
    assert accepted == 622


# argv outside the strict form, each with its exit code and a part of its
# output under argparse
DECLINED = {
    "-h": (0, "show this help message and exit\n"),
    "rdp -h": (0, "show this help message and exit\n"),
    "thm1 -h": (0, "output format (default: human)\n"),
    "thm2 --s 4 --t 4 --d 4 --p=-5,-3": (0, "holds: no\n"),
    'search-config --type "(9,9)" --require-delta=-1/2': (0, "no configurations\n"),
    'search-config --type "(9,9)" --max-d 1': (0, "sigma=19 deficiency=1\n"),
    "thm1 --s 4 --t 4 --d 4 --d 2": (0, "value: 24/7\nintegral: no\n"),
    "thm1 --s -4 --t 4 --d 4": (1, "error: surface degree must be >= 1, got -4\n"),
    "bound -- 4": (0, "19\n"),
    "rdp": (2, "error: the following arguments are required: rdp_command\n"),
    "thm1 --s 4 --d 4": (2, "error: the following arguments are required: --t\n"),
    "bound 4 --format xml": (2, "error: argument --format: invalid choice: 'xml'"),
    f"bound {'9' * 4301}": (2, f"invalid int value: '{'9' * 4301}'\n"),
    "bound 4 5": (2, "error: unrecognized arguments: 5\n"),
}


@pytest.mark.parametrize("command", list(DECLINED), ids=lambda command: command[:40])
def test_argv_outside_the_strict_form_goes_to_argparse(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = shlex.split(command)
    assert _read_strict(argv) is None
    code, out, err = run_cli(capsys, *argv)
    assert code == DECLINED[command][0]
    assert DECLINED[command][1] in out + err


# Argv drawn from the CLI grammar: zero, negative and huge integers (huge
# only where a cost guard caps the work or a result passes Python's
# 4,300-digit int<->str limit), malformed descriptors and lists.
_INT = st.sampled_from(["-7", "-1", "0", "1", "2", "3", "3", "4", "4", "5", "6", "8", "12", "x"])
_HUGE = st.one_of(
    _INT, st.sampled_from(["301", "100000000000"]), st.integers(1400, 4300).map("9".__mul__)
)
_DESCRIPTOR = st.one_of(
    st.builds("A:{}:{}".format, _HUGE, _INT),
    st.builds("D1:{}".format, _HUGE),
    st.builds("Dn:{}".format, _HUGE),
    st.sampled_from(["E6", "E7", "E6:1", "A:1", "Q:3", "", "A:1:1:1", ":"]),
)
_MULTIPLICITY = st.sampled_from(["", "2*", "0*", "x*", "1000000000*"])
_TERM = st.builds("{}{}".format, _MULTIPLICITY, _DESCRIPTOR)
_CONFIG = st.lists(_TERM, max_size=3).map(" + ".join)
_ENTRY = st.one_of(_INT, st.builds("{}^[{}]".format, _INT, _HUGE))
_TYPE = st.lists(_ENTRY, max_size=4).map(lambda entries: "(" + ",".join(entries) + ")")
_LIST = st.lists(_INT, max_size=5).map(",".join)
_RATIONAL = st.sampled_from(["6", "73/12", "1/0", "-1/2", "x", "1e100000000"])
_STDT = [("--s", _HUGE), ("--t", _HUGE), ("--d", _HUGE), ("--g", _HUGE)]

# (words, required arguments, optional arguments); a flag of None marks a
# positional argument, a value of None a switch.
_GRAMMAR = [
    (["rdp", "info"], [(None, _DESCRIPTOR)], []),
    (["rdp", "config"], [(None, _CONFIG)], []),
    (["phi"], [(None, _HUGE), (None, _HUGE)], []),
    (["chow", "expand"], _STDT + [("--p", _LIST)], []),
    (["thm1"], _STDT, []),
    (["thm2"], _STDT + [("--p", _LIST)], []),
    (["thmA"], _STDT, []),
    (
        ["thm3"],
        [("--s", _HUGE), ("--d", _HUGE), ("--g", _HUGE), ("--type", _TYPE)],
        [("--truncate-at", _HUGE)],
    ),
    (["bound"], [(None, _HUGE)], []),
    (["bungo"], [], []),
    (
        ["search-config"],
        [("--type", _TYPE)],
        [("--max-def", _HUGE), ("--max-sigma", _HUGE), ("--require-delta", _RATIONAL),
         ("--miyaoka-budget", _RATIONAL), ("--contains", _DESCRIPTOR)],
    ),
    (
        ["enumerate"],
        [("--d", _HUGE)],
        [("--g", _HUGE), ("--s-max", _HUGE), ("--t-max", _HUGE), ("--one-sided", None)],
    ),
]
_FORMAT = [[], ["--format", "human"], ["--format", "json"], ["--format", "csv"]] * 3 + [
    ["--format", "xml"]
]


def _arguments(draw, pairs, kept):
    argv = []
    for flag, values in pairs:
        if draw(kept):
            argv += [flag] if flag else []
            argv += [draw(values)] if values is not None else []
    return argv


@st.composite
def _argv(draw):
    words, required, optional = draw(st.sampled_from(_GRAMMAR))
    return (
        words
        + _arguments(draw, required, st.integers(0, 19))  # left out 1 in 20: a usage error
        + _arguments(draw, optional, st.integers(0, 2))
        + draw(st.sampled_from(_FORMAT))
    )


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_fuzzed_argv_exit_cleanly(argv):
    first = _run_quietly(argv)
    code, _, err = first
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err and not err.startswith("internal error:"), argv
    assert _run_quietly(argv) == first, argv


def test_render_refuses_an_unknown_format():
    doc = record({"value": 1})
    assert render(doc, "human") == "value: 1\n"
    with pytest.raises(DomainError, match="^unknown format 'xml'$"):
        render(doc, "xml")


def test_p_list_in_parentheses_reads_as_the_bare_list(capsys):
    for command in (["chow", "expand"], ["thm2"]):
        argv = [*command, "--s", "4", "--t", "4", "--d", "4", "--format", "json"]
        bare = run_cli(capsys, *argv, "--p", "9,8,2")
        assert bare[0] == 0
        assert run_cli(capsys, *argv, "--p", "(9,8,2)") == bare
        assert run_cli(capsys, *argv, "--p", "()") == run_cli(capsys, *argv, "--p", "")
