import json
import random
from fractions import Fraction

import pytest

from ameslocc.cli import CliError, RunConfig, run_cli
from ameslocc.operators import LocalOperator, SiteOperator
from ameslocc.phases import root_of_unity
from ameslocc.states import ame64_phi


def write(path, text):
    path.write_text(text)
    return str(path)


OA_TEXT = "9 4 3 2\n" + "\n".join(
    "%d %d %d %d" % (i, j, (i + j) % 3, (2 * i + j) % 3)
    for i in range(3) for j in range(3)) + "\n"


def test_construct_and_check_roundtrip(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run_cli(["construct", "ame43", "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert len(obj["terms"]) == 9
    assert run_cli(["check", "state", "--file", str(out)]) == 0
    assert "uniformity=2" in capsys.readouterr().out


def test_construct_unknown_name():
    assert run_cli(["construct", "nope"]) == 2


def test_check_oa_and_convert(tmp_path, capsys):
    oa = write(tmp_path / "a.oa", OA_TEXT)
    assert run_cli(["check", "oa", "--file", oa]) == 0
    assert "index 1" in capsys.readouterr().out
    state_out = tmp_path / "s.json"
    assert run_cli(["convert", "--file", oa, "--to", "state",
                    "-o", str(state_out)]) == 0
    back = tmp_path / "b.oa"
    assert run_cli(["convert", "--file", str(state_out), "--to", "oa",
                    "-o", str(back)]) == 0
    assert sorted(back.read_text().split("\n")) == sorted(OA_TEXT.split("\n"))


def test_check_bad_oa(tmp_path):
    bad = write(tmp_path / "bad.oa", "2 2 2 2\n0 0\n1 1\n")
    assert run_cli(["check", "oa", "--file", bad]) == 2


def test_equiv_exit_codes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(["construct", "ame43", "-o", str(a)])
    run_cli(["construct", "ghz", "--n", "4", "--d", "3", "-o", str(b)])
    cert = tmp_path / "cert.json"
    assert run_cli(["equiv", "--src", str(a), "--dst", str(a),
                    "--json", str(cert)]) == 0
    assert json.loads(cert.read_text())["verdict"] == "equivalent"
    assert run_cli(["equiv", "--src", str(a), "--dst", str(b)]) == 1
    assert run_cli(["equiv", "--src", str(a), "--dst", "/no/such.json"]) == 2


def test_equiv_lm_branch(tmp_path, capsys):
    a = tmp_path / "a.json"
    run_cli(["construct", "ame5-linear", "-o", str(a)])
    assert run_cli(["equiv", "--src", str(a), "--dst", str(a),
                    "--branch", "lm"]) == 0
    assert "equivalent" in capsys.readouterr().out


def test_equiv_lm_branch_monomial_image(tmp_path):
    # a local monomial with 1/360-turn diagonals, applied to an AME(6,4)
    # family member: the complete search finds it
    rng = random.Random(7)
    sites = []
    for _ in range(6):
        sigma = list(range(4))
        rng.shuffle(sigma)
        sites.append(SiteOperator.monomial(
            sigma, [root_of_unity(360, rng.randrange(360)) for _ in range(4)]))
    s = ame64_phi(Fraction(1, 16))
    a = write(tmp_path / "a.json", json.dumps(s.to_json()))
    b = write(tmp_path / "b.json", json.dumps(LocalOperator(sites).apply(s).to_json()))
    cert = tmp_path / "cert.json"
    assert run_cli(["equiv", "--src", a, "--dst", b, "--branch", "lm",
                    "--json", str(cert)]) == 0
    assert json.loads(cert.read_text())["reason"] == "lm-witness"


def test_equiv_full_branch_ame64_monomial_image(tmp_path):
    # the default dispatch reaches butson_match at N = 2k, which must defer
    # to the complete monomial search as the lm branch does
    rng = random.Random(7)
    sites = []
    for _ in range(6):
        sigma = list(range(4))
        rng.shuffle(sigma)
        sites.append(SiteOperator.monomial(
            sigma, [root_of_unity(360, rng.randrange(360)) for _ in range(4)]))
    s = ame64_phi(Fraction(1, 16))
    a = write(tmp_path / "a.json", json.dumps(s.to_json()))
    b = write(tmp_path / "b.json", json.dumps(LocalOperator(sites).apply(s).to_json()))
    cert = tmp_path / "cert.json"
    assert run_cli(["equiv", "--src", a, "--dst", b, "--json", str(cert)]) == 0
    assert json.loads(cert.read_text())["reason"] == "lm-witness"


def test_autos_counts(tmp_path):
    a = tmp_path / "a.json"
    run_cli(["construct", "ame43", "-o", str(a)])
    rep = tmp_path / "autos.json"
    assert run_cli(["autos", "--src", str(a), "--json", str(rep)]) == 0
    assert json.loads(rep.read_text())["count"] == 18


def test_filter_subcommand(tmp_path):
    a = tmp_path / "a.json"
    run_cli(["construct", "ame5-linear", "-o", str(a)])
    rep = tmp_path / "filter.json"
    assert run_cli(["filter", "--src", str(a), "--dst", str(a),
                    "--json", str(rep)]) == 0
    assert json.loads(rep.read_text())["verdict"] == "passed"


def test_enumerate_bh(tmp_path):
    rep = tmp_path / "bh.json"
    assert run_cli(["enumerate-bh", "3", "--json", str(rep)]) == 0
    assert json.loads(rep.read_text())["classes"] == 1


def test_reproduce_unknown_lists_ids(capsys):
    assert run_cli(["reproduce", "no-such-scenario"]) == 2
    err = capsys.readouterr().err
    assert "fourier-automorphism" in err and "ex9" in err


def test_reproduce_fourier(tmp_path):
    rep = tmp_path / "rep.json"
    assert run_cli(["reproduce", "fourier-automorphism",
                    "--json", str(rep)]) == 0
    assert json.loads(rep.read_text())["passed"]


def test_no_subcommand_usage():
    assert run_cli([]) == 2


def test_runconfig_validation():
    with pytest.raises(CliError):
        RunConfig(tolerance=0.0)
    with pytest.raises(CliError):
        RunConfig(max_nodes=0)
    with pytest.raises(CliError):
        RunConfig(mode="symbolic")

