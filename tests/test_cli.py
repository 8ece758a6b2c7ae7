import json
import math
import random
import time
from fractions import Fraction

import pytest

from ameslocc import reductions
from ameslocc.butson import fourier
from ameslocc.cli import _SCENARIOS, reproduce, run_cli
from ameslocc.operators import LocalOperator, SiteOperator
from ameslocc.phases import DEFAULT_TOL, Amp, get_tolerance, root_of_unity, set_tolerance
from ameslocc.states import SparseState, ame64_phi, ame_linear_5, construct_ame43


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


def test_lm_branch_and_autos_refuse_a_one_term_state(tmp_path, capsys):
    # the one term reads as a k = 0 minimal state, which the support search
    # refuses as an input error
    one = SparseState(3, 2, {(0, 1, 0): Amp.one()}, scale2=1)
    a = write(tmp_path / "a.json", json.dumps(one.to_json()))
    assert run_cli(["equiv", "--branch", "lm", "--src", a, "--dst", a]) == 2
    assert run_cli(["autos", "--src", a]) == 2
    assert capsys.readouterr().err.count("k >= 1") == 2


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


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_reproduce_every_scenario(tmp_path, scenario):
    rep = tmp_path / "rep.json"
    assert run_cli(["reproduce", scenario, "--json", str(rep)]) == 0
    written = json.loads(rep.read_text())
    assert written["passed"] is True
    # the library call reads the parser's defaults and gives the same report
    assert json.loads(json.dumps(reproduce(scenario))) == written


def test_ex9_permutation_witness_is_pinned():
    report = reproduce("ex9")
    assert report["butson_match_verdict"] == "equivalent"
    assert report["witness_sigmas"] == [[0, 3, 1, 2], [0, 1, 2, 3], [0, 2, 3, 1], [0, 1, 2, 3]]


@pytest.mark.parametrize("d", ["7", "11"])
def test_reproduce_appendix_d(tmp_path, d):
    rep = tmp_path / "rep.json"
    assert run_cli(["reproduce", "appendix-d", "--d", d,
                    "--json", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["passed"] and report["d"] == int(d)


def test_no_subcommand_usage(tmp_path):
    assert run_cli([]) == 2
    # the removed reduced-density filter is an unknown command
    a = write(tmp_path / "a.json", json.dumps(ame_linear_5(5).to_json()))
    assert run_cli(["filter", "--src", a, "--dst", a]) == 2


@pytest.mark.parametrize("flag, value", [("--tolerance", "0"), ("--max-nodes", "0"),
                                         ("--mode", "symbolic")],
                         ids=["--tolerance", "--max-nodes", "--mode"])
def test_zero_config_values_are_rejected(flag, value):
    # 0 is a given value, not a missing one: the parser or set_tolerance
    # rejects it
    assert run_cli([flag, value, "reproduce", "ex9"]) == 2


@pytest.mark.parametrize("argv", [["--tolerance", "-1"], ["--tolerance", "nan"],
                                  ["--tolerance", "inf"], ["--max-nodes", "-5"]])
def test_global_options_refuse_nonpositive_and_nonfinite_values(tmp_path, capsys, argv):
    # a nan tolerance decided this self pair inconclusive and exited 0; an
    # infinite one claimed the inputs were not k-uniform
    a = write(tmp_path / "a.json", json.dumps(ame64_phi(0.1).to_json()))
    assert run_cli(argv + ["--mode", "float", "equiv", "--src", a, "--dst", a]) == 2
    assert "verdict" not in capsys.readouterr().out


def test_tolerance_is_reset_on_every_call():
    try:
        assert run_cli(["--tolerance", "1e-3", "reproduce", "ex9"]) == 0
        assert get_tolerance() == 1e-3
        assert run_cli(["reproduce", "ex9"]) == 0
        assert get_tolerance() == DEFAULT_TOL
    finally:
        set_tolerance(DEFAULT_TOL)


@pytest.mark.parametrize("term", [{"phase": {"turn_real": math.nan}},
                                  {"phase": {"turn_real": math.inf}},
                                  {"re": math.nan, "im": 0.0}],
                         ids=["nan-turn", "inf-turn", "nan-re"])
def test_nonfinite_state_files_are_refused(tmp_path, capsys, term):
    # these raised a bare ValueError out of run_cli (equiv) or were read as
    # a state of uniformity 0 (check)
    obj = ame64_phi(0.1).to_json()
    good = write(tmp_path / "good.json", json.dumps(obj))
    obj["terms"] = [{"idx": t["idx"], **term} if t["idx"] == [0] * 6 else t
                    for t in obj["terms"]]
    bad = write(tmp_path / "bad.json", json.dumps(obj))
    assert run_cli(["--mode", "float", "equiv", "--src", bad, "--dst", good]) == 2
    assert run_cli(["--mode", "float", "check", "state", "--file", bad]) == 2
    assert run_cli(["--mode", "float", "check", "state", "--file", good]) == 0
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["construct", "ghz", "--n", "0", "--d", "0"],
    ["construct", "ghz", "--n", "0"],
    ["construct", "bell", "--d", "0"],
    ["construct", "ame5-linear", "--d", "0"],
    ["construct", "ame5-phased", "--d", "0"],
    ["reproduce", "appendix-d", "--d", "0"],
])
def test_zero_size_values_are_rejected(tmp_path, argv):
    # an explicit 0 reaches the constructor, which rejects it, rather than
    # being read as the left-out option's default
    out = tmp_path / "out.json"
    flag = "-o" if argv[0] == "construct" else "--json"
    assert run_cli(argv + [flag, str(out)]) == 2
    assert not out.exists()


def test_check_state_reads_dense_images_exactly(tmp_path, capsys):
    # the F3 x4 image of AME(4,3) is written with integer counts, so exact
    # mode reads it back exact
    image = LocalOperator([SiteOperator.butson(fourier(3))] * 4).apply(construct_ame43())
    path = write(tmp_path / "f3.json", json.dumps(image.to_json()))
    assert run_cli(["check", "state", "--file", path]) == 0
    assert "uniformity=2" in capsys.readouterr().out
    # malformed amplitudes exit 2 with a message; the float numerator
    # raised a TypeError out of run_cli before
    for term in ({"q": 0, "counts": [], "den": 1}, {"q": 3, "counts": [[0, 1, 2]], "den": 1},
                 {"q": 3, "counts": [[0, 1.5]], "den": 1},
                 {"phase": {"turn": {"num": 1.5, "den": 2}}},
                 {"phase": {"turn": {"num": 1, "den": 0}}},
                 {"phase": {"turn": {"num": 1, "den": -2}}}):
        bad = write(tmp_path / "bad.json", json.dumps({"n": 1, "d": 2, "terms": [{"idx": [0], **term}]}))
        assert run_cli(["check", "state", "--file", bad]) == 2
    bad = write(tmp_path / "bad.json", json.dumps(
        {"n": 1, "d": 2, "scale2": "1/0", "terms": [{"idx": [0], "q": 1, "counts": [[0, 1]], "den": 1}]}))
    assert run_cli(["check", "state", "--file", bad]) == 2


def test_check_state_refuses_nonpositive_scale2(tmp_path):
    # "0" raised ZeroDivisionError out of run_cli; "-2" was read as a state
    for scale2 in ("0", "-2"):
        bad = write(tmp_path / "bad.json", json.dumps(
            {"n": 2, "d": 2, "scale2": scale2, "terms": [
                {"idx": [i, i], "phase": {"turn": {"num": 0, "den": 1}}} for i in (0, 1)]}))
        assert run_cli(["check", "state", "--file", bad]) == 2


def test_check_state_refuses_a_zero_test_at_a_huge_conductor(tmp_path):
    # the off-diagonal of the first party's marginal is w + w^(p+1) = 0 at
    # q = 2p, with no common factor to divide out: the exact reduction would
    # take a list of q entries, so the zero test refuses it at once
    p = 10 ** 9 + 7
    terms = [([0, 0], 1), ([0, 1], p + 1), ([1, 0], 0), ([1, 1], 0)]
    bad = write(tmp_path / "big-q.json", json.dumps({"n": 2, "d": 2, "terms": [
        {"idx": idx, "q": 2 * p, "counts": [[e, 1]], "den": 1} for idx, e in terms]}))
    start = time.perf_counter()
    assert run_cli(["check", "state", "--file", bad]) == 2
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("phi", ["1/0", "1/16x"])
def test_construct_phi_refuses_a_malformed_turn(tmp_path, capsys, phi):
    # Fraction("1/0") raises ZeroDivisionError, which argparse would not
    # turn into a usage error by itself
    out = tmp_path / "phi.json"
    assert run_cli(["construct", "ame64-phi", "--phi", phi, "-o", str(out)]) == 2
    assert "argument --phi" in capsys.readouterr().err
    assert not out.exists()


def test_appendix_d_refuses_large_d_at_once(monkeypatch):
    # d = 41 did not finish within 120 s and d = 257 overflows the
    # byte-packed counts; the cap comes before the d^3-term phased state
    def build(d):
        raise AssertionError("built the phased state at d = %d" % d)

    monkeypatch.setattr(reductions, "construct_ame5_phased", build)
    for d in ("41", "257"):
        start = time.perf_counter()
        assert run_cli(["reproduce", "appendix-d", "--d", d]) == 2
        assert time.perf_counter() - start < 1.0


def test_ame55_scenario_reports_the_invariant_certificate(tmp_path):
    rep = tmp_path / "rep.json"
    assert run_cli(["reproduce", "ame55-inequivalence", "--json", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["passed"] and "every minimal-support AME(5,5) state" in report["claim"]
    cert = report["certificate"]
    assert (cert["verdict"], cert["reason"]) == ("inequivalent", "lu-invariant")
    assert cert["details"]["witness_turn"][1] == 5


def test_construct_phi_keeps_a_rational_turn(tmp_path, capsys):
    out = tmp_path / "phi.json"
    assert run_cli(["construct", "ame64-phi", "--phi", "1/16", "-o", str(out)]) == 0
    terms = {tuple(t["idx"]): t for t in json.loads(out.read_text())["terms"]}
    assert terms[(0,) * 6]["phase"] == {"turn": {"num": 1, "den": 16}}
    assert run_cli(["check", "state", "--file", str(out)]) == 0
    assert "uniformity=3" in capsys.readouterr().out


_ONE, _MINUS = {"turn": {"num": 0, "den": 1}}, {"turn": {"num": 1, "den": 2}}
_F2_ROWS = [[_ONE, _ONE], [_ONE, _MINUS]]


@pytest.mark.parametrize("obj", [
    {"d": 1, "q": -2, "rows": [[_ONE]]},
    {"d": 2, "q": 0, "rows": _F2_ROWS},
    {"d": 2, "q": "2", "rows": _F2_ROWS},
    {"d": 2, "q": 2, "rows": [[_ONE, {"foo": 1}], [_ONE, _MINUS]]},
    {"d": 2, "q": 2, "rows": [[_ONE, _ONE], [_ONE, {"turn": {"num": 0.5, "den": 1}}]]},
    {"d": 2, "q": 2, "rows": [1, 2]},
    {"d": 2, "q": 2, "rows": 2},
    {"d": 2, "q": 2, "rows": [[_ONE, _ONE], [_ONE, _ONE]]},
], ids=["negative-q", "zero-q", "string-q", "not-a-phase", "float-numerator",
        "rows-not-lists", "rows-not-a-list", "not-orthogonal"])
def test_check_butson_rejects_malformed_files(tmp_path, capsys, obj):
    path = write(tmp_path / "bh.json", json.dumps(obj))
    assert run_cli(["check", "butson", "--file", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_butson_accepts_fourier(tmp_path, capsys):
    path = write(tmp_path / "f3.json", json.dumps(fourier(3).to_json()))
    assert run_cli(["check", "butson", "--file", path]) == 0
    assert "BH(3,3): valid" in capsys.readouterr().out

