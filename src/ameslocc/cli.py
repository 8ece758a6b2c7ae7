"""Command-line interface.

Subcommands construct states, validate designs and matrices, convert between
representations, run the equivalence engines, and replay the recorded
scenarios end to end.  Exit codes: 0 = a verdict was produced (including
"equivalent"), 1 = the verdict is inequivalent / a check failed (so shell
pipelines can branch on it), 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from . import butson as bt
from . import designs as dg
from . import equivalence as eq
from . import reductions as rd
from . import states as st
from .operators import LocalOperator, SiteOperator
from .phases import DEFAULT_TOL, PhaseError, set_tolerance

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


class CliError(Exception):
    pass


def _positive_int(text: str) -> int:
    """The --max-nodes type: an int > 0, else an argparse usage error."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer, got %r" % text)
    return n


def _rational_turn(text: str) -> Fraction:
    """The --phi type: a Fraction, else an argparse usage error, 1/0 too."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("must be a rational turn, got %r" % text) from None


def _load_json(path: str, what: str, parse):
    """parse() of the JSON in path, a CliError when either step fails."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise CliError("cannot read %s file %s: %s" % (what, path, e))
    try:
        return parse(obj)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        # StateError, PhaseError and ButsonError are ValueErrors; a "1/0"
        # scale2 raises ZeroDivisionError
        raise CliError("malformed %s file %s: %s" % (what, path, e))


def _load_state(path: str):
    return _load_json(path, "state", st.SparseState.from_json)


def parse_oa_file(path: str) -> dg.OrthogonalArray:
    """Load and validate an orthogonal array from the text format
    (header line "r N d k", then r rows of symbols)."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise CliError("cannot read %s: %s" % (path, e))
    return dg.parse_oa_text(text)


def _check_exact(state, args):
    if args.mode == "exact" and not state.is_exact:
        raise CliError("exact mode rejects states with non-rational turns; "
                       "rerun with --mode float")


def _emit(payload: dict, args, text_lines=None) -> None:
    out = getattr(args, "json", None)
    if out:
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    for line in (text_lines or []):
        print(line)


def _given(value, default):
    """value unless the option was left out; an explicit 0 stays 0, so the
    constructor rejects it."""
    return default if value is None else value


_CONSTRUCTORS = {
    "ghz": lambda a: st.construct_ghz(_given(a.n, 3), _given(a.d, 2)),
    "bell": lambda a: st.construct_ghz(2, _given(a.d, 2)),
    "ame43": lambda a: st.construct_ame43(),
    "ame44": lambda a: st.construct_ame44(),
    "ame64": lambda a: st.construct_ame64(),
    "ame5-linear": lambda a: st.ame_linear_5(_given(a.d, 5)),
    "ame5-phased": lambda a: st.construct_ame5_phased(_given(a.d, 5)),
    "ame64-phi": lambda a: st.ame64_phi(a.phi),
}


def _cmd_construct(args) -> int:
    if args.name not in _CONSTRUCTORS:
        raise CliError("unknown state %r; available: %s"
                       % (args.name, ", ".join(sorted(_CONSTRUCTORS))))
    state = _CONSTRUCTORS[args.name](args)
    obj = state.to_json()
    text = json.dumps(obj, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.kind == "oa":
        oa = parse_oa_file(args.file)
        report = dg.check_oa(oa.rows, oa.d, oa.strength)
        report["ncols"] = oa.ncols
        _emit(report, args,
              ["OA(%d,%d,%d,%d): valid, index %d"
               % (len(oa.rows), oa.ncols, oa.d, oa.strength, report["index"])])
        return EXIT_OK
    if args.kind == "butson":
        m = _load_json(args.file, "Butson", bt.ButsonMatrix.from_json)
        _emit({"d": m.d, "q": m.q, "valid": True}, args,
              ["BH(%d,%d): valid" % (m.d, m.q)])
        return EXIT_OK
    if args.kind == "state":
        state = _load_state(args.file)
        _check_exact(state, args)
        k = st.uniformity(state)
        minimal = state.as_minimal(k=k) is not None if k else False
        payload = {"n": state.n, "d": state.d, "terms": len(state.terms),
                   "uniformity": k, "minimal_support": minimal}
        _emit(payload, args,
              ["state: n=%d d=%d terms=%d uniformity=%d minimal=%s"
               % (state.n, state.d, len(state.terms), k, minimal)])
        return EXIT_OK if k > 0 else EXIT_NEGATIVE
    raise CliError("unknown check kind %r" % args.kind)


def _cmd_convert(args) -> int:
    if args.to == "state":
        oa = parse_oa_file(args.file)
        state = dg.oa_to_state(oa)
        text = json.dumps(state.to_sparse().to_json(), indent=2, sort_keys=True)
    elif args.to == "oa":
        state = _load_state(args.file)
        minimal = state.as_minimal()
        if minimal is None:
            raise CliError("state is not of minimal support; cannot emit an OA")
        text = dg.state_to_oa(minimal).to_text()
    else:
        raise CliError("convert target must be 'state' or 'oa'")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)
    return EXIT_OK


def _certificate_lines(cert: eq.EquivalenceCertificate):
    lines = ["verdict: %s" % cert.verdict]
    if cert.reason:
        lines.append("reason: %s" % cert.reason)
    if cert.witness is not None:
        lines.append("witness sites: %s"
                     % ", ".join(s.kind for s in cert.witness.sites))
    return lines


def _cmd_equiv(args) -> int:
    src, dst = _load_state(args.src), _load_state(args.dst)
    _check_exact(src, args)
    _check_exact(dst, args)
    if args.branch == "lm":
        ma, mb = src.as_minimal(), dst.as_minimal()
        if ma is None or mb is None:
            raise CliError("--branch lm needs minimal-support inputs")
        cert = eq.lm_match(ma, mb, max_nodes=args.max_nodes)
    else:
        cert = eq.decide_slocc(src, dst, max_nodes=args.max_nodes)
    _emit(cert.to_json(), args, _certificate_lines(cert))
    return EXIT_NEGATIVE if cert.verdict == "inequivalent" else EXIT_OK


def _cmd_autos(args) -> int:
    state = _load_state(args.src)
    minimal = state.as_minimal()
    if minimal is None:
        raise CliError("automorphism search needs a minimal-support state")
    found = eq.automorphisms(minimal, branch=args.branch,
                             max_nodes=args.max_nodes)
    payload = {"count": len(found), "branch": args.branch,
               "witnesses": [w.to_json() for w in found]}
    _emit(payload, args, ["automorphisms (%s branch): %d"
                          % (args.branch, len(found))])
    return EXIT_OK


def _cmd_enumerate_bh(args) -> int:
    reps = bt.enumerate_bh(args.d)
    payload = {"d": args.d, "classes": len(reps),
               "representatives": [m.to_json() for m in reps]}
    lines = ["BH(%d,%d): %d equivalence classes" % (args.d, args.d, len(reps))]
    for m in reps:
        lines.append("  " + "; ".join(" ".join(str(e) for e in row)
                                      for row in m.exponents()))
    _emit(payload, args, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Recorded scenarios


def _scenario_fourier_automorphism(args) -> dict:
    state = st.construct_ame43()
    layer = LocalOperator([SiteOperator.butson(bt.fourier(3))] * 4)
    image = layer.apply(state)
    g = st.states_equal_up_to_global_phase(image, state)
    return {"passed": g is not None,
            "claim": "the four-fold Fourier layer maps the 4-party qutrit "
                     "state to itself up to a global phase",
            "global_phase": g.to_json() if g else None}


def _scenario_composed_automorphism(args) -> dict:
    base = st.construct_ame43()
    composed = st.tensor_compose(base, base)
    # F x Id on the composed 9-level site: entry ((3a+b),(3c+e)) is
    # F[a][c] * delta(b, e)
    from .phases import Amp
    f = bt.fourier(3)
    mat = [[Amp.from_phase(f[(r // 3, c // 3)]) if r % 3 == c % 3 else Amp.zero()
            for c in range(9)] for r in range(9)]
    site = SiteOperator.general(mat, 9, scale=3)
    layer = LocalOperator([site] * 4)
    image = layer.apply(composed)
    g = st.states_equal_up_to_global_phase(image, composed)
    s, ok = site.nonzero_profile()
    return {"passed": g is not None and ok and s == 3,
            "claim": "F x Id per site is an automorphism of the composed "
                     "9-level state, with 3 nonzeros per row/column "
                     "(so it is not a Butson-type factor form)",
            "nonzeros_per_row": s,
            "violates_butson_form": s not in (1, 9)}


def _random_unitary(rng, d: int):
    """The columns of a d x d unitary: Gram-Schmidt on complex Gaussians."""
    cols = []
    for _ in range(d):
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
        for c in cols:
            ip = sum(x.conjugate() * y for x, y in zip(c, v))
            v = [y - ip * x for x, y in zip(c, v)]
        norm = math.sqrt(sum(abs(y) ** 2 for y in v))
        cols.append([y / norm for y in v])
    return cols


def _scenario_bell(args) -> dict:
    rng = random.Random(args.seed)
    checks = []
    for d in range(2, 6):
        bell = [1 / math.sqrt(d) if i // d == i % d else 0.0 for i in range(d * d)]
        for _ in range(20):
            col = _random_unitary(rng, d)
            # U[a][i] = col[i][a]; (U x conj(U))[(a, b), (i, j)] = U[a][i] conj(U[b][j])
            out = [sum(col[i][a] * col[j][b].conjugate() * bell[i * d + j]
                       for i in range(d) for j in range(d))
                   for a in range(d) for b in range(d)]
            err = math.sqrt(sum(abs(x - y) ** 2 for x, y in zip(out, bell)))
            checks.append(err < 1e-9)
    return {"passed": all(checks),
            "claim": "U x conj(U) preserves the generalized Bell state for "
                     "20 random unitaries in each dimension 2..5",
            "cases": len(checks)}


def _scenario_ex9(args) -> dict:
    state = st.construct_ame44()
    f22 = bt.tensor_butson(bt.fourier(2), bt.fourier(2))
    layer = LocalOperator([SiteOperator.butson(f22)] * 4)
    image = layer.apply(state)
    minimal = image.as_minimal(k=2)
    cert = eq.butson_match(state, minimal, max_nodes=args.max_nodes) \
        if minimal is not None else None
    # butson_match runs lm_match first, so a permutation witness is its
    # lm-witness
    perm_witness = ([list(s.sigma) for s in cert.witness.sites]
                    if cert is not None and cert.reason == "lm-witness" else None)
    return {"passed": perm_witness is not None,
            "claim": "the two-qubit Fourier layer on every site of the "
                     "4-party 4-level state lands on a local permutation "
                     "of the same state",
            "image_is_minimal": minimal is not None,
            "witness_sigmas": perm_witness,
            "butson_match_verdict": cert.verdict if cert else None}


def _scenario_appendix_d(args) -> dict:
    report = rd.verify_ame5_nonequivalence(_given(args.d, 5))
    report["passed"] = report["all_passed"]
    return report


def _scenario_ame55(args) -> dict:
    cert = eq.decide_slocc(st.construct_ame5_phased(5), st.ame_linear_5(5),
                           max_nodes=args.max_nodes)
    return {"passed": (cert.verdict, cert.reason) == ("inequivalent", "lu-invariant"),
            "claim": "the phased five-party state's LU invariant I_pi differs from "
                     "5^-4, its value on every minimal-support AME(5,5) state, so "
                     "it is SLOCC-inequivalent to every minimal-support AME(5,5) state",
            "certificate": cert.to_json()}


def _scenario_ame6_family(args) -> dict:
    base = st.construct_ame64()
    phis = [0.1, 0.7, 1.3, 2.9]
    turns = [p / (2 * math.pi) for p in phis]
    report = eq.family_classes(base, (0,) * 6, turns)
    separated = all(p["verdict"] == "inequivalent" for p in report["pairs"])
    # phi versus -phi must *not* be separated (complex conjugate pair)
    conj_report = eq.family_classes(base, (0,) * 6,
                                    [turns[0], 1.0 - turns[0]])
    conj_ok = conj_report["pairs"][0]["verdict"].startswith("not-separated")
    return {"passed": separated and conj_ok,
            "claim": "distinct decorating phases give certified inequivalent "
                     "states; conjugate phases are not separated",
            "pairs": report["pairs"],
            "conjugate_pair": conj_report["pairs"][0]["verdict"]}


_SCENARIOS = {
    "fourier-automorphism": _scenario_fourier_automorphism,
    "composed-automorphism": _scenario_composed_automorphism,
    "bell-UUbar": _scenario_bell,
    "ex9": _scenario_ex9,
    "appendix-d": _scenario_appendix_d,
    "ame55-inequivalence": _scenario_ame55,
    "ame6-family": _scenario_ame6_family,
}


def reproduce(example_id: str, args=None) -> dict:
    """Run one recorded scenario end to end; report carries a 'passed' flag.

    ``args`` is the parsed command line; None reads the parser's defaults.
    """
    if example_id not in _SCENARIOS:
        raise CliError("unknown scenario %r; available: %s"
                       % (example_id, ", ".join(sorted(_SCENARIOS))))
    if args is None:
        args = _build_parser().parse_args(["reproduce", example_id])
    return _SCENARIOS[example_id](args)


def _cmd_reproduce(args) -> int:
    report = reproduce(args.id, args)
    status = "pass" if report.get("passed") else "FAIL"
    _emit(report, args, ["%s: %s" % (args.id, status)])
    return EXIT_OK if report.get("passed") else EXIT_NEGATIVE


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ame-slocc",
        description="construct k-uniform states and decide local equivalence")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOL,
                   help="float-comparison tolerance, 0 < t < inf (default %(default)g)")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--max-nodes", type=_positive_int, default=eq.DEFAULT_MAX_NODES,
                   help="search-node budget for equivalence engines (default %(default)d)")
    p.add_argument("--seed", type=int, default=7,
                   help="random seed of the bell-UUbar scenario (default %(default)d)")
    sub = p.add_subparsers(dest="command")

    c = sub.add_parser("construct", help="emit a named state as JSON")
    c.add_argument("name")
    c.add_argument("--n", type=int, default=None)
    c.add_argument("--d", type=int, default=None)
    c.add_argument("--phi", type=_rational_turn, default=Fraction(0),
                   help="decorating phase turn for ame64-phi, e.g. 1/16 or 0.0625")
    c.add_argument("-o", "--output", default=None)
    c.set_defaults(func=_cmd_construct)

    k = sub.add_parser("check", help="validate an OA, state, or Butson file")
    k.add_argument("kind", choices=("oa", "state", "butson"))
    k.add_argument("--file", required=True)
    k.add_argument("--json", default=None)
    k.set_defaults(func=_cmd_check)

    v = sub.add_parser("convert", help="convert between OA text and state JSON")
    v.add_argument("--file", required=True)
    v.add_argument("--to", choices=("state", "oa"), required=True)
    v.add_argument("-o", "--output", default=None)
    v.set_defaults(func=_cmd_convert)

    e = sub.add_parser("equiv", help="decide equivalence of two states")
    e.add_argument("--src", required=True)
    e.add_argument("--dst", required=True)
    e.add_argument("--branch", choices=("lm", "full"), default="full")
    e.add_argument("--json", default=None)
    e.set_defaults(func=_cmd_equiv)

    a = sub.add_parser("autos", help="enumerate automorphism witnesses")
    a.add_argument("--src", required=True)
    a.add_argument("--branch", choices=("lm", "lm+butson"), default="lm")
    a.add_argument("--json", default=None)
    a.set_defaults(func=_cmd_autos)

    b = sub.add_parser("enumerate-bh",
                       help="Butson BH(d,d) classes up to monomial maps")
    b.add_argument("d", type=int)
    b.add_argument("--json", default=None)
    b.set_defaults(func=_cmd_enumerate_bh)

    r = sub.add_parser("reproduce", help="replay a recorded scenario")
    r.add_argument("id")
    r.add_argument("--d", type=int, default=None)
    r.add_argument("--json", default=None)
    r.set_defaults(func=_cmd_reproduce)
    return p


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else EXIT_OK
    if not getattr(args, "func", None):
        parser.print_usage()
        return EXIT_ERROR
    try:
        set_tolerance(args.tolerance)
        return args.func(args)
    except (CliError, st.StateError, dg.DesignError, bt.ButsonError,
            eq.EquivalenceError, rd.ReductionError, PhaseError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
