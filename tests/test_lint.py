"""Static guards on the package's imports, private helpers and verdicts.

Every module-level import is used, no module imports sympy, which the
package does not depend on, ``import ameslocc`` loads neither numpy nor
sympy, every module-level private function or class
is referenced from src/ or perfbench/ other than by its own definition
(a helper that only tests name is dead code), only
phases.py converts ``Amp`` term maps, calls ``exponent_sum_is_zero`` or
memoises a zero test, modsolve.py imports nothing from ``fractions`` or
``functools``, and every
reason an ``inequivalent`` certificate can carry is explained in the
README's "Verdict semantics" section, and every ``lru_cache`` is bounded
unless one int is its whole key.  No linter ships
with the test dependencies, so this walks the syntax tree with the standard
library.  ``__init__.py`` is skipped by the unused-import check because its
imports are the package's re-exports.  Where pyenv is on PATH, the package
is also imported and run on one decision under every other installed CPython
3.10 or newer, which the suite itself does not run under.
"""

import ast
import os
import platform
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ameslocc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """(bound name, line) for each name bound by a module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = ["%s (line %d)" % (name, line)
              for name, line in _imported_names(tree) if name not in used]
    assert not unused, "%s: unused imports: %s" % (path.name, ", ".join(unused))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_sympy_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == "sympy" for m in modules):
            lines.append(node.lineno)
    assert not lines, "%s imports sympy at lines %s" % (path.name, lines)


def test_import_loads_neither_numpy_nor_sympy():
    # the exact core is pure Python; importing numpy alone would take
    # longer than importing the whole package
    code = ("import sys, ameslocc; "
            "print(sorted(m for m in ('numpy', 'sympy') if m in sys.modules))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def _names_in(node):
    """Names node refers to: bare names, attributes, imported names, and
    string constants (the bench rebinds helpers by name)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def test_private_helpers_are_referenced():
    """Each module-level private def in the package is named by a statement
    other than its own definition, in src/ or perfbench/: tests alone do not
    keep a helper alive."""
    private, used = [], set()
    for path in sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("perfbench/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            defined = None
            if (path.parent == PACKAGE
                    and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_") and not stmt.name.startswith("__")):
                defined = stmt.name
                private.append("%s:%s" % (path.name, defined))
            used.update(name for name in _names_in(stmt) if name != defined)
    dead = [p for p in private if p.split(":")[1] not in used]
    assert not dead, "unreferenced private helpers: %s" % ", ".join(dead)


def test_only_phases_converts_amp_term_maps():
    """``Amp(terms=...)`` is an input form for code outside the package.
    Inside it amplitudes are built in their one integer form, so no module
    but phases.py passes ``Amp`` a term map, by keyword or by position."""
    calls = []
    for path in MODULES:
        if path.name == "phases.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "Amp"
                    and (node.args or any(kw.arg == "terms" for kw in node.keywords))):
                calls.append("%s:%d" % (path.name, node.lineno))
    assert not calls, "Amp term maps built at %s" % ", ".join(calls)


ZERO_TESTS = {"exponent_sum_is_zero", "is_zero", "vanishes"}
CACHES = {"lru_cache", "cache", "cached_property"}


def _callee(node):
    """The bare or attribute name node names; for a call, the one it calls."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_only_phases_decides_and_memoises_zero_tests():
    """``phases.vanishes`` is the one memoised zero test, on one count-vector
    encoding: no module but phases.py calls ``exponent_sum_is_zero``, and
    no cached function outside it runs a zero test."""
    found = []
    for path in MODULES:
        if path.name == "phases.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and _callee(node) == "exponent_sum_is_zero":
                found.append("%s:%d calls exponent_sum_is_zero" % (path.name, node.lineno))
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and CACHES.intersection(map(_callee, node.decorator_list))
                  and any(isinstance(sub, ast.Call) and _callee(sub) in ZERO_TESTS
                          for sub in ast.walk(node))):
                found.append("%s:%d memoises a zero test" % (path.name, node.lineno))
    assert not found, "; ".join(found)


def test_modsolve_imports_neither_fractions_nor_functools():
    """The mod-1 solve runs on integer turns and keeps no cache of its own:
    turns go in and out as (q, values), and the caller holds each
    elimination."""
    path = PACKAGE / "modsolve.py"
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    assert not modules & {"fractions", "functools"}, sorted(modules)


def _certificate_reasons(tree):
    """(verdict, reason, line) for each EquivalenceCertificate call whose
    verdict is "inequivalent" or "inconclusive" and whose reason is a
    string literal."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "EquivalenceCertificate"):
            continue
        args = {kw.arg: kw.value for kw in node.keywords}
        verdict = node.args[0] if node.args else args.get("verdict")
        reason = args.get("reason")
        if (isinstance(verdict, ast.Constant)
                and verdict.value in ("inequivalent", "inconclusive")
                and isinstance(reason, ast.Constant)):
            yield verdict.value, reason.value, node.lineno


def test_inequivalence_reasons_are_documented():
    """Every literal reason of an inequivalent or inconclusive certificate
    is named under its verdict in README's "Verdict semantics"."""
    path = PACKAGE / "equivalence.py"
    reasons = list(_certificate_reasons(ast.parse(path.read_text(), filename=str(path))))
    assert {verdict for verdict, _, _ in reasons} == {"inequivalent", "inconclusive"}
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Verdict semantics", 1)[1].split("\n## ", 1)[0]
    # each verdict's bullet runs to the next top-level bullet
    bullets = {verdict: section.split("- `%s`" % verdict, 1)[1].split("\n- ", 1)[0]
               for verdict in ("inequivalent", "inconclusive")}
    missing = ["%s %s (line %d)" % (verdict, r, line) for verdict, r, line in reasons
               if "`%s`" % r not in bullets[verdict]]
    assert not missing, "undocumented certificate reasons: %s" % ", ".join(missing)


# caches keyed by one int: at most one entry per parameter value a caller uses
UNBOUNDED_CACHES = {"_cyclotomic_coeffs", "_ame5_certificate"}


def test_lru_caches_are_bounded():
    """Every ``lru_cache`` in src/ has a numeric ``maxsize``, so a long run
    on many supports or matrices holds a bounded number of entries; only
    the caches keyed by one int may grow without one."""
    found, unbounded = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                name = _callee(dec)
                if name not in ("lru_cache", "cache"):
                    continue
                found.add(node.name)
                maxsize = ([kw.value for kw in call.keywords if kw.arg == "maxsize"]
                           + call.args[:1]) if call else []
                if name == "cache" or not (
                        maxsize and isinstance(maxsize[0], ast.Constant)
                        and type(maxsize[0].value) is int):
                    unbounded.append("%s:%s" % (path.name, node.name))
    assert found, "no lru_cache found: the check reads nothing"
    extra = [u for u in unbounded if u.split(":")[1] not in UNBOUNDED_CACHES]
    assert not extra, "lru_cache without a numeric maxsize: %s" % ", ".join(extra)


# one five-party decision, with no test dependency: a fixed local monomial
# image; and two N = 2k decisions through butson_match's rule, one exact and
# one on float turns, 192 float solves; an AME(4,3) monomial image, and an
# unchecked AME(4,3) dst that is not index-unity, which no sigma reaches; then one CLI scenario and two of the
# CLI's option errors, since argparse's behaviour differs between versions;
# and pickle, deepcopy and the exact-against-real hash of a Phase, whose
# __slots__ pickle differently between versions
SMOKE = textwrap.dedent("""
    import copy
    import json
    import math
    import os
    import pickle
    import tempfile
    from fractions import Fraction
    import ameslocc
    from ameslocc.phases import Phase, root_of_unity
    for p in (Phase(Fraction(3, 7)), Phase(0.25)):
        for q in [copy.deepcopy(p)] + [pickle.loads(pickle.dumps(p, protocol))
                                       for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]:
            assert type(q) is Phase and q == p and hash(q) == hash(p), (p, q)
            assert repr(q) == repr(p) and q.is_exact == p.is_exact, (p, q)
    half, real_half = Phase(Fraction(1, 2)), Phase(0.5)
    assert half == real_half and hash(half) == hash(real_half)
    s = ameslocc.ame_linear_5(5)
    op = ameslocc.LocalOperator([ameslocc.SiteOperator.monomial(
        [(3 * x + p) % 5 for x in range(5)], [root_of_unity(10, p * x) for x in range(5)])
        for p in range(5)])
    cert = ameslocc.decide_slocc(s, op.apply(s))
    assert cert.verdict == "equivalent", cert.verdict
    cert = ameslocc.decide_slocc(ameslocc.ame64_phi(Fraction(1, 16)),
                                 ameslocc.ame64_phi(Fraction(3, 16)))
    assert (cert.verdict, cert.reason) == (
        "inequivalent", "lm-exhausted-butson-condition-violated"), cert
    walk = {key: cert.stats[key] for key in ("sigmas_tested", "group_order", "orbit")}
    assert walk == {"sigmas_tested": 64, "group_order": 192, "orbit": 64}, cert.stats
    cert = ameslocc.decide_slocc(ameslocc.ame64_phi(0.1 / (2 * math.pi)),
                                 ameslocc.ame64_phi(0.7 / (2 * math.pi)))
    assert (cert.verdict, cert.reason, cert.stats["solves"]) == (
        "inequivalent", "lm-exhausted-butson-condition-violated", 192), cert
    cert = ameslocc.decide_slocc(s.to_sparse(), op.apply(s).to_sparse())
    assert cert.verdict == "equivalent", cert.verdict
    ame43 = ameslocc.construct_ame43()
    op43 = ameslocc.LocalOperator([ameslocc.SiteOperator.monomial(
        [(x + p) % 3 for x in range(3)], [root_of_unity(6, p * x) for x in range(3)])
        for p in range(4)])
    cert = ameslocc.decide_slocc(ame43, op43.apply(ame43))
    assert cert.verdict == "equivalent", cert.verdict
    rows = sorted(ame43.phases)
    rows[0], rows[1] = (0, 0, 0, 1), (0, 1, 1, 0)
    swapped = ameslocc.MinimalSupportState(4, 3, 2, {r: Phase(0) for r in rows}, check=False)
    cert = ameslocc.decide_slocc(ame43, swapped)
    assert (cert.verdict, cert.reason) == ("inequivalent", "different-uniformity"), cert
    phi = ameslocc.ame64_phi(0.1 / (2 * math.pi)).to_sparse()
    cert = ameslocc.decide_slocc(phi, phi)
    assert cert.verdict == "equivalent", cert.verdict
    assert ameslocc.run_cli(["reproduce", "ex9"]) == 0
    assert ameslocc.run_cli(["--tolerance", "nan", "reproduce", "ex9"]) == 2
    assert ameslocc.run_cli(["--max-nodes", "0", "reproduce", "ex9"]) == 2
    phased = ameslocc.construct_ame5_phased(5)
    assert ameslocc.uniformity(phased) == 2
    terms = dict(phased.terms)
    first = next(iter(terms))
    terms[first] = terms[first] * root_of_unity(5, 1)
    changed = ameslocc.SparseState(5, 5, terms, scale2=phased.scale2)
    assert ameslocc.uniformity(changed) < 2
    cert = ameslocc.decide_slocc(phased, s)
    assert (cert.verdict, cert.reason) == ("inequivalent", "lu-invariant"), cert
    perm = (3, 0, 4, 1, 2)
    moved = [ameslocc.SparseState(5, 5, {tuple(row[p] for p in perm): a
                                         for row, a in x.to_sparse().terms.items()}, scale2=n)
             for x, n in ((phased, 125), (s, 25))]
    cert = ameslocc.decide_slocc(moved[1], moved[0])
    assert (cert.verdict, cert.reason) == ("inequivalent", "lu-invariant"), cert
    phased7, linear7 = ameslocc.construct_ame5_phased(7), ameslocc.ame_linear_5(7)
    for pair in ((phased7, linear7), (linear7, phased7)):
        cert = ameslocc.decide_slocc(*pair)
        assert (cert.verdict, cert.reason) == ("inequivalent", "lu-invariant"), cert
    flat = ameslocc.SparseState(5, 5, dict.fromkeys(phased.terms, ameslocc.Amp.one()),
                                scale2=125)
    cert = ameslocc.decide_slocc(flat, s)
    assert (cert.verdict, cert.reason) == ("inequivalent", "different-uniformity"), cert
    wrong = ameslocc.SparseState(5, 5, phased.terms, scale2=250)
    for pair in ((wrong, s), (s, wrong)):
        try:
            ameslocc.decide_slocc(*pair)
        except ameslocc.EquivalenceError:
            pass
        else:
            raise AssertionError("a coset state of the wrong norm was certified")
    fresh = ameslocc.construct_ame5_phased(5)
    cert = ameslocc.decide_slocc(fresh, s)
    assert (cert.verdict, cert.reason) == ("inequivalent", "lu-invariant"), cert
    assert "_integer_reading" not in vars(fresh), "a certified pair read the integer form"
    one = ameslocc.SparseState(3, 2, {(0, 1, 0): ameslocc.Amp.one()}, scale2=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "one.json")
        with open(path, "w") as fh:
            json.dump(one.to_json(), fh)
        assert ameslocc.run_cli(["equiv", "--branch", "lm", "--src", path, "--dst", path]) == 2
""")


def test_package_runs_under_other_installed_pythons():
    """``import ameslocc`` and one ``decide_slocc`` pair under each pyenv
    CPython >= 3.10 but the running one, as pyproject's requires-python
    promises; a name added to the standard library after 3.10 fails here."""
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        pytest.skip("pyenv is not on PATH")
    listed = subprocess.run([pyenv, "versions", "--bare"], capture_output=True,
                            text=True, timeout=60, check=True).stdout.split()
    versions = [v for v in listed if re.fullmatch(r"3\.\d+\.\d+", v)
                and int(v.split(".")[1]) >= 10 and v != platform.python_version()]
    if not versions:
        pytest.skip("pyenv lists no other CPython >= 3.10")
    failed = []
    for version in versions:
        env = dict(os.environ, PYENV_VERSION=version, PYTHONPATH=str(PACKAGE.parent))
        out = subprocess.run([pyenv, "exec", "python", "-c", SMOKE], capture_output=True,
                             text=True, env=env, timeout=300)
        if out.returncode:
            last = (out.stderr.strip().splitlines() or ["exit %d" % out.returncode])[-1]
            failed.append("%s: %s" % (version, last))
    assert not failed, "failed under %s" % "; ".join(failed)
