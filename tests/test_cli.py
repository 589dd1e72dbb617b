import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from burchlab import burch, cli, groebner, linalg, resolution
from burchlab.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_PRECONDITION, main, parse_session

SESSION = """\
# demo ring
ring 32003 x y
ideal I = x^4, x^2*y^2, y^4
ideal B = x^2, x*y, y^2
ideal HY = x^3, y
module M = cyclic B
"""


@pytest.fixture()
def session_file(tmp_path):
    path = tmp_path / "demo.session"
    path.write_text(SESSION)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- session parsing -----------------------------------------------------------


def test_parse_session_names(session_file):
    s = parse_session(session_file)
    assert set(s.ideals) == {"I", "B", "HY"}
    assert s.modules == {"M": "B"}
    assert s.ctx.p == 32003 and s.ctx.variables == ("x", "y")


def test_parse_session_modulus_override(session_file):
    s = parse_session(session_file, modulus=101)
    assert s.ctx.p == 101


def test_session_rejects_duplicate_ring(tmp_path):
    f = tmp_path / "bad.session"
    f.write_text("ring 7 x\nring 7 y\n")
    with pytest.raises(Exception):
        parse_session(str(f))


def test_session_rejects_constant_term(tmp_path):
    f = tmp_path / "bad.session"
    f.write_text("ring 7 x\nideal I = x + 1\n")
    with pytest.raises(Exception):
        parse_session(str(f))


def test_session_rejects_unknown_directive(tmp_path):
    f = tmp_path / "bad.session"
    f.write_text("ring 7 x\nfrobnicate I\n")
    with pytest.raises(Exception):
        parse_session(str(f))


# -- subcommands -----------------------------------------------------------------


def test_check_not_burch(session_file, capsys):
    code, out, _ = run_cli(capsys, "check", session_file, "I")
    assert code == EXIT_OK
    assert "burch=False" in out


def test_check_burch_with_witness(session_file, capsys):
    code, out, _ = run_cli(capsys, "check", session_file, "B")
    assert code == EXIT_OK
    assert "burch=True" in out and "witness" in out


def test_check_all_routes(session_file, capsys):
    code, out, _ = run_cli(capsys, "check", session_file, "I", "--route", "all")
    assert code == EXIT_OK
    assert out.count("route") >= 4


@pytest.mark.parametrize("name", ["I", "B"])
def test_check_all_routes_builds_one_basis_of_m_times_colon(session_file, capsys, monkeypatch, name):
    """`check --route all` asks for m·(I:m) only in the definition route of
    the cross-check, whose (I:m) is the elimination oracle; the ideal test
    reads its verdict off the residues of x_v·(I:m) modulo mI and builds
    no such basis, so its Groebner basis is computed once."""
    from burchlab import groebner

    I = parse_session(session_file).ideal(name)
    m = groebner.max_ideal(I.ctx)
    mJ = m.product(groebner.ideal_colon(I, m)).gens
    inputs = []
    real = groebner.reduced_groebner

    def recording(gens, ctx):
        inputs.append(tuple(gens))
        return real(gens, ctx)

    monkeypatch.setattr(groebner, "reduced_groebner", recording)
    code, out, _ = run_cli(capsys, "check", session_file, name, "--route", "all")
    assert code == EXIT_OK and "route definition" in out
    assert inputs.count(mJ) == 1


def test_invariants_run_no_buchberger_for_m_squared_times_the_ideal(tmp_path, capsys, monkeypatch):
    """μ(m·I) is read off the Koszul complex of S/mI, so no command takes
    the product of m with m·I.  For I = (x², y², z², q) with q a generic
    quadric, m²I has generators that are not monomials, yet `invariants`
    runs `buchberger` only for I and m·I, as it does on the query ideal;
    `check --route all` takes no m·(m·I) either."""
    quadric = "ring 32003 x y z\nideal I = x^2, y^2, z^2, 3*x*y + 5*x*z + 7*y*z\n"
    real_buchberger, real_product = groebner.buchberger, groebner.max_ideal_product
    for text in (quadric, QUERY_SESSION):
        f = tmp_path / "s.session"
        f.write_text(text)
        I = parse_session(str(f)).ideal("I")
        mI = groebner.max_ideal_product(I)
        if text == quadric:
            assert any(len(g.terms) > 1 for g in groebner.max_ideal_product(mI).gens)
        for command in (["invariants"], ["check", "--route", "all"]):
            runs, products = [], []

            def recording(gens, ctx, bases=()):
                runs.append((ctx, gens))
                return real_buchberger(gens, ctx, bases)

            def product(J):
                products.append(J.gens)
                return real_product(J)

            monkeypatch.setattr(groebner, "buchberger", recording)
            monkeypatch.setattr(groebner, "max_ideal_product", product)
            monkeypatch.setattr(burch, "max_ideal_product", product)
            code, _, _ = run_cli(capsys, command[0], str(f), "I", *command[1:])
            monkeypatch.undo()
            assert code == EXIT_OK
            assert I.gens in products and mI.gens not in products
            if command == ["invariants"]:
                assert all(ctx == I.ctx for ctx, _ in runs)
                built = [groebner.Ideal.make(ctx, gens) for ctx, gens in runs]
                assert I in built and mI in built and all(J in (I, mI) for J in built)


@pytest.mark.parametrize("name", ["I", "B"])
def test_check_all_routes_builds_one_algebra_of_the_ideal(session_file, capsys, monkeypatch, name):
    """`check --route all` asks for S/I in the invariant table and in the
    cross-check; it is built once."""
    from burchlab import artinian

    I = parse_session(session_file).ideal(name)
    built = []
    real = artinian.QuotientAlgebra.__init__

    def recording(self, ideal):
        built.append(ideal.gens)
        real(self, ideal)

    monkeypatch.setattr(artinian.QuotientAlgebra, "__init__", recording)
    code, out, _ = run_cli(capsys, "check", session_file, name, "--route", "all")
    assert code == EXIT_OK and "route definition" in out
    assert built.count(I.gens) == 1


def test_check_unknown_ideal_exit_2(session_file, capsys):
    code, _, err = run_cli(capsys, "check", session_file, "NOPE")
    assert code == EXIT_INPUT and "NOPE" in err


def test_check_parse_error_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.session"
    f.write_text("ring 32003 x\nideal I = x^^2\n")
    code, _, err = run_cli(capsys, "check", str(f), "I")
    assert code == EXIT_INPUT


def test_check_huge_exponent_exit_2(tmp_path, capsys):
    f = tmp_path / "huge.session"
    f.write_text("ring 32003 x y\nideal I = x^100000000000000000000, y\n")
    code, out, err = run_cli(capsys, "check", str(f), "I")
    assert code == EXIT_INPUT
    assert out == "" and "exponent above the limit" in err and "internal error" not in err


@pytest.mark.parametrize("gens", ["(x^10000000)^10000000, y", "x^10000000*x^10000000, y"])
def test_check_result_exponent_above_limit_exit_2(tmp_path, capsys, gens):
    """A power or product whose result would hold an exponent above the
    parser's limit is refused before it is expanded: exit 2, where it used
    to end in an internal MemoryError (exit 5)."""
    f = tmp_path / "huge.session"
    f.write_text(f"ring 32003 x y\nideal I = {gens}\n")
    code, out, err = run_cli(capsys, "check", str(f), "I")
    assert code == EXIT_INPUT
    assert out == "" and "exponent above the limit" in err and "internal error" not in err


def run_cli_process(*argv, timeout):
    """The CLI in a fresh interpreter, killed past `timeout` seconds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "burchlab.cli", *argv], capture_output=True, text=True, timeout=timeout, env=env
    )


@pytest.mark.parametrize("gens", ["(x+y)^2000, x*y", "(x+y+z)^120, x", "(x+y)^200000, x*y"])
def test_check_huge_expansion_exit_2(tmp_path, gens):
    """A power whose expansion would be too large is refused before it is
    expanded: the run ends, well inside its timeout, with exit 2."""
    f = tmp_path / "expansion.session"
    f.write_text(f"ring 32003 x y z\nideal I = {gens}\n")
    done = run_cli_process("check", str(f), "I", timeout=10)
    assert done.returncode == EXIT_INPUT
    assert done.stdout == "" and "expands above the limit" in done.stderr and "internal error" not in done.stderr


def test_check_long_quotient_exit_3(tmp_path):
    """S/I of length 10^7 is refused once its staircase passes
    groebner.MAX_LENGTH, not listed: the run ends, well inside its
    timeout, with exit 3."""
    f = tmp_path / "long.session"
    f.write_text("ring 32003 x y\nideal I = x^10000000, y\n")
    done = run_cli_process("check", str(f), "I", timeout=15)
    assert done.returncode == EXIT_PRECONDITION
    assert done.stdout == "" and f"limit of {groebner.MAX_LENGTH}" in done.stderr


def test_check_long_built_quotient_names_its_ideal(tmp_path, capsys):
    """S/I of length 4095 is within groebner.MAX_LENGTH, but S/mI, of
    length 4097, which `check` builds for μ(I) and μ(m·I), is not: exit 3,
    and the message names m·I by its generators."""
    f = tmp_path / "long.session"
    f.write_text("ring 32003 x y\nideal I = x^4095, y\n")
    code, out, err = run_cli(capsys, "check", str(f), "I")
    assert code == EXIT_PRECONDITION and out == ""
    assert f"limit of {groebner.MAX_LENGTH}, J = (x^4096, x*y, x^4095*y, y^2)" in err


def test_check_eight_variables(tmp_path):
    """The colon in 8 variables eliminates in a ninth, t: every route runs
    and agrees."""
    f = tmp_path / "eight.session"
    f.write_text("ring 32003 a b c d e f g h\nideal I = a^2, b^2, c^2, d^2, e^2, f^2, g^2, h^2\n")
    done = run_cli_process("--json", "check", str(f), "I", "--route", "all", timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    report = json.loads(done.stdout)
    assert report["verdicts"]["routes_agree"] and not report["verdicts"]["burch"]
    assert report["invariants"]["length"] == 256
    assert report["invariants"]["hilbert"] == [1, 8, 28, 56, 70, 56, 28, 8, 1]


def test_nine_variable_session_exit_2(tmp_path, capsys):
    f = tmp_path / "nine.session"
    f.write_text("ring 32003 a b c d e f g h i\nideal I = a^2, b\n")
    code, out, err = run_cli(capsys, "check", str(f), "I")
    assert code == EXIT_INPUT
    assert out == "" and "need 1..8 variables" in err


def test_invariants_table(session_file, capsys):
    code, out, _ = run_cli(capsys, "invariants", session_file, "I")
    assert code == EXIT_OK
    assert "length = 12" in out


def test_resolve_betti_and_summands(session_file, capsys):
    code, out, _ = run_cli(capsys, "resolve", session_file, "k", "--length", "3", "--ring", "I")
    assert code == EXIT_OK
    assert "betti: [1, 2, 4, 8]" in out
    assert "k | omega^2: False" in out
    assert "k | omega^3: True" in out


def test_resolve_free_module(session_file, capsys):
    # R over itself: all higher betti vanish
    code, out, _ = run_cli(capsys, "resolve", session_file, "I", "--length", "2", "--ring", "I")
    assert code == EXIT_OK
    assert "betti: [1, 0, 0]" in out


def test_resolve_length_defaults_to_six(capsys):
    code, out, _ = run_cli(capsys, "--json", "resolve", DEMO, "k", "--ring", "I")
    assert code == EXIT_OK
    assert len(json.loads(out)["invariants"]["entry_ideals"]) == 6
    assert run_cli(capsys, "--json", "resolve", DEMO, "k", "--ring", "I", "--length", "6")[1] == out


def test_resolve_negative_length_exit_3(capsys):
    code, out, err = run_cli(capsys, "resolve", DEMO, "k", "--ring", "I", "--length", "-1")
    assert code == EXIT_PRECONDITION
    assert out == "" and err.splitlines() == ["precondition failed: resolution length must be >= 0"]
    code, out, _ = run_cli(capsys, "resolve", DEMO, "k", "--ring", "I", "--length", "0")
    assert code == EXIT_OK and out.splitlines() == ["betti: [1]"]


def test_max_length_flag_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--max-length", "3", "resolve", DEMO, "k"])
    assert exc.value.code == EXIT_INPUT


def test_main_builds_one_parser(monkeypatch, session_file, capsys):
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    assert run_cli(capsys, "check", session_file, "I")[0] == EXIT_OK
    assert run_cli(capsys, "invariants", session_file, "I")[0] == EXIT_OK
    assert built.count("burch") == 1


def test_resolve_non_artinian_exit_3(tmp_path, capsys):
    f = tmp_path / "pos.session"
    f.write_text("ring 32003 x y\nideal I = x^2\n")
    code, _, err = run_cli(capsys, "resolve", str(f), "k", "--ring", "I")
    assert code == EXIT_PRECONDITION


NON_LOCAL = """\
ring 32003 x y
ideal J = x^2 - x, y
ideal K = x^3 - x^2, y^2, x*y
"""


@pytest.fixture()
def no_elimination(monkeypatch):
    """Fail any elimination (every colon and intersection goes through
    ideal_intersection)."""

    def refuse(*args):
        raise AssertionError("elimination started")

    monkeypatch.setattr(groebner, "ideal_intersection", refuse)


def test_check_non_local_exit_3(tmp_path, capsys, no_elimination):
    """S/J = k[x]/(x^2 - x) has finite length but two maximal ideals: check
    and invariants refuse it before any elimination."""
    f = tmp_path / "nonlocal.session"
    f.write_text(NON_LOCAL)
    for argv in (("check", str(f), "J"), ("check", str(f), "J", "--route", "all"), ("invariants", str(f), "J")):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_PRECONDITION and "not local" in err


def test_resolve_non_local_exit_3(tmp_path, capsys, no_elimination):
    """S/K = k[x,y]/(x,y)^2 × k is not local: resolve refuses it instead of
    printing Betti numbers, and check refuses K too."""
    f = tmp_path / "nonlocal.session"
    f.write_text(NON_LOCAL)
    code, out, _ = run_cli(capsys, "resolve", str(f), "k", "--ring", "K", "--length", "3")
    assert code == EXIT_PRECONDITION and "betti" not in out
    assert run_cli(capsys, "check", str(f), "K")[0] == EXIT_PRECONDITION


QUERY_SESSION = """\
ring 32003 x y z
ideal I = x^3, y^2, z^3, 3*x^2 + 5*x*y + 7*x*z + 11*y^2 + 13*y*z + 17*z^2
"""


@pytest.mark.parametrize(
    "text, name",
    [(SESSION, "I"), (SESSION, "B"), (SESSION, "HY"), (QUERY_SESSION, "I")],
    ids=["I", "B", "HY", "query"],
)
def test_invariants_run_no_elimination_on_m_primary_input(tmp_path, capsys, monkeypatch, no_elimination, text, name):
    """`invariants` reads (I : m) off the socle of S/I: on an m-primary
    ideal it runs no elimination and takes no product m·(I : m)."""
    from burchlab import artinian, burch

    f = tmp_path / "s.session"
    f.write_text(text)
    products = []
    real = burch.max_ideal_product
    monkeypatch.setattr(burch, "max_ideal_product", lambda I: products.append(I.groebner()) or real(I))
    assert run_cli(capsys, "invariants", str(f), name)[0] == EXIT_OK
    I = parse_session(str(f)).ideal(name)
    assert I.groebner() in products
    assert artinian.quotient_algebra(I).socle_colon.groebner() not in products


@pytest.mark.parametrize(
    "text, name", [(SESSION, "I"), (SESSION, "B"), (QUERY_SESSION, "I")], ids=["I", "B", "query"]
)
def test_check_all_routes_eliminates_once_per_variable(tmp_path, capsys, monkeypatch, text, name):
    """`check --route all` eliminates (I : m) once, in the cross-check, by
    a chain of n steps: n calls to `ideal_intersection` in n variables."""
    f = tmp_path / "s.session"
    f.write_text(text)
    calls = []
    real = groebner.ideal_intersection
    monkeypatch.setattr(groebner, "ideal_intersection", lambda I, J: calls.append(1) or real(I, J))
    assert run_cli(capsys, "check", str(f), name, "--route", "all")[0] == EXIT_OK
    assert len(calls) == parse_session(str(f)).ctx.nvars


@pytest.mark.parametrize(
    "text, name, command",
    [
        (SESSION, "I", "invariants"),
        (SESSION, "HY", "invariants"),
        (QUERY_SESSION, "I", "invariants"),
        (SESSION, "I", "check"),
        (SESSION, "HY", "check"),
        (QUERY_SESSION, "I", "check"),
    ],
    ids=["invariants-I", "invariants-HY", "invariants-query", "check-I", "check-HY", "check-query"],
)
def test_commands_build_no_algebra_of_the_socle_quotient(tmp_path, capsys, monkeypatch, text, name, command):
    """c_R is read off R alone: `invariants` and `check --route all` on an
    m-primary ideal build exactly S/I and S/mI, the algebra that μ(m·I) and
    the colon-shift route read, with no algebra R/Soc R."""
    from burchlab import artinian

    f = tmp_path / "s.session"
    f.write_text(text)
    built = []
    real = artinian.QuotientAlgebra.__init__
    monkeypatch.setattr(artinian.QuotientAlgebra, "__init__", lambda self, I: built.append(I) or real(self, I))
    argv = [command, str(f), name] + (["--route", "all"] if command == "check" else [])
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    monkeypatch.undo()
    I = parse_session(str(f)).ideal(name)
    assert [J.gens for J in built] == [I.gens, groebner.max_ideal_product(I).gens]


def test_syzygy_summand_witness(session_file, capsys):
    code, out, _ = run_cli(
        capsys, "syzygy-summand", session_file, "k", "--index", "3", "--ring", "I"
    )
    assert code == EXIT_OK
    assert "True" in out and "x^3*y" in out


def test_tor_table(session_file, capsys):
    code, out, _ = run_cli(
        capsys, "tor", session_file, "k", "k", "--max-index", "2", "--ring", "B"
    )
    assert code == EXIT_OK
    assert "tor_0 = 1" in out and "tor_1 = 2" in out and "tor_2 = 4" in out


def test_tor_negative_index_exit_3(session_file, capsys):
    code, out, err = run_cli(capsys, "tor", session_file, "k", "k", "--max-index", "-1", "--ring", "B")
    assert code == EXIT_PRECONDITION
    assert out == "" and err.splitlines() == ["precondition failed: Tor index must be >= 0"]


def test_mfull_witness(session_file, capsys):
    code, out, _ = run_cli(capsys, "mfull", session_file, "B", "--trials", "2")
    assert code == EXIT_OK
    assert "yes" in out


def test_cut_command(tmp_path, capsys):
    f = tmp_path / "det.session"
    f.write_text(
        "ring 32003 x y z\nideal D = x^2*z^2 - y^2, x^4 - y*z^2, x^2*y - z^4\n"
    )
    code, out, _ = run_cli(capsys, "cut", str(f), "D", "--by", "x")
    assert code == EXIT_OK
    assert "quotient Burch (this cut only): True" in out
    code, out, _ = run_cli(capsys, "cut", str(f), "D", "--by", "y")
    assert "quotient Burch (this cut only): False" in out


def test_cut_nonregular_exit_3(tmp_path, capsys):
    f = tmp_path / "zd.session"
    f.write_text("ring 32003 x y\nideal I = x*y\n")
    code, _, err = run_cli(capsys, "cut", str(f), "I", "--by", "x")
    assert code == EXIT_PRECONDITION


def test_fibre_command(tmp_path, capsys):
    left = tmp_path / "l.session"
    left.write_text("ring 32003 x\nideal A = x^2\n")
    right = tmp_path / "r.session"
    right.write_text("ring 32003 y\nideal B = y^3\n")
    code, out, _ = run_cli(capsys, "fibre", str(left), "A", str(right), "B")
    assert code == EXIT_OK
    assert "fibre product Burch: True" in out


def test_fibre_variable_clash_exit_3(tmp_path, capsys):
    # two sessions in the same variables cannot be glued on disjoint variables
    for name in ("l", "r"):
        (tmp_path / f"{name}.session").write_text("ring 32003 x y\nideal A = x^2, y^2\n")
    code, out, err = run_cli(capsys, "fibre", str(tmp_path / "l.session"), "A", str(tmp_path / "r.session"), "A")
    assert code == EXIT_PRECONDITION
    assert out == "" and "share variable names" in err


def test_sweep_ok(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--max-socle-degree", "2")
    assert code == EXIT_OK
    assert "13 ideals, 0 counterexamples" in out


def test_sweep_unknown_check(capsys):
    code, _, err = run_cli(capsys, "sweep", "--checks", "bogus")
    assert code == EXIT_INPUT


def test_sweep_bound_too_large(capsys):
    code, _, err = run_cli(capsys, "sweep", "--max-socle-degree", "9")
    assert code == EXIT_PRECONDITION
    assert "4861" in err


def test_corpus_all(capsys):
    code, out, _ = run_cli(capsys, "corpus")
    assert code == EXIT_OK
    assert "all passed" in out


def test_corpus_only_entry(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--only", "r8")
    assert code == EXIT_OK
    assert "PASS r8" in out


def test_corpus_unknown_entry(capsys):
    code, out, err = run_cli(capsys, "corpus", "--only", "zzz")
    assert code == EXIT_INPUT
    assert out == "" and err.splitlines() == ["input error: no corpus entry named 'zzz'"]


def test_internal_key_error_exit_5(monkeypatch, capsys):
    """A KeyError from inside a command is a bug, not an input error."""

    def broken(args):
        return {}["missing"]

    monkeypatch.setattr(cli, "cmd_corpus", broken)
    code, out, err = run_cli(capsys, "corpus")
    assert code == EXIT_INTERNAL
    assert out == "" and err.splitlines() == ["internal error: KeyError: 'missing'"]


def test_unexpected_exception_exit_5(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_corpus", broken)
    code, out, err = run_cli(capsys, "corpus")
    assert code == EXIT_INTERNAL == 5
    assert out == "" and err.splitlines() == ["internal error: RuntimeError: boom"]


def test_corpus_alternate_modulus(capsys):
    code, out, _ = run_cli(capsys, "--modulus", "101", "corpus", "--only", "r8")
    assert code == EXIT_OK and "PASS r8" in out


@pytest.mark.parametrize("modulus", ["2147483647"])
def test_modulus_beyond_exact_arithmetic_exit_3(modulus, capsys):
    # 2^31 - 1 is refused up front, before any work
    code, out, err = run_cli(capsys, "--modulus", modulus, "corpus")
    assert code == EXIT_PRECONDITION
    assert out == "" and len(err.splitlines()) == 1 and "2^53" in err


def test_largest_accepted_modulus_runs_every_command(capsys):
    """94906249 is the largest prime with p^2 < 2^53: every product is exact
    there at every size, so no command stops once work has started."""
    code, out, err = run_cli(capsys, "--modulus", "94906249", "corpus")
    assert code == EXIT_OK and "all passed" in out and err == ""
    for argv in (
        ("check", DEMO, "I", "--route", "all"),
        ("invariants", DEMO, "I"),
        ("resolve", DEMO, "k", "--length", "6"),
        ("tor", DEMO, "M", "k"),
    ):
        code, _, err = run_cli(capsys, "--modulus", "94906249", *argv)
        assert code == EXIT_OK and err == "", argv


def test_sweep_report_is_characteristic_independent(capsys):
    """The verdict table of the monomial sweep does not depend on the prime:
    the same --json report at p = 2, 32003 and 94906249."""
    reports = set()
    for modulus in ("2", "32003", "94906249"):
        code, out, _ = run_cli(capsys, "--modulus", modulus, "--json", "sweep", "--max-socle-degree", "4")
        assert code == EXIT_OK
        reports.add(out)
    assert len(reports) == 1


def test_session_modulus_beyond_exact_arithmetic_exit_3(tmp_path, capsys):
    path = tmp_path / "big.session"
    path.write_text("ring 2147483647 x y\nideal I = x^2, y^2\n")
    code, _, err = run_cli(capsys, "check", str(path), "I")
    assert code == EXIT_PRECONDITION and "2^53" in err


# -- JSON reports ------------------------------------------------------------------


def test_json_report_schema_and_determinism(session_file, capsys):
    code, out1, _ = run_cli(capsys, "--json", "check", session_file, "I")
    assert code == EXIT_OK
    data = json.loads(out1)
    assert data["schema"] == "1"
    assert data["verdicts"]["burch"] is False
    assert data["timing_s"] is None
    code, out2, _ = run_cli(capsys, "--json", "check", session_file, "I")
    assert out1 == out2  # byte-identical for fixed seed and flags


def test_json_witnesses_reparse(session_file, capsys):
    from burchlab.poly import RingContext, parse_polynomial

    code, out, _ = run_cli(capsys, "--json", "check", session_file, "B")
    data = json.loads(out)
    w = data["witnesses"]["product"]
    ctx = RingContext(32003, ("x", "y"))
    assert not parse_polynomial(w, ctx).is_zero


def test_json_resolve_report(session_file, capsys):
    code, out, _ = run_cli(
        capsys, "--json", "resolve", session_file, "k", "--length", "2", "--ring", "B"
    )
    data = json.loads(out)
    assert data["verdicts"]["betti"] == [1, 2, 4]
    assert data["verdicts"]["k_summand_by_index"]["2"] is True


DEMO = str(Path(__file__).resolve().parents[1] / "scripts" / "sessions" / "demo.session")

# SHA-256 of each --json report on the demo session, with args.file removed
# and re-serialized as the CLI does; pinned so that a refactor of the
# algebra, module and resolution layers cannot change a report silently
JSON_REPORT_SHA256 = {
    ("check", DEMO, "I", "--route", "all"): "77b32b476b38fe5cc57439553e1b94e63392250771bf6aa71c08b5a7c5f30b14",
    ("invariants", DEMO, "I"): "83298d7b6b246e9829409df71e64ac5d82a80ac97d8ee1bae7867d0d7edceeac",
    ("resolve", DEMO, "k", "--length", "6"): "729ce0874e8c2b5b01cafbe632ca7c3306c324976391c8e2a21dc158f0c2d660",
    ("syzygy-summand", DEMO, "k", "--index", "3"): "0fdcc8c0fd23cc8c274ba7027311274f17031df4e40fc189cb6a83d14c293925",
    ("tor", DEMO, "M", "k"): "e87465a23c310789f36fbbe29f644417e96c814f47ffe4c2646f019ac3c04b53",
}


@pytest.mark.parametrize("argv", list(JSON_REPORT_SHA256), ids=lambda argv: argv[0])
def test_json_report_matches_pinned_digest(argv, capsys):
    code, out, _ = run_cli(capsys, "--json", *argv)
    assert code == EXIT_OK
    data = json.loads(out)
    del data["args"]["file"]
    blob = json.dumps(data, sort_keys=True, indent=2).encode()
    assert hashlib.sha256(blob).hexdigest() == JSON_REPORT_SHA256[argv]


# Non-homogeneous m-primary ideals of k[x,y,z]: x^a, y^b, z^c (a, b, c in
# {2, 3, 4}) plus one or two forms of 3-6 terms of mixed degree 2-4 with
# coefficients drawn once from random.Random("nonhomogeneous pins").  Each row
# is (generators, SHA-256 of the `check --route all` report, SHA-256 of the
# `invariants` report), with args.file removed as above, recorded before m·I
# took its basis from I's reduced basis
NONHOMOGENEOUS_REPORT_SHA256 = [
    (
        "x^3, y^4, z^3, 17915*x*z^2 + 27747*y^2*z + 22500*x*y^2*z + 5005*x*y^3, 21497*x*y + 14484*z^2 + 8871*x^2*y^2 + 2949*x*y^2*z",
        "dd07f360975443a2ea2e57a6694d47db96276a30dd89a3b8691b705410ff9db9",
        "37dc23e79e8a6a25a65f7a40b98a9396008eb7ebb94e997b408ae8cd4e1d89ca",
    ),
    (
        "x^4, y^4, z^4, 31917*x^2*z + 2116*x^3*y + 24517*y^2*z^2, 23336*x*y + 30060*x*z + 19109*x^2 + 1693*x*z^2 + 11352*x*y*z^2 + 3644*y^2*z^2",
        "c6067753e717c8f86bf9a2621d7d905973aba9e9bd280f72167df03750466ad9",
        "f2311bd041169b2e7a5b0660320de99b9ba4f3f72dcbb60fbe981afd21038b32",
    ),
    (
        "x^3, y^2, z^2, 15077*x*z + 2048*x*y*z + 29292*y^3*z + 22165*x^2*y*z + 22565*x^2*z^2",
        "bad626987c58f339313648adaabb32aa9f1b2086ff2555c00c1432a1a409ec28",
        "e2b3956f0c4d3967ca5a90445ae50bac68ece6bcd0f2da3e41a1f196180c3926",
    ),
    (
        "x^4, y^4, z^4, 13130*x*z^2 + 26618*x^2*z + 26269*y^3*z",
        "eb2d9f9c32c064a0ce22e85894fe639f7035feb7e53f4079ea8b31713ae97c66",
        "0dd6a21a33a76ccd0d207673e9930a7dc523513128994354341e7dc4bb1ea2d4",
    ),
    (
        "x^4, y^2, z^4, 30537*x^2 + 29860*y*z + 31305*x*y^2 + 9425*y^2*z^2, 19617*x*z^2 + 25731*x^2*z + 16464*y^3 + 1091*x^2*y*z",
        "8e38c9e5749f0dafdb3b86355feeb9372d2d2f299993d112a451a8df9e314700",
        "800313828ac3b79a02bec3ed4a31e34137ec10b437106cc7f9f21615deac85fe",
    ),
    (
        "x^4, y^4, z^3, 530*z^2 + 10699*x^2 + 9765*y*z + 14322*x^3 + 20144*z^3 + 25291*z^4, 24605*x^2 + 132*y*z^2 + 10468*x*y*z + 2929*z^4",
        "7fcaf4f18ce6242d1217a3354d72373f6813fe8b4169bb4d006ec87c8e03032f",
        "2ead886f1f57e1cd29d9a8742ce41b4ca13dce3707d12d5c7148535e576b2c7d",
    ),
    (
        "x^3, y^3, z^3, 15367*z^2 + 26161*x^2*y + 30076*x*y*z + 8954*x*z^2 + 12631*x^4, 21032*y^2 + 22507*x^2*z + 12248*x*y^2 + 7632*x*y^2*z + 18512*x*y*z^2",
        "74b8dd8cf69344e05ce90bc0d374fedb165cf8924adfee5b403563c186f3b29b",
        "34dcc9ee3c10a43e88ea7e0ca9b1e709148f6f0c39330ef31c0d600ce96a4579",
    ),
    (
        "x^4, y^4, z^3, 19678*x*y + 23619*x*z^2 + 10896*x*y^3 + 10886*x*y*z^2 + 26926*x^3*y + 24088*y^3*z",
        "f96c0ef7c185389bc921dc007bab506a2841c321c8aefeef623820fae6129a8e",
        "b85e6ff5b0414d7f236a6843cc7d089f403f8cbe6e832ded4ab46c3a0a4dfe60",
    ),
    (
        "x^3, y^3, z^2, 9624*x*y + 27821*x*z^2 + 31378*x^2*y*z + 30011*x*y*z^2",
        "9fdf6ef1173b590ce909724d196101ac7597d854b4f7ed5694b925a9aebdf2e3",
        "61f06c5634c6b1e92ef23cf7a1f2763136e405678e903c8d3fe5ad60410e6603",
    ),
    (
        "x^2, y^4, z^2, 12962*y^2 + 23427*y*z + 9649*x*y^2 + 13275*x^3 + 4581*x^3*z, 22458*x^2*z + 7355*x*z^2 + 7070*x^3*z + 11378*x^3*y + 16273*y^4",
        "70a21a681d45e8d4609c91df71d6c2c0ed25167f16ef80b6d71a96b5182d5536",
        "6e01d2068d2c4c51a7d09d402aa1754da55b7638cc55e1eeb3b7f3486b9d5841",
    ),
    (
        "x^2, y^2, z^2, 30461*y^2 + 30767*x^2 + 20813*x^2*z + 18741*y^3 + 2906*x^4",
        "70a21a681d45e8d4609c91df71d6c2c0ed25167f16ef80b6d71a96b5182d5536",
        "6e01d2068d2c4c51a7d09d402aa1754da55b7638cc55e1eeb3b7f3486b9d5841",
    ),
    (
        "x^2, y^3, z^2, 11279*x^4 + 19733*x^2*y^2 + 25258*z^4, 26979*x*y^2 + 14909*y^2*z + 25304*x^2*y^2",
        "9fdf6ef1173b590ce909724d196101ac7597d854b4f7ed5694b925a9aebdf2e3",
        "61f06c5634c6b1e92ef23cf7a1f2763136e405678e903c8d3fe5ad60410e6603",
    ),
]


@pytest.mark.parametrize(
    "gens, check_sha, invariants_sha",
    NONHOMOGENEOUS_REPORT_SHA256,
    ids=[f"ideal{i}" for i in range(len(NONHOMOGENEOUS_REPORT_SHA256))],
)
def test_nonhomogeneous_json_reports_match_pinned_digests(tmp_path, capsys, gens, check_sha, invariants_sha):
    f = tmp_path / "nonhomogeneous.session"
    f.write_text(f"ring 32003 x y z\nideal I = {gens}\n")
    commands = (("check", str(f), "I", "--route", "all"), check_sha), (("invariants", str(f), "I"), invariants_sha)
    for argv, pinned in commands:
        code, out, _ = run_cli(capsys, "--json", *argv)
        assert code == EXIT_OK
        data = json.loads(out)
        del data["args"]["file"]
        assert hashlib.sha256(json.dumps(data, sort_keys=True, indent=2).encode()).hexdigest() == pinned


def test_resolve_to_length_ten_builds_no_dense_differential(monkeypatch, capsys):
    """`resolve` reads every ∂_i in its Triples form: with the dense view
    refused, the length-10 report is the one pinned from the dense code."""

    def refuse(*args):
        raise AssertionError("dense differential built")

    monkeypatch.setattr(resolution, "_dense_entries", refuse)
    code, out, _ = run_cli(capsys, "--json", "resolve", DEMO, "k", "--ring", "I", "--length", "10")
    assert code == EXIT_OK
    data = json.loads(out)
    del data["args"]["file"]
    blob = json.dumps(data, sort_keys=True, indent=2).encode()
    assert hashlib.sha256(blob).hexdigest().startswith("48b9972e")


def _largest_component(rows, cols):
    """The most rows plus columns in one connected component of the
    row/column graph of the given entries, by union-find."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r, c in zip(rows, cols):
        parent[find(("row", r))] = find(("col", c))
    sizes = {}
    for x in parent:
        root = find(x)
        sizes[root] = sizes.get(root, 0) + 1
    return max(sizes.values(), default=0)


def test_resolve_to_length_twelve_eliminates_small_components(monkeypatch, capsys):
    """At length 12 every elimination runs on row dicts: `_eliminate`, the
    dense kernel, is never called, no component handed to `_eliminate_rows`
    has more than 8 rows plus columns, and the report is the one pinned
    from the dense elimination of the whole rest block."""
    real = linalg._eliminate_rows
    largest = []
    dense = []

    def counted(rows, cols, vals, p):
        largest.append(_largest_component(rows, cols))
        return real(rows, cols, vals, p)

    monkeypatch.setattr(linalg, "_eliminate_rows", counted)
    monkeypatch.setattr(linalg, "_eliminate", lambda R, p: dense.append(R.shape))
    code, out, _ = run_cli(capsys, "--json", "resolve", DEMO, "k", "--ring", "I", "--length", "12")
    assert code == EXIT_OK
    assert largest and max(largest) <= 8 and not dense
    data = json.loads(out)
    del data["args"]["file"]
    blob = json.dumps(data, sort_keys=True, indent=2).encode()
    assert hashlib.sha256(blob).hexdigest() == "d7da4a4a6ea65e040967043cbaf88765539ee6ab66ad55a72fb6a5dd3d494525"


# -- report schema -----------------------------------------------------------


# one run of every command; `cut` needs an element regular on its ideal and
# `fibre` two rings in disjoint variables, which the demo session lacks
EVERY_COMMAND = [
    ("check", DEMO, "I", "--route", "all"),
    ("invariants", DEMO, "I"),
    ("resolve", DEMO, "k"),
    ("syzygy-summand", DEMO, "k", "--index", "3"),
    ("tor", DEMO, "M", "k"),
    ("mfull", DEMO, "socle2"),
    ("cut", "{det}", "D", "--by", "x"),
    ("fibre", "{left}", "A", "{right}", "B"),
    ("sweep", "--max-socle-degree", "2"),
    ("corpus", "--only", "r8"),
]
EXTRA_SESSIONS = {
    "det": "ring 32003 x y z\nideal D = x^2*z^2 - y^2, x^4 - y*z^2, x^2*y - z^4\n",
    "left": "ring 32003 x\nideal A = x^2\n",
    "right": "ring 32003 y\nideal B = y^3\n",
}


def _schema_validator():
    return jsonschema.validators.validator_for(cli.REPORT_SCHEMA)(cli.REPORT_SCHEMA)


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_every_command_report_matches_schema(argv, tmp_path, capsys):
    """The --json report of each command validates against REPORT_SCHEMA
    under jsonschema."""
    paths = {}
    for name, text in EXTRA_SESSIONS.items():
        paths[name] = tmp_path / f"{name}.session"
        paths[name].write_text(text)
    code, out, err = run_cli(capsys, "--json", *(arg.format(**paths) for arg in argv))
    assert code == EXIT_OK and err == ""
    data = json.loads(out)
    _schema_validator().validate(data)
    assert data["command"] == argv[0] and data["verdicts"]


def test_report_has_exactly_the_schema_keys():
    """A fresh report holds every property of REPORT_SCHEMA and nothing
    else, so that a schema edit `Report` does not follow fails here."""
    properties = cli.REPORT_SCHEMA["properties"]
    report = cli.Report("x", {})
    assert set(report.data) == set(properties)
    assert set(cli.REPORT_SCHEMA["required"]) <= set(properties)
    validator = _schema_validator()
    validator.validate(report.data)
    report.emit(False, 0.25)
    assert report.data["timing_s"] == 0.25
    validator.validate(report.data)


def test_json_report_does_not_import_jsonschema():
    """A CLI run imports no test-only package (jsonschema, sympy,
    hypothesis) and no scipy, which is not a runtime dependency."""
    code = (
        "import sys\n"
        "from burchlab import cli\n"
        f"assert cli.main(['--json', 'check', {DEMO!r}, 'I', '--route', 'all']) == 0\n"
        "print(sorted(set(sys.modules) & {'jsonschema', 'sympy', 'scipy', 'hypothesis'}), file=sys.stderr)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["verdicts"]["routes_agree"] is True
    assert done.stderr.strip() == "[]"
