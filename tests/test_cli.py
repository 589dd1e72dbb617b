import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from burchlab import cli, groebner, linalg, resolution
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
    """`check --route all` asks for m·(I:m) in the definition route of both
    the test and the cross-check; its Groebner basis is computed once."""
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


@pytest.mark.parametrize("gens", ["(x+y)^2000, x*y", "(x+y+z)^120, x", "(x+y)^200000, x*y"])
def test_check_huge_expansion_exit_2(tmp_path, gens):
    """A power whose expansion would be too large is refused before it is
    expanded: the run ends, well inside its timeout, with exit 2."""
    f = tmp_path / "expansion.session"
    f.write_text(f"ring 32003 x y z\nideal I = {gens}\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "burchlab.cli", "check", str(f), "I"],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert done.returncode == EXIT_INPUT
    assert done.stdout == "" and "expands above the limit" in done.stderr and "internal error" not in done.stderr


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
    code, _, err = run_cli(capsys, "corpus", "--only", "zzz")
    assert code == EXIT_INPUT


def test_unexpected_exception_exit_5(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_corpus", broken)
    code, out, err = run_cli(capsys, "corpus")
    assert code == EXIT_INTERNAL == 5
    assert out == "" and err.splitlines() == ["internal error: RuntimeError: boom"]


def test_report_that_breaks_schema_exits_5(monkeypatch, capsys):
    """main emits every report inside its error handling: a --json report
    that fails the schema is an internal error, and nothing is printed."""
    pytest.importorskip("jsonschema")
    monkeypatch.setattr(cli, "REPORT_SCHEMA", {"type": "object", "required": ["absent"]})
    cli._report_validator.cache_clear()
    try:
        code, out, err = run_cli(capsys, "--json", "corpus", "--only", "r8")
    finally:
        cli._report_validator.cache_clear()
    assert code == EXIT_INTERNAL and out == ""
    assert err.startswith("internal error: ValidationError:")


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


def test_resolve_to_length_twelve_eliminates_in_place(monkeypatch, capsys):
    """Every rest block reaches `_eliminate` as int64 and is reduced in
    place, and the length-12 report is the one pinned from the elimination
    that worked on a float64 copy."""
    real = linalg._eliminate
    blocks = []

    def in_place(block, p):
        R, pivots = real(block, p)
        blocks.append((block.dtype == np.int64, R is block))
        return R, pivots

    monkeypatch.setattr(linalg, "_eliminate", in_place)
    code, out, _ = run_cli(capsys, "--json", "resolve", DEMO, "k", "--ring", "I", "--length", "12")
    assert code == EXIT_OK
    assert blocks and all(is_int64 and same for is_int64, same in blocks)
    data = json.loads(out)
    del data["args"]["file"]
    blob = json.dumps(data, sort_keys=True, indent=2).encode()
    assert hashlib.sha256(blob).hexdigest() == "d7da4a4a6ea65e040967043cbaf88765539ee6ab66ad55a72fb6a5dd3d494525"


# -- report schema -----------------------------------------------------------


@pytest.mark.parametrize("key, value", [("timing_s", "x"), ("schema", "2")])
def test_emit_rejects_report_that_breaks_schema(capsys, key, value):
    jsonschema = pytest.importorskip("jsonschema")
    report = cli.Report("check", {})
    report.data[key] = value
    with pytest.raises(jsonschema.ValidationError):
        report.emit(True, None)
    assert capsys.readouterr().out == ""


def test_report_schema_checked_once_per_process(monkeypatch):
    """The schema is checked when the validator is built, not per report;
    an invalid schema still fails."""
    jsonschema = pytest.importorskip("jsonschema")
    cls = jsonschema.validators.validator_for(cli.REPORT_SCHEMA)
    real = cls.check_schema
    calls = []
    monkeypatch.setattr(cls, "check_schema", lambda schema: calls.append(1) or real(schema))
    cli._report_validator.cache_clear()
    for _ in range(3):
        cli.Report("check", {}).emit(True, 0.5)
    assert len(calls) == 1
    monkeypatch.setattr(cli, "REPORT_SCHEMA", {"type": 5})
    cli._report_validator.cache_clear()
    with pytest.raises(jsonschema.SchemaError):
        cli.Report("check", {}).emit(True, None)
