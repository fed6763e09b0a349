import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wakimoto import cli, currents, screening
from wakimoto.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFICATION, main, parse_expression, _load
from wakimoto.fields import FieldExpr, beta_kind, gamma_kind
from wakimoto.ope import contract


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ope_e_theta_f_theta(capsys):
    code, out, err = run(capsys, "ope", "--algebra", "B2", "E[theta]", "F[theta]")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["schema"].startswith("wakimoto/ope")
    assert set(data["poles"]) == {"1", "2"}
    assert data["poles"]["2"]["text"] == "k"


def test_ope_gamma_gamma_empty(capsys):
    code, out, err = run(capsys, "ope", "--algebra", "B2", "gamma[1]", "gamma[2]")
    assert code == EXIT_OK
    assert json.loads(out)["poles"] == {}


def test_ope_T_screening(capsys):
    code, out, err = run(capsys, "ope", "--algebra", "B2", "T", "s[1]")
    assert code == EXIT_OK
    data = json.loads(out)
    assert set(data["poles"]) == {"1", "2"}


def test_ope_parse_error(capsys):
    code, out, err = run(capsys, "ope", "--algebra", "B2", "E[nope]", "F[theta]")
    assert code == EXIT_INPUT
    assert "error" in err


def test_ope_bad_fraction_is_input_error(capsys):
    for expr, why in (("1/0", "division by zero"), ("1/x", "denominator")):
        code, out, err = run(capsys, "ope", "--algebra", "B2", expr, "E[1]")
        assert code == EXIT_INPUT
        assert out == ""
        assert err.count("\n") == 1 and why in err


@pytest.mark.parametrize(
    "expr", ["(" * 400 + "E[1]" + ")" * 400, "d(" * 600 + "E[1]" + ")" * 600, "-" * 3000 + "E[1]"],
    ids=["parens", "derivatives", "minus"],
)
def test_ope_deep_nesting_is_input_error(capsys, expr):
    code, out, err = run(capsys, "ope", "--algebra", "B2", "--", expr, "F[1]")
    assert code == EXIT_INPUT and out == ""
    assert err.count("\n") == 1 and "nested deeper than" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "expr, message",
    [
        ("@", "parse error at position 0: '@'"),
        ("E[1", "unexpected end of expression"),
        ("E(1]", "expected '[', found '('"),
        ("E[1]]", "trailing input from token 4: ']'"),
        ("Q[1]", "unknown generator 'Q'"),
    ],
    ids=["bad-character", "unclosed-label", "wrong-bracket", "trailing-input", "unknown-generator"],
)
def test_ope_malformed_expression_is_input_error(capsys, expr, message):
    assert run(capsys, "ope", "--algebra", "B2", "--", expr, "F[1]") == (EXIT_INPUT, "", f"error: {message}\n")


def test_ope_of_the_free_field_tensor_with_itself(capsys):
    """Tfree(z) Tfree(w) has poles at orders 4, 2 and 1; order 4 is c/2, with c = 10k/(k+3) on B2."""
    code, out, err = run(capsys, "ope", "--algebra", "B2", "Tfree", "Tfree")
    assert (code, err) == (EXIT_OK, "")
    poles = json.loads(out)["poles"]
    assert sorted(poles) == ["1", "2", "4"] and poles["4"]["text"] == "(5*k/(k+3))"


def test_ope_text_of_a_regular_product(capsys):
    assert run(capsys, "ope", "--algebra", "B2", "--format", "text", "E[1]", "E[1]") == (EXIT_OK, "regular\n", "")


def test_ope_nesting_within_the_bound_parses():
    cs = _load("B2")
    E, g = parse_expression(cs, "E[1]"), parse_expression(cs, "gamma[1]")
    assert parse_expression(cs, "(" * 50 + "E[1]" + ")" * 50).equals(E)
    assert parse_expression(cs, "-" * 50 + "E[1]").equals(E)
    d50 = parse_expression(cs, "d(" * 50 + "gamma[1]" + ")" * 50)
    for _ in range(50):
        g = g.derivative(cs.rs)
    assert d50.equals(g)


def test_ope_max_order_flag_removed(capsys):
    # the flag never limited the poles; it is gone rather than ignored
    with pytest.raises(SystemExit) as exc:
        main(["ope", "--algebra", "B2", "--max-order", "1", "E[1]", "F[1]"])
    assert exc.value.code == EXIT_INPUT
    code, out, err = run(capsys, "ope", "--algebra", "B2", "--format", "text", "E[1]", "F[1]")
    assert code == EXIT_OK and "pole 2: k" in out


@pytest.mark.parametrize("fmt", ["json", "latex", "text"])
def test_ope_output_does_not_depend_on_the_order_of_summands(capsys, fmt):
    outs = [
        run(capsys, "ope", "--algebra", "A2", "--format", fmt, "F[1]", right)
        for right in ("stilde[1] + stilde[2]", "stilde[2] + stilde[1]")
    ]
    assert outs[0][0] == EXIT_OK and "pole" in outs[0][1]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_ope_prints_level_expanded_poles(capsys, fmt):
    """OSP22 F[1] stilde[1]: (beta[1])^(-t-1) and beta[1] (beta[1])^(-t-2) are
    one power class, so the poles print 2 and 6 terms, not 5 and 18."""
    code, out, err = run(capsys, "ope", "--algebra", "OSP22", "--format", fmt, "F[1]", "stilde[1]")
    assert code == EXIT_OK
    if fmt == "json":
        counts = {q: len(p["terms"]) for q, p in json.loads(out)["poles"].items()}
    else:
        counts = {line[5]: line.count(" V[") for line in out.splitlines()}
    assert counts == {"2": 2, "1": 6}


def test_ope_expression_arithmetic():
    cs = _load("B2")
    e = parse_expression(cs, "2*gamma[1]*beta[1] - d(gamma[1])*1/2")
    g = FieldExpr.prim(gamma_kind(cs.rs, 0), 0)
    b = FieldExpr.prim(beta_kind(cs.rs, 0), 0)
    from fractions import Fraction

    expected = (g * b).scale(2) - FieldExpr.prim(gamma_kind(cs.rs, 0), 0, 1).scale(
        Fraction(1, 2)
    )
    assert e.equals(expected)


def test_verify_a1_all(capsys):
    code, out, err = run(capsys, "verify", "--algebra", "A1", "--suite", "all")
    assert code == EXIT_OK
    data = json.loads(out)
    assert all(v["status"] == "pass" for v in data["suites"].values())


def test_verify_all_runs_every_suite_but_the_negative_control_in_order(capsys):
    code, out, err = run(capsys, "verify", "--algebra", "A1", "--suite", "all", "--format", "text")
    assert code == EXIT_OK
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "jacobi", "realization", "currents", "sugawara", "screening-first", "screening-second"
    ]
    with pytest.raises(cli.InputError, match="unknown suite 'nope'"):
        cli.run_suite(_load("A1"), "nope", None)


def test_verify_a1_all_says_what_the_structure_suites_checked(capsys):
    code, out, err = run(capsys, "verify", "--algebra", "A1", "--suite", "all")
    suites = json.loads(out)["suites"]
    assert suites["jacobi"]["details"] == {"triples": 27, "violations": []}
    assert suites["realization"]["details"] == {"pairs": 9, "violations": []}


def test_verify_d4_realization(capsys):
    code, out, err = run(capsys, "verify", "--algebra", "D4", "--suite", "realization")
    assert code == EXIT_OK
    suite = json.loads(out)["suites"]["realization"]
    assert suite["status"] == "pass"
    assert suite["details"] == {"pairs": 28 ** 2, "violations": []}


def test_verify_naive_second_kind(capsys):
    code, out, err = run(
        capsys,
        "verify", "--algebra", "B2", "--suite", "naive-second-kind", "--direction", "2",
    )
    assert code == EXIT_OK  # the diagnostic is the expected outcome
    data = json.loads(out)
    details = data["suites"]["naive-second-kind"]["details"]
    assert details["matches_expected_shape"] is True
    assert "gamma[1]" in details["third_order_pole"]


def test_verify_bad_algebra(capsys):
    code, out, err = run(capsys, "verify", "--algebra", "Z9")
    assert code == EXIT_INPUT


def test_screen_second_kind_b2_direction2(capsys):
    code, out, err = run(
        capsys,
        "screen", "--algebra", "B2", "--direction", "2", "--kind", "second", "--verify",
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["series"] is True
    assert data["status"] == "pass"
    assert data["checks"]["T"]["status"] == "ok"


@pytest.mark.parametrize(
    "argv",
    [
        ["screen", "--algebra", "B2", "--direction", "0", "--kind", "first"],
        ["screen", "--algebra", "B2", "--direction", "9"],
        ["verify", "--algebra", "B2", "--suite", "screening-first", "--direction", "0"],
        ["verify", "--algebra", "B2", "--suite", "screening-second", "--direction", "7"],
    ],
)
def test_direction_out_of_range_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.count("\n") == 1 and "--direction" in err and "1..2" in err


def test_screen_first_kind(capsys):
    code, out, err = run(
        capsys, "screen", "--algebra", "A1", "--direction", "1", "--verify"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["status"] == "pass"


def test_realize_latex_and_json(capsys):
    code, out, err = run(capsys, "realize", "--algebra", "A1", "--format", "latex")
    assert code == EXIT_OK
    assert "\\partial" in out and "\\beta" in out
    code, out, err = run(capsys, "realize", "--algebra", "B2", "--format", "json")
    data = json.loads(out)
    assert data["dual_coxeter"] == 3
    assert "E[theta]" in data["currents"]


def test_verify_osp22(capsys):
    code, out, err = run(capsys, "verify", "--algebra", "OSP22", "--suite", "currents")
    assert code == EXIT_OK


def test_verify_custom_cartan_json(tmp_path, capsys):
    p = tmp_path / "alg.json"
    p.write_text('{"cartan_matrix": [[2, -1], [-1, 2]], "name": "custom-a2"}')
    code, out, err = run(capsys, "verify", "--algebra", str(p), "--suite", "currents")
    assert code == EXIT_OK


def test_readme_algebra_json_example_loads(tmp_path, capsys):
    """The custom-algebra JSON shown in README.md passes the Jacobi suite."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r'`(\{"cartan_matrix".*?)`', readme).group(1)
    assert "extraspecial_signs" in example
    p = tmp_path / "alg.json"
    p.write_text(example)
    code, out, err = run(capsys, "verify", "--algebra", str(p), "--suite", "jacobi")
    assert code == EXIT_OK, err


def test_verify_exit_code_on_math_failure(capsys, monkeypatch):
    import wakimoto.cli as cli
    from wakimoto.currents import SweepViolation

    def broken(cs):
        return [SweepViolation((("e", (1,)), ("f", (1,))), 2, "injected")]

    monkeypatch.setattr(cli, "verify_current_algebra", broken)
    code, out, err = run(capsys, "verify", "--algebra", "A1", "--suite", "currents")
    assert code == EXIT_VERIFICATION


def test_json_roundtrip():
    from wakimoto.render import fieldexpr_from_json, fieldexpr_to_json, ope_from_json, ope_to_json

    cs = _load("B2")
    expr = cs.currents[("f", (1, 2))]
    data = fieldexpr_to_json(expr)
    back = fieldexpr_from_json(data)
    assert back.equals(expr)
    # a screening current exercises powers and vertices
    from wakimoto.screening import second_kind_mult_one

    s = second_kind_mult_one(cs, 0)
    back = fieldexpr_from_json(fieldexpr_to_json(s.expr))
    assert back.equals(s.expr)
    res = contract(cs.rs, cs.currents[("e", (1, 2))], cs.currents[("f", (1, 2))])
    rt = ope_from_json(json.loads(json.dumps(ope_to_json(res))))
    for q in set(res.poles) | set(rt.poles):
        assert rt.order(q).equals(res.order(q))


@pytest.mark.parametrize(
    "algebra, expr, why",
    [
        ("A1", "dphi[x]", "dphi[x]"),
        ("A1", "H[x]", "H[x]"),
        ("A2", "stilde[0]", "stilde[0]"),
        ("A2", "s[0]", "s[0]"),
        ("A1", "dphi[5]", "dphi[5]"),
        ("A2", "H[3]", "H[3]"),
        ("B2", "s[3]", "s[3]"),
        ("A1", "E[0]", "root label '0'"),
        ("B2", "beta[0]", "root label '0'"),
        ("B2", "E[0]", "root label '0'"),
        ("B2", "E[99]", "root label '99'"),
        ("B2", "E[alpha]", "root label 'alpha'"),
        ("A10", "E[11]", "root label '11'"),
        ("B2", "E[" + "9" * 5000 + "]", "root label '999"),
    ],
    ids=lambda v: v if len(v) < 40 else f"{v[:6]}...",
)
def test_bad_label_is_input_error(capsys, algebra, expr, why):
    code, out, err = run(capsys, "ope", "--algebra", algebra, expr, "E[1]")
    assert code == EXIT_INPUT
    assert out == ""
    assert err.count("\n") == 1 and why in err


@pytest.mark.parametrize(
    "algebra, spellings",
    [
        ("B2", [("E[1]", "F[1]"), ("E[alpha1]", "F[1]")]),
        ("A10", [("beta[0000000001]", "gamma[0000000001]"), ("beta[10]", "gamma[10]"),
                 ("beta[alpha10]", "gamma[alpha10]")]),
    ],
)
def test_root_label_spellings_print_the_same_bytes(capsys, algebra, spellings):
    """A simple-root index, with or without the alpha prefix and at any rank, names
    the same root as its coefficient digit string."""
    outs = [run(capsys, "ope", "--algebra", algebra, "--format", "text", *pair) for pair in spellings]
    assert outs[0][0] == EXIT_OK and "pole 1: " in outs[0][1]
    assert all(out == outs[0] for out in outs)


@pytest.mark.parametrize("spelling", ["a 2", "A02"])
def test_algebra_label_spellings_print_the_same_report(capsys, spelling):
    """A built-in label is reported by its family and rank, however it is spelled."""
    want = run(capsys, "verify", "--algebra", "A2", "--suite", "jacobi")
    assert want[0] == EXIT_OK and json.loads(want[1])["algebra"] == "A2"
    assert run(capsys, "verify", "--algebra", spelling, "--suite", "jacobi") == want


def _doubled_first_kind_witness(monkeypatch):
    real = screening.first_kind_witness
    monkeypatch.setattr(screening, "first_kind_witness", lambda cs, s, a: real(cs, s, a).scale(2))


def test_screen_exits_1_on_a_wrong_witness(capsys, monkeypatch):
    _doubled_first_kind_witness(monkeypatch)
    code, out, err = run(capsys, "screen", "--algebra", "B2", "--direction", "1", "--verify")
    assert code == EXIT_VERIFICATION and err == ""
    assert json.loads(out)["status"] == "fail"


def test_verify_text_prints_one_failure_detail_line(capsys, monkeypatch):
    _doubled_first_kind_witness(monkeypatch)
    code, out, err = run(capsys, "verify", "--algebra", "B2", "--suite", "screening-first", "--format", "text")
    assert code == EXIT_VERIFICATION and err == ""
    lines = out.splitlines()
    assert lines[0] == "screening-first: fail"
    assert len(lines) == 2 and lines[1].startswith("  ") and len(lines[1]) <= 402


def test_naive_suite_without_a_second_direction_is_input_error(capsys):
    code, out, err = run(capsys, "verify", "--algebra", "A1", "--suite", "naive-second-kind")
    assert code == EXIT_INPUT
    assert out == "" and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["screen", "--algebra", "OSP22", "--direction", "1", "--kind", "first"],
        ["ope", "--algebra", "OSP22", "s[1]", "E[1]"],
    ],
)
def test_osp22_first_kind_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.count("\n") == 1 and "realization polynomials" in err


@pytest.mark.parametrize(
    "argv, formats, removed",
    [
        (["realize", "--algebra", "A1"], ["json", "latex", "text"], []),
        (["verify", "--algebra", "A1", "--suite", "jacobi"], ["json", "text"], ["latex"]),
        (["screen", "--algebra", "A1", "--direction", "1"], ["json", "latex"], ["text"]),
        (["ope", "--algebra", "A1", "E[1]", "F[1]"], ["json", "latex", "text"], []),
    ],
    ids=["realize", "verify", "screen", "ope"],
)
def test_each_format_writes_its_own_bytes(capsys, argv, formats, removed):
    """A subcommand offers only the formats it writes: each accepted one prints
    different bytes, and a value that would repeat another is a usage error."""
    outs = {fmt: run(capsys, *argv, "--format", fmt) for fmt in formats}
    assert all(code == EXIT_OK and out and not err for code, out, err in outs.values())
    assert len({out for _, out, _ in outs.values()}) == len(formats)
    for fmt in removed:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", fmt])
        assert exc.value.code == EXIT_INPUT
        assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["realize", "--algebra", "A1"],
        ["screen", "--algebra", "A1", "--direction", "1"],
        ["ope", "--algebra", "A1", "E[1]", "F[1]"],
    ],
)
def test_jobs_only_on_verify(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--jobs", "2"] + argv[1:])
    assert exc.value.code == EXIT_INPUT


@pytest.mark.parametrize("first, argv", [
    ("abc", []), ("0", []), ("-2", []), ("1", ["--jobs", "0"]), ("1", ["--jobs", "x"]),
])
def test_bad_jobs_is_usage_error(capsys, first, argv):
    """Every --jobs value is checked, also one given after a good one."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--algebra", "A1", "--suite", "jacobi", "--jobs", first, *argv])
    assert exc.value.code == EXIT_INPUT
    assert "--jobs: expected a positive integer" in capsys.readouterr().err


def test_jobs_reads_no_environment(monkeypatch, capsys):
    """--jobs defaults to 1 whatever the environment holds."""
    monkeypatch.setenv("WAKIMOTO_JOBS", "abc")
    code, out, err = run(capsys, "verify", "--algebra", "A1", "--suite", "jacobi")
    assert code == 0 and err == ""
    assert cli.build_parser().parse_args(["verify"]).jobs == 1


def _perturbed(cs, pos, coef):
    """A set built from the currents of ``cs`` with e_alpha1 + coef beta at root position pos."""
    e1, cur = ("e", tuple(int(i == 0) for i in range(cs.rs.rank))), dict(cs.currents)
    cur[e1] = cur[e1] + FieldExpr.prim(beta_kind(cs.rs, pos), pos, coef=coef)
    return currents.CurrentSet(cs.rs, cs.tab, currents=cur)


def _planted(selector):
    """The algebra of ``selector`` with one wrong current: A3's e_alpha1 + beta_theta,
    or OSP22's e_alpha1 + 2 beta_alpha1."""
    cs = _load(selector)
    pos, coef = (cs.rs.root_index(cs.rs.theta), 1) if cs.rs.bosonic else (0, 2)
    return _perturbed(cs, pos, coef)


def test_verify_jobs_matches_one_process_when_the_sweep_fails(monkeypatch, capsys):
    """A planted wrong current, in A3 and in OSP22: with and without --jobs 2
    the report is byte for byte the same, and names more than one pair."""
    monkeypatch.setattr(cli, "_load", _planted)
    for algebra in ("A3", "OSP22"):
        argv = ["verify", "--algebra", algebra, "--suite", "currents"]
        one = run(capsys, *argv)
        two = run(capsys, *argv, "--jobs", "2")
        assert one == two and one[0] == EXIT_VERIFICATION
        bad = json.loads(one[1])["suites"]["currents"]["details"]["violations"]
        assert len({v["pair"] for v in bad}) > 1


def _no_process(*args, **kwargs):
    raise AssertionError("a process was started")


def test_verify_starts_no_process(monkeypatch, capsys):
    """Every suite runs in this process, whatever --jobs says."""
    import concurrent.futures
    import multiprocessing

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_process)
    monkeypatch.setattr(multiprocessing.Process, "start", _no_process)
    code, out, err = run(capsys, "verify", "--algebra", "OSP22", "--suite", "all", "--jobs", "2")
    assert code == EXIT_OK and err == ""
    assert all(entry["status"] == "pass" for entry in json.loads(out)["suites"].values())


def _refuse(*args, **kwargs):
    raise AssertionError("a stage the suite does not read was built")


def test_jacobi_suite_builds_only_the_table(monkeypatch, capsys):
    monkeypatch.setattr(currents, "realization_polynomials", _refuse)
    code, out, err = run(capsys, "verify", "--algebra", "F4", "--suite", "jacobi")
    assert code == EXIT_OK and json.loads(out)["suites"]["jacobi"]["status"] == "pass"


@pytest.mark.parametrize(
    "argv", [("--algebra", "G2", "--suite", "realization"),
             ("--algebra", "B2", "--suite", "naive-second-kind", "--direction", "2")],
)
def test_operator_and_polynomial_suites_build_no_current(monkeypatch, capsys, argv):
    monkeypatch.setattr(currents, "anomalous_term", _refuse)
    code, out, err = run(capsys, "verify", *argv)
    assert code == EXIT_OK and json.loads(out)["suites"][argv[3]]["status"] == "pass"


@pytest.mark.parametrize(
    "name", ["verify-B3-screening-second", "screen-B2-second-1", "screen-B2-second-2", "screen-OSP22-second-1"],
)
def test_second_kind_screening_builds_no_packing(monkeypatch, capsys, name):
    """Only a first-kind body has the closed form's shape, so the power
    currents, the B2 series and the osp(2|2) current are decided by Wick's
    theorem alone, with the stored exit code and JSON."""
    stored = dict(
        reversed(line.split()) for line in (GOLDEN / "screen-json.sha256").read_text().splitlines()
    )
    stored["verify-B3-screening-second"] = "e6818b61a143b615e1a3b18a902a6d9e560c4ea4a46bef97006debddb6a75c0a"
    monkeypatch.setattr(currents, "PackedCurrents", _refuse)
    argv = _SCREEN_COMMANDS.get(name, "verify --algebra B3 --suite screening-second").split()
    code, out, err = run(capsys, *argv)
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == stored[name]


def test_ope_builds_only_the_currents_it_names(monkeypatch, capsys):
    """E[1] H[1] reads no lowering current, so the anomalous term is never
    built, and the output is the one the full current set gives."""
    monkeypatch.setattr(currents, "anomalous_term", _refuse)
    code, out, err = run(capsys, "ope", "--algebra", "B2", "E[1]", "H[1]")
    assert (code, err) == (EXIT_OK, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "494c9e691db0752eb0172481b44655fffc76bed10183db04a44849a08249bc6b"


def test_jobs_check_the_current_set_they_were_given():
    """A perturbed current set, e_alpha1 + 2 beta_alpha1 in OSP22 and in A2:
    the suite checks the perturbed set, not a freshly built one."""
    for algebra in ("OSP22", "A2"):
        cs = _perturbed(_load(algebra), 0, 2)
        ok, details = cli.run_suite(cs, "currents", None)
        assert not ok and len(details["violations"]) == 14


def test_closed_stdout_is_not_an_input_error():
    """`realize ... | head -c 10`: no error line, and exit 141, neither 1 nor 2.  The output,
    over 400 kB, overflows the pipe buffer, so the closed pipe is always met."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "wakimoto.cli", "realize", "--algebra", "G2", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()  # far less than the output, which overflows the pipe buffer
    err = proc.stderr.read()
    proc.wait(timeout=120)
    proc.stderr.close()
    assert err == b""
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141


def test_verify_jobs_matches_one_process(capsys):
    argv = ["verify", "--algebra", "A1", "--suite", "currents"]
    one = run(capsys, *argv)
    two = run(capsys, *argv, "--jobs", "2")
    assert one == two and one[0] == EXIT_OK


SECOND_KIND_DIRECTIONS = [
    (alg, d)
    for alg, rank in (("A1", 1), ("A2", 2), ("B2", 2), ("G2", 2), ("A3", 3), ("OSP22", 2))
    for d in range(1, rank + 1)
]


def assert_screen_matches_suite(capsys, algebra, direction, key):
    """`screen --kind second --verify` and the suite entry ``key`` agree."""
    d = str(direction)
    code, out, err = run(
        capsys, "screen", "--algebra", algebra, "--direction", d, "--kind", "second", "--verify"
    )
    vcode, vout, _ = run(
        capsys, "verify", "--algebra", algebra, "--suite", "screening-second", "--direction", d
    )
    entry = json.loads(vout)["suites"]["screening-second"]["details"][key]
    if code == EXIT_INPUT:
        assert out == "" and entry["status"] == "unavailable"
        assert vcode == EXIT_OK
    else:
        assert code == vcode == EXIT_OK
        assert json.loads(out)["checks"] == entry
    return code


@pytest.mark.parametrize("algebra, direction", SECOND_KIND_DIRECTIONS)
def test_screen_and_suite_pick_the_same_second_kind_current(capsys, algebra, direction):
    assert_screen_matches_suite(capsys, algebra, direction, str(direction))


def test_osp22_second_kind_has_direction_one_only(capsys):
    """OSP22's one second-kind current is in direction 1: direction 2 is
    refused by `screen`, reported unavailable for that reason by the suite,
    and `stilde[2]` is refused by `ope` while `stilde[1]` is its current."""
    code, out, err = run(capsys, "screen", "--algebra", "OSP22", "--direction", "2", "--kind", "second")
    assert code == EXIT_INPUT and out == "" and err.count("\n") == 1
    vcode, vout, _ = run(
        capsys, "verify", "--algebra", "OSP22", "--suite", "screening-second", "--direction", "2"
    )
    suite = json.loads(vout)["suites"]["screening-second"]
    assert vcode == EXIT_OK and suite["status"] == "incomplete"
    assert suite["details"] == {"2": {"status": "unavailable", "reason": err[len("error: "):-1]}}
    code, out, _ = run(capsys, "ope", "--algebra", "OSP22", "--format", "text", "F[1]", "stilde[1]")
    assert code == EXIT_OK and out.startswith("pole 2: ")
    assert run(capsys, "ope", "--algebra", "OSP22", "F[1]", "stilde[2]")[0] == EXIT_INPUT
    # a series current is no expression
    assert run(capsys, "ope", "--algebra", "B2", "F[1]", "stilde[2]")[0] == EXIT_INPUT


@pytest.mark.parametrize("signs, code", [({}, EXIT_OK), ({"1,1": -1, "1,2": -1}, EXIT_INPUT)])
def test_custom_b2_series_needs_the_builtin_signs(tmp_path, capsys, signs, code):
    p = tmp_path / "b2.json"
    p.write_text(
        json.dumps({"name": "my-b2", "cartan_matrix": [[2, -1], [-2, 2]], "extraspecial_signs": signs})
    )
    assert assert_screen_matches_suite(capsys, str(p), 2, "2") == code


@pytest.mark.parametrize(
    "algebra, signs, direction, reason",
    [
        ("B2", {"1,1": -1}, 2, "the series construction assumes the built-in B2 signs"),
        ("G2", None, 1, "multiplicity 2 direction without a series construction"),
        ("G2", None, 2, "multiplicity 3 direction without a series construction"),
    ],
    ids=["B2-sign-flipped", "G2-1", "G2-2"],
)
def test_an_unavailable_direction_gives_the_reason_screen_gives(tmp_path, capsys, algebra, signs, direction, reason):
    """The suite reports the refusal of the construction, the one `screen` prints."""
    if signs is not None:
        p = tmp_path / "b2.json"
        p.write_text(json.dumps({"cartan_matrix": [[2, -1], [-2, 2]], "extraspecial_signs": signs}))
        algebra = str(p)
    d = str(direction)
    code, out, err = run(capsys, "verify", "--algebra", algebra, "--suite", "screening-second")
    assert code == EXIT_OK
    assert json.loads(out)["suites"]["screening-second"]["details"][d] == {"status": "unavailable", "reason": reason}
    assert run(capsys, "screen", "--algebra", algebra, "--direction", d, "--kind", "second") == (
        EXIT_INPUT, "", f"error: {reason}\n")


@pytest.mark.parametrize(
    "algebra, signs, status, checked",
    [
        ("G2", None, "incomplete", []),
        ("B2", {"1,1": -1, "1,2": -1}, "incomplete", ["1"]),
        ("B2", None, "pass", ["1", "2"]),
    ],
    ids=["G2", "B2-sign-flipped", "B2"],
)
def test_second_kind_suite_with_an_unavailable_direction_is_incomplete(
    tmp_path, capsys, algebra, signs, status, checked
):
    """A pass needs every requested direction checked; an unavailable one makes it incomplete, exit 0."""
    if signs is not None:
        p = tmp_path / "b2.json"
        p.write_text(json.dumps({"cartan_matrix": [[2, -1], [-2, 2]], "extraspecial_signs": signs}))
        algebra = str(p)
    code, out, err = run(capsys, "verify", "--algebra", algebra, "--suite", "screening-second")
    suite = json.loads(out)["suites"]["screening-second"]
    assert code == EXIT_OK and err == ""
    assert suite["status"] == status
    assert [d for d, v in suite["details"].items() if v.get("status") != "unavailable"] == checked


def test_a_failing_direction_fails_even_beside_an_unavailable_one(tmp_path, capsys, monkeypatch):
    """Sign-flipped B2 with its one checked direction made to fail: fail and exit 1, not incomplete."""
    real_verify = cli.verify

    def failing_verify(cs, s):
        rep = real_verify(cs, s)
        rep.checks[0].ok = False
        return rep

    monkeypatch.setattr(cli, "verify", failing_verify)
    p = tmp_path / "b2.json"
    p.write_text(json.dumps({"cartan_matrix": [[2, -1], [-2, 2]], "extraspecial_signs": {"1,1": -1, "1,2": -1}}))
    code, out, err = run(capsys, "verify", "--algebra", str(p), "--suite", "screening-second")
    suite = json.loads(out)["suites"]["screening-second"]
    assert code == EXIT_VERIFICATION
    assert suite["status"] == "fail" and suite["details"]["2"]["status"] == "unavailable"


@pytest.mark.parametrize(
    "text",
    [
        '{"cartan_matrix": [[2, -1], [-2, 2]], "extraspecial_signs": {"a,b": -1}}',
        '{"cartan_matrix": [[2, -1], [-2, 2]], "extraspecial_signs": {"1,1": -1}',
        '{"cartan_matrix": [[2, "x"], [-2, 2]]}',
        '{"cartan_matrix": [[2, -1], [-2, 2]], "extraspecial_signs": {"1,1": 2}}',
        '{"cartan_matrix": [[2, -1], [-2, 2]], "extraspecial_signs": {"5,5": -1}}',
        '{"cartan_matrix": [[2, -1], [-2, 2]], "extraspecial_signs": {"1,0": -1}}',
    ],
    ids=["key-not-integers", "invalid-json", "cartan-entry-not-integer", "sign-2",
         "key-not-a-root", "key-simple-root"],
)
def test_malformed_algebra_json_is_input_error(tmp_path, capsys, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    code, out, err = run(capsys, "verify", "--algebra", str(p), "--suite", "jacobi")
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_NOT_FINITE = "error: symmetrized Cartan matrix is not positive definite (not finite type)\n"


@pytest.mark.parametrize(
    "cartan, message",
    [
        ([[2, -2], [-2, 2]], _NOT_FINITE),
        ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], _NOT_FINITE),
        ([[2, -3], [-3, 2]], _NOT_FINITE),
        ([[2, 0], [0, 2]], "error: Dynkin diagram is disconnected; only simple algebras are supported\n"),
        ([[2, -1, -1], [-1, 2, -1], [-2, -1, 2]], "error: Cartan matrix is not symmetrizable\n"),
    ],
    ids=["affine-A1", "affine-A2", "hyperbolic", "disconnected", "non-symmetrizable"],
)
def test_cartan_json_not_of_simple_finite_type_is_input_error(tmp_path, capsys, cartan, message):
    p = tmp_path / "alg.json"
    p.write_text(json.dumps({"cartan_matrix": cartan}))
    assert run(capsys, "verify", "--algebra", str(p)) == (EXIT_INPUT, "", message)


@pytest.mark.parametrize(
    "label, message",
    [
        ("B1", "B requires rank >= 2"),
        ("C1", "C requires rank >= 2"),
        ("D2", "D requires rank >= 3"),
        ("G3", "G exists only at rank 2"),
        ("F3", "F exists only at rank 4"),
        ("E5", "E exists only at ranks 6, 7, 8"),
    ],
)
def test_a_label_outside_its_family_is_input_error(capsys, label, message):
    assert run(capsys, "verify", "--algebra", label, "--suite", "jacobi") == (EXIT_INPUT, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "data, message",
    [
        ({"cartan_matrix": []}, "empty Cartan matrix"),
        ({"cartan_matrix": [[2, -1], [-1, 2, 0]]}, "Cartan matrix must be square"),
        ({"cartan_matrix": [[3, -1], [-1, 2]]}, "diagonal entry A[0][0] must be 2"),
        ({"cartan_matrix": [[2, -1], [0, 2]]}, "zero pattern of Cartan matrix must be symmetric"),
        ({"name": "A2"}, "JSON algebra file must contain 'cartan_matrix'"),
        ({"cartan_matrix": [[2, -1], [-1, 2]], "extraspecial_signs": [["1,1", -1]]},
         "'extraspecial_signs' must map root keys to +1 or -1"),
        ({"cartan_matrix": [[2, -1], [-1, 2]], "extraspecial_signs": {"1,1,0": -1}},
         "override key '1,1,0' has wrong rank"),
    ],
    ids=["empty", "not-square", "diagonal-3", "one-sided-zero", "no-cartan-matrix", "signs-as-list",
         "key-of-wrong-rank"],
)
def test_an_algebra_file_outside_the_accepted_form_is_input_error(tmp_path, capsys, data, message):
    p = tmp_path / "alg.json"
    p.write_text(json.dumps(data))
    assert run(capsys, "verify", "--algebra", str(p), "--suite", "jacobi") == (EXIT_INPUT, "", f"error: {message}\n")


@pytest.mark.parametrize("name", [5, [1], {"a": 1}, True, None, 0, "custom-a2"])
def test_algebra_json_name_must_be_a_string(tmp_path, capsys, name):
    p = tmp_path / "alg.json"
    p.write_text(json.dumps({"cartan_matrix": [[2, -1], [-1, 2]], "name": name}))
    code, out, err = run(capsys, "verify", "--algebra", str(p), "--suite", "jacobi")
    if isinstance(name, str):
        assert code == EXIT_OK and json.loads(out)["algebra"] == name
    else:
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: 'name' must be a string") and err.count("\n") == 1


def test_algebra_path_that_is_a_directory_is_input_error(tmp_path, capsys):
    p = tmp_path / "d.json"
    p.mkdir()
    code, out, err = run(capsys, "verify", "--algebra", str(p))
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


GOLDEN = Path(__file__).parent / "golden"
_JSON_SHA256 = {
    name: digest
    for digest, name in (
        line.split() for line in (GOLDEN / "realize-json.sha256").read_text().splitlines()
    )
}


@pytest.mark.parametrize(
    "algebra, fmt",
    [("B2", "latex"), ("G2", "latex"), ("B2", "json"), ("G2", "json"), ("A3", "json"), ("C3", "json")],
)
def test_realize_output_is_pinned(capsys, algebra, fmt):
    """``realize`` reproduces the stored LaTeX, and JSON with the stored sha256, byte for byte."""
    code, out, err = run(capsys, "realize", "--algebra", algebra, "--format", fmt)
    assert code == EXIT_OK and err == ""
    if fmt == "latex":
        assert out == (GOLDEN / f"realize-{algebra}.tex").read_text()
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == _JSON_SHA256[f"realize-{algebra}.json"]


_SCREEN_COMMANDS = {
    f"screen-{algebra}-{kind}-{direction}": (
        f"screen --algebra {algebra} --direction {direction} --kind {kind} --verify --format json"
    )
    for algebra, kind, direction in (
        ("B2", "first", 1), ("B2", "first", 2), ("B2", "second", 1), ("B2", "second", 2),
        ("OSP22", "second", 1), ("OSP22", "second", 2), ("A3", "first", 2), ("G2", "first", 1),
    )
}
_SCREEN_COMMANDS["verify-B2-screening-second"] = "verify --algebra B2 --suite screening-second"


@pytest.mark.parametrize("name", sorted(_SCREEN_COMMANDS))
def test_screening_output_is_pinned(capsys, name):
    """The screening checks print the stored JSON and exit code, byte for byte.

    ``tests/golden/screen-json.sha256`` holds one sha256 of "<exit code>\\n<stdout>"
    per command; the bilateral B2 series of the second kind is the costliest.
    """
    stored = dict(
        reversed(line.split()) for line in (GOLDEN / "screen-json.sha256").read_text().splitlines()
    )
    code, out, err = run(capsys, *_SCREEN_COMMANDS[name].split())
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == stored[name]


# sign-flipped algebras: the A4 and C3 files of the benchmark's realization
# workload at seed 1, each drawing the extraspecial sign of every non-simple root
_FLIPPED_JSON = {
    "A4": {
        "name": "A4",
        "cartan_matrix": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
        "extraspecial_signs": {
            "1,1,0,0": -1, "0,1,1,0": -1, "0,0,1,1": 1, "1,1,1,0": -1, "0,1,1,1": 1, "1,1,1,1": 1,
        },
    },
    "C3": {
        "name": "C3",
        "cartan_matrix": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
        "extraspecial_signs": {"1,1,0": 1, "0,1,1": 1, "1,1,1": -1, "0,2,1": -1, "1,2,1": 1, "2,2,1": -1},
    },
}
_VERIFY_JSON_CASES = [
    (f"verify-{algebra}-{suite}", algebra, suite)
    for algebra in ("G2", "A3", "B3", "C3", "A4", "D4", "flipped-A4", "flipped-C3")
    for suite in ("realization", "jacobi")
]


@pytest.mark.parametrize("name, algebra, suite", _VERIFY_JSON_CASES, ids=[c[0] for c in _VERIFY_JSON_CASES])
def test_verify_json_is_pinned(capsys, tmp_path, name, algebra, suite):
    """``verify --suite realization`` and ``--suite jacobi`` print the stored JSON and exit code.

    ``tests/golden/verify-json.sha256`` holds one sha256 of "<exit code>\\n<stdout>"
    per command; a ``flipped-`` algebra is read from its embedded JSON file.
    """
    stored = dict(
        reversed(line.split()) for line in (GOLDEN / "verify-json.sha256").read_text().splitlines()
    )
    if algebra.startswith("flipped-"):
        path = tmp_path / f"{algebra}.json"
        path.write_text(json.dumps(_FLIPPED_JSON[algebra.removeprefix("flipped-")]))
        algebra = str(path)
    code, out, err = run(capsys, "verify", "--algebra", algebra, "--suite", suite, "--format", "json")
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == stored[name]


def test_sign_flipped_verify_reports_differ_from_the_builtin_ones():
    """A report says which table it checked, so a flipped table's pin is its own."""
    stored = dict(
        reversed(line.split()) for line in (GOLDEN / "verify-json.sha256").read_text().splitlines()
    )
    for algebra in _FLIPPED_JSON:
        for suite in ("realization", "jacobi"):
            assert stored[f"verify-{algebra}-{suite}"] != stored[f"verify-flipped-{algebra}-{suite}"]


@pytest.mark.parametrize("algebra", ["flipped-C3", "C3", "OSP22"])
def test_verify_reports_the_extraspecial_signs_it_checked(capsys, tmp_path, algebra):
    """Every non-simple positive root with its sign, keyed as in an algebra file; {} for OSP22."""
    if algebra.startswith("flipped-"):
        data = _FLIPPED_JSON[algebra.removeprefix("flipped-")]
        path = tmp_path / "c3.json"
        path.write_text(json.dumps(data))
        want = data["extraspecial_signs"]
        algebra = str(path)
    else:
        want = {} if algebra == "OSP22" else {key: 1 for key in _FLIPPED_JSON["C3"]["extraspecial_signs"]}
    code, out, err = run(capsys, "verify", "--algebra", algebra, "--suite", "jacobi", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["extraspecial_signs"] == want
