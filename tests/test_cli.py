"""Command-line behavior: golden outputs, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from triads import cli, suites, triad
from triads.scalar import parse_scalar
from triads.suites import SUITE_NAMES, SUITE_RUNNERS, SuiteResult, run_suites

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_pascal_csv(capsys):
    code, out, _ = run(capsys, "table", "--family", "pascal", "--rows", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "1,4,6,4,1"
    assert lines[0] == "1"


def test_table_csv_quotes_symbolic_cells(capsys):
    code, out, _ = run(capsys, "table", "--family", "gauss", "--rows", "2", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["1", "1,1", '1,"1 + q",1']


def test_table_gauss_at_q_one_is_pascal(capsys):
    code, gauss_out, _ = run(capsys, "table", "--family", "gauss", "--rows", "3", "--q", "1", "--format", "csv")
    assert code == 0
    code, pascal_out, _ = run(capsys, "table", "--family", "pascal", "--rows", "3", "--format", "csv")
    assert code == 0
    assert gauss_out == pascal_out


def test_table_json_round_trips(capsys):
    code, out, _ = run(capsys, "table", "--family", "gauss", "--rows", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "gauss"
    assert "q" not in payload and "psi" not in payload
    from triads.families import family_value

    for n, row in enumerate(payload["rows"]):
        for k, text in enumerate(row):
            assert parse_scalar(text) == family_value("gauss", n, k)


def test_table_json_records_q_and_psi(capsys):
    code, out, _ = run(
        capsys, "table", "--family", "psi-stirling2", "--psi", "fibonacci", "--rows", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "psi-stirling2"
    assert payload["psi"] == "fibonacci"
    argv = ("table", "--family", "psi-stirling1", "--rows", "3", "--format", "json")
    default = run(capsys, *argv)
    assert default == run(capsys, *argv, "--psi", "qfact")
    assert json.loads(default[1])["psi"] == "qfact"
    code, out, _ = run(capsys, "table", "--family", "gauss", "--rows", "2", "--q", "2/3", "--format", "json")
    assert json.loads(out)["q"] == "2/3"


def test_table_from_spec_file(capsys, tmp_path):
    path = tmp_path / "pascalish.json"
    path.write_text(
        json.dumps({"i": {"rule": "constant"}, "q": {"rule": "constant"}, "d": {"rule": "constant", "value": "0"}})
    )
    code, out, _ = run(capsys, "table", "--spec", str(path), "--rows", "4", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[-1] == "1,4,6,4,1"
    payload_code, out, _ = run(capsys, "table", "--spec", str(path), "--rows", "2", "--format", "json")
    assert json.loads(out)["spec"] == "pascalish"


def test_table_usage_errors(capsys):
    code, _, err = run(capsys, "table", "--rows", "3")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "table", "--family", "pascal", "--spec", "pascal", "--rows", "3")
    assert code == 2
    code, _, err = run(capsys, "table", "--family", "pascal", "--rows", "3", "--q", "1/0")
    assert code == 2
    code, _, err = run(capsys, "table", "--spec", "missing-spec", "--rows", "3")
    assert code == 2


def test_konvalina_value(capsys):
    code, out, _ = run(capsys, "konvalina", "--weights", "2,3,5", "--kind", "first", "--k", "2")
    assert code == 0 and out.strip() == "31"
    code, out, _ = run(capsys, "konvalina", "--weights", "1,q,q^2", "--kind", "second", "--k", "2")
    assert code == 0 and out.strip() == "1 + q + 2*q^2 + q^3 + q^4"


def test_konvalina_rules_and_table(capsys):
    code, out, _ = run(capsys, "konvalina", "--weights", "qpowers", "--length", "3", "--kind", "first", "--k", "3")
    assert code == 0 and out.strip() == "q^3"
    code, out, _ = run(capsys, "konvalina", "--weights", "ones", "--length", "4", "--table", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[-1] == "1,4,6,4,1"
    code, _, err = run(capsys, "konvalina", "--weights", "naturals", "--kind", "first", "--k", "1")
    assert code == 2 and "--length" in err
    code, _, err = run(capsys, "konvalina", "--weights", "1,,2", "--k", "1")
    assert code == 2
    code, _, err = run(capsys, "konvalina", "--weights", "1,2")
    assert code == 2


def test_verify_spec_passes(capsys):
    code, out, _ = run(capsys, "verify", "--spec", "gauss", "--rows", "8")
    assert code == 0
    assert "PASS connection gauss" in out
    assert "PASS degrees gauss" in out


def test_verify_requires_exactly_one_mode(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    code, _, err = run(capsys, "verify", "--suite", "triad", "--spec", "pascal")
    assert code == 2


def test_verify_suite_exit_zero_and_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "corollary", "--seed", "7")
    code2, out2, _ = run(capsys, "verify", "--suite", "corollary", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.strip().splitlines()[-1].endswith("(seed=7)")


def test_verify_suite_triad_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "triad", "--rows", "10")
    assert code == 0
    assert "FAIL" not in out


def _child_env() -> dict:
    """The environment for a child ``python -m triads``, with the package's own src on its path.

    The child does not inherit pytest's pythonpath.
    """
    import triads

    src = str(Path(triads.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "triads", "table", "--family", "pascal", "--rows", "2", "--format", "csv"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["1", "1,1", "1,2,1"]


def test_a_closed_pipe_exits_141_without_a_traceback():
    # the table is about 1.4 MB of JSON, far past a pipe's buffer, so the
    # child is still writing when the reader closes the pipe after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "triads", "table", "--family", "gauss", "--rows", "40", "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_verify_genfun_psi_filter(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "genfun", "--psi", "fibonacci", "--order", "10")
    assert code == 0
    assert "(fibonacci)" in out
    assert "(classical)" not in out


def test_verify_suite_failure_exits_one(capsys, monkeypatch):
    broken = SuiteResult("triad")
    broken.check(False, "synthetic failure")

    monkeypatch.setattr(cli, "run_suites", lambda *a, **k: [broken])
    code, out, _ = run(capsys, "verify", "--suite", "triad")
    assert code == 1
    assert "FAIL triad: synthetic failure" in out


def test_verify_spec_short_sequence_is_usage_error(capsys, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"i": ["1", "1"], "q": ["0", "1"], "d": ["0", "0"]}))
    code, _, err = run(capsys, "verify", "--spec", str(path), "--rows", "9")
    assert code == 2 and "entry" in err


def test_operator_pretty(capsys):
    code, out, _ = run(
        capsys, "operator", "--array", "binom", "--n", "4", "--k", "2", "--psi", "qfact", "--apply", "x^3"
    )
    assert code == 0
    assert out.strip() == "(1 + q + 2*q^2 + q^3 + q^4)*x^3"


def test_operator_json(capsys):
    code, out, _ = run(
        capsys,
        "operator", "--array", "stirling2", "--n", "4", "--k", "2", "--psi", "classical",
        "--apply", "x^2 + 1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["array"] == "stirling2"
    assert payload["input"] == ["1", "0", "1"]
    assert payload["image"] == ["7", "0", "7"]


def test_operator_errors(capsys):
    code, _, err = run(capsys, "operator", "--array", "binom", "--n", "2", "--k", "3", "--apply", "x")
    assert code == 2
    code, _, err = run(capsys, "operator", "--array", "binom", "--n", "2", "--k", "1", "--apply", "x +")
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("konvalina", "--k", "1", "--weights", "-3,4,5"), "6"),
        (("konvalina", "--k", "2", "--weights", "-q,2,q^2"), "-2*q + 2*q^2 - q^3"),
        (("table", "--family", "gauss", "--rows", "2", "--format", "csv", "--q", "-1/2"), "1\n1,1\n1,1/2,1"),
        (("operator", "--array", "binom", "--n", "3", "--k", "1", "--apply", "-x^2"), "-(1 + q + q^2)*x^2"),
    ],
)
def test_leading_minus_expression_values(capsys, argv, expected):
    spaced = run(capsys, *argv)
    assert spaced == (0, expected + "\n", "")
    assert run(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}") == spaced


def test_degree_cap_overflow_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--spec", "gauss", "--rows", "70")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "exceeds cap" in err and err.count("\n") == 1
    code, out, err = run(capsys, "operator", "--array", "binom", "--n", "3", "--k", "1", "--apply", "x^70")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "exceeds cap" in err and err.count("\n") == 1


def test_verify_all_matches_golden_output(capsys):
    # Performance work must leave the gate's stdout byte-identical.
    code, out, _ = run(capsys, "verify", "--suite", "all", "--seed", "7")
    assert code == 0
    assert out.encode() == (GOLDEN / "verify_all_seed7.txt").read_bytes()


@pytest.mark.parametrize("kind", ["first", "second"])
def test_konvalina_table_json_matches_golden(capsys, kind):
    code, out, _ = run(
        capsys, "konvalina", "--weights", "qpowers", "--length", "4", "--kind", kind, "--table", "--format", "json"
    )
    assert code == 0
    assert out.encode() == (GOLDEN / f"konvalina_qpowers4_{kind}.json").read_bytes()


@pytest.mark.parametrize(
    "argv, golden",
    [
        *(
            (("table", "--family", name, "--rows", "8", "--format", "json"), f"table_{name}_rows8.json")
            for name in ("pascal", "stirling1", "stirling2", "gauss")
        ),
        (
            ("table", "--family", "psi-stirling1", "--psi", "fibonacci", "--rows", "8", "--format", "json"),
            "table_psi-stirling1_fibonacci_rows8.json",
        ),
        (("verify", "--spec", "gauss", "--rows", "8"), "verify_spec_gauss_rows8.txt"),
        *(
            (
                ("konvalina", "--weights=1/2,-1/3,2,3/2,1/2", "--kind", kind, "--table", "--format", "json"),
                f"konvalina_fractional5_{kind}.json",
            )
            for kind in ("first", "second")
        ),
        *(
            (
                ("operator", "--array", array, "--n", "5", "--k", "2", "--psi", "fibonacci",
                 "--apply", "x^4 + 3*x - 1", "--format", "json"),
                f"operator_{array}_fibonacci.json",
            )
            for array in ("binom", "stirling1", "stirling2")
        ),
        (("verify", "--suite", "all", "--seed", "11"), "verify_all_seed11.txt"),
        (
            ("table", "--spec", str(GOLDEN / "spec_printed.json"), "--rows", "8", "--format", "json"),
            "table_spec_printed_rows8.json",
        ),
        (
            ("table", "--family", "psi-stirling2", "--psi", "qfact", "--rows", "8", "--format", "json"),
            "table_psi-stirling2_qfact_rows8.json",
        ),
        # i = +-1 and d != 0 over int q-polynomials: the packed recurrences
        (
            ("table", "--spec", str(GOLDEN / "spec_unit_i.json"), "--rows", "12", "--format", "json"),
            "table_spec_unit_i_rows12.json",
        ),
        (("verify", "--spec", str(GOLDEN / "spec_unit_i.json"), "--rows", "12"), "verify_spec_unit_i_rows12.txt"),
        # some 1/i(k) off the ints (1/2, 1/3): the dual polynomials run over Scalars
        (("verify", "--spec", str(GOLDEN / "spec_printed.json"), "--rows", "8"), "verify_spec_printed_rows8.txt"),
        # deep enough that the two-point connection check packs more than one byte a slot
        (("verify", "--spec", "gauss", "--rows", "40"), "verify_spec_gauss_rows40.txt"),
        # i in {+-1, +-1/2, +-1/3}: the duals multiply by 1/i, an int, and run
        # packed, while the triangle multiplies by i and runs over Scalars
        (
            ("verify", "--spec", str(GOLDEN / "spec_reciprocal_i.json"), "--rows", "12"),
            "verify_spec_reciprocal_i_rows12.txt",
        ),
        (
            ("table", "--spec", str(GOLDEN / "spec_reciprocal_i.json"), "--rows", "12", "--format", "json"),
            "table_spec_reciprocal_i_rows12.json",
        ),
        # int q-polynomial weights that are not monomials, some with a shift
        # q^e: the packed ring's factors p and shifts both at work
        *(
            (
                ("konvalina", "--weights", "q^2+2*q^3,1,q-q^4,3*q^5,-q^3", "--kind", kind, "--table", "--format", "json"),
                f"konvalina_shifted5_{kind}.json",
            )
            for kind in ("first", "second")
        ),
    ],
)
def test_cli_output_matches_golden(capsys, argv, golden):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.glob("*.json") if p.name.startswith(("table_", "konvalina_"))))
def test_golden_cells_parse_back_to_the_same_text(golden):
    rows = json.loads((GOLDEN / golden).read_text())["rows"]
    for row in rows:
        for text in row:
            assert str(parse_scalar(text)) == text


_OVER_CAP = "q^2000000"


def _assert_one_line_cap_error(code, out, err, prefix, cap=1024):
    assert code == 2 and out == ""
    assert err.startswith(prefix) and f"exceeds cap {cap}" in err and err.count("\n") == 1


@pytest.mark.parametrize("text", [f"1,{_OVER_CAP}", "(1+q)^1025", "q^600*q^600"])
def test_weights_over_the_q_degree_cap_are_usage_error(capsys, text):
    code, out, err = run(capsys, "konvalina", f"--weights={text}", "--k", "1")
    _assert_one_line_cap_error(code, out, err, "error: bad --weights value:")


@pytest.mark.parametrize("text", ["(9^1024)^1024 - (9^1024)^1024 + 1", "9^1024 * 9^1024 * 9^1024 * 9^1024 * 9^1024 * 9^1024"])
def test_weights_over_the_coefficient_cap_are_usage_error(capsys, text):
    code, out, err = run(capsys, "konvalina", f"--weights={text}", "--k", "1")
    _assert_one_line_cap_error(code, out, err, "error: bad --weights value:", 16384)


@pytest.mark.parametrize("command", ["verify", "table"])
def test_spec_entry_over_the_q_degree_cap_is_usage_error(capsys, tmp_path, command):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"i": ["1"] * 4, "q": [_OVER_CAP, "1", "1", "1"], "d": ["0"] * 4}))
    code, out, err = run(capsys, command, "--spec", str(path), "--rows", "3")
    _assert_one_line_cap_error(code, out, err, "error: ")


@pytest.mark.parametrize("text", [_OVER_CAP, "q^32000", "(x + q^600)*q^600"])
def test_apply_over_the_q_degree_cap_is_usage_error(capsys, text):
    code, out, err = run(capsys, "operator", "--array", "binom", "--n", "3", "--k", "1", "--apply", text)
    _assert_one_line_cap_error(code, out, err, "error: bad --apply polynomial:")


@pytest.mark.parametrize("text, token", [("²", "'²'"), ("٣*q", "'٣'")])
def test_non_ascii_digits_are_usage_error(capsys, text, token):
    code, out, err = run(capsys, "konvalina", "--weights", text, "--k", "1")
    assert code == 2 and out == ""
    assert err == f"error: bad --weights value: unexpected token {token} in {text!r}\n"


@pytest.mark.parametrize("command", ["verify", "table"])
def test_spec_division_by_zero_is_usage_error(capsys, tmp_path, command):
    path = tmp_path / "pole.json"
    path.write_text(json.dumps({"i": ["1", "1", "1"], "q": ["1/(q-q)", "1", "1"], "d": ["0", "0", "0"]}))
    code, out, err = run(capsys, command, "--spec", str(path), "--rows", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "division by zero" in err and err.count("\n") == 1


@pytest.mark.parametrize("text", ["[1, 2, 3]", "7"])
def test_spec_that_is_not_an_object_is_usage_error(capsys, tmp_path, text):
    path = tmp_path / "list.json"
    path.write_text(text)
    code, _, err = run(capsys, "verify", "--spec", str(path), "--rows", "3")
    assert code == 2 and "JSON object" in err


def test_unreadable_spec_path_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "table", "--spec", str(tmp_path), "--rows", "3")
    assert code == 2 and err.startswith("error: cannot read spec file")


@pytest.mark.parametrize("text", ["", "{", '{"i": [' + "1" * 5001 + "]}"])
@pytest.mark.parametrize("command", ["verify", "table"])
def test_spec_file_that_is_not_json_names_the_file(capsys, tmp_path, command, text):
    path = tmp_path / "broken.json"
    path.write_text(text)
    code, out, err = run(capsys, command, "--spec", str(path), "--rows", "3")
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot parse spec file {str(path)!r}: ") and err.count("\n") == 1


def _digit_limit_error(digits: int) -> str:
    return f"integer of {digits} digits exceeds the limit of {sys.get_int_max_str_digits()} digits\n"


@pytest.mark.parametrize("text", ["1" * 5000, "q^" + "1" * 5000])
def test_weights_integer_over_the_digit_limit_is_usage_error(capsys, text):
    code, out, err = run(capsys, "konvalina", "--weights", text, "--k", "1")
    assert (code, out, err) == (2, "", "error: bad --weights value: " + _digit_limit_error(5000))


@pytest.mark.parametrize("command", ["verify", "table"])
def test_spec_entry_over_the_digit_limit_is_usage_error(capsys, tmp_path, command):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"i": ["1" * 5001, "1", "1", "1"], "q": ["1"] * 4, "d": ["0"] * 4}))
    code, out, err = run(capsys, command, "--spec", str(path), "--rows", "3")
    expected = f"error: spec file {str(path)!r}, sequence i, entry 0: " + _digit_limit_error(5001)
    assert (code, out, err) == (2, "", expected)


@pytest.mark.parametrize("command", ["verify", "table"])
@pytest.mark.parametrize(
    "entry, reason",
    [("q^" + "1" * 5001, _digit_limit_error(5001)), ("1/(q-q)", "division by zero in Q(q)\n"), ("q +", None)],
)
def test_spec_entry_that_fails_to_parse_is_named(capsys, tmp_path, command, entry, reason):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"i": ["1"] * 4, "q": ["1"] * 4, "d": ["0", "0", entry, "0"]}))
    code, out, err = run(capsys, command, "--spec", str(path), "--rows", "3")
    prefix = f"error: spec file {str(path)!r}, sequence d, entry 2: "
    assert code == 2 and out == "" and err.startswith(prefix) and err.count("\n") == 1
    assert reason is None or err == prefix + reason


@pytest.mark.parametrize("mode", [("--suite", name) for name in SUITE_NAMES + ("all",)] + [("--spec", "gauss")])
def test_verify_negative_rows_is_usage_error(capsys, mode):
    code, out, err = run(capsys, "verify", *mode, "--rows", "-3")
    assert code == 2 and out == ""
    assert err == "error: --rows must be nonnegative\n"


@pytest.mark.parametrize("extra", [("--k", "1"), ("--table",)])
def test_konvalina_negative_length_is_usage_error(capsys, extra):
    code, out, err = run(capsys, "konvalina", "--weights", "ones", "--length", "-1", *extra)
    assert code == 2 and out == ""
    assert err == "error: --length must be nonnegative\n"


_DEEP_EXPRESSIONS = ["(" * 400 + "1" + ")" * 400, "-" * 2000 + "1"]


@pytest.mark.parametrize("text", _DEEP_EXPRESSIONS)
def test_deeply_nested_weights_are_usage_error(capsys, text):
    code, out, err = run(capsys, "konvalina", f"--weights={text}", "--k", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: bad --weights value:") and "nested too deeply" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", _DEEP_EXPRESSIONS)
@pytest.mark.parametrize("command", ["verify", "table"])
def test_deeply_nested_spec_entry_is_usage_error(capsys, tmp_path, command, text):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"i": ["1"] * 4, "q": [text, "1", "1", "1"], "d": ["0"] * 4}))
    code, out, err = run(capsys, command, "--spec", str(path), "--rows", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "nested too deeply" in err and err.count("\n") == 1


@pytest.mark.parametrize("order", ["3", "5", "-1"])
def test_verify_genfun_order_below_minimum_is_usage_error(capsys, order):
    code, out, err = run(capsys, "verify", "--suite", "genfun", "--order", order)
    assert code == 2 and out == ""
    assert err == f"error: --order must be at least 6 for the genfun suite, got {order}\n"


def _forbid_running_suites(monkeypatch):
    def must_not_run(**_):
        raise AssertionError("a suite ran before its options were checked")

    runners = {name: (must_not_run, reads) for name, (_, reads) in SUITE_RUNNERS.items()}
    monkeypatch.setattr(suites, "SUITE_RUNNERS", runners)


@pytest.mark.parametrize("suite", ["all", "genfun"])
def test_verify_bad_order_runs_no_suite(capsys, monkeypatch, suite):
    _forbid_running_suites(monkeypatch)
    code, out, err = run(capsys, "verify", "--suite", suite, "--order", "3")
    assert code == 2 and out == ""
    assert err == "error: --order must be at least 6 for the genfun suite, got 3\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--suite", "triad", "--psi", "classical"), "--psi is read by none of the selected suites (only by genfun)"),
        (
            ("--suite", "operator", "--rows", "3"),
            "--rows is read by none of the selected suites (only by triad, corollary, families)",
        ),
        (
            ("--suite", "propositions", "--order", "8"),
            "--order is read by none of the selected suites (only by genfun)",
        ),
        (("--spec", "pascal", "--order", "8"), "--order is read only by --suite, not by --spec"),
        (("--spec", "pascal", "--psi", "qfact"), "--psi is read only by --suite, not by --spec"),
        (("--spec", "pascal", "--rows", "3", "--seed", "99"), "--seed is read only by --suite, not by --spec"),
    ],
)
def test_verify_option_that_nothing_reads_is_usage_error(capsys, monkeypatch, argv, message):
    _forbid_running_suites(monkeypatch)
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_run_suites_passes_only_the_options_each_suite_reads(capsys, monkeypatch):
    calls = {}

    def recorder(name):
        def suite(**options):
            calls[name] = options
            return SuiteResult(name)

        return suite

    runners = {name: (recorder(name), reads) for name, (_, reads) in SUITE_RUNNERS.items()}
    monkeypatch.setattr(suites, "SUITE_RUNNERS", runners)
    code, _, err = run(capsys, "verify", "--suite", "all", "--rows", "4", "--order", "8", "--psi", "qfact")
    assert (code, err) == (0, "")
    assert calls == {
        "triad": {"rows": 4},
        "konvalina-oracle": {"seed": 7},
        "propositions": {"seed": 7},
        "corollary": {"rows": 4},
        "families": {"rows": 4},
        "operator": {},
        "genfun": {"order": 8, "psi": "qfact"},
    }
    run_suites(["genfun", "triad"])
    assert calls["genfun"] == calls["triad"] == {}


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--family", "pascal", "--psi", "fibonacci", "--rows", "2"),
        ("table", "--spec", "pascal", "--psi", "fibonacci", "--rows", "1"),
    ],
)
def test_table_psi_outside_psi_families_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: --psi is read only by the psi-stirling1 and psi-stirling2 families\n")


@pytest.mark.parametrize("extra", [("--table", "--k", "2"), ("--table", "--k", "2", "--format", "csv"), ()])
def test_konvalina_needs_exactly_one_of_k_and_table(capsys, extra):
    code, out, err = run(capsys, "konvalina", "--weights", "ones", "--length", "3", *extra)
    assert (code, out, err) == (2, "", "error: exactly one of --k or --table is required\n")


def test_konvalina_length_with_explicit_weights_is_usage_error(capsys):
    code, out, err = run(capsys, "konvalina", "--weights", "1,2", "--length", "5", "--k", "1")
    assert (code, out) == (2, "")
    assert err == "error: --length applies only to the rules ones, naturals, qpowers\n"


def test_verify_genfun_order_at_minimum_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "genfun", "--order", "6")
    assert code == 0 and "order 6" in out


def test_verify_spec_failure_names_row_and_residual(capsys, monkeypatch):
    # adding 1 to c[3][1] of pascal adds phi_1 = x - 1 to row 3 only; the
    # packed check and the Scalar route both build the triangle with
    # _triangle, so both see it, while the l1 bound (over int values) does not
    correct = triad._triangle

    def perturbed(i, q, d, rows):
        table = correct(i, q, d, rows)
        if type(d[0]) is not int:
            table[3][1] = table[3][1] + 1
        return table

    monkeypatch.setattr(triad, "_triangle", perturbed)
    code, out, _ = run(capsys, "verify", "--spec", "pascal", "--rows", "4")
    assert code == 1
    assert out.splitlines() == [
        "FAIL connection pascal: n=3: residual x - 1",
        "PASS degrees pascal: deg phi_k = k for k <= 4",
    ]


def _verify_suite_choices() -> tuple[str, ...]:
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
    return tuple(suite.choices)


def test_suite_registry_matches_names_and_cli_choices():
    assert tuple(SUITE_RUNNERS) == SUITE_NAMES
    assert _verify_suite_choices() == SUITE_NAMES + ("all",)
    for name in SUITE_RUNNERS:
        # the benchmark worker looks suites up by this name
        assert callable(getattr(suites, "suite_" + name.replace("-", "_")))


def test_run_suites_unknown_name_lists_the_names():
    with pytest.raises(ValueError, match="unknown suite 'bogus'") as info:
        run_suites(["bogus"])
    for name in SUITE_NAMES + ("all",):
        assert repr(name) in str(info.value)
