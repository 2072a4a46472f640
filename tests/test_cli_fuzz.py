"""Fuzzing the command line: any argv and spec file ends in exit 0, 1 or 2.

Inputs are built from the expression grammar and the spec JSON schema, with
small exponents and sizes so every example runs in milliseconds.  A defect
shows up as an exception escaping ``cli.main`` (a traceback for a user) or
as an exit code outside the contract.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from triads import cli


def _atoms(symbols):
    plain = st.sampled_from([str(n) for n in range(4)] + list(symbols))
    powered = st.builds(lambda a, e: f"{a}^{e}", plain, st.integers(-2, 3))
    return st.one_of(plain, powered)


def _expressions(symbols=("q",)):
    return st.recursive(
        _atoms(symbols),
        lambda inner: st.builds(
            lambda a, op, b, neg: f"{'-' if neg else ''}({a}{op}{b})",
            inner, st.sampled_from("+-*/"), inner, st.booleans(),
        ),
        max_leaves=4,
    )


sizes = st.integers(-2, 4).map(str)
q_values = st.sampled_from(["1", "0", "-1", "2/3", "1/0", "q", "x"])

sequences = st.one_of(
    st.lists(_expressions(), max_size=5),
    st.fixed_dictionaries(
        {"rule": st.sampled_from(["constant", "linear-k", "q-power-k", "bogus"])},
        optional={"value": _expressions()},
    ),
    st.just("1"),
)
specs = st.one_of(
    st.fixed_dictionaries({"i": sequences, "q": sequences, "d": sequences}, optional={"name": st.just("fuzz")}),
    st.fixed_dictionaries({}, optional={"i": sequences, "q": sequences}),
    st.sampled_from([[], ["i", "q", "d"], 3, "spec"]),
)


@st.composite
def invocations(draw):
    """(argv, spec or None); the token SPEC in argv stands for the spec file."""
    command = draw(st.sampled_from(["table-spec", "verify-spec", "verify-suite", "konvalina", "operator", "junk"]))
    spec = None
    if command in ("table-spec", "verify-spec"):
        spec = draw(specs)
        argv = [command.split("-")[0], "--spec", "SPEC", "--rows", draw(sizes)]
        if command == "table-spec":
            argv += ["--format", draw(st.sampled_from(["pretty", "csv", "json"]))]
            if draw(st.booleans()):
                argv += ["--q", draw(q_values)]
    elif command == "verify-suite":
        suite = draw(st.sampled_from(["triad", "corollary", "families", "genfun"]))
        argv = ["verify", "--suite", suite, "--rows", draw(sizes), "--order", draw(sizes)]
    elif command == "konvalina":
        weights = draw(
            st.one_of(
                st.sampled_from(["ones", "naturals", "qpowers", ""]),
                st.lists(_expressions(), min_size=1, max_size=4).map(",".join),
            )
        )
        argv = ["konvalina", "--weights", weights, "--kind", draw(st.sampled_from(["first", "second"]))]
        if draw(st.booleans()):
            argv += ["--length", draw(sizes)]
        argv += ["--table"] if draw(st.booleans()) else ["--k", draw(sizes)]
        if draw(st.booleans()):
            argv += ["--q", draw(q_values)]
    elif command == "operator":
        argv = [
            "operator",
            "--array", draw(st.sampled_from(["binom", "stirling1", "stirling2"])),
            "--n", draw(sizes),
            "--k", draw(sizes),
            "--psi", draw(st.sampled_from(["qfact", "classical", "fibonacci"])),
            "--apply", draw(_expressions(("q", "x"))),
        ]
    else:
        tokens = ["table", "verify", "--rows", "--spec", "--suite", "all", "-1", "x", "--q", "--k", "--weights"]
        argv = draw(st.lists(st.sampled_from(tokens), max_size=5))
    return argv, spec


@settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_cli_exits_with_contract_code_and_no_traceback(invocation):
    argv, spec = invocation
    with tempfile.TemporaryDirectory() as tmp:
        if spec is not None:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps(spec))
            argv = [str(path) if arg == "SPEC" else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2), (argv, spec, code)
    assert "Traceback" not in err.getvalue()
