"""Coefficient triangles, dual polynomial sequences, and the connection identity."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from triads.poly import P_ONE, Poly, X
from triads.scalar import ONE, Q, ZERO, as_scalar, qpow
from triads.triad import (
    SingularTriadError,
    TriadSpec,
    coefficient_table,
    dual_polynomials,
    gauss_spec,
    load_spec,
    pascal_spec,
    spec_from_json,
    stirling2_spec,
    verify_connection,
    verify_degrees,
)

from .oracles import stirling2_by_enumeration, subset_count


def test_pascal_row_four_matches_subset_enumeration():
    table = coefficient_table(pascal_spec(), 4)
    expected = [as_scalar(subset_count(4, k)) for k in range(5)]
    assert list(table.row(4)) == expected == [as_scalar(v) for v in (1, 4, 6, 4, 1)]


def test_stirling_row_four_matches_partition_enumeration():
    table = coefficient_table(stirling2_spec(), 4)
    expected = [as_scalar(stirling2_by_enumeration(4, k)) for k in range(5)]
    assert list(table.row(4)) == expected == [as_scalar(v) for v in (0, 1, 7, 6, 1)]


def test_row_zero_is_initial_condition():
    spec = TriadSpec.of(2, lambda k: as_scalar(k - 1), 3, name="arbitrary")
    assert list(coefficient_table(spec, 0).row(0)) == [ONE]


def test_out_of_triangle_entries_are_zero():
    table = coefficient_table(pascal_spec(), 3)
    assert table.entry(2, 3) == ZERO
    assert table.entry(1, -1) == ZERO
    assert table.entry(9, 0) == ZERO


def test_pascal_polynomials_are_powers_of_x_minus_one():
    phis = dual_polynomials(pascal_spec(), 6)
    for k, phi in enumerate(phis):
        assert phi == (X - P_ONE) ** k


def test_stirling_polynomials_are_falling_factorials():
    phis = dual_polynomials(stirling2_spec(), 6)
    for k, phi in enumerate(phis):
        expected = P_ONE
        for i in range(k):
            expected = expected * Poly([as_scalar(-i), ONE])  # x - i
        assert phi == expected


def test_gauss_polynomials_are_q_power_products():
    phis = dual_polynomials(gauss_spec(), 6)
    for k, phi in enumerate(phis):
        expected = P_ONE
        for i in range(k):
            expected = expected * Poly([-qpow(i), ONE])
        assert phi == expected


def test_connection_trivial_rows():
    # 1 + 2(x-1) + (x-1)^2 == x^2 and 0*1 + 1*x + 1*x(x-1) == x^2
    for spec in (pascal_spec(), stirling2_spec()):
        for rows in (0, 2):  # at depth 0 the check is the product [[1]] * [[1]]
            report = verify_connection(spec, rows)
            assert report.ok and report.lines == [(True, f"x^n recovered for all n <= {rows}")]


def test_connection_gauss_symbolic_depth_ten():
    assert verify_connection(gauss_spec(), 10).ok


def test_degrees():
    assert verify_degrees(pascal_spec(), 10)
    assert verify_degrees(stirling2_spec(), 10)


def test_zero_i_raises_with_offending_index():
    spec = TriadSpec.of([1, 1, 0, 1], 1, 0)
    with pytest.raises(SingularTriadError) as info:
        dual_polynomials(spec, 5)
    assert info.value.k == 2
    with pytest.raises(SingularTriadError):
        verify_degrees(TriadSpec.of(0, 1, 0), 1)


def test_column_zero_of_two_term_specs_is_power_of_q0():
    for spec, q0 in ((pascal_spec(), ONE), (gauss_spec(), ONE), (stirling2_spec(), ZERO)):
        table = coefficient_table(spec, 8)
        for n in range(1, 9):
            assert table.entry(n, 0) == q0**n


def test_column_zero_recurrence_holds_generally():
    spec = TriadSpec.of(1, lambda k: as_scalar(k + 1), lambda k: as_scalar(2), name="three-term")
    table = coefficient_table(spec, 8)
    for n in range(8):
        expected = spec.q_seq(0) * table.entry(n, 0) + spec.d_seq(1) * table.entry(n, 1)
        assert table.entry(n + 1, 0) == expected


def test_leading_coefficient_is_inverse_product_of_i():
    spec = TriadSpec.of(lambda k: as_scalar(k + 2) * (ONE + Q) ** (k % 2), 1, 1, name="growing-i")
    phis = dual_polynomials(spec, 6)
    product = ONE
    for k, phi in enumerate(phis):
        assert phi.lead() == ONE / product
        product = product * spec.i_seq(k)


small = st.integers(min_value=-3, max_value=3)
nonzero = st.sampled_from([1, -1, 2, -2, 3])


@settings(deadline=None, max_examples=40)
@given(
    st.lists(nonzero, min_size=7, max_size=7),
    st.lists(small, min_size=7, max_size=7),
    st.lists(small, min_size=7, max_size=7),
    st.booleans(),
)
def test_duality_round_trip_on_random_specs(i_values, q_values, d_values, symbolic):
    # the central identity: any spec with nonzero i passes verification
    if symbolic:
        i_seq = [as_scalar(v) * (ONE + Q) for v in i_values]
        q_seq = [as_scalar(v) + Q for v in q_values]
    else:
        i_seq = [as_scalar(v) for v in i_values]
        q_seq = [as_scalar(v) for v in q_values]
    spec = TriadSpec.of(i_seq, q_seq, [as_scalar(v) for v in d_values])
    assert verify_connection(spec, 6).ok
    assert verify_degrees(spec, 6)


def test_spec_from_json_rules_and_lists(tmp_path):
    obj = {
        "name": "custom",
        "i": ["1", "1", "1"],
        "q": {"rule": "q-power-k"},
        "d": {"rule": "constant", "value": "0"},
    }
    spec = spec_from_json(obj)
    assert spec.q_seq(2) == qpow(2)
    assert verify_connection(spec, 2).ok

    path = tmp_path / "gaussish.json"
    path.write_text(json.dumps(obj))
    loaded = load_spec(str(path))
    assert loaded.name == "custom"
    with pytest.raises(IndexError):
        coefficient_table(loaded, 5)  # explicit i-list too short


def test_spec_from_json_errors():
    with pytest.raises(ValueError):
        spec_from_json({"i": "1", "q": "1"})
    with pytest.raises(ValueError):
        spec_from_json({"i": {"rule": "nope"}, "q": ["1"], "d": ["0"]})
    with pytest.raises(ValueError):
        load_spec("definitely-not-a-file-or-name")


def test_builtin_lookup():
    assert load_spec("pascal").name == "pascal"
    assert load_spec("gauss").name == "gauss"
