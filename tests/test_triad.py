"""Coefficient triangles, dual polynomial sequences, and the connection identity."""

import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from triads import triad
from triads.poly import P_ONE, DegreeLimitError, Poly, X
from triads.scalar import ONE, Q, QPoly, Scalar, ZERO, _l1_norms, _packed_width, as_scalar, qpow
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


# -- the packed recurrences ------------------------------------------------------

def _interleaved_table(spec, rows):
    """The triangle by Scalar arithmetic, each sequence value read where the recurrence uses it."""
    if rows < 0:
        raise ValueError("row count must be nonnegative")
    table = [[ONE]]
    for n in range(rows):
        prev = table[n]
        row = []
        for k in range(n + 2):
            value = ZERO
            if k >= 1:
                value = value + spec.i_seq(k - 1) * prev[k - 1]
            if k <= n:
                value = value + spec.q_seq(k) * prev[k]
            if k + 1 <= n:
                value = value + spec.d_seq(k + 1) * prev[k + 1]
            row.append(value)
        table.append(row)
    return [tuple(row) for row in table]


def _interleaved_duals(spec, count):
    """phi_0 .. phi_count by Poly arithmetic, each sequence value read where the recurrence uses it."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    phis = [P_ONE]
    for k in range(count):
        ik = spec.i_seq(k)
        if ik.is_zero():
            raise SingularTriadError(k)
        top = X * phis[k] - phis[k].scale(spec.q_seq(k))
        if k >= 1:
            top = top - phis[k - 1].scale(spec.d_seq(k))
        phis.append(top.scale(ONE / ik))
    return phis


def _typed(scalars):
    return [[(c, type(c)) for c in s.num.coeffs] + [(c, type(c)) for c in s.den.coeffs] for s in scalars]


def _outcome(compute):
    """The value ``compute()`` returns, or the type and message of what it raises."""
    try:
        return compute()
    except (ArithmeticError, LookupError, ValueError) as exc:
        return type(exc), str(exc)


def _forced_onto_scalars(monkeypatch):
    monkeypatch.setattr(triad, "_ring_for", lambda sequences, bound: (sequences, as_scalar))


def _spy_rings(monkeypatch):
    """What ``_ring_for`` chose, recorded as the recurrences call it.

    One (width, ring) pair per call: the slot ``_packed_width`` gives, None
    unless every value is a polynomial with int coefficients, and the ring
    taken, "native", "packed" or "scalar".  Each call is checked against
    the rule: native when every value is constant in q, else packed within
    8-byte slots, else the Scalars.
    """
    results = []
    real = triad._ring_for

    def spy(sequences, bound):
        terms, read = real(sequences, bound)
        ring = "scalar" if terms is sequences else "native" if read is as_scalar else "packed"
        width = _packed_width(sequences, bound)
        constant = all(s.is_rational() for seq in sequences for s in seq)
        assert ring == ("native" if constant else "packed" if width is not None and width <= 8 else "scalar")
        results.append((width, ring))
        return terms, read

    monkeypatch.setattr(triad, "_ring_for", spy)
    return results


wide_int_polynomials = st.integers(0, 40).flatmap(
    lambda bits: st.lists(st.integers(-(2**bits), 2**bits), min_size=1, max_size=6)
).map(lambda cs: Scalar(QPoly(cs)))


@st.composite
def unit_i_specs(draw, i_entries=st.sampled_from((ONE, -ONE))):
    """Lists of exactly ``rows`` entries: i from ``i_entries`` (+-1 by default), q and d int q-polynomials.

    d(k) != 0 for k >= 1.
    """
    rows = draw(st.integers(0, 12))
    i_seq = draw(st.lists(i_entries, min_size=rows, max_size=rows))
    q_seq = draw(st.lists(wide_int_polynomials, min_size=rows, max_size=rows))
    d_seq = draw(st.lists(wide_int_polynomials.filter(lambda s: not s.is_zero()), min_size=rows, max_size=rows))
    return TriadSpec.of(i_seq, q_seq, d_seq), rows


# i = +-1/c: the duals multiply by 1/i = +-c, an int, and run packed; the
# triangle multiplies by i itself and runs packed only where every c is 1
reciprocal_i = st.builds(lambda sign, c: sign * ONE / c, st.sampled_from((1, -1)), st.integers(1, 9))


@settings(deadline=None, max_examples=60)
@given(unit_i_specs(reciprocal_i))
def test_packed_recurrences_match_the_scalar_loops(case):
    spec, rows = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        rings = _spy_rings(monkeypatch)
        table, phis = coefficient_table(spec, rows), dual_polynomials(spec, rows)
        units = all(spec.i_seq(k) in (ONE, -ONE) for k in range(rows))
        assert [width is None for width, _ in rings] == [not units, False]
    with pytest.MonkeyPatch.context() as monkeypatch:
        _forced_onto_scalars(monkeypatch)
        scalar_table, scalar_phis = coefficient_table(spec, rows), dual_polynomials(spec, rows)
    interleaved = _interleaved_table(spec, rows), _interleaved_duals(spec, rows)
    for other_table, other_phis in ((scalar_table.rows, scalar_phis), interleaved):
        assert [_typed(row) for row in table.rows] == [_typed(row) for row in other_table]
        assert [_typed(phi.coeffs) for phi in phis] == [_typed(phi.coeffs) for phi in other_phis]


def test_i_off_plus_minus_one_or_off_int_polynomials_takes_the_scalar_loops(monkeypatch):
    rings = _spy_rings(monkeypatch)
    for spec in (
        TriadSpec.of([1, 2, 1], [Q, 1, 2], [0, 1, Q]),
        TriadSpec.of(1, [Q, ONE / (ONE + Q), 2], 1),
        TriadSpec.of(1, 0, [0, Q / 2, 1]),
    ):
        assert list(coefficient_table(spec, 3).rows) == _interleaved_table(spec, 3)
        assert dual_polynomials(spec, 3) == _interleaved_duals(spec, 3)
    # the triangle reads no i off +-1 and packs the first spec; every spec's
    # duals consult _ring_for, and none packs: the first multiplies by
    # 1/i(1) = 1/2, the second by -q(1) = -1/(1 + q), the third by -d(1) = -q/2
    assert [width is None for width, _ in rings] == [False, True, True, True, True, True]
    assert [ring for _, ring in rings] == ["packed"] + ["scalar"] * 5


@st.composite
def short_specs(draw):
    """Specs whose sequences may run short, each naming itself when it does, and whose i may be zero anywhere."""
    rows = draw(st.integers(0, 8))
    entries = st.one_of(st.sampled_from((ZERO, ONE, -ONE, Q, 2 * Q - 1)), wide_int_polynomials)

    def sequence(name, values):
        values = draw(st.lists(values, min_size=max(rows - 2, 0), max_size=rows + 1))

        def rule(k):
            if k >= len(values):
                raise IndexError(f"{name}({k}) is not given")
            return values[k]

        return rule

    i_seq = sequence("i", st.one_of(st.sampled_from((ONE, -ONE, ZERO)), entries))
    return TriadSpec(i_seq, sequence("q", entries), sequence("d", entries)), rows


@settings(deadline=None, max_examples=100)
@given(short_specs())
def test_reads_and_errors_follow_the_interleaved_loops(case):
    spec, rows = case
    table = _outcome(lambda: list(coefficient_table(spec, rows).rows))
    assert table == _outcome(lambda: _interleaved_table(spec, rows))
    assert _outcome(lambda: dual_polynomials(spec, rows)) == _outcome(lambda: _interleaved_duals(spec, rows))


@pytest.mark.parametrize("forced", [False, True])
def test_recurrence_edges(monkeypatch, forced):
    if forced:
        _forced_onto_scalars(monkeypatch)
    # a zero i(3) is met before q(3), past the end of a list of 3
    with pytest.raises(SingularTriadError) as info:
        dual_polynomials(TriadSpec.of([1, -1, 1, 0, 1], [Q, 1, 2], 1), 5)
    assert info.value.k == 3
    # lists of exactly `rows` entries suffice; one fewer fails on the same entry
    exact = TriadSpec.of([1, -1] * 3, [Q + k for k in range(6)], [0] + [2 * Q] * 5)
    assert coefficient_table(exact, 6).rows == tuple(_interleaved_table(exact, 6))
    assert dual_polynomials(exact, 6) == _interleaved_duals(exact, 6)
    short = TriadSpec.of([1, -1] * 3, [Q + k for k in range(5)], [0] + [2 * Q] * 5)
    for recurrence in (coefficient_table, dual_polynomials):
        with pytest.raises(IndexError, match="^coefficient sequence of length 5 has no entry 5$"):
            recurrence(short, 6)
    # the degree cap, and the smallest and negative sizes
    for spec in (pascal_spec(), TriadSpec.of(2, Q, 1)):
        with pytest.raises(DegreeLimitError, match="^degree 65 exceeds cap 64$"):
            dual_polynomials(spec, 65)
        assert len(dual_polynomials(spec, 64)) == 65
        assert coefficient_table(spec, 0).rows == ((ONE,),)
        assert dual_polynomials(spec, 0) == [P_ONE]
        with pytest.raises(ValueError, match="^row count must be nonnegative$"):
            coefficient_table(spec, -1)
        with pytest.raises(ValueError, match="^count must be nonnegative$"):
            dual_polynomials(spec, -1)


# -- the connection check at two points ------------------------------------------

def _two_point_results(monkeypatch):
    """The results of ``_connection_at_two_points``, recorded as ``verify_connection`` calls it."""
    results = []
    real = triad._connection_at_two_points

    def spy(values, dual_values, rows):
        results.append(real(values, dual_values, rows))
        return results[-1]

    monkeypatch.setattr(triad, "_connection_at_two_points", spy)
    return results


def _perturb_cell(monkeypatch, n, k, amount=lambda one: one):
    """Add ``amount(1)`` to cell [n][k] of every triangle over a value ring.

    The l1 bound's triangle, the only one whose values are ints (d(0)'s
    stand-in among them), stays.
    """
    real = triad._triangle

    def perturbed(i, q, d, rows):
        table = real(i, q, d, rows)
        if type(d[0]) is not int:
            table[n][k] = table[n][k] + amount(1)
        return table

    monkeypatch.setattr(triad, "_triangle", perturbed)


def _connection_both_ways(spec, rows, perturbed_cell=None):
    """The lines of ``verify_connection`` and what the two-point check returned, after
    asserting that the lines are the same with the two-point check forced off."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        if perturbed_cell is not None:
            _perturb_cell(monkeypatch, *perturbed_cell)
            # the Scalar route on Scalar loops: a cell one past the bound of
            # the packed triangle would not read back from its slot
            _forced_onto_scalars(monkeypatch)
        checks = _two_point_results(monkeypatch)
        lines = verify_connection(spec, rows).lines
        monkeypatch.setattr(triad, "_connection_at_two_points", lambda values, dual_values, rows: False)
        assert verify_connection(spec, rows).lines == lines
    return lines, checks


@settings(deadline=None, max_examples=60)
@given(unit_i_specs(), st.data())
def test_two_point_check_gives_the_lines_of_the_scalar_route(case, data):
    spec, rows = case
    assert _connection_both_ways(spec, rows) == ([(True, f"x^n recovered for all n <= {rows}")], [True])
    # one more phi_k in row n: the two-point check refuses it, and the
    # Scalar route names the row and phi_k
    n = data.draw(st.integers(0, rows))
    k = data.draw(st.integers(0, n))
    lines, checks = _connection_both_ways(spec, rows, (n, k))
    assert (lines, checks) == ([(False, f"n={n}: residual {dual_polynomials(spec, rows)[k]}")], [False])


def test_connection_reads_each_value_as_often_on_and_off_the_two_point_check(monkeypatch):
    # each route runs both recurrences on the values verify_connection read:
    # i, q at 0..rows-1 and d at 1..rows-1, once for the triangle and once
    # for the duals, whether or not the check runs at two points
    rows = 6
    checks = _two_point_results(monkeypatch)
    counts = []
    for i in ([1, -1] * 3, [1, Fraction(1, 2)] * 3):
        reads = Counter()

        def counted(name, values):
            def rule(k):
                reads[name, k] += 1
                return values[k]

            return rule

        q, d = [Q + k for k in range(rows)], [0] + [2 * Q] * (rows - 1)
        spec = TriadSpec.of(counted("i", i), counted("q", q), counted("d", d))
        assert verify_connection(spec, rows).ok
        counts.append(reads)
    assert checks == [True, False]
    assert counts[0] == counts[1]
    read = {(name, k) for name in "iq" for k in range(rows)} | {("d", k) for k in range(1, rows)}
    assert counts[0] == dict.fromkeys(read, 2)


def test_a_residual_that_vanishes_at_one_point_is_refused(monkeypatch):
    spec, rows = gauss_spec(), 6
    values, dual_values = triad._triangle_values(spec, rows), triad._dual_values(spec, rows)
    assert triad._connection_at_two_points(values, dual_values, rows)
    points = []
    real_factors = triad._packed_factors

    def factors(sequences, width, sign=1):
        points.append((width, sign))
        return real_factors(sequences, width, sign)

    def residual(one):
        # S = q^2 - 2^b*q at the point q = sign*2^b the triangle's values were
        # just packed at: S vanishes at 2^b, not at -2^b, and its coefficients
        # 1 and -2^b are inside the range |S| < 2^(2b - 1) where two points are exact
        width, sign = points[-1]
        b = 8 * width
        q = sign << b
        return q * q - (one << b) * q

    monkeypatch.setattr(triad, "_packed_factors", factors)
    _perturb_cell(monkeypatch, 2, 0, residual)
    assert not triad._connection_at_two_points(values, dual_values, rows)
    # the first point passed, so the second refused it
    assert [sign for _, sign in points] == [1, 1, -1, -1]


@settings(deadline=None, max_examples=60)
@given(unit_i_specs())
def test_connection_bound_covers_every_cell_and_product(case):
    spec, rows = case
    values = triad._triangle_values(spec, rows)
    signed = triad._dual_values(spec, rows)
    bound = triad._connection_bound(_l1_norms((*values, *signed)), rows)
    table, phis = coefficient_table(spec, rows), dual_polynomials(spec, rows)

    def top(s):
        return max(map(abs, s.num.coeffs))

    def l1(s):
        return sum(map(abs, s.num.coeffs))

    assert all(top(v) <= bound for seq in (*values, *signed) for v in seq)
    assert all(top(c) <= bound for row in table.rows for c in row)
    assert all(top(c) <= bound for phi in phis for c in phi.coeffs)
    for n, row in enumerate(table.rows):
        for j in range(n + 1):
            assert sum(l1(row[k]) * top(phis[k].coeffs[j]) for k in range(j, n + 1)) <= bound


def _scaled_spec(bits):
    """i = 1, q(k) = (2^bits + k)*q^k, d(k) = -2^bits*q^k."""
    return TriadSpec.of(ONE, lambda k: (2**bits + k) * qpow(k), lambda k: -(2**bits) * qpow(k), name=f"scaled{bits}")


@pytest.mark.parametrize(
    "spec, rows, half",
    [
        (gauss_spec(), 26, 3),  # B needs a slot of 5 bytes
        (_scaled_spec(28), 2, 4),  # 8 bytes
        (_scaled_spec(60), 2, 8),  # 16 bytes
        (_scaled_spec(20), 8, 11),  # 22 bytes: _pack's int.to_bytes path
        (_scaled_spec(70), 1, 9),  # 10 bytes, but the values' coefficients need 9
    ],
)
def test_half_widths_on_both_sides_of_eight_bytes(monkeypatch, spec, rows, half):
    points = []
    real_factors = triad._packed_factors

    def factors(sequences, width, sign=1):
        points.append((width, sign))
        return real_factors(sequences, width, sign)

    monkeypatch.setattr(triad, "_packed_factors", factors)
    assert _connection_both_ways(spec, rows) == ([(True, f"x^n recovered for all n <= {rows}")], [True])
    assert points == [(half, 1), (half, 1), (half, -1), (half, -1)]
    points.clear()
    lines, checks = _connection_both_ways(spec, rows, (rows, 0))
    assert (lines, checks) == ([(False, f"n={rows}: residual 1")], [False])
    assert points == [(half, 1), (half, 1)]


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize(
    "spec, packed",
    [
        (gauss_spec(), [False, False]),
        (TriadSpec.of([1, -1, 1, -1], [Q, 2 - Q, 0, Q**3], [0, 2 * Q, -1, Q]), [False, False]),
        (TriadSpec.of([2, 1, 3, 1], [Q / (1 + Q), 1, Q, 2], 1), [True, True]),
    ],
)
def test_every_cell_is_a_scalar_on_both_routes(monkeypatch, spec, packed, forced):
    # the recurrences start from the ints 0 and 1, so c[0][0] and phi_0 are
    # ints until the read-back; every cell and coefficient comes back a Scalar
    results = _spy_rings(monkeypatch)
    if forced:
        _forced_onto_scalars(monkeypatch)
    table, phis = coefficient_table(spec, 4), dual_polynomials(spec, 4)
    if not forced:
        assert [width is None for width, _ in results] == packed
    assert table.rows[0] == (ONE,) and phis[0].coeffs == (ONE,)
    assert {type(c) for row in table.rows for c in row} == {Scalar}
    assert {type(c) for phi in phis for c in phi.coeffs} == {Scalar}


def _both_recurrences(spec, rows):
    return coefficient_table(spec, rows).rows, dual_polynomials(spec, rows)


@pytest.mark.parametrize(
    "spec",
    [pascal_spec(), stirling2_spec(), TriadSpec.of(Fraction(1, 2), Fraction(3, 2), Fraction(-1, 3), name="thirds")],
    ids=lambda spec: spec.name,
)
def test_specs_constant_in_q_run_on_native_numbers(monkeypatch, spec):
    rows = 9
    rings = _spy_rings(monkeypatch)
    table, phis = _both_recurrences(spec, rows)
    assert [ring for _, ring in rings] == ["native", "native"]
    assert {type(c) for row in table for c in row} == {Scalar}
    assert {type(c) for phi in phis for c in phi.coeffs} == {Scalar}
    _forced_onto_scalars(monkeypatch)
    assert [_typed(row) for row in table] == [_typed(row) for row in coefficient_table(spec, rows).rows]
    assert [_typed(phi.coeffs) for phi in phis] == [_typed(phi.coeffs) for phi in dual_polynomials(spec, rows)]


def _capped_spec():
    """i = 1, q(0) = 6, q(k) = 3 + 3q^k, d(k) = 3q^k: its table needs a slot of 8 bytes at 20 rows and 9 at 21."""
    return TriadSpec.of(ONE, lambda k: as_scalar(6) if k == 0 else 3 + 3 * qpow(k), lambda k: 3 * qpow(k), name="capped")


@pytest.mark.parametrize("rows, widths, table_ring", [(20, [8, 8], "packed"), (21, [9, 8], "scalar")])
def test_the_table_leaves_the_packed_ring_past_eight_bytes(monkeypatch, rows, widths, table_ring):
    spec = _capped_spec()
    rings = _spy_rings(monkeypatch)
    table, phis = _both_recurrences(spec, rows)
    assert rings == [(widths[0], table_ring), (widths[1], "packed")]
    _forced_onto_scalars(monkeypatch)
    assert [_typed(row) for row in table] == [_typed(row) for row in coefficient_table(spec, rows).rows]
    assert [_typed(phi.coeffs) for phi in phis] == [_typed(phi.coeffs) for phi in dual_polynomials(spec, rows)]
