import operator
from fractions import Fraction
from math import comb

import pytest

from hypermap_census import (
    InexactDivisionError,
    NonIntegerCoefficientError,
    RootedCensus,
    TSeries,
    USeries,
    ValuationError,
    hg_trivariate,
    hg_univariate,
    hg_via_t,
    pqr_of_xyu,
    t_of_z,
    tau_of_z,
)
from hypermap_census.cli import DEEP_MAX_DARTS, DEFAULT_MAX_DARTS
from hypermap_census.series import (
    MAX_UNIVARIATE_GENUS,
    _elementary_of_symmetric,
    _expand_symmetric,
    _lagrange,
    _t_form,
    _t_row,
    _tau_form,
    _tau_row,
)
from hypermap_census.series import _poly_product as poly_product
from hypermap_census.series_data import (
    GENUS_NUMERATOR_E,
    GENUS_NUMERATOR_T,
    GENUS_NUMERATOR_TAU,
    PLANAR_BRACKET_POLY,
)
from bruteforce import rational_at_by_powers


def lagrange_tau_coefficient(n: int) -> int:
    # reversion of w*(1 - 2*w):  [z^n] tau = 2^(n-1)/n * C(2n-2, n-1)
    return 2 ** (n - 1) * comb(2 * n - 2, n - 1) // n


def test_tau_against_lagrange_inversion():
    tau = tau_of_z(8)
    assert tau.coefficient(0) == 0
    for n in range(1, 9):
        assert tau.coefficient(n) == lagrange_tau_coefficient(n)
    assert [tau.coefficient(k) for k in range(6)] == [0, 1, 2, 8, 40, 224]
    # the kernel with F(w) = w reads off each parameter series itself
    assert _lagrange([0, 1], [1], 0, 30, _tau_row) == tau_of_z(30)
    assert _lagrange([0, 1], [1], 0, 30, _t_row) == t_of_z(30)


def test_tau_defining_relation_closes():
    tau = tau_of_z(12)
    z = USeries.identity(12)
    assert tau * (1 - 2 * tau) == z


def test_t_parameter_tangent_to_z():
    t = t_of_z(6)
    assert t.coefficient(0) == 0
    assert t.coefficient(1) == 1


@pytest.mark.parametrize("g,first,start", [
    (0, [1, 3, 12, 56, 288], 1),
    (1, [1, 15, 165], 3),
    (2, [8, 252, 4956], 5),
])
def test_univariate_low_coefficients(g, first, start):
    h = hg_univariate(g, start + len(first) - 1)
    assert [h.coefficient(start + i) for i in range(len(first))] == first


def test_univariate_genus_six_first_value():
    h = hg_univariate(6, 13)
    assert h.coefficient(13) == 68428800


def test_univariate_valuation():
    for g in range(0, 7):
        assert hg_univariate(g, 14).valuation() == 2 * g + 1


def test_parameterizations_agree():
    for g in range(0, 7):
        assert hg_via_t(g, 12) == hg_univariate(g, 12)


def test_coefficients_are_nonnegative_integers():
    for g in range(0, 7):
        coeffs = hg_univariate(g, 14).integer_coefficients()
        assert all(c >= 0 for c in coeffs)


def test_useries_guards():
    s = USeries([0, Fraction(1, 2)], 3)
    with pytest.raises(NonIntegerCoefficientError):
        s.integer_coefficients()
    with pytest.raises(ValuationError):
        USeries([0, 1], 3).inverse()
    with pytest.raises(ValuationError):
        USeries([2, 1], 3).inverse()
    tau = tau_of_z(20)
    den = (1 - tau) ** 5 * (1 - 4 * tau) ** 7     # the genus-2 denominator
    assert den * den.inverse() == USeries.constant(1, 20)
    with pytest.raises(ValueError):
        USeries([1], 3) * USeries([1], 4)
    with pytest.raises(ValueError):
        hg_univariate(7, 10)


def test_useries_coefficient_of_negative_degree_is_zero():
    h = hg_univariate(0, 5)
    assert [h.coefficient(k) for k in (-6, -2, -1)] == [0, 0, 0]
    assert h.coefficient(5) == h.parts[5] != 0
    with pytest.raises(IndexError):
        h.coefficient(6)


def schoolbook(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_products_match_the_schoolbook_product():
    """``_poly_product``, USeries ``*`` and ``**`` all run on the one
    per-degree kernel; lists of unequal lengths reach its edge slices, where
    the degree is past the end of one list."""
    lists = [[3], [-2, 1], [0, 5, 0, -1], [1, -4, 2, 0, 7, -3]]
    for a in lists:
        cube = schoolbook(schoolbook(a, a), a)
        for b in lists:
            assert poly_product(a, b) == schoolbook(a, b), (a, b)
            for n in range(9):
                assert USeries(a, n) * USeries(b, n) == USeries(schoolbook(a, b), n), (a, b, n)
        for n in range(9):
            assert USeries(a, n) ** 3 == USeries(cube, n), (a, n)


def test_lagrange_guards():
    for row in (_tau_row, _t_row):
        for den in ([2, 1], [0, 1], [-3]):
            # the divisor is checked even when the shift passes the order
            for shift in (0, 7):
                with pytest.raises(ValuationError):
                    _lagrange([1], den, shift, 6, row)
        assert _lagrange([1, 1], [1, -1], 7, 6, row) == USeries.constant(0, 6)
        assert _lagrange([1, 1], [1, -1], 6, 6, row) == USeries([0] * 6 + [1], 6)
    # a constant term of -1 divides as well: tau / (tau - 1) = -tau / (1 - tau)
    tau = tau_of_z(6)
    assert _lagrange([0, 1], [-1, 1], 0, 6, _tau_row) == -1 * tau * (1 - tau).inverse()


ROUTES = [(hg_univariate, tau_of_z, _tau_form), (hg_via_t, t_of_z, _t_form)]


@pytest.mark.parametrize("order", [*range(1, 31), 50, pytest.param(100, marks=pytest.mark.deep)])
def test_lagrange_kernel_matches_the_power_walk(order):
    """Both routes, every genus, against the walk over the parameter's powers."""
    for build, param, form in ROUTES:
        walk_param = param(order).parts
        for g in range(MAX_UNIVARIATE_GENUS + 1):
            assert build(g, order).parts == rational_at_by_powers(walk_param, *form(g)), \
                (build.__name__, g)


@pytest.mark.parametrize("form,row", [
    (_tau_form, lambda m: [0] + _tau_row(m)[:-1]),                               # times w
    (_tau_form, lambda m: [comb(m + k, k + 1) << (k + 1) for k in range(m)]),   # over w
    (_t_form, lambda m: [0] + _t_row(m)[:-1]),
    (_t_form, lambda m: [comb(2 * m, k + 1) << (k + 1) for k in range(m)]),
], ids=["tau-up", "tau-down", "t-up", "t-down"])
def test_lagrange_division_catches_a_row_shifted_by_one_degree(form, row):
    for g in range(MAX_UNIVARIATE_GENUS + 1):
        with pytest.raises(InexactDivisionError):
            _lagrange(*form(g), 30, row)


def _without_powers_of_two(row):
    return lambda m: [c >> k for k, c in enumerate(row(m))]


@pytest.mark.parametrize("form,row,other", [
    (_tau_form, _without_powers_of_two(_tau_row), hg_via_t),
    (_tau_form, _t_row, hg_via_t),
    (_t_form, _without_powers_of_two(_t_row), hg_univariate),
    (_t_form, _tau_row, hg_univariate),
])
def test_routes_disagree_on_a_wrong_row_that_divides_exactly(form, row, other):
    """A row without its 2**k, or the other route's row, passes every
    division by m; only the other route's series tells it apart."""
    for g in range(MAX_UNIVARIATE_GENUS + 1):
        assert _lagrange(*form(g), 30, row) != other(g, 30), g


def _check_division(num, den, sign):
    assert den._constant_term() == sign
    quotient = num / den
    assert quotient == num * den.inverse()
    assert quotient * den == num
    assert den / den == type(den).constant(1, den.order)


@pytest.mark.parametrize("sign", [1, -1])
def test_useries_division_inverts_multiplication(sign):
    tau = tau_of_z(20)
    den = sign * (1 - tau) ** 5 * (1 - 4 * tau) ** 7     # the genus-2 denominator
    _check_division(tau ** 3 * (1 - 3 * tau), den, sign)


@pytest.mark.parametrize("sign", [1, -1])
def test_tseries_division_inverts_multiplication(sign):
    p, q, r = pqr_of_xyu(8)
    den = sign * ((1 - p - q - r) ** 2 - 4 * (p * q * r)) ** 7   # the genus-2 bracket
    _check_division(p * q * r * (1 - p + q * r), den, sign)


@pytest.mark.parametrize("den", [
    USeries([0, 1], 3), USeries([2, 1], 3),
    TSeries.variable("x", 3), 2 + TSeries.variable("x", 3)])
def test_division_needs_a_unit_constant_term(den):
    with pytest.raises(ValuationError):
        type(den).constant(1, 3) / den


def test_tseries_guards():
    with pytest.raises(ValuationError):
        (2 + TSeries.variable("x", 3)).inverse()
    with pytest.raises(ValuationError):
        TSeries.variable("x", 3).inverse()
    with pytest.raises(ValueError):
        TSeries.variable("x", 3) * TSeries.variable("x", 4)
    p, q, r = pqr_of_xyu(8)
    bracket = ((1 - p - q - r) ** 2 - 4 * (p * q * r)) ** 7   # the genus-2 denominator
    assert bracket * bracket.inverse() == TSeries.constant(1, 8)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_series_kinds_do_not_mix(op):
    u, t = USeries.identity(3), TSeries.variable("x", 3)
    for a, b in ((u, t), (t, u)):
        with pytest.raises(TypeError):
            op(a, b)


def test_pqr_linear_parts():
    p, q, r = pqr_of_xyu(6)
    assert p.coefficient(1, 0, 0) == 1 and p.coefficient(0, 1, 0) == 0 \
        and p.coefficient(0, 0, 1) == 0
    assert q.coefficient(0, 0, 1) == 1 and q.coefficient(1, 0, 0) == 0
    assert r.coefficient(0, 1, 0) == 1 and r.coefficient(0, 0, 1) == 0


def test_planar_trivariate_two_dart_rows():
    h0 = hg_trivariate(0, 5)
    assert h0.coefficient(1, 1, 2) == 1
    assert h0.coefficient(1, 2, 1) == 1
    assert h0.coefficient(2, 1, 1) == 1
    assert h0.d.get((0, 0, 0), 0) == 0   # the empty hypermap is excluded


@pytest.mark.parametrize("g,key,expected", [
    (1, (1, 1, 1), 1),
    (1, (1, 2, 1), 5),
    (2, (1, 1, 1), 8),
])
def test_trivariate_printed_values(g, key, expected):
    assert hg_trivariate(g, 4).coefficient(*key) == expected


def test_trivariate_lower_orders_are_truncations():
    # orders up to 4 solve p, q, r at order 1, the floor of max(N - 3, 1)
    for g in range(3):
        full = hg_trivariate(g, 16).d
        for n in range(1, 16):
            assert hg_trivariate(g, n).d == \
                {key: v for key, v in full.items() if sum(key) <= n}, (g, n)


def test_univariate_lower_orders_are_prefixes():
    for g in range(7):
        tau_full = hg_univariate(g, 60).parts
        t_full = hg_via_t(g, 60).parts
        for n in range(1, 31):
            assert hg_univariate(g, n).parts == tau_full[:n + 1], (g, n)
            assert hg_via_t(g, n).parts == t_full[:n + 1], (g, n)


@pytest.mark.parametrize("max_darts", [
    DEFAULT_MAX_DARTS, pytest.param(DEEP_MAX_DARTS, marks=pytest.mark.deep)])
def test_series_equal_fill_totals_at_the_cli_dart_caps(max_darts):
    # every coefficient `series` prints, without and with --deep
    census = RootedCensus(MAX_UNIVARIATE_GENUS, max_darts)
    for g in range(MAX_UNIVARIATE_GENUS + 1):
        totals = [0] + [census.total(g, d) for d in range(1, max_darts + 1)]
        assert hg_univariate(g, max_darts).parts == totals, g
        assert hg_via_t(g, max_darts).parts == totals, g


@pytest.mark.parametrize("max_darts,cells", [
    (30, 12_296), pytest.param(50, 58_996, marks=pytest.mark.deep)])
def test_trivariate_series_equal_every_genus_0_to_2_cell(max_darts, cells):
    """Every (v, e, f) cell of genus g <= 2 with at most max_darts darts,
    zero cells included, is its coefficient in the refined series taken to
    the cells' largest total degree max_darts + 2 - 2g, and the series has
    no nonzero term off those cells."""
    census = RootedCensus(2, max_darts)
    checked = 0
    for g in range(3):
        top = max_darts + 2 - 2 * g
        tri = hg_trivariate(g, top)
        keys = set()
        for n in range(3, top + 1):     # n = v + e + f = darts + 2 - 2g
            for v in range(1, n - 1):
                for e in range(1, n - v):
                    f = n - v - e
                    keys.add((v, e, f))
                    assert tri.coefficient(v, e, f) == \
                        census.count(g, n - 2 + 2 * g, v, e, f), (g, v, e, f)
        assert {key for key, c in tri.d.items() if c} <= keys, g
        checked += len(keys)
    assert checked == cells


@pytest.mark.parametrize("build,genera", [
    (hg_univariate, range(7)),
    (hg_via_t, range(7)),
    (hg_trivariate, range(3)),
])
def test_order_zero_is_rejected(build, genera):
    for g in genera:
        with pytest.raises(ValueError):
            build(g, 0)


@pytest.mark.parametrize("build,g,order", [
    (hg_univariate, 1.0, 5), (hg_univariate, 0.0, 5), (hg_univariate, 1, 5.0),
    (hg_univariate, True, 5), (hg_univariate, 1, True),
    (hg_via_t, 2.0, 5), (hg_via_t, 1, 5.0), (hg_via_t, True, 5),
    (hg_trivariate, 0, 2.0), (hg_trivariate, 1.0, 3), (hg_trivariate, 0, True),
    (hg_trivariate, True, 3),
])
def test_bounds_must_be_ints(build, g, order):
    with pytest.raises(ValueError):
        build(g, order)


def _poly_product(a: dict, b: dict) -> dict:
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(i + j for i, j in zip(ka, kb))
            out[key] = out.get(key, 0) + va * vb
    return {key: v for key, v in out.items() if v}


ELEMENTARY_PQR = [
    {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1},
    {(1, 1, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1},
    {(1, 1, 1): 1},
]


def test_elementary_series_expand_to_the_parameter_sums():
    for order in range(1, 13):
        p, q, r = pqr_of_xyu(order)
        e1, e2, e3 = (_expand_symmetric(e) for e in _elementary_of_symmetric(order))
        assert e1 == p + q + r, order
        assert e2 == p * q + q * r + r * p, order
        assert e3 == p * q * r, order


# each numerator P_g in the parameters p, q, r; a symmetric polynomial has
# exactly one form in E1, E2, E3, so expanding back checks every term
NUMERATOR_PQR = {1: {(0, 0, 0): 1}, 2: dict(PLANAR_BRACKET_POLY)}


@pytest.mark.parametrize("g", sorted(GENUS_NUMERATOR_E))
def test_numerator_in_elementary_form_expands_back(g):
    total = {}
    for exponents, coef in GENUS_NUMERATOR_E[g]:
        term = {(0, 0, 0): coef}
        for factor, n in zip(ELEMENTARY_PQR, exponents):
            for _ in range(n):
                term = _poly_product(term, factor)
        for key, v in term.items():
            total[key] = total.get(key, 0) + v
    assert {key: v for key, v in total.items() if v} == NUMERATOR_PQR[g]


def test_trivariate_rejects_unavailable_genus():
    with pytest.raises(ValueError):
        hg_trivariate(3, 6)


# transcription checksums for the embedded coefficient data
TAU_CHECKSUMS = {
    2: (9, 193),
    3: (3105, 123625),
    4: (2881737, -1109537687),
    5: (5166715329, -11236193939975),
    6: (15211920003849, 49672071823017241),
}
T_CHECKSUMS = {
    2: (9, 9),
    3: (12683, -3105),
    4: (49230105, 2881737),
    5: (373000443171, -5166715329),
    6: (4662616289318977, 15211920003849),
}


def test_numerators_satisfy_substitution_identity():
    """The two parameters relate by tau = t/(1+2t), which forces the exact
    polynomial identity  P_t(t) == (1+2t)**(5g-6) * P_tau(t/(1+2t)).  This
    ties every coefficient of one transcription to the other, so a slip in
    either embedded table breaks it."""
    for g in range(2, 7):
        pt = GENUS_NUMERATOR_T[g]
        ptau = GENUS_NUMERATOR_TAU[g]
        deg = 5 * g - 6
        for t in range(1, deg + 3):   # deg+2 points pin a degree-deg polynomial
            lhs = sum(c * t ** i for i, c in enumerate(pt))
            tau = Fraction(t, 1 + 2 * t)
            rhs = (1 + 2 * t) ** deg * sum(c * tau ** i for i, c in enumerate(ptau))
            assert lhs == rhs, (g, t)


def test_parameterizations_agree_deep_enough_to_use_every_coefficient():
    # at order 45 even the top coefficient of the genus-6 numerators (degree
    # 24, entering at z**37) influences checked output
    for g in (5, 6):
        assert hg_via_t(g, 45) == hg_univariate(g, 45)


def test_embedded_data_checksums():
    for g, (at1, atm1) in TAU_CHECKSUMS.items():
        coeffs = GENUS_NUMERATOR_TAU[g]
        assert len(coeffs) == 5 * g - 5
        assert sum(coeffs) == at1
        assert sum(c * (-1) ** i for i, c in enumerate(coeffs)) == atm1
    for g, (at1, atm1) in T_CHECKSUMS.items():
        coeffs = GENUS_NUMERATOR_T[g]
        assert len(coeffs) == 5 * g - 5
        assert sum(coeffs) == at1
        assert sum(c * (-1) ** i for i, c in enumerate(coeffs)) == atm1
    assert len(PLANAR_BRACKET_POLY) == 199
    assert sum(c for _, c in PLANAR_BRACKET_POLY) == 0
    assert sum(c * (-1) ** k[2] for k, c in PLANAR_BRACKET_POLY) == -192
    assert sum(c * 2 ** k[0] for k, c in PLANAR_BRACKET_POLY) == 36
    # the polynomial is symmetric in its three parameters
    terms = dict(PLANAR_BRACKET_POLY)
    for (a, b, c), coef in terms.items():
        assert terms.get((b, a, c)) == coef and terms.get((a, c, b)) == coef
