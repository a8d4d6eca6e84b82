"""Growth series, the exponent estimator and its calibration, verifiers.

Calibration constants (slopes, classifications, flag outcomes) are frozen
from direct runs of the estimator on closed-form series; counts are frozen
from tests/oracle.py.
"""

import math

import pytest
from hypothesis import given, strategies as st

from digrow.cli import load_presentation
from digrow import fixture_path
from digrow.growth import (
    BOUNDED,
    GAP_BAND,
    POLYNOMIAL,
    STABLE_RESIDUAL,
    SUPERPOLYNOMIAL,
    GkEstimate,
    GrowthSeries,
    default_window,
    gap_check,
    gk_estimate,
    growth_series,
    identity_class_check,
    special_basis_check,
    theorem_a_check,
)
from digrow.presentation import ASSOCIATIVE, DIALGEBRA, basis_upto


def fixture(name):
    return load_presentation(fixture_path(name))


def series_of(cum, mode=DIALGEBRA, **kw):
    return GrowthSeries.from_cumulative(cum, mode=mode, **kw)


# ===== the series type =====================================================


def test_series_construction_and_accessors():
    s = GrowthSeries.from_per_degree([1, 2, 3])
    assert s.cumulative == (1, 3, 6)
    assert s.count(2) == 2 and s.cumulative_at(3) == 6
    assert s.degree_bound == 3
    t = series_of([1, 3, 6])
    assert t.per_degree == (1, 2, 3)


def test_series_validation():
    with pytest.raises(ValueError):
        GrowthSeries((1, 2), (1,), DIALGEBRA, "x")
    with pytest.raises(ValueError):
        GrowthSeries((1, 2), (1, 2), DIALGEBRA, "x")  # cumulative mismatch
    with pytest.raises(ValueError):
        GrowthSeries((), (), DIALGEBRA, "x")
    with pytest.raises(ValueError):
        series_of([2, 1])  # decreasing cumulative = negative count


def test_series_json_and_csv_shapes():
    s = GrowthSeries.from_per_degree([1, 2], fingerprint="abc")
    d = s.to_json_dict()
    assert d["per_degree"] == [1, 2] and d["cumulative"] == [1, 3]
    assert d["mode"] == DIALGEBRA and d["fingerprint"] == "abc"
    assert s.to_csv() == "n,count_n,cumulative_n,mode\n1,1,1,dialgebra\n2,2,3,dialgebra\n"
    assert s.to_json().endswith("\n")


# ===== series from presentations ===========================================


def test_series_from_table_matches_growth_series():
    for name, mode in (("inhomog_ab", DIALGEBRA), ("inhomog_ab", ASSOCIATIVE),
                       ("comm_ab", DIALGEBRA)):
        pres = fixture(name)
        table = basis_upto(pres, 5, mode)
        series = GrowthSeries.from_table(table)
        assert series == growth_series(pres, 5, mode)
        assert series.per_degree == tuple(table.counts_by_degree())
        assert series.exact == table.exact
        assert bool(series.warnings) == (not table.exact)


def test_free_single_generator_series():
    s = growth_series(fixture("free_a"), 50)
    for n in range(1, 51):
        assert s.cumulative_at(n) == n * (n + 1) // 2
    assert s.exact and s.warnings == ()
    a = growth_series(fixture("free_a"), 50, mode=ASSOCIATIVE)
    for n in range(1, 51):
        assert a.cumulative_at(n) == n


def test_free_two_generator_series_matches_enumeration():
    from oracle import o_monomials

    s = growth_series(fixture("free_ab"), 8)
    for t in range(1, 9):
        assert s.count(t) == t * 2**t == len(o_monomials(("a", "b"), t))
    assert s.count(2) == 8 and s.cumulative_at(2) == 10


def test_free_counts_exhaustive_small():
    from oracle import o_monomials

    for k, names in ((1, ("a",)), (2, ("a", "b")), (3, ("a", "b", "c"))):
        from digrow.monomial import Alphabet
        from digrow.presentation import Presentation

        pres = Presentation(Alphabet.of(*names))
        sd = growth_series(pres, 6)
        sa = growth_series(pres, 6, mode=ASSOCIATIVE)
        for t in range(1, 7):
            assert sd.count(t) == t * k**t == len(o_monomials(names, t))
            assert sa.count(t) == k**t == len(o_monomials(names, t, associative=True))


def test_truncated_series_carry_warnings():
    s = growth_series(fixture("inhomog_ab"), 4)
    assert not s.exact
    assert s.warnings == (
        "approximate: lower-bound ideal / upper-bound basis (slack 2)",
    )
    assert s.per_degree == (2, 3, 4, 5)
    exact = growth_series(fixture("comm_ab"), 4)
    assert exact.exact and exact.warnings == ()


# ===== estimator calibration ===============================================


def test_default_window():
    assert default_window(512) == (128, 512)
    assert default_window(8) == (2, 8)
    assert default_window(4) == (2, 4)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_recovers_polynomial_degree(d):
    cum = [max(1, round(3 * n**d)) for n in range(1, 513)]
    est = gk_estimate(series_of(cum), (64, 512))
    if d == 0:
        assert est.classification == BOUNDED and est.slope == 0.0
    else:
        assert est.classification == POLYNOMIAL
        assert abs(est.slope - d) <= 0.05
        assert est.degree == est.slope
        assert est.residual <= STABLE_RESIDUAL


def test_triangular_series_slope():
    cum = [n * (n + 1) // 2 for n in range(1, 513)]
    est = gk_estimate(series_of(cum), (128, 512))
    assert est.classification == POLYNOMIAL
    assert 1.9 <= est.slope <= 2.1  # measured 1.9962
    assert est.residual < 0.01


def test_linear_series_slope():
    est = gk_estimate(series_of(range(1, 513)), (64, 512))
    assert est.classification == POLYNOMIAL
    assert 0.95 <= est.slope <= 1.05
    # affine-ish shapes from the single-generator fixtures
    est = gk_estimate(series_of([2 * n - 1 for n in range(1, 257)]), (64, 256))
    assert 0.95 <= est.slope <= 1.05  # measured 1.0039
    est = gk_estimate(GrowthSeries.from_per_degree([1, 2] + [1] * 254), (64, 256))
    assert 0.95 <= est.slope <= 1.05  # measured 0.9924


def test_quadraticish_inhomogeneous_shape():
    cum = [n * (n + 3) // 2 for n in range(1, 65)]
    est = gk_estimate(series_of(cum), (16, 64))
    assert est.classification == POLYNOMIAL
    assert abs(est.slope - 1.9154) < 0.001  # frozen measurement


@pytest.mark.parametrize("window", [(3, 12), (4, 16), (5, 20), (6, 24)])
def test_exponential_series_is_superpolynomial(window):
    lo, hi = window
    cum = [2 ** (n + 1) - 2 for n in range(1, hi + 1)]
    est = gk_estimate(series_of(cum), window)
    assert est.classification == SUPERPOLYNOMIAL
    assert est.degree is None


def test_free_two_generator_universe_is_superpolynomial():
    cum, run = [], 0
    for t in range(1, 25):
        run += t * 2**t
        cum.append(run)
    est = gk_estimate(series_of(cum))
    assert est.window == (6, 24)
    assert est.classification == SUPERPOLYNOMIAL


def test_bounded_series():
    est = gk_estimate(series_of([3, 5, 5, 5, 5, 5, 5, 5]))
    assert est.classification == BOUNDED and est.slope == 0.0
    est = gk_estimate(series_of([0] * 8))
    assert est.classification == BOUNDED
    # stabilization inside the window only
    est = gk_estimate(series_of([1, 2, 3, 4, 4, 4, 4, 4]), (4, 8))
    assert est.classification == BOUNDED


def test_window_validation():
    s = series_of(range(1, 11))
    for bad in ((1, 5), (5, 5), (7, 3), (2, 11), (0, 4)):
        with pytest.raises(ValueError):
            gk_estimate(s, bad)


def test_estimate_json_fields():
    est = gk_estimate(series_of(range(1, 65)))
    d = est.to_json_dict()
    assert set(d) == {
        "slope", "window", "classification", "degree", "residual", "mode", "fingerprint",
    }
    assert d["window"] == [16, 64]


# ===== gap band scan =======================================================


def test_gap_check_flags_stable_band_slopes():
    cum = [round(n**1.5) for n in range(1, 513)]
    est = gk_estimate(series_of(cum))
    assert est.classification == POLYNOMIAL
    assert abs(est.slope - 1.5) < 0.01 and est.residual <= STABLE_RESIDUAL
    report = gap_check([est])
    assert not report.ok
    idx, slope, resid, msg = report.anomalies[0]
    assert idx == 0 and abs(slope - 1.5) < 0.01
    assert msg == (
        "gap anomaly: fitted exponent inside (1.15, 1.85); re-run at higher degree"
    )
    assert report.to_json_dict()["ok"] is False


def test_gap_check_ignores_unstable_or_outside_fits():
    # same exponent, heavy block noise: residual above the stability bar
    per = [
        max(1, round(1.5 * math.sqrt(n) * (2.5 if (n // 16) % 2 else 0.4)))
        for n in range(1, 257)
    ]
    noisy = gk_estimate(GrowthSeries.from_per_degree(per))
    assert noisy.classification == POLYNOMIAL
    assert GAP_BAND[0] < noisy.slope < GAP_BAND[1]
    assert noisy.residual > STABLE_RESIDUAL
    assert gap_check([noisy]).ok
    # slopes outside the band never flag
    for cum_fn, window in (
        (lambda n: n * (n + 1) // 2, (64, 256)),
        (lambda n: n, (64, 256)),
    ):
        est = gk_estimate(series_of([cum_fn(n) for n in range(1, 257)]), window)
        assert gap_check([est]).ok
    # superpolynomial estimates are exempt even with in-band slope
    fake = GkEstimate(1.5, (2, 8), SUPERPOLYNOMIAL, None, 0.0)
    assert gap_check([fake]).ok
    assert gap_check([]).ok


# ===== termwise count inequality ===========================================


def test_count_inequality_on_fixtures():
    for name, n in (("free_a", 50), ("free_ab", 8), ("comm_ab", 6), ("zero_a", 6)):
        pres = fixture(name)
        sd = growth_series(pres, n)
        sa = growth_series(pres, n, mode=ASSOCIATIVE)
        report = theorem_a_check(sd, sa, pres.alphabet.size)
        assert report.ok, (name, report.violation)
        assert report.checked == n
        assert not report.hard_failure


def test_count_inequality_violation_reporting():
    sd = series_of([1, 1], mode=DIALGEBRA, fingerprint="f")
    sa = series_of([1, 2], mode=ASSOCIATIVE, fingerprint="f")
    report = theorem_a_check(sd, sa, 2)
    assert not report.ok and report.hard_failure
    assert report.violation == {
        "n": 2, "side": "lower", "dialgebra": 1, "associative": 2, "bound": 2,
    }
    # the upper side: dialgebra way past |X|(cA+1)^2
    sd = series_of([1, 100], mode=DIALGEBRA, fingerprint="f")
    sa = series_of([1, 2], mode=ASSOCIATIVE, fingerprint="f")
    report = theorem_a_check(sd, sa, 2)
    assert report.violation["side"] == "upper"
    assert report.violation["bound"] == 2 * (2 + 1) ** 2
    d = report.to_json_dict()
    assert d["ok"] is False and d["truncated"] is False


def test_count_inequality_truncation_is_soft():
    sd = series_of([1, 1], mode=DIALGEBRA, fingerprint="f", exact=False)
    sa = series_of([1, 2], mode=ASSOCIATIVE, fingerprint="f")
    report = theorem_a_check(sd, sa, 2)
    assert not report.ok and not report.hard_failure and report.truncated


def test_count_inequality_validation():
    sd = series_of([1, 2], mode=DIALGEBRA, fingerprint="f")
    sa = series_of([1, 2], mode=ASSOCIATIVE, fingerprint="g")
    with pytest.raises(ValueError):
        theorem_a_check(sd, sa, 2)  # different presentations
    with pytest.raises(ValueError):
        theorem_a_check(sa, sd, 2)  # modes swapped
    short = series_of([1], mode=ASSOCIATIVE, fingerprint="f")
    with pytest.raises(ValueError):
        theorem_a_check(sd, short, 2)


# ===== middle-position generating condition ================================


def test_special_basis_found_on_commutative_fixtures():
    for name in ("comm_a", "comm_ab"):
        report = special_basis_check(basis_upto(fixture(name), 6))
        assert report.m == 1
        assert report.found
        assert "coincide" in report.prediction


def test_special_basis_absent_on_free_fixture():
    report = special_basis_check(basis_upto(fixture("free_a"), 10))
    assert report.m is None and not report.found
    assert report.prediction is None
    assert report.to_json_dict()["found"] is False


def test_special_basis_middle_cap_fixture():
    report = special_basis_check(basis_upto(fixture("middle_cap_a"), 7))
    assert report.m == 2  # middles capped at 2 by the relator


def test_special_basis_requires_dialgebra_mode():
    with pytest.raises(ValueError):
        special_basis_check(basis_upto(fixture("comm_ab"), 4, mode=ASSOCIATIVE))


# ===== identity detection ==================================================


def test_identities_on_commutative_fixture():
    pres = fixture("comm_ab")
    report = identity_class_check(pres, basis_upto(pres, 5))
    assert report.holds == {"lcomm": True, "rcomm": True, "cross": False}
    assert report.witnesses == {"cross": "[a]@1, [a]@1"}
    assert report.pairs_checked == 141  # frozen count
    assert "free commutative quotient: GK = 2" in report.predictions
    assert sum("holds through degree 5" in p for p in report.predictions) == 2
    assert report.to_json_dict()["verified_degree"] == 5


def test_identities_on_free_fixture():
    pres = fixture("free_a")
    report = identity_class_check(pres, basis_upto(pres, 4))
    assert report.holds == {"lcomm": False, "rcomm": False, "cross": False}
    assert report.witnesses == {
        "lcomm": "[a]@1, [a a]@1",
        "rcomm": "[a]@1, [a a]@2",
        "cross": "[a]@1, [a]@1",
    }
    assert report.predictions == ()


def test_identities_on_cross_fixture():
    # the crossed identity collapses the two products on this quotient,
    # which then satisfies all three
    pres = fixture("cross_a")
    report = identity_class_check(pres, basis_upto(pres, 6))
    assert report.holds == {"lcomm": True, "rcomm": True, "cross": True}
    assert len(report.predictions) == 3


def test_identity_check_respects_pair_cap():
    pres = fixture("comm_ab")
    table = basis_upto(pres, 5)
    report = identity_class_check(pres, table, max_pairs=10)
    assert report.pairs_checked <= 30  # 10 per identity
    # a capped scan claims nothing it did not check
    assert not report.exhaustive
    assert report.predictions == ()
    assert identity_class_check(pres, table).exhaustive


def test_identity_check_requires_dialgebra_mode():
    pres = fixture("comm_ab")
    with pytest.raises(ValueError):
        identity_class_check(pres, basis_upto(pres, 3, mode=ASSOCIATIVE))


# ===== estimator on real fixtures ==========================================


def test_fixture_estimates_land_where_frozen():
    est = gk_estimate(growth_series(fixture("free_a"), 64), (16, 64))
    assert est.classification == POLYNOMIAL and abs(est.slope - 2) < 0.1
    est = gk_estimate(growth_series(fixture("free_a"), 64, mode=ASSOCIATIVE), (16, 64))
    assert est.classification == POLYNOMIAL and abs(est.slope - 1) < 0.05
    assert est.mode == ASSOCIATIVE
    est = gk_estimate(growth_series(fixture("zero_a"), 8))
    assert est.classification == BOUNDED


@given(st.lists(st.integers(0, 5), min_size=2, max_size=40))
def test_estimator_total_on_arbitrary_series(per):
    series = GrowthSeries.from_per_degree(per)
    if series.degree_bound < 3:
        return
    est = gk_estimate(series)
    assert est.classification in (BOUNDED, POLYNOMIAL, SUPERPOLYNOMIAL)
    assert est.residual >= 0.0
    lo, hi = est.window
    assert 2 <= lo < hi <= series.degree_bound
