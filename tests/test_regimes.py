"""Exponent arithmetic and regime classification against hand-checked values.

Every frozen constant below was recomputed independently (exact rational
iteration for the ladder, direct evaluation elsewhere) before being frozen.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradbound import (
    ProblemParams,
    Theorem,
    bound_exponent,
    build_ladder,
    check_thm2,
    check_thm3,
    classify_thm1,
    compute_M_general,
    kappa,
    ladder_oracle,
    thm1_case2_sup,
)


# --- composite exponent M ----------------------------------------------------


def test_M_general_values():
    assert compute_M_general(2.0, 2.0, 1.0) == 2.0
    assert compute_M_general(2.0, 2.5, 2.0) == 4.0  # 2w - p + 2 dominates
    assert compute_M_general(3.0, 3.5, 1.0) == 4.0  # 2q - p dominates


def test_M_plaplace_values():
    # the pure window q = p: the 2q - p entry collapses onto p
    assert compute_M_general(2.0, 2.0, 1.0) == 2.0
    assert compute_M_general(2.0, 2.0, 1.8) == pytest.approx(3.6, abs=0.0)
    assert compute_M_general(2.5, 2.5, 0.5) == 2.5  # p dominates


def test_M_general_dominates_pure_window():
    for p, q, w in [(2.0, 2.3, 0.7), (2.5, 2.5, 1.1), (1.5, 2.1, 1.5), (3.0, 3.9, 0.0)]:
        assert compute_M_general(p, q, w) >= compute_M_general(p, p, w)


# --- kappa and the bound exponent ---------------------------------------------


def test_bound_exponent_values():
    assert bound_exponent(0.0, 2.0, 2.0, 3) == 0.5
    # p = M wipes the dimensional term, any n gives 1/(s0 + 2)
    for n in (3, 4, 7):
        assert bound_exponent(1.0, 2.0, 2.0, n) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert bound_exponent(1.0, 2.7, 2.7, n) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert bound_exponent(0.5, 2.0, 3.0, 3) == pytest.approx(1.0, rel=1e-15)


def test_bound_exponent_rejects_nonpositive_kappa():
    # kappa = 0 + 2 + 3(2 - 3.8)/2 = -0.7
    assert kappa(0.0, 2.0, 3.8, 3) == pytest.approx(-0.7)
    with pytest.raises(ValueError, match="kappa"):
        bound_exponent(0.0, 2.0, 3.8, 3)


@given(
    s0=st.floats(-0.9, 4.0),
    p=st.floats(1.1, 3.5),
    dM=st.floats(0.0, 2.0),
    n=st.integers(3, 6),
)
def test_kappa_linear_in_s0(s0, p, dM, n):
    M = max(2.0, p) + dM
    base = kappa(0.0, p, M, n)
    assert kappa(s0, p, M, n) == pytest.approx(base + s0, rel=1e-12, abs=1e-12)


# --- exponent ladder -----------------------------------------------------------


def test_ladder_heat_seed():
    # s_{i+1} = (5/3) s_i + 4/3 at (p, M, n) = (2, 2, 3): exact rational iteration
    ladder = build_ladder(0.0, 2.0, 2.0, 3, 3)
    expect = (0.0, 4.0 / 3.0, 32.0 / 9.0, 196.0 / 27.0)
    assert ladder.s == pytest.approx(expect, rel=1e-15)
    assert ladder.beta == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert ladder.limit == 2.0


def test_ladder_single_step_identity():
    # s1 - s0 = (2/n) kappa, straight from the recursion
    for s0, p, M, n in [(0.0, 2.0, 2.0, 3), (0.5, 2.5, 2.5, 3), (-0.4, 2.0, 2.6, 4)]:
        ladder = build_ladder(s0, p, M, n, 1)
        k = kappa(s0, p, M, n)
        assert ladder.s[1] - ladder.s[0] == pytest.approx((2.0 / n) * k, rel=1e-12)


def test_ladder_matches_rational_oracle():
    ladder = build_ladder(0.3, 2.2, 2.4, 3, 40)
    oracle = ladder_oracle(0.3, 2.2, 2.4, 3, 40)
    for a, b in zip(ladder.s, oracle):
        assert a == pytest.approx(b, rel=1e-12)


def test_ladder_ratio_converges_to_kappa():
    ladder = build_ladder(0.0, 2.0, 2.0, 3, 60)
    assert ladder.ratios[-1] == pytest.approx(ladder.limit, abs=1e-6)
    # exact limit via the rational closed form s_i = (s0 + kappa) beta^i - kappa... checked
    # through the oracle: ratio error decays geometrically
    assert abs(ladder.ratios[30] - ladder.limit) > abs(ladder.ratios[60] - ladder.limit)


def test_ladder_rejects_bad_inputs():
    with pytest.raises(ValueError, match="kappa"):
        build_ladder(0.0, 2.0, 3.8, 3, 5)
    with pytest.raises(ValueError, match="n >= 3"):
        build_ladder(0.0, 2.0, 2.0, 2, 5)
    with pytest.raises(ValueError, match="depth"):
        build_ladder(0.0, 2.0, 2.0, 3, 0)
    with pytest.raises(ValueError):
        ladder_oracle(0.0, 2.0, 3.8, 3, 5)


# --- three-case classifier ------------------------------------------------------


def test_classify_case1():
    report = classify_thm1(2.0, 1.0, 2.0)
    assert report.theorem_applied is Theorem.THM1_CASE1
    assert report.covered
    assert report.violated_conditions == ()


def test_classify_case2_near_threshold():
    report = classify_thm1(2.0, 1.39, 2.0)
    assert report.theorem_applied is Theorem.THM1_CASE2
    assert report.kappa > 0.0


def test_classify_threshold_excluded():
    # w = 7/5 sits exactly on the case-2 sup and is rejected
    report = classify_thm1(2.0, 1.4, 2.0)
    assert report.theorem_applied is Theorem.NOT_COVERED
    assert "case2" in report.violated_conditions


def test_classify_case3_strict_inequality():
    # p = 2 - (2/3) p_tilde exactly: case 3 needs strict >
    report = classify_thm1(1.2, 0.5, 1.2)
    assert report.theorem_applied is Theorem.NOT_COVERED
    assert report.violated_conditions == ("case1", "case2", "case3")


def test_classify_case3_applies():
    report = classify_thm1(1.3, 0.5, 1.3)
    assert report.theorem_applied is Theorem.THM1_CASE3


def test_classify_w_above_p():
    report = classify_thm1(2.0, 2.5, 2.0)
    assert report.theorem_applied is Theorem.NOT_COVERED
    assert report.violated_conditions == ("w_growth",)


@settings(max_examples=300, deadline=None)
@given(i=st.integers(1, 24), j=st.integers(0, 80), k=st.integers(0, 8))
@example(i=8, j=16, k=0)  # p = 2: w = p - 1 = p/2, p_tilde = p
@example(i=12, j=20, k=1)  # w = p/2 with p_tilde above p
def test_classify_thm1_is_the_first_case_that_holds(i, j, k):
    # dyadic grids, so that w = p - 1, w = p/2 and p_tilde = p occur exactly
    p, w = 1.0 + i / 8.0, j / 16.0
    p_tilde = p + k / 8.0
    report = classify_thm1(p, w, p_tilde)
    if w > p:
        assert report.theorem_applied is Theorem.NOT_COVERED
        assert report.violated_conditions == ("w_growth",)
        return
    conditions = {
        Theorem.THM1_CASE1: w <= p - 1.0 and p_tilde == p,
        Theorem.THM1_CASE2: p / 2.0 <= w < (p_tilde + 4.0 * p - 3.0) / 5.0,
        Theorem.THM1_CASE3: w <= p / 2.0 and p > 2.0 - (2.0 / 3.0) * p_tilde,
    }
    holding = [theorem for theorem, holds in conditions.items() if holds]
    failing = tuple(f"case{c}" for c, holds in enumerate(conditions.values(), 1) if not holds)
    if holding:
        assert report.theorem_applied is holding[0]
        assert report.violated_conditions == ()
    else:
        assert report.theorem_applied is Theorem.NOT_COVERED
        assert report.violated_conditions == failing


def test_case2_sup_is_p_minus_three_fifths_at_bare_integrability():
    # frozen boundary values, bitwise
    expect = {1.6: 1.0, 2.0: 1.4, 2.5: 1.9, 3.0: 2.4}
    for p, b in expect.items():
        assert thm1_case2_sup(p, p) == b


def test_case2_interval_downward_closed():
    for p, p_tilde in [(2.0, 2.0), (2.0, 2.4), (2.5, 2.5)]:
        sup = thm1_case2_sup(p, p_tilde)
        hi = sup - 1e-9
        assert classify_thm1(p, hi, p_tilde).theorem_applied is Theorem.THM1_CASE2
        for frac in (0.0, 0.3, 0.7):
            w = p / 2.0 + frac * (hi - p / 2.0)
            rep = classify_thm1(p, w, p_tilde)
            assert rep.theorem_applied in (Theorem.THM1_CASE1, Theorem.THM1_CASE2)


# --- general-window admissibility -----------------------------------------------


def test_thm2_rejects_zero_s0_with_constant_term():
    params = ProblemParams(n=3, N=2, p=2.0, q=2.0, w=1.0, s0=0.0, c2_zero=False)
    report = check_thm2(params)
    assert report.theorem_applied is Theorem.NOT_COVERED
    assert report.violated_conditions == ("s0_vs_c2",)


def test_thm2_covered_slightly_above():
    params = ProblemParams(n=3, N=2, p=2.0, q=2.0, w=1.0, s0=0.5, c2_zero=False)
    report = check_thm2(params)
    assert report.theorem_applied is Theorem.THM2
    assert report.M == 2.0
    assert report.kappa == pytest.approx(2.5)


def test_thm2_kappa_sign_gate():
    params = ProblemParams(n=3, N=2, p=2.0, q=2.9, w=1.0, s0=0.0)
    report = check_thm2(params)
    assert report.M == pytest.approx(3.8)
    assert report.kappa == pytest.approx(-0.7)
    assert report.violated_conditions == ("kappa_positive",)


def test_thm2_dimension_gate():
    params = ProblemParams(n=2, N=1, p=2.0, w=1.0, s0=0.5)
    assert "dimension" in check_thm2(params).violated_conditions


# --- pure-window admissibility ----------------------------------------------------


def test_thm3_negative_s0_allowed():
    # s0 = -0.5 clears the floor max(-lam/Lam, p-2w-2) = -1; only kappa fails at w = 2
    params = ProblemParams(n=3, N=1, p=2.0, w=2.0, s0=-0.5, lam=1.0, Lam=1.0)
    report = check_thm3(params)
    assert "s0_lower_bound" not in report.violated_conditions
    assert report.violated_conditions == ("kappa_positive",)
    assert report.M == 4.0


def test_thm3_floor_is_strict():
    params = ProblemParams(n=3, N=1, p=2.0, w=2.0, s0=-1.0, lam=1.0, Lam=1.0)
    report = check_thm3(params)
    assert "s0_lower_bound" in report.violated_conditions


def test_thm3_covered():
    params = ProblemParams(n=3, N=1, p=2.0, w=1.5, s0=0.0)
    report = check_thm3(params)
    assert report.theorem_applied is Theorem.THM3
    assert report.M == 3.0
    assert report.kappa == pytest.approx(0.5)


def test_thm3_rejects_general_window():
    params = ProblemParams(n=3, N=1, p=2.0, q=2.5, w=1.0, s0=0.0)
    with pytest.raises(ValueError, match="q = p"):
        check_thm3(params)


# --- the order of the named violations ----------------------------------------------


def _violations(params: ProblemParams, pure: bool) -> list[str]:
    """check_thm3's (pure) or check_thm2's docstring rules, restated, the failed ones in order."""
    p, q, w, s0, n = params.p, params.q, params.w, params.s0, params.n
    M = max(2.0, p, 2.0 * q - p, w + 1.0, 2.0 * w - p + 2.0)
    k = s0 + 2.0 + n * (p - M) / 2.0
    if pure:
        rules = [("s0_lower_bound", s0 > max(-params.lam / params.Lam, p - 2.0 * w - 2.0)),
                 ("kappa_positive", k > 0.0), ("dimension", n >= 3)]
    else:
        floor = p - 2.0 * w - 2.0 if params.c2_zero else p - 2.0
        rules = [("s0_nonneg", s0 >= 0.0), ("kappa_positive", k > 0.0),
                 ("s0_vs_c2", s0 > floor), ("dimension", n >= 3)]
    return [name for name, holds in rules if not holds]


@settings(max_examples=300, deadline=None)
@example(n=2, p=2.0, dq=0.0, w_frac=1.0, s0=math.nan, c2_zero=False, lam=1.0, ratio=1.0)
@example(n=2, p=2.0, dq=0.9, w_frac=1.0, s0=-1.0, c2_zero=True, lam=1.0, ratio=1.0)
@given(n=st.sampled_from([2, 3, 4]), p=st.floats(1.1, 3.5),
       dq=st.one_of(st.just(0.0), st.floats(1e-6, 0.999)), w_frac=st.floats(0.0, 1.0),
       s0=st.one_of(st.floats(-3.0, 4.0), st.just(math.nan)), c2_zero=st.booleans(),
       lam=st.floats(0.1, 2.0), ratio=st.floats(1.0, 4.0))
def test_thm2_and_thm3_name_every_violation_in_rule_order(n, p, dq, w_frac, s0, c2_zero,
                                                          lam, ratio):
    params = ProblemParams(n=n, N=1, p=p, q=p + dq, w=w_frac * p, s0=s0, c2_zero=c2_zero,
                           lam=lam, Lam=lam * ratio)
    checks = [(check_thm2, Theorem.THM2, False)]
    if params.q == params.p:
        checks.append((check_thm3, Theorem.THM3, True))
    for check, theorem, pure in checks:
        report = check(params)
        violated = _violations(params, pure)
        assert list(report.violated_conditions) == violated
        assert report.theorem_applied is (Theorem.NOT_COVERED if violated else theorem)


# --- parameter validation ------------------------------------------------------------


def test_params_defaults():
    params = ProblemParams(n=3, N=1, p=2.5)
    assert params.q == 2.5
    assert params.p_tilde == 2.5
    # unset, the window is the pure p-Laplace flux's (min, max)(1, p - 1)
    assert (params.lam, params.Lam) == (1.0, 1.5)
    fast = ProblemParams(n=3, N=1, p=1.5)
    assert (fast.lam, fast.Lam) == (0.5, 1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=1, N=1, p=2.0),
        dict(n=3, N=0, p=2.0),
        dict(n=3, N=1, p=1.0),
        dict(n=3, N=1, p=2.0, q=3.0),  # q >= p + 1
        dict(n=3, N=1, p=2.0, q=1.5),  # q < p
        dict(n=3, N=1, p=2.0, w=2.5),  # w > p
        dict(n=3, N=1, p=2.0, w=-0.1),
        dict(n=3, N=1, p=2.0, p_tilde=1.5),
        dict(n=3, N=1, p=2.0, lam=0.0),
        dict(n=3, N=1, p=2.0, lam=2.0, Lam=1.0),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        ProblemParams(**kwargs)


# --- randomized oracle agreement (backs the acceptance suite) -------------------------


def _random_admissible_tuples(count: int, seed: int = 7):
    import random

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.uniform(1.2, 3.5)
        M = max(2.0, p) + rng.uniform(0.0, 1.0)
        n = rng.choice([3, 4, 5])
        s0 = rng.uniform(-0.5, 3.0)
        if kappa(s0, p, M, n) > 0.05:
            out.append((s0, p, M, n))
    return out


def test_ladder_oracle_agreement_deep():
    for s0, p, M, n in _random_admissible_tuples(200):
        ladder = build_ladder(s0, p, M, n, 60)
        oracle = ladder_oracle(s0, p, M, n, 60)
        for a, b in zip(ladder.s, oracle):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_oracle_is_exact_rational_iteration():
    # reconstruct one iterate by hand with Fractions
    s0, p, M, n = 0.3, 2.2, 2.4, 3
    s = Fraction(s0)
    fp, fM, r = Fraction(p), Fraction(M), Fraction(2, n)
    for _ in range(5):
        s = fp + s + (s + 2) * r - fM
    assert ladder_oracle(s0, p, M, n, 5)[-1] == float(s)


@settings(max_examples=60)
@given(
    s0=st.floats(-0.4, 2.0),
    p=st.floats(1.3, 3.0),
    extra=st.floats(0.0, 0.8),
    n=st.integers(3, 5),
)
def test_ladder_growth_property(s0, p, extra, n):
    M = max(2.0, p) + extra
    k = kappa(s0, p, M, n)
    if k <= 0.0:
        with pytest.raises(ValueError):
            build_ladder(s0, p, M, n, 4)
        return
    if k <= 1e-3:
        return  # too close to the fixed point for the growth assertions
    ladder = build_ladder(s0, p, M, n, 12)
    diffs = [b - a for a, b in zip(ladder.s, ladder.s[1:])]
    assert all(d > 0.0 for d in diffs)  # kappa > 0 forces strict growth
    assert diffs[-1] > diffs[0] or math.isclose(diffs[-1], diffs[0])
