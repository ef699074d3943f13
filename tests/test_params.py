"""Parameter validation and the small exact-arithmetic helpers."""

from __future__ import annotations

import math
import random

import pytest

from socsir.core import (
    ModelKind,
    Params,
    StateMA,
    StateMB,
    exact_complement,
    split_share,
    total_population,
    validate_params,
    with_rho_one,
)
from socsir.errors import (
    MissingFieldError,
    NumericError,
    OrderError,
    RangeError,
    ValidationError,
)

GOOD_MA = {
    "beta1": 0.0042,
    "beta2": 0.0009,
    "lambda": 0.65,
    "gamma": 0.005,
    "kappa": 0.00006,
    "rho": 0.75,
    "N": 100.0,
}

GOOD_MB = {
    "beta1": 0.009,
    "beta2": 0.0012,
    "lambda": 0.65,
    "gamma": 0.0001,
    "kappa": 0.0009,
    "alpha1": 0.01,
    "alpha2": 0.001,
    "N": 100.0,
}


def test_ma_roundtrip_fields():
    p = validate_params(GOOD_MA, ModelKind.MA)
    assert isinstance(p, Params)
    assert p.beta1 == 0.0042
    assert p.lam == 0.65
    assert p.rho == 0.75
    assert p.alpha1 is None and p.alpha2 is None


def test_mb_derives_rho_from_alphas():
    p = validate_params(GOOD_MB, ModelKind.MB)
    assert p.rho == pytest.approx(0.001 / 0.011, rel=1e-15)
    assert p.alpha1 == 0.01


def test_params_passthrough_revalidates():
    p = validate_params(GOOD_MA, ModelKind.MA)
    assert validate_params(p, ModelKind.MA) == p


@pytest.mark.parametrize(
    "raw",
    [list(GOOD_MA.items()), None, "beta1", tuple(GOOD_MA.values())],
    ids=["list", "none", "str", "tuple"],
)
def test_non_mapping_is_rejected(raw):
    # these used to escape as a raw AttributeError from .get
    with pytest.raises(RangeError, match="mapping or Params"):
        validate_params(raw, ModelKind.MA)


def test_mapping_that_is_not_a_dict_is_accepted():
    from types import MappingProxyType

    want = validate_params(GOOD_MA, ModelKind.MA)
    assert validate_params(MappingProxyType(GOOD_MA), ModelKind.MA) == want


def test_beta_order_strict():
    bad = dict(GOOD_MA, beta2=0.0042)
    with pytest.raises(OrderError):
        validate_params(bad, ModelKind.MA)


def test_beta_above_one_needs_flag():
    bad = dict(GOOD_MA, beta1=1.5)
    with pytest.raises(RangeError):
        validate_params(bad, ModelKind.MA)
    p = validate_params(bad, ModelKind.MA, allow_beta_gt_one=True)
    assert p.beta1 == 1.5


def test_beta2_at_or_above_one_needs_flag():
    # beta2 < beta1 <= 1, so beta2 >= 1 always fails the beta1 cap
    for beta2 in (1.0, 1.2):
        bad = dict(GOOD_MA, beta1=1.5, beta2=beta2)
        with pytest.raises(RangeError, match="beta1 must lie in"):
            validate_params(bad, ModelKind.MA)
        p = validate_params(bad, ModelKind.MA, allow_beta_gt_one=True)
        assert p.beta2 == beta2
    with pytest.raises(OrderError):
        validate_params(dict(GOOD_MA, beta1=1.0, beta2=1.0), ModelKind.MA)


def test_missing_key_is_named():
    bad = dict(GOOD_MA)
    del bad["kappa"]
    with pytest.raises(MissingFieldError, match="kappa"):
        validate_params(bad, ModelKind.MA)


def test_rho_endpoints_rejected_for_ma():
    for rho in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(RangeError):
            validate_params(dict(GOOD_MA, rho=rho), ModelKind.MA)


def test_mb_ignores_stray_rho_and_derives_its_own():
    # key strictness is the config layer's job; the core validator simply
    # never reads rho for this model
    p = validate_params(dict(GOOD_MB, rho=0.5), ModelKind.MB)
    assert p.rho == pytest.approx(0.001 / 0.011, rel=1e-15)


def test_mb_alpha_order_strict():
    with pytest.raises(ValidationError):
        validate_params(dict(GOOD_MB, alpha1=0.001, alpha2=0.001), ModelKind.MB)


def test_mb_alpha_positivity():
    with pytest.raises(RangeError):
        validate_params(dict(GOOD_MB, alpha2=0.0), ModelKind.MB)
    # the relaxation exists for presets where class-2 membership is absorbing
    p = validate_params(dict(GOOD_MB, alpha2=0.0), ModelKind.MB, allow_zero_alpha2=True)
    assert p.rho == 0.0


@pytest.mark.parametrize(
    ("alpha1", "alpha2"),
    [(1.7e308, 1e308), (1e300, 1e-300)],
    ids=["sum-overflows", "quotient-underflows"],
)
def test_mb_rho_that_rounds_to_zero_is_rejected(alpha1, alpha2):
    # both pairs used to give rho == 0.0, outside the documented (0, 1/2)
    for allow_zero_alpha2 in (False, True):
        with pytest.raises(RangeError, match="rounds to 0"):
            validate_params(
                dict(GOOD_MB, alpha1=alpha1, alpha2=alpha2),
                ModelKind.MB,
                allow_zero_alpha2=allow_zero_alpha2,
            )


def test_unknown_transition_normalization_is_rejected():
    message = "^transition_normalization must be one of"
    for norm in ("scaled", "Uniform", None):
        with pytest.raises(RangeError, match=message):
            validate_params(dict(GOOD_MB, transition_normalization=norm), ModelKind.MB)


@pytest.mark.parametrize("model", [ModelKind.MA, ModelKind.SINGLE])
def test_a_normalization_other_than_asymmetric_is_for_mb_only(model):
    # MA parameters used to carry "uniform", an MB-only setting, which
    # dumps_config then wrote under "model": "ma" for loads_config to refuse
    raw = dict(GOOD_MA, rho=1.0) if model is ModelKind.SINGLE else GOOD_MA
    with pytest.raises(RangeError, match="applies to model MB only"):
        validate_params(dict(raw, transition_normalization="uniform"), model)
    explicit = dict(raw, transition_normalization="asymmetric")
    assert validate_params(explicit, model) == validate_params(raw, model)


def test_lambda_unit_interval():
    with pytest.raises(RangeError):
        validate_params(dict(GOOD_MA, **{"lambda": 0.0}), ModelKind.MA)
    with pytest.raises(RangeError):
        validate_params(dict(GOOD_MA, **{"lambda": 1.01}), ModelKind.MA)


def test_gamma_nonnegative_but_unbounded():
    # gamma is a progression rate, not a fraction; only the sign is policed
    with pytest.raises(RangeError):
        validate_params(dict(GOOD_MA, gamma=-0.01), ModelKind.MA)
    assert validate_params(dict(GOOD_MA, gamma=2.5), ModelKind.MA).gamma == 2.5


def test_nonfinite_rejected():
    with pytest.raises(ValidationError):
        validate_params(dict(GOOD_MA, beta1=math.nan), ModelKind.MA)
    with pytest.raises(ValidationError):
        validate_params(dict(GOOD_MA, N=math.inf), ModelKind.MA)
    # an int past the float range reads as infinite, not as an OverflowError
    with pytest.raises(ValidationError, match="finite"):
        validate_params(dict(GOOD_MA, N=10**400), ModelKind.MA)


@pytest.mark.parametrize(
    "rho",
    ["1", True, "abc", [1], None, 10**400],
    ids=["str-1", "bool", "str-abc", "list", "none", "huge-int"],
)
def test_single_rho_goes_through_the_number_check(rho):
    # a present rho is checked like every other field, then must equal 1
    raw = dict(GOOD_MA, rho=rho)
    with pytest.raises(RangeError):
        validate_params(raw, ModelKind.SINGLE)


def test_single_rho_defaults_to_one():
    raw = dict(GOOD_MA)
    del raw["rho"]
    assert validate_params(raw, ModelKind.SINGLE).rho == 1.0
    assert validate_params(dict(GOOD_MA, rho=1), ModelKind.SINGLE).rho == 1.0
    with pytest.raises(RangeError, match="equal 1"):
        validate_params(dict(GOOD_MA, rho=0.5), ModelKind.SINGLE)


def test_with_rho_one():
    p = validate_params(GOOD_MB, ModelKind.MB)
    q = with_rho_one(p)
    assert q.rho == 1.0
    assert q.beta1 == p.beta1 and q.kappa == p.kappa


def test_total_population_exact_at_dfe():
    # the grouped summation must reproduce N to the last bit when the
    # state is an exact complement split of N
    n = 100.0
    s1 = 0.75 * n
    ma = StateMA(S1=s1, S2=exact_complement(n, s1), Is=0.0, Ia=0.0, R=0.0)
    assert total_population(ma) == n
    mb = StateMB(S1=s1, S2=exact_complement(n, s1), A1=0.0, A2=0.0, Is=0.0, R=0.0)
    assert total_population(mb) == n


def test_state_mb_derives_its_totals():
    s = StateMB(S1=50.0, S2=30.0, A1=0.5, A2=0.25, Is=2.0, R=17.25)
    assert (s.A, s.I) == (0.75, 2.75)


@pytest.mark.parametrize("state", [(1.0,) * 0, (1.0,) * 4, (1.0,) * 7, 5, None],
                         ids=["0", "4", "7", "int", "none"])
def test_total_population_rejects_other_lengths(state):
    # a 7-tuple would otherwise be summed as its first five components, and
    # a state with no len() raised a raw TypeError
    with pytest.raises(RangeError, match="5 or 6 components"):
        total_population(state)


@pytest.mark.parametrize(
    "call",
    [
        lambda: total_population(("x",) * 5),
        lambda: total_population((None,) * 6),
        lambda: exact_complement("1", 0.5),
        lambda: exact_complement(1.0, None),
        lambda: with_rho_one({"rho": 0.5}),
    ],
    ids=["total-str", "total-none", "complement-total", "complement-part",
         "with_rho_one-mapping"],
)
def test_number_and_params_arguments_are_checked(call):
    # a string state summed to a string, None components and arguments
    # raised a raw TypeError, and with_rho_one a raw AttributeError
    with pytest.raises(RangeError, match="must be a number|must be a Params"):
        call()


def test_exact_complement_identity():
    # complement is defined so part + complement == total exactly
    for total, part in [(100.0, 74.25), (1.0, 0.1), (3e5, 12345.678)]:
        assert part + exact_complement(total, part) == total


def test_split_share_parts_sum_to_total():
    rng = random.Random(2207)
    ties = 0
    for k in range(20000):
        total = 2.0 ** rng.randint(-8, 30) if k % 3 == 0 else rng.uniform(1e-3, 1e7)
        share = rng.random()
        part, rest = split_share(total, share)
        assert part + rest == total
        # part moves off share * total only where that has no complement
        assert abs(part - share * total) <= math.ulp(total) / 2
        if part != share * total:
            ties += 1
            with pytest.raises(NumericError):
                exact_complement(total, share * total)
        else:
            assert rest == exact_complement(total, part)
    assert ties > 0  # the draws reach the half-ulp ties
