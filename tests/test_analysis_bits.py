"""Bit-identity of the analysis path against plain reference versions.

validate_params, ngm, stability, sensitivity_indices, ordering_case,
finite_diff_check and classify_feasible_set are written for speed.  The
references below are the straightforward forms of the same arithmetic: a
field check with separate membership, type and finiteness tests, K built
from a cofactor inverse of Sigma with one left-to-right sum per entry, the
finite differences collected in a dict keyed by parameter, and the
feasible-set hull written out case by case.  Every float the fast
versions return must carry the same bits, and every rejected input must
raise the same exception class with the same message.  The fast versions
build their results with tuple.__new__, which fills no defaults and checks
no length, so every result's type and length is pinned as well.
"""

from __future__ import annotations

import math
import random

import pytest

from socsir import core
from socsir.core import ModelKind, Params, StateMA, StateMB, to_float, validate_params
from socsir.errors import MissingFieldError, RangeError, SingularMatrixError
from socsir.feasibility import (
    TYPE0_TOL,
    FeasibleSetReport,
    SetType,
    classify_feasible_set,
)
from socsir.reproduction import NgmResult, StabilityReport, dfe_of, ngm, stability
from socsir.sensitivity import (
    BOUNDARY_TOL,
    OrderingCase,
    SensitivityIndices,
    finite_diff_check,
    ordering_case,
    sensitivity_indices,
)
from tests._samplers import draw_raw_params

DRAWS = 1000
FD_STEP = 1e-6


def _require_ref(raw, key):
    if key not in raw or raw[key] is None:
        raise MissingFieldError(f"missing required parameter {key!r}")
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RangeError(f"parameter {key!r} must be a number, got {value!r}")
    value = to_float(value)
    if not math.isfinite(value):
        raise RangeError(f"parameter {key!r} must be finite, got {value!r}")
    return value


def _b_rho_ref(p):
    return p.rho * p.beta1 + (1.0 - p.rho) * p.beta2


def _r0_ref(beta1, beta2, rho, kappa):
    return (rho * beta1 + (1.0 - rho) * beta2) / kappa


def _fold(values):
    """The float sum from 0.0, left to right, as sum() gives it on Python 3.11.

    From Python 3.12 on sum() of floats is compensated, so a reference
    written with sum() would give other bits there.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _inverse_ref(m):
    """Sigma^{-1} as the transposed cofactor matrix over the determinant.

    A 2x2 cofactor is the opposite entry, negated off the diagonal.  A 3x3
    cofactor is the 2x2 minor p*v - q*u of the other rows and columns, its
    two products swapped where the checkerboard sign is minus.  The
    determinant is the cofactor expansion along the first row.
    """
    n = len(m)

    def cofactor(r, c):
        if n == 2:
            entry = m[1 - r][1 - c]
            return entry if r == c else -entry
        (p, q), (u, v) = (
            [x for j, x in enumerate(row) if j != c] for k, row in enumerate(m) if k != r
        )
        return p * v - q * u if (r + c) % 2 == 0 else q * u - p * v

    det = _fold(m[0][c] * cofactor(0, c) for c in range(n))
    if det == 0:
        raise SingularMatrixError("transition matrix is singular")
    return tuple(tuple(cofactor(c, r) / det for c in range(n)) for r in range(n))


def _ngm_ref(model, p):
    """(T, Sigma, K, dominant) with one generator sum per entry of K."""
    b = _b_rho_ref(p)
    if model is ModelKind.MB:
        t1 = (1.0 - p.lam) * p.beta1 * p.rho
        t2 = (1.0 - p.lam) * p.beta2 * (1.0 - p.rho)
        t3 = p.lam * b
        T = ((t1, t1, t1), (t2, t2, t2), (t3, t3, t3))
        a1, a2 = p.alpha1, p.alpha2
        Sigma = (
            (-(a1 + p.gamma + p.kappa), a2, 0.0),
            (a1, -(a2 + p.gamma + p.kappa), 0.0),
            (p.gamma, p.gamma, -p.kappa),
        )
    else:
        T = ((p.lam * b, p.lam * b), ((1.0 - p.lam) * b, (1.0 - p.lam) * b))
        Sigma = ((-p.kappa, p.gamma), (0.0, -(p.gamma + p.kappa)))
    inv = _inverse_ref(Sigma)
    n = len(T)
    K = tuple(
        tuple(-_fold(T[i][m] * inv[m][j] for m in range(n)) for j in range(n))
        for i in range(n)
    )
    return T, Sigma, K, _fold(K[i][i] for i in range(n))


def _indices_ref(model, p):
    mixed = _b_rho_ref(p)
    out = {
        "rho": p.rho * (p.beta1 - p.beta2) / mixed,
        "beta1": p.rho * p.beta1 / mixed,
        "beta2": (1.0 - p.rho) * p.beta2 / mixed,
    }
    if model is ModelKind.MB:
        swing = p.rho * (1.0 - p.rho) * (p.beta1 - p.beta2) / mixed
        out["alpha1"] = -swing
        out["alpha2"] = swing
    return out


def _ordering_ref(model, p):
    """(label, chain, thresholds) with the boundary test over a list."""
    t_sum = p.beta2 / (p.beta1 + p.beta2)
    t_ratio = p.beta2 / p.beta1
    t_diff = p.beta2 / (p.beta1 - p.beta2)
    thresholds = (t_sum, t_ratio, t_diff)
    relevant = [t_sum, t_ratio]
    if model is ModelKind.MB:
        relevant.append(t_diff)
    if any(abs(p.rho - t) <= BOUNDARY_TOL for t in relevant):
        return "BOUNDARY", (), thresholds
    if p.rho < t_sum:
        label, tail = "A", ("rho", "beta1", "beta2")
    elif p.rho < t_ratio:
        label, tail = "B", ("rho", "beta2", "beta1")
    elif model is not ModelKind.MB or p.rho < t_diff:
        label, tail = "C", ("beta2", "rho", "beta1")
    else:
        label, tail = "D", ("beta2", "rho", "beta1")
    if model is not ModelKind.MB:
        return label, tail, thresholds
    if label == "C":
        tail = ("alpha1", "alpha2", "beta2", "rho", "beta1")
    elif label == "D":
        tail = ("alpha1", "beta2", "alpha2", "rho", "beta1")
    else:
        tail = ("alpha1", "alpha2") + tail
    return label, tail, thresholds


def _fd_ref(model, p, h):
    closed = _indices_ref(model, p)
    base = _r0_ref(p.beta1, p.beta2, p.rho, p.kappa)
    two_h = 2.0 * h

    def rel_index(plus, minus):
        return (plus - minus) / (two_h * base)

    def rho_of(a1, a2):
        return a2 / (a1 + a2)

    estimates = {
        "rho": rel_index(
            _r0_ref(p.beta1, p.beta2, p.rho * (1.0 + h), p.kappa),
            _r0_ref(p.beta1, p.beta2, p.rho * (1.0 - h), p.kappa),
        ),
        "beta1": rel_index(
            _r0_ref(p.beta1 * (1.0 + h), p.beta2, p.rho, p.kappa),
            _r0_ref(p.beta1 * (1.0 - h), p.beta2, p.rho, p.kappa),
        ),
        "beta2": rel_index(
            _r0_ref(p.beta1, p.beta2 * (1.0 + h), p.rho, p.kappa),
            _r0_ref(p.beta1, p.beta2 * (1.0 - h), p.rho, p.kappa),
        ),
    }
    if model is ModelKind.MB:
        a1, a2 = p.alpha1, p.alpha2
        estimates["alpha1"] = rel_index(
            _r0_ref(p.beta1, p.beta2, rho_of(a1 * (1.0 + h), a2), p.kappa),
            _r0_ref(p.beta1, p.beta2, rho_of(a1 * (1.0 - h), a2), p.kappa),
        )
        estimates["alpha2"] = rel_index(
            _r0_ref(p.beta1, p.beta2, rho_of(a1, a2 * (1.0 + h)), p.kappa),
            _r0_ref(p.beta1, p.beta2, rho_of(a1, a2 * (1.0 - h)), p.kappa),
        )
    # rho = 1 makes U_beta2 exactly 0; that index is compared by absolute error.
    return max(
        abs(estimates[name] - closed[name])
        / (1.0 if name == "beta2" and p.rho == 1.0 else abs(closed[name]))
        for name in estimates
    )


def _feasible_ref(rho, kappa):
    """(type, vertices) of the rho-feasible set, from the sign of kappa - rho."""
    if abs(rho - kappa) <= TYPE0_TOL:
        return SetType.TYPE_0, ((0.0, 0.0), (kappa, kappa), (1.0, 0.0))
    if rho > kappa:
        return SetType.TYPE_MINUS_1, ((0.0, 0.0), (kappa, kappa), (kappa / rho, 0.0))
    if kappa == 1.0:
        return SetType.TYPE_1, ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0))
    exit_height = (kappa - rho) / (1.0 - rho)
    return SetType.TYPE_1, ((0.0, 0.0), (kappa, kappa), (1.0, exit_height), (1.0, 0.0))


def _hex(value):
    """Nested floats as float.hex; other leaves unchanged."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return type(value)(_hex(v) for v in value)
    return value


def _params_hex(p: Params):
    return (
        _hex((p.beta1, p.beta2, p.lam, p.gamma, p.kappa, p.rho, p.N)),
        _hex(p.alpha1),
        _hex(p.alpha2),
        p.transition_normalization,
    )


def _draws(model):
    """Seeded sampler draws; every fourth has gamma = 0, lambda = 1 or both,
    which put exact (signed) zeros into T, Sigma and K.  SINGLE draws carry
    no rho, so it defaults to 1."""
    rng = random.Random(20221019)
    for i in range(DRAWS):
        raw = draw_raw_params(rng, model)
        if model is ModelKind.SINGLE:
            del raw["rho"]
        if i % 4 in (1, 3):
            raw["gamma"] = 0.0
        if i % 4 in (2, 3):
            raw["lambda"] = 1.0
        yield raw


def _is_value(value, cls, length):
    """True when value is exactly a cls of the given length."""
    return type(value) is cls and len(value) == length


@pytest.mark.parametrize("model", [ModelKind.MA, ModelKind.MB, ModelKind.SINGLE])
def test_analysis_path_matches_references_bit_for_bit(model, monkeypatch):
    mb = model is ModelKind.MB
    raws = list(_draws(model))
    with monkeypatch.context() as patched:
        patched.setattr(core, "_require", _require_ref)
        expected_params = [validate_params(raw, model) for raw in raws]
    for raw, p_ref in zip(raws, expected_params):
        p = validate_params(raw, model)
        assert _is_value(p, Params, 10) and _is_value(p_ref, Params, 10)
        assert _params_hex(p) == _params_hex(p_ref)
        assert (p.alpha1 is None) is (p.alpha2 is None) is (not mb)

        g = ngm(model, p)
        T, Sigma, K, dominant = _ngm_ref(model, p)
        n = len(T)
        assert _is_value(g, NgmResult, 6)
        assert _hex((g.T, g.Sigma, g.K, g.dominant)) == _hex((T, Sigma, K, dominant))
        assert _hex(g.eigenvalues) == _hex((0.0,) * (n - 1) + (dominant,))
        assert g.dimension == n

        st = stability(model, p)
        assert _is_value(st, StabilityReport, 4)
        r0 = _r0_ref(p.beta1, p.beta2, p.rho, p.kappa)
        assert _hex((st.r0, st.b_rho)) == _hex((r0, _b_rho_ref(p)))
        s1, s2 = core.split_share(p.N, p.rho)
        dfe = (
            StateMB(s1, s2, 0.0, 0.0, 0.0, 0.0)
            if model is ModelKind.MB
            else StateMA(s1, s2, 0.0, 0.0, 0.0)
        )
        assert type(st.dfe) is type(dfe) is type(dfe_of(model, p))
        assert len(st.dfe) == len(dfe) == (6 if mb else 5)
        assert _hex(tuple(st.dfe)) == _hex(tuple(dfe))

        si = sensitivity_indices(model, p)
        assert _is_value(si, SensitivityIndices, 6) and si.model is model
        if not mb:
            assert si.upsilon_alpha1 is None and si.upsilon_alpha2 is None
        assert len(si.as_dict()) == (5 if mb else 3)
        assert {k: v.hex() for k, v in si.as_dict().items()} == {
            k: v.hex() for k, v in _indices_ref(model, p).items()
        }

        case = ordering_case(model, p)
        label, chain, thresholds = _ordering_ref(model, p)
        assert _is_value(case, OrderingCase, 3)
        assert (case.label, case.chain) == (label, chain)
        names = ("beta2/(beta1+beta2)", "beta2/beta1", "beta2/(beta1-beta2)")
        assert tuple(name for name, _ in case.thresholds) == names
        assert _hex(tuple(value for _, value in case.thresholds)) == _hex(thresholds)

        assert finite_diff_check(model, p, FD_STEP).hex() == _fd_ref(
            model, p, FD_STEP
        ).hex()
        if model is ModelKind.SINGLE:
            continue  # rho = 1 leaves no rho-feasible set to classify
        fs = classify_feasible_set(p.rho, p.kappa, model)
        assert _is_value(fs, FeasibleSetReport, 4)
        assert _hex(tuple(fs)) == _hex(_feasible_ref(p.rho, p.kappa) + (p.kappa, p.rho))


def test_feasible_set_matches_the_reference_bit_for_bit():
    rng = random.Random(20221019)
    cases = [(rng.uniform(1e-6, 0.999), rng.uniform(1e-6, 1.0)) for _ in range(DRAWS)]
    for kappa in (1e-300, 0.25, 0.5, 1.0 - 2**-53, 1.0):
        for rho in (kappa, kappa * (1 - 1e-13), kappa * (1 - 1e-11),
                    kappa * 0.5, math.nextafter(kappa, 0.0)):
            cases.append((rho, kappa))
        cases.append((0.999, kappa))
    for rho, kappa in cases:
        for model, hi in ((ModelKind.MA, 1.0), (ModelKind.MB, 0.5)):
            if not rho < hi:
                continue
            fs = classify_feasible_set(rho, kappa, model)
            assert _is_value(fs, FeasibleSetReport, 4)
            assert type(fs.vertices) is tuple
            assert _hex(tuple(fs)) == _hex(_feasible_ref(rho, kappa) + (kappa, rho))


@pytest.mark.parametrize("model", [ModelKind.MA, ModelKind.MB])
def test_singular_sigma_raises_as_the_reference(model):
    raw = {"beta1": 0.5, "beta2": 0.1, "lambda": 0.5, "gamma": 0.0,
           "kappa": 1e-200, "rho": 0.5, "N": 100.0, "alpha1": 1e-200,
           "alpha2": 5e-201}
    if model is ModelKind.MA:
        del raw["alpha1"], raw["alpha2"]
    p = validate_params(raw, model)
    with pytest.raises(SingularMatrixError) as ref:
        _ngm_ref(model, p)
    with pytest.raises(SingularMatrixError) as got:
        ngm(model, p)
    assert str(got.value) == str(ref.value) == "transition matrix is singular"


def _outcome(raw, model):
    try:
        return "ok", _params_hex(validate_params(raw, model))
    except Exception as exc:  # noqa: BLE001 - the class and text are compared
        return "raised", type(exc), str(exc)


BAD_VALUES = [True, False, "0.5", "abc", None, math.nan, -math.inf, 10**400, [1]]


@pytest.mark.parametrize("model", [ModelKind.MA, ModelKind.MB])
def test_bad_fields_raise_as_the_reference(model, monkeypatch):
    good = draw_raw_params(random.Random(7), model)
    cases = []
    for key in good:
        cases.extend(dict(good, **{key: bad}) for bad in BAD_VALUES)
        missing = dict(good)
        del missing[key]
        cases.append(missing)
    # valid ints and float subclasses take the general path
    cases.append(dict(good, N=1000))
    cases.append(dict(good, N=type("F", (float,), {})(1000.0)))
    with monkeypatch.context() as patched:
        patched.setattr(core, "_require", _require_ref)
        expected = [_outcome(raw, model) for raw in cases]
    got = [_outcome(raw, model) for raw in cases]
    assert got == expected
    assert [e[0] for e in expected] == ["raised"] * (len(cases) - 2) + ["ok", "ok"]
