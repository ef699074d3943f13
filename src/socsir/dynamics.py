"""Vector fields for the two compartment models.

Pure functions: given parameters and a state they return the instantaneous
rates of change.  The population is closed, so each derivative vector sums
to zero (up to float rounding); nothing here integrates or mutates.

Each model's field is written once, as text (_MA, _MB), and compiled on
first use.  vector_field binds a model's parameters once and returns a
plain positional field; rhs_ma and rhs_mb check a named state and evaluate
that field on it once.  integrator._kernel writes the same text into
integrate's RK4 kernel.  Both models are autonomous, so the fields take
no time argument.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .core import (
    ModelKind, Params, StateMA, StateMB, _layout_for, _state_names, _switch_rates,
)
from .errors import NonFiniteError


class DerivMA(NamedTuple):
    """Rates of change for model MA (counts per unit time)."""

    dS1: float
    dS2: float
    dIs: float
    dIa: float
    dR: float


class DerivMB(NamedTuple):
    """Rates of change for model MB."""

    dS1: float
    dS2: float
    dA1: float
    dA2: float
    dIs: float
    dR: float


class _Text(NamedTuple):
    """A model's vector field as source text, its one definition: prelude
    binds the rates from p, and body computes from the components, named
    as in fields, one d<Component> per component in that order.  _binder
    compiles it into vector_field's field; integrator._kernel writes it
    into the four stages of integrate's RK4 kernel."""

    name: str
    fields: tuple[str, ...]
    prelude: str
    body: str


# Model MA (and SINGLE).  Class membership is fixed.  Both infective
# classes (Ia, Is) infect both susceptible classes; new infections split
# lam : (1-lam) into symptomatic and asymptomatic; asymptomatics develop
# symptoms at rate gamma; everyone recovers at rate kappa.  The prelude
# hoists left-associative prefixes of the rate expressions, which keeps
# every result bit-identical.
_MA = _Text(
    "MA",
    StateMA._fields,
    """\
beta1, beta2, lam, gamma, kappa, N = p.beta1, p.beta2, p.lam, p.gamma, p.kappa, p.N
asym_share = 1.0 - lam
leave_ia = gamma + kappa
""",
    """\
infectives = Ia + Is
force1 = beta1 * S1 / N
force2 = beta2 * S2 / N
incidence = (force1 + force2) * infectives
dS1 = -force1 * infectives
dS2 = -force2 * infectives
dIs = lam * incidence + gamma * Ia - kappa * Is
dIa = asym_share * incidence - leave_ia * Ia
dR = kappa * infectives
""",
)

# Model MB.  Like MA, but susceptibles and asymptomatics switch class at
# rates alpha1 (1 -> 2) and alpha2 (2 -> 1).  Susceptible switch terms are
# scaled by 1/N, asymptomatic ones as core._switch_rates says (so too in
# ngm's Sigma).  The switches cancel pairwise: the total is conserved.
_MB = _Text(
    "MB",
    StateMB._fields,
    """\
beta1, beta2, lam, gamma, kappa, N = p.beta1, p.beta2, p.lam, p.gamma, p.kappa, p.N
alpha1, alpha2 = p.alpha1, p.alpha2
sw1, sw2 = _switch_rates(p)
asym_rate1 = (1.0 - lam) * beta1
asym_rate2 = (1.0 - lam) * beta2
leave_a = gamma + kappa
""",
    """\
asympt = A1 + A2
infectives = asympt + Is
s1n = S1 / N
s2n = S2 / N
switch_in_1 = sw2 * A2
switch_out_1 = sw1 * A1
dS1 = alpha2 * S2 / N - (alpha1 + beta1 * infectives) * s1n
dS2 = alpha1 * S1 / N - (alpha2 + beta2 * infectives) * s2n
dA1 = asym_rate1 * infectives * s1n + switch_in_1 - switch_out_1 - leave_a * A1
dA2 = asym_rate2 * infectives * s2n + switch_out_1 - switch_in_1 - leave_a * A2
dIs = lam * (beta1 * s1n + beta2 * s2n) * infectives + gamma * asympt - kappa * Is
dR = kappa * infectives
""",
)


_TEXTS = {StateMA: _MA, StateMB: _MB}


def _indent(text: str, pad: str) -> str:
    # textwrap.indent, whose import costs about as much as building a kernel
    return "".join(pad + line for line in text.splitlines(True))


def _define(filename: str, source: str, **scope: object) -> dict:
    """The names that source defines, run with _switch_rates and scope.
    It is compiled as filename, which a traceback names with the line."""
    namespace = {"_switch_rates": _switch_rates, **scope}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


@functools.cache
def _binder(text: _Text):
    """bind(p) -> the positional field of text with the rates of p,
    compiled on a text's first use."""
    source = (
        f"def bind(p):\n{_indent(text.prelude, ' ' * 4)}"
        f"    def f({', '.join(text.fields)}):\n{_indent(text.body, ' ' * 8)}"
        f"        return ({', '.join('d' + name for name in text.fields)})\n"
        f"    return f\n"
    )
    return _define(f"<socsir field {text.name}>", source)["bind"]


def vector_field(model: ModelKind, p: Params):
    """The positional vector field f(*components) -> tuple of a model.

    The parameters are bound once, after core._layout_for checks them
    against the model.  The field does no checks: a non-finite input gives
    a non-finite output, which the integrator rejects.
    """
    return _binder(_TEXTS[_layout_for(model, p).state])(p)


def _rhs(model: ModelKind, deriv: type, p: Params, s):
    """The model's field evaluated once on s, as deriv.  RangeError for
    parameters that core._layout_for refuses and a state that
    core._state_names refuses; NonFiniteError for a NaN or inf component."""
    field = vector_field(model, p)
    _state_names(model, s, "state", NonFiniteError)
    return deriv._make(field(*s))


def rhs_ma(p: Params, s: StateMA) -> DerivMA:
    """Model MA right-hand side (_MA); see _rhs."""
    return _rhs(ModelKind.MA, DerivMA, p, s)


def rhs_mb(p: Params, s: StateMB) -> DerivMB:
    """Model MB right-hand side (_MB); see _rhs."""
    return _rhs(ModelKind.MB, DerivMB, p, s)
