"""Independent references the benchmark checks the program's outputs against.

Nothing here imports socsir: the MB equations, the RK4 step and the time
grid are written out again over plain floats.
"""

from __future__ import annotations


def rates_of(p) -> dict[str, float]:
    """The rates mb_peak_I needs, read off a ``socsir.Params`` value."""
    return {name: getattr(p, name) for name in
            ("beta1", "beta2", "lam", "gamma", "kappa", "alpha1", "alpha2", "N")}


def mb_peak_I(rates: dict[str, float], init: tuple[float, ...],
              t1: float, dt: float, t0: float = 0.0) -> float:
    """Largest recorded I = A1 + A2 + Is of an MB run, recording every step.

    ``rates`` holds beta1, beta2, lam, gamma, kappa, alpha1, alpha2 and N;
    switching of asymptomatics is not scaled by N (the package default).
    ``init`` is (S1, S2, A1, A2, Is, R).  The time grid matches
    ``socsir.simulate``: steps of dt from t0, the last one cut at t1.
    """
    b1, b2 = rates["beta1"], rates["beta2"]
    lam, g, k = rates["lam"], rates["gamma"], rates["kappa"]
    a1, a2, n = rates["alpha1"], rates["alpha2"], rates["N"]
    gk = g + k

    def rhs(S1, S2, A1, A2, Is):
        i = A1 + A2 + Is
        s1n = S1 / n
        s2n = S2 / n
        new1 = b1 * i * s1n
        new2 = b2 * i * s2n
        return (
            a2 * S2 / n - a1 * s1n - new1,
            a1 * S1 / n - a2 * s2n - new2,
            (1.0 - lam) * new1 + a2 * A2 - a1 * A1 - gk * A1,
            (1.0 - lam) * new2 + a1 * A1 - a2 * A2 - gk * A2,
            lam * (new1 + new2) + g * (A1 + A2) - k * Is,
        )

    # R never feeds back into the other compartments, so it is not tracked.
    S1, S2, A1, A2, Is = init[:5]
    peak = A1 + A2 + Is
    step, t = 0, t0
    while t < t1:
        t_next = t0 + (step + 1) * dt
        h = dt
        if t_next >= t1:
            t_next, h = t1, t1 - t
        half = 0.5 * h
        k1 = rhs(S1, S2, A1, A2, Is)
        k2 = rhs(S1 + half * k1[0], S2 + half * k1[1], A1 + half * k1[2],
                 A2 + half * k1[3], Is + half * k1[4])
        k3 = rhs(S1 + half * k2[0], S2 + half * k2[1], A1 + half * k2[2],
                 A2 + half * k2[3], Is + half * k2[4])
        k4 = rhs(S1 + h * k3[0], S2 + h * k3[1], A1 + h * k3[2],
                 A2 + h * k3[3], Is + h * k3[4])
        sixth = h / 6.0
        S1 += sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        S2 += sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        A1 += sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
        A2 += sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3])
        Is += sixth * (k1[4] + 2.0 * (k2[4] + k3[4]) + k4[4])
        step, t = step + 1, t_next
        peak = max(peak, A1 + A2 + Is)
    return peak


def time_grid(t0: float, t1: float, dt: float, record_every: int) -> tuple[int, int]:
    """(steps, records) of a run, on the time grid ``socsir.simulate`` uses."""
    steps, records, t = 0, 1, t0
    while t < t1:
        t_next = t0 + (steps + 1) * dt
        t = t1 if t_next >= t1 else t_next
        steps += 1
        if steps % record_every == 0 or t >= t1:
            records += 1
    return steps, records


def r0_closed_form(raw: dict[str, float]) -> float:
    """(rho*beta1 + (1-rho)*beta2) / kappa, with rho from the alphas for MB."""
    if "alpha1" in raw:
        rho = raw["alpha2"] / (raw["alpha1"] + raw["alpha2"])
    else:
        rho = raw["rho"]
    return (rho * raw["beta1"] + (1.0 - rho) * raw["beta2"]) / raw["kappa"]
