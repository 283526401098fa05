"""Mechanical checks of the convergence and divergence conditions.

For a density model, an exponent alpha, and a convergence order q (1 or
2), five sufficient conditions are evaluated:

* ``bounded_support``: alpha > 0, support a finite union of bounded convex
  bodies, pdf bounded away from 0 and infinity on it. Grants mean-square
  (and almost-sure) convergence of the normalized neighbor sum.
* ``negative_alpha``: -d/q < alpha < 0 with a bounded pdf. Grants L^q
  convergence.
* ``moment_condition``: 0 < alpha < d/q, finite integral of f^(1-alpha/d),
  and critical moment above q*alpha*d / (d - q*alpha). Grants L^q
  convergence.
* ``power_tail``: pdf decaying like |x|^(-beta) with beta > d and finite
  integral of f^(1-alpha/d), 0 < alpha < d. Grants L^1 convergence, and
  implies the q=1 moment condition.
* ``divergence``: 0 < alpha < d, critical moment below alpha*d/(d-alpha),
  and shell-mass ratios F(A_k)/F(A_{k-1}) bounded away from 0 and
  infinity. Then the mean of the normalized sum is unbounded along a
  subsequence, so no L^1 convergence is possible.

A critical moment sitting exactly at the threshold is a boundary case
with no guarantee either way; it is surfaced as a note, never a verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from .densities import DensityModel
from .errors import _integer, _real

_BOUNDARY_RTOL = 1e-12


def _moment_threshold(alpha: float, q: int, d: int) -> float:
    """q * alpha * d / (d - q * alpha), the critical-moment cutoff; callers
    hold q in (1, 2) and 0 < alpha < d/q."""
    return q * alpha * d / (d - q * alpha)


def _at_boundary(r_c: float, threshold: float) -> bool:
    if not math.isfinite(r_c):
        return False
    return math.isclose(r_c, threshold, rel_tol=_BOUNDARY_RTOL, abs_tol=0.0)


def check_moment_condition(model: DensityModel, alpha: float, q: int) -> bool:
    """0 < alpha < d/q with finite f^(1-alpha/d) integral and critical
    moment strictly above the threshold."""
    alpha, q = _real("alpha", alpha), _integer("q", q, 1, 2, "1 or 2")
    d = model.dim
    if not 0 < alpha < d / q:
        return False
    if not model.i_rho_is_finite(1.0 - alpha / d):
        return False
    return model.critical_moment() > _moment_threshold(alpha, q, d)


def check_power_tail(model: DensityModel, alpha: float) -> bool:
    """Power-decay tails with finite f^(1-alpha/d) integral; implies the
    q=1 moment condition."""
    alpha, beta = _real("alpha", alpha), model.power_law_tail_exponent
    d = model.dim
    if beta is None or beta <= d:
        return False
    if not 0 < alpha < d:
        return False
    return model.i_rho_is_finite(1.0 - alpha / d)


def check_divergence(model: DensityModel, alpha: float) -> bool:
    """Unbounded-mean condition: 0 < alpha < d, critical moment below
    alpha*d/(d-alpha), and regular shell-mass decay."""
    alpha, d = _real("alpha", alpha), model.dim
    if not 0 < alpha < d:
        return False
    r_c = model.critical_moment()
    if not r_c < alpha * d / (d - alpha):
        return False
    return model.shell_regularity()


@dataclass
class ConditionReport:
    """Bundle of the five condition verdicts plus boundary notes."""

    alpha: float
    q: int
    bounded_support: bool
    negative_alpha: bool
    moment_condition: bool
    power_tail: bool
    divergence: bool
    notes: list = field(default_factory=list)

    def convergence_granted(self) -> bool:
        """Whether any condition grants L^q convergence at this report's q."""
        return (
            self.bounded_support
            or self.negative_alpha
            or self.moment_condition
            or (self.power_tail and self.q == 1)
        )

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def condition_report(model: DensityModel, alpha: float, q: int) -> ConditionReport:
    """Evaluate the five conditions of the module docstring and collect
    boundary notes."""
    alpha, q = _real("alpha", alpha), _integer("q", q, 1, 2, "1 or 2")
    moment_condition = check_moment_condition(model, alpha, q)
    d = model.dim
    report = ConditionReport(
        alpha=alpha,
        q=q,
        bounded_support=(
            alpha > 0
            and model.bounded_convex_union_support
            and model.inf_pdf_on_support > 0
            and math.isfinite(model.sup_pdf)
        ),
        negative_alpha=-d / q < alpha < 0 and math.isfinite(model.sup_pdf),
        moment_condition=moment_condition,
        power_tail=check_power_tail(model, alpha),
        divergence=check_divergence(model, alpha),
    )
    if 0 < alpha < d / q:
        r_c = model.critical_moment()
        threshold = _moment_threshold(alpha, q, d)
        if _at_boundary(r_c, threshold):
            report.notes.append(
                f"critical moment r_c = {r_c:g} equals the threshold "
                f"q*alpha*d/(d-q*alpha) = {threshold:g}: boundary case, "
                "no guarantee either way"
            )
    if alpha != 0 and (alpha == d / q or alpha == -d / q):
        report.notes.append(
            f"alpha = {alpha:g} sits at an open-interval endpoint of the "
            "admissible range: no guarantee"
        )
    return report
