"""Geometric core: Christoffel maps, algebra bracket, and metric.

Velocity pairs (u, rho) live in the tangent space at the identity of the
semidirect product group.  The four models share one Christoffel map,
`christoffel`: the single-component CH/DP maps are the rho = 0
restrictions of the two-component 2CH/2DP maps and act on the first slot
only.

All bilinear maps dealias their quadratic products (2/3 rule) before any
inverse-Helmholtz or derivative is applied, so iterated applications stay
spectrally clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from chdp.spectral import (
    Grid,
    PeriodicField,
    _check_same_grid,
    dealias,
    dealiased_product,
    derivative,
    helmholtz,
    helmholtz_inverse,
    inner_h1,
    inner_l2,
    zero_field,
)

__all__ = [
    "Model",
    "VelocityPair",
    "christoffel",
    "ad_transpose",
    "bracket",
    "metric",
]


class Model(str, Enum):
    """Selects the Christoffel map and evolution right-hand side."""

    CH = "ch"
    DP = "dp"
    CH2 = "2ch"
    DP2 = "2dp"

    @property
    def two_component(self) -> bool:
        return self in (Model.CH2, Model.DP2)

    @property
    def has_metric(self) -> bool:
        """CH/2CH geodesics come from an invariant metric; DP/2DP do not."""
        return self in (Model.CH, Model.CH2)


@dataclass(frozen=True)
class VelocityPair:
    """Algebra element (u, rho): velocity and density components."""

    u: PeriodicField
    rho: PeriodicField

    def __post_init__(self):
        _check_same_grid(self.u, self.rho)

    @property
    def grid(self) -> Grid:
        return self.u.grid

    @classmethod
    def single(cls, u: PeriodicField) -> "VelocityPair":
        """Embed a one-component velocity with rho = 0."""
        return cls(u, zero_field(u.grid))

    def __add__(self, other: "VelocityPair") -> "VelocityPair":
        return VelocityPair(self.u + other.u, self.rho + other.rho)

    def __sub__(self, other: "VelocityPair") -> "VelocityPair":
        return VelocityPair(self.u - other.u, self.rho - other.rho)

    def __neg__(self) -> "VelocityPair":
        return VelocityPair(-self.u, -self.rho)

    def __mul__(self, scalar: float) -> "VelocityPair":
        return VelocityPair(self.u * scalar, self.rho * scalar)

    __rmul__ = __mul__


def christoffel(model: Model, a: VelocityPair, b: VelocityPair) -> VelocityPair:
    """Christoffel map Gamma(a, b) of the model at the identity.

    With a = (u, rho), b = (v, tau) and Ainv the inverse of 1 - d^2/dx^2:

        CH:  (-Ainv d/dx (u v + u_x v_x / 2), 0)
        2CH: (CH first slot - Ainv d/dx (rho tau) / 2, -(u_x tau + v_x rho) / 2)
        DP:  (-(3/2) Ainv d/dx (u v), 0)
        2DP: (DP first slot - Ainv(u_x tau + v_x rho) / 2 + Ainv d/dx (rho tau),
              -(u_x tau + v_x rho))

    Each one-component map is the rho = tau = 0 restriction of its
    two-component map: CH and DP ignore the density slots, and their
    result's density slot is zero.
    """
    u, rho = a.u, a.rho
    v, tau = b.u, b.rho
    if model.has_metric:
        q = u * v + 0.5 * (derivative(u) * derivative(v))
        first = -helmholtz_inverse(derivative(dealias(q)))
        if not model.two_component:
            return VelocityPair.single(first)
        first = first - 0.5 * helmholtz_inverse(derivative(dealiased_product(rho, tau)))
        second = -0.5 * (dealiased_product(derivative(u), tau)
                         + dealiased_product(derivative(v), rho))
        return VelocityPair(first, second)
    first = -1.5 * helmholtz_inverse(derivative(dealiased_product(u, v)))
    if not model.two_component:
        return VelocityPair.single(first)
    cross = (dealiased_product(derivative(u), tau)
             + dealiased_product(derivative(v), rho))
    first = (first
             - 0.5 * helmholtz_inverse(cross)
             + helmholtz_inverse(derivative(dealiased_product(rho, tau))))
    return VelocityPair(first, -cross)


def ad_transpose(a: VelocityPair, b: VelocityPair) -> VelocityPair:
    """Bilinear operator adjoint to the bracket in the 2CH metric.

    Satisfies <ad_transpose(a, b), c> = <a, [b, c]> for the metric and
    bracket below.  Components:

        first  = -Ainv(2 b1_x A a1 + b1 A a1_x + a2 b2_x)
        second = -(a2 b1)_x
    """
    a1, a2 = a.u, a.rho
    b1, b2 = b.u, b.rho
    m_a = helmholtz(a1)
    inner = (2.0 * dealiased_product(derivative(b1), m_a)
             + dealiased_product(b1, derivative(m_a))
             + dealiased_product(a2, derivative(b2)))
    first = -helmholtz_inverse(inner)
    second = -derivative(dealiased_product(a2, b1))
    return VelocityPair(first, second)


def bracket(a: VelocityPair, b: VelocityPair) -> VelocityPair:
    """Algebra bracket of the semidirect product.

    [a, b] = (b1_x a1 - a1_x b1, b2_x a1 - a2_x b1): both slots are
    transported by the first components, matching the derivative of the
    adjoint action.
    """
    a1, a2 = a.u, a.rho
    b1, b2 = b.u, b.rho
    first = dealiased_product(derivative(b1), a1) - dealiased_product(derivative(a1), b1)
    second = dealiased_product(derivative(b2), a1) - dealiased_product(derivative(a2), b1)
    return VelocityPair(first, second)


def metric(a: VelocityPair, b: VelocityPair) -> float:
    """Right-invariant 2CH metric at the identity: H^1 on u, L^2 on rho."""
    return inner_h1(a.u, b.u) + inner_l2(a.rho, b.rho)
