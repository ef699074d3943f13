"""Dual numbers: a value with its partial derivatives, for exact oracles.

A Dual carries its value and a tuple of partials through + - * /, so a
formula evaluated on Duals gives its derivatives with no step size, only
the rounding of the arithmetic itself.  Plain floats mix in as constants.
No product of two Duals is needed, so none is defined: the fields of
socsir.dynamics are linear in the infected compartments at the DFE, and
reproduction.r0 is linear in each rate and in rho.
"""

from __future__ import annotations


class Dual:
    __slots__ = ("value", "partials")

    def __init__(self, value: float, partials: tuple[float, ...]):
        self.value = value
        self.partials = partials

    @classmethod
    def seed(cls, value: float, index: int, size: int) -> Dual:
        """value as the index-th of size variables: a unit partial there."""
        return cls(value, tuple(float(i == index) for i in range(size)))

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value,
                        tuple(a + b for a, b in zip(self.partials, other.partials)))
        return Dual(self.value + other, self.partials)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value,
                        tuple(a - b for a, b in zip(self.partials, other.partials)))
        return Dual(self.value - other, self.partials)

    def __rsub__(self, other):
        return Dual(other - self.value, tuple(-a for a in self.partials))

    def __mul__(self, other):
        if isinstance(other, Dual):
            return NotImplemented
        return Dual(self.value * other, tuple(a * other for a in self.partials))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            square = other.value * other.value
            return Dual(self.value / other.value, tuple(
                (a * other.value - self.value * b) / square
                for a, b in zip(self.partials, other.partials)
            ))
        return Dual(self.value / other, tuple(a / other for a in self.partials))

    def __rtruediv__(self, other):
        square = self.value * self.value
        return Dual(other / self.value, tuple(-other * a / square for a in self.partials))
