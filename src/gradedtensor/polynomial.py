"""Dense single-variable polynomials with exact rational coefficients.

Used for everything N- or z-valued in the package: loop-weight
coefficients of Brauer elements, GL(N) dimension polynomials and
stranded-graph amplitudes.  Degrees stay small (bounded by face counts),
so a dense coefficient tuple is the simplest exact representation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class Poly:
    """Immutable polynomial sum(c_k * x**k) with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls((_as_fraction(c),))

    @classmethod
    def x(cls) -> "Poly":
        """The monomial x."""
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def monomial(cls, k: int, c: Scalar = 1) -> "Poly":
        if k < 0:
            raise ValueError("negative exponent")
        return cls((Fraction(0),) * k + (_as_fraction(c),))

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly":
        if isinstance(other, Poly):
            return other
        return Poly.const(other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci == 0:
                continue
            for j, cj in enumerate(b):
                out[i + j] += ci * cj
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- queries -----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __call__(self, value):
        """Evaluate by Horner's rule; `value` may itself be a Poly."""
        if isinstance(value, Poly):
            acc = Poly()
            for c in reversed(self.coeffs):
                acc = acc * value + c
            return acc
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def reflected(self) -> "Poly":
        """p(-x): flip the sign of odd-degree coefficients."""
        return Poly(tuple(c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)))

    # -- formatting and serialization ---------------------------------------

    def __repr__(self):
        return f"Poly({self.format()})"

    def format(self, var: str = "N") -> str:
        """Render as ``c_k N^k + ...`` with rationals printed p/q."""
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xk = var if k == 1 else f"{var}^{k}"
                body = xk if mag == 1 else f"{mag} {xk}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = first_body if first_sign == "+" else f"-{first_body}"
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def to_coeff_map(self) -> dict:
        """JSON form: map of exponent (as string) to "p/q" string."""
        return {str(k): str(c) for k, c in enumerate(self.coeffs) if c != 0}

    @classmethod
    def from_coeff_map(cls, data: dict) -> "Poly":
        if not data:
            return cls()
        low, top = min(map(int, data)), max(map(int, data))
        if low < 0:
            raise ValueError(f"negative exponent {low}")
        out = [Fraction(0)] * (top + 1)
        for k, v in data.items():
            out[int(k)] = Fraction(str(v))
        return cls(out)


def parse_rational(text) -> Fraction:
    """Parse a "p/q" (or integer) string into an exact Fraction."""
    return Fraction(str(text))
