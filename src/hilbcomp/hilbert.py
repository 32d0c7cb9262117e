"""Hilbert series, Hilbert functions, Hilbert polynomials.

The series of S/I depends only on the initial monomial ideal (Macaulay), so
it is computed from the grevlex leads of Buchberger's minimal basis, with no
interreduction, by the variable-pivot recursion

    HS(M) = HS(M + (x)) + T * HS(M : x)

with pairwise-coprime generator sets as base case.  The numerator Q(T) with
HS = Q/(1-T)^width is exact integer data; cancelling (1-T) factors yields
the Hilbert polynomial, the projective dimension, the degree, and the bound
from which polynomial and function agree.

Includes the reference Hilbert polynomial of a pair of codimension-two
linear subspaces of P^n meeting in codimension four:

    2*C(m+n-2, n-2) - C(m+n-4, n-4),  with C(., a) = 0 for a < 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import HomogeneityError
from .rings import _divides


class UniPoly:
    """Univariate polynomial with exact int or Fraction coefficients, in m
    for Hilbert polynomials and in T for series numerators."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("UniPoly is immutable")

    def __call__(self, m):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * m + c
        return acc

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + _coerce(other).scale(-1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def scale(self, c):
        return UniPoly([a * c for a in self.coeffs])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly([other])
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "m" if mag == 1 else f"{mag}*m"
            else:
                body = f"m^{e}" if mag == 1 else f"{mag}*m^{e}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self):
        return f"UniPoly({str(self)!r})"


def _coerce(v):
    return v if isinstance(v, UniPoly) else UniPoly([v])


UNIPOLY_ZERO = UniPoly()


def binomial_polynomial(a, offset=0):
    """C(m - offset + a, a) as a polynomial in m; zero when a < 0."""
    if a < 0:
        return UNIPOLY_ZERO
    acc = UniPoly([1])
    for i in range(1, a + 1):
        acc = acc * UniPoly([i - offset, 1])
    return acc.scale(Fraction(1, factorial(a)))


def pair_hilbert_polynomial(n):
    """Hilbert polynomial of two codimension-two linear subspaces of P^n
    meeting along a codimension-four linear subspace."""
    if n < 3:
        raise ValueError("defined for n >= 3")
    return binomial_polynomial(n - 2).scale(2) - binomial_polynomial(n - 4)


def double_structure_hilbert_count(n, k, m):
    """Closed-form value of dim (S/I)_m for the pure double structure with
    degree-k coprime tie polynomials in x_2..x_n."""

    def c(a, b):
        if b < 0 or a < 0:
            return 0
        return comb(a, b)

    return (
        c(n - 2 + m, m)
        + 2 * c(n - 2 + m - 1, m - 1)
        - c(n - 2 + m - 1 - k, m - 1 - k)
    )


# ---------------------------------------------------------------------------
# numerator of the series of a monomial ideal
# ---------------------------------------------------------------------------

def _minimalize(gens):
    gens = sorted(set(gens), key=lambda m: (sum(m), m))
    out = []
    for g in gens:
        if not any(_divides(h, g) for h in out):
            out.append(g)
    return tuple(out)


@functools.lru_cache(maxsize=128)
def _numerator(gens):
    """Q(T) for S/(monomial ideal) as an integer UniPoly; gens minimal, as a
    sorted tuple."""
    if not gens:
        return UniPoly([1])
    if any(sum(g) == 0 for g in gens):
        return UNIPOLY_ZERO
    width = len(gens[0])
    occupancy = [0] * width
    for g in gens:
        for i, e in enumerate(g):
            if e:
                occupancy[i] += 1
    if max(occupancy) <= 1:
        # pairwise coprime generators form a regular sequence
        q = UniPoly([1])
        for g in gens:
            q = q * UniPoly([1] + [0] * (sum(g) - 1) + [-1])
        return q
    pivot = max(range(width), key=lambda i: occupancy[i])
    plus = _minimalize(
        [g for g in gens if g[pivot] == 0]
        + [tuple(1 if i == pivot else 0 for i in range(width))]
    )
    colon = _minimalize(
        [
            tuple(e - 1 if i == pivot and e > 0 else e for i, e in enumerate(g))
            for g in gens
        ]
    )
    return _numerator(plus) + UniPoly((0,) + _numerator(colon).coeffs)


@dataclass(frozen=True)
class HilbertData:
    """Exact series and polynomial data for a homogeneous quotient S/I."""

    num_vars: int
    series_numerator: tuple     # Q with HS = Q/(1-T)^num_vars
    reduced_numerator: tuple    # same series with all (1-T) factors cancelled
    denominator_power: int
    hilbert_polynomial: UniPoly
    dimension: int              # projective dimension, -1 for empty
    degree: int
    agreement_bound: int        # HF(m) == HP(m) for every m >= this bound

    def series_coefficient(self, d):
        """dim (S/I)_d read off the power series expansion."""
        if d < 0:
            return 0
        q = self.reduced_numerator
        dp = self.denominator_power
        total = 0
        for j, c in enumerate(q):
            if j > d or c == 0:
                continue
            total += c * comb(d - j + dp - 1, dp - 1) if dp > 0 else (c if j == d else 0)
        return total


def _initial_monomials(I):
    """The minimal generators of in(I), read off the leads of I's grevlex
    basis, which `buchberger` gives before any interreduction."""
    if I.is_zero():
        return ()
    return _minimalize(I.groebner_basis().lead_monomials())


def hilbert_series(I):
    """HilbertData of S/I for a homogeneous ideal in an x-only ring."""
    if I._hilbert_cache is not None:
        return I._hilbert_cache
    ring = I.ring
    if ring.has_param or ring.num_aux:
        raise ValueError("Hilbert data requires a plain x-variable ring")
    if not I.is_homogeneous():
        raise HomogeneityError("Hilbert series requires a homogeneous ideal")
    data = hilbert_data(ring.width, _numerator(_initial_monomials(I)).coeffs)
    I._set_hilbert(data)
    return data


@functools.lru_cache(maxsize=128)
def hilbert_data(width, numerator):
    """HilbertData of the series Q/(1-T)^width, for the integer numerator
    coefficients Q as a tuple (trailing zeros allowed): every field derived
    from Q.  The data is immutable, so one object serves every call with
    the same (width, Q) among the 128 most recently used."""
    q = UniPoly(numerator).coeffs or (0,)
    reduced = list(q)
    dpow = width
    while reduced and any(reduced) and sum(reduced) == 0:
        # exact synthetic division by (1 - T)
        out = []
        carry = 0
        for c in reduced[:-1]:
            carry = c + carry
            out.append(carry)
        reduced = out
        dpow -= 1
    if not any(reduced):
        return HilbertData(width, q, (0,), 0, UNIPOLY_ZERO, -1, 0, 0)

    reduced = tuple(reduced)
    if dpow == 0:
        hp = UNIPOLY_ZERO
        dimension = -1
        degree = 0
        bound = len(reduced)  # beyond deg(reduced) both sides are zero
    else:
        hp = UNIPOLY_ZERO
        for j, c in enumerate(reduced):
            if c:
                hp = hp + binomial_polynomial(dpow - 1, offset=j).scale(c)
        dimension = dpow - 1
        # the degree of the scheme is the reduced numerator at T=1
        degree = sum(reduced)
        bound = max(0, len(reduced) - 1 - dpow + 1)
    return HilbertData(width, q, reduced, dpow, hp, dimension, degree, bound)


def hilbert_function(I, d):
    """dim (S/I)_d, read off the Hilbert series."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return hilbert_series(I).series_coefficient(d)
