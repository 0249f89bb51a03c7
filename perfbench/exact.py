"""Exact rational references for the classical specialisations.

The package's own oracle is float code under test, so these references use
only ``fractions.Fraction``.  Each family is a list of monomial coefficient
lists, one per degree, for the monic 1D polynomials of a basis with a product
measure:

* probabilists' Hermite ``He_n`` (standard Gaussian, identity alpha), from
  ``He_{n+1} = x He_n - n He_{n-1}``;
* Charlier ``C_n`` with ``nu = 1`` (Poisson, ``alpha = log1p``), from
  ``C_{n+1} = (x - n - 1) C_n - n C_{n-1}``;
* the Poisson ``nu = 1`` system with identity alpha, whose exponential
  generating function is ``exp(x t - (e^t - 1))``.

For ``d > 1`` the rank-n value tensor at z has, at a multi-index with
coordinate counts ``c_i``, the entry ``prod_i P_{c_i}(z_i)``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, factorial, log10

DIGITS_CAP = 17.0


def _three_term(N: int, shift, weight) -> list[list[Fraction]]:
    """P_{n+1} = (x - shift(n)) P_n - weight(n) P_{n-1}, P_0 = 1."""
    polys = [[Fraction(1)]]
    if N >= 1:
        polys.append([Fraction(-shift(0)), Fraction(1)])
    for n in range(1, N):
        cur, prev = polys[n], polys[n - 1]
        nxt = [Fraction(0)] + cur
        for k, c in enumerate(cur):
            nxt[k] -= shift(n) * c
        for k, c in enumerate(prev):
            nxt[k] -= weight(n) * c
        polys.append(nxt)
    return polys


def hermite(N: int) -> list[list[Fraction]]:
    return _three_term(N, lambda n: 0, lambda n: n)


def charlier(N: int) -> list[list[Fraction]]:
    return _three_term(N, lambda n: n + 1, lambda n: n)


def poisson_identity(N: int) -> list[list[Fraction]]:
    # h = exp(f) with f(t) = -(e^t - 1): h_n = sum_j C(n-1, j-1) f_j h_{n-j}
    h = [Fraction(1)]
    for n in range(1, N + 1):
        h.append(-sum(comb(n - 1, j - 1) * h[n - j] for j in range(1, n + 1)))
    return [[comb(n, k) * h[n - k] for k in range(n + 1)] for n in range(N + 1)]


def poly_values(polys: list[list[Fraction]], x: Fraction) -> list[Fraction]:
    out = []
    for coeffs in polys:
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        out.append(acc)
    return out


def coordinate_values(polys, z) -> list[list[Fraction]]:
    """Values P_0..P_N at each coordinate of z, exactly."""
    return [poly_values(polys, Fraction(x)) for x in z]


def tensor_entry(values: list[list[Fraction]], index: tuple[int, ...]) -> Fraction:
    """Value-tensor entry at a 1-based multi-index from coordinate_values."""
    out = Fraction(1)
    for i, c in Counter(index).items():
        out *= values[i - 1][c]
    return out


def pairing_terms(values: list[list[Fraction]], kernels) -> list[Fraction]:
    """Per-grade terms of sum_n <P_n(z), phi_n>, each kernel a coefficient dict."""
    terms = []
    for coeffs in kernels:
        s = Fraction(0)
        for idx, c in coeffs.items():
            if c:
                mult = factorial(len(idx))
                for k in Counter(idx).values():
                    mult //= factorial(k)
                s += mult * Fraction(c) * tensor_entry(values, idx)
        terms.append(s)
    return terms


def digits(err: Fraction, scale: Fraction) -> float:
    """-log10(err / scale), capped; an exact result scores the cap."""
    if err == 0:
        return DIGITS_CAP
    if scale == 0:
        return 0.0
    return min(DIGITS_CAP, -log10(err / scale))


def vector_digits(got, ref) -> float:
    """Normwise digits of a whole result: max |got - ref| / max |ref|."""
    err = max(abs(Fraction(g) - r) for g, r in zip(got, ref, strict=True))
    return digits(err, max(abs(r) for r in ref))


def sum_digits(got: float, terms: list[Fraction]) -> float:
    """Digits of a sum relative to the sum of its terms' magnitudes, so that
    cancellation in the exact value does not read as lost precision."""
    return digits(abs(Fraction(got) - sum(terms)), sum(abs(t) for t in terms))
