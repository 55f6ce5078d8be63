"""Exact rationals and the elementary number theory the rest of the package leans on.

Rational numbers are `fractions.Fraction` throughout: arbitrary-precision,
always reduced, positive denominator, hashable.  This module adds the naive
height, a height-ordered enumeration of Q, and small arithmetic helpers
(Mobius function, divisors, smallest prime factor, the primes in order,
Mersenne primality).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from typing import Iterator


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b' or 'a' into a reduced Fraction.  Rejects b = 0."""
    text = text.strip()
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc
    return q


def format_rational(q: Fraction) -> str:
    """Canonical text: 'a/b' reduced with b > 1, integers without '/1'."""
    return str(Fraction(q))


def naive_height(q: Fraction) -> int:
    """max(|numerator|, denominator) of the reduced fraction; h(0) = 1."""
    q = Fraction(q)
    return max(abs(q.numerator), q.denominator)


def divisors(n: int) -> list[int]:
    """Ascending list of the positive divisors of n >= 1."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def mobius(n: int) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)^(number of prime factors)."""
    if n < 1:
        raise ValueError(f"mobius requires n >= 1, got {n}")
    result = 1
    while n > 1:
        p = smallest_prime_factor(n)
        n //= p
        if n % p == 0:
            return 0
        result = -result
    return result


def smallest_prime_factor(n: int) -> int:
    """Least prime dividing n >= 2, by trial division; n itself iff n is prime."""
    if n < 2:
        raise ValueError(f"smallest_prime_factor requires n >= 2, got {n}")
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


def primes() -> Iterator[int]:
    """2, 3, 5, 7, ... in increasing order, without end."""
    return (n for n in count(2) if smallest_prime_factor(n) == n)


def is_mersenne_prime_exponent(n: int) -> bool:
    """True iff 2^n - 1 is prime.

    Deterministic for every n: the exponent must itself be prime, and for odd
    prime exponents the Lucas-Lehmer test decides 2^n - 1 exactly.
    """
    if n < 1:
        raise ValueError(f"exponent must be >= 1, got {n}")
    if n < 2 or smallest_prime_factor(n) != n:
        return False
    if n == 2:
        return True
    m = (1 << n) - 1
    s = 4
    for _ in range(n - 2):
        s = (s * s - 2) % m
    return s == 0


def rationals_of_height(h: int) -> list[Fraction]:
    """All reduced a/b with max(|a|, b) exactly h, sorted by (numerator, denominator)."""
    if h < 1:
        raise ValueError(f"height must be >= 1, got {h}")
    from math import gcd

    found = []
    for b in range(1, h + 1):
        if gcd(h, b) == 1:
            found.append((-h, b))
            found.append((h, b))
    for a in range(-(h - 1), h):
        if gcd(abs(a), h) == 1:
            found.append((a, h))
    found.sort()
    return [Fraction(a, b) for a, b in found]


def enumerate_rationals_by_height(max_height: int) -> Iterator[Fraction]:
    """Yield every rational of naive height <= max_height exactly once.

    Order is (height, numerator, denominator), so output is deterministic and
    scans are reproducible.
    """
    if max_height < 1:
        raise ValueError(f"max_height must be >= 1, got {max_height}")
    for h in range(1, max_height + 1):
        yield from rationals_of_height(h)
