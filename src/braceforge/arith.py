"""Elementary arithmetic: primality, unit orders, residue scans, divisors
and powers.

Everything here but `power` works on plain ints at the small moduli this
package needs (carriers have order at most 1000), so trial division and
linear scans are deliberate choices.  `power` takes any associative product,
elementwise over arrays included.
"""

from __future__ import annotations

from math import gcd

__all__ = [
    "is_prime",
    "unit_order",
    "units_of_order",
    "unit_of_order",
    "primitive_root",
    "legendre",
    "quadratic_nonresidues",
    "dlog",
    "divisors",
    "power",
]


def is_prime(n: int) -> bool:
    """True iff n is a prime number (deterministic trial division)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def unit_order(a: int, m: int) -> int:
    """Multiplicative order of a modulo m; raises if gcd(a, m) != 1."""
    a %= m
    if m < 2 or gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit modulo {m}")
    k, x = 1, a
    while x != 1:
        x = x * a % m
        k += 1
    return k


def units_of_order(m: int, d: int) -> list[int]:
    """All units modulo m of multiplicative order exactly d, ascending."""
    return [a for a in range(1, m) if gcd(a, m) == 1 and unit_order(a, m) == d]


def unit_of_order(m: int, d: int, rank: int = 0) -> int:
    """The rank-th smallest unit of order d mod m (rank clamped to the last one).

    rank=0 is the canonical choice used throughout; rank=1 exists so tests can
    rebuild every construction from the second-smallest valid constant.
    """
    found = units_of_order(m, d)
    if not found:
        raise ValueError(f"no unit of order {d} modulo {m}")
    return found[min(rank, len(found) - 1)]


def primitive_root(m: int) -> int:
    """Smallest primitive root modulo m (m must have a cyclic unit group)."""
    phi = sum(1 for a in range(1, m) if gcd(a, m) == 1)
    for a in range(2, m):
        if gcd(a, m) == 1 and unit_order(a, m) == phi:
            return a
    raise ValueError(f"no primitive root modulo {m}")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p: 1, -1, or 0."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return -1 if s == p - 1 else s


def quadratic_nonresidues(p: int) -> list[int]:
    """All quadratic non-residues modulo the odd prime p, ascending."""
    return [a for a in range(2, p) if legendre(a, p) == -1]


def dlog(x: int, base: int, m: int) -> int:
    """Smallest e >= 0 with base**e = x mod m; raises if x is not a power."""
    x %= m
    v = 1
    for e in range(unit_order(base, m)):
        if v == x:
            return e
        v = v * base % m
    raise ValueError(f"{x} is not a power of {base} modulo {m}")


def divisors(n: int) -> list[int]:
    """The positive divisors of n, ascending."""
    return [d for d in range(1, n + 1) if n % d == 0]


def power(mul, one, x, e: int):
    """x^e under the associative product `mul` with identity `one`, by
    square-and-multiply: at most 2 log2(e) + 1 products.  Each multiplies
    two powers of x, which commute, so the order of the factors does not
    matter.  Works on whole arrays of elements at once when `mul` does.
    """
    acc = one
    while e:
        if e & 1:
            acc = mul(acc, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return acc
