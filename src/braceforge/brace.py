"""Skew braces over the two carriers: construction from regular subgroups,
axiom verification, lambda/kernel/fix machinery, bi-skew detection and
multiplicative-group classification.

A brace is stored as its lambda table, one automorphism index per element,
in a read-only int32 array.  On first use it also keeps the m x n action
rows of lambda(A), m = |lambda(A)|, and each element's row position
(`lambda_action`).  The circle product
a o b = a + lambda_a(b) is computed from those and the carrier's digit-wise
addition `GroupSpec.add_idx` by one function, `SkewBrace.circle_idx`, over
index arrays; no n x n circle or addition table is kept.

Since every lambda_a is an automorphism, the brace axiom holds by
construction and associativity is lambda being a homomorphism
(A, o) -> Aut(A, +).  `verify_left_brace` decides both from lambda on a
generating set of (A, o), in O(n) per generator, with no scan over pairs
unless it rejects.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .arith import divisors, dlog, legendre, power, unit_of_order
from .algebra import GroupSpec, _blocks, _distinct, _greedy_generators, _index_key

__all__ = [
    "MultClass",
    "MULT_LABELS",
    "ZP2Q",
    "ZP2_RTIMES_ZQ",
    "ZP2xZQ",
    "G_K",
    "G_F",
    "ZP_x_ZQ_RTIMES_ZP",
    "ZQ_RTIMES_ZP2_rp",
    "ZQ_RTIMES_ZP2_h",
    "SkewBrace",
    "BraceInvariants",
    "VerifyResult",
    "brace_from_regular",
    "verify_left_brace",
    "ker_lambda",
    "fix_set",
    "is_bi_skew",
    "lambda_is_additive",
    "mult_group_class",
    "brace_invariants",
]

# Multiplicative-class labels.  "rp" = the order-p action on Z_q, "h" = the
# order-p^2 action; G_K(k) are the diagonal-action semidirect products indexed
# by the canonical set B, G_F the irreducible-action one.
ZP2Q = "ZP2Q"
ZP2_RTIMES_ZQ = "ZP2_RTIMES_ZQ"
ZP2xZQ = "ZP2xZQ"
G_K = "G_K"
G_F = "G_F"
ZP_x_ZQ_RTIMES_ZP = "ZP_x_ZQ_RTIMES_ZP"
ZQ_RTIMES_ZP2_rp = "ZQ_RTIMES_ZP2_rp"
ZQ_RTIMES_ZP2_h = "ZQ_RTIMES_ZP2_h"
MULT_LABELS = (
    ZP2Q,
    ZP2_RTIMES_ZQ,
    ZP2xZQ,
    G_K,
    G_F,
    ZP_x_ZQ_RTIMES_ZP,
    ZQ_RTIMES_ZP2_rp,
    ZQ_RTIMES_ZP2_h,
)


class MultClass(NamedTuple):
    """Isomorphism type of the multiplicative group (A, o)."""

    label: str
    k: int | None = None

    def __str__(self) -> str:
        return self.label if self.k is None else f"{self.label}({self.k})"


class BraceInvariants(NamedTuple):
    ker_size: int
    fix_size: int
    mult_class: MultClass
    bi_skew: bool


class VerifyResult(NamedTuple):
    ok: bool
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


class SkewBrace:
    """A skew (left) brace whose additive group is the given carrier.

    `lam` is its lambda table, one automorphism index per element, held as
    a read-only int32 array.  Equality and hashing go through `key`, the
    table's big-endian bytes, and so does every sort of braces: keys of
    equal-length tables order as the tables do, entry by entry.
    """

    __slots__ = ("spec", "lam", "__dict__")

    def __init__(self, spec: GroupSpec, lam: Sequence[int]):
        lam = np.array(lam, dtype=np.int32)
        if lam.shape != (spec.n,):
            raise ValueError(f"lambda table has {lam.size} entries, expected {spec.n}")
        if lam.min() < 0 or lam.max() >= spec.n_aut:
            raise ValueError("lambda table contains an invalid automorphism index")
        lam.flags.writeable = False
        self.spec = spec
        self.lam = lam

    @property
    def key(self) -> bytes:
        """The lambda table as bytes (`algebra._index_key`), made on demand."""
        return _index_key(self.lam)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SkewBrace)
            and self.spec == other.spec
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.key))

    def __repr__(self) -> str:
        return f"SkewBrace({self.spec!r}, |ker|={len(ker_lambda(self))})"

    @cached_property
    def lambda_action(self) -> tuple[np.ndarray, np.ndarray]:
        """The action rows of lambda(A) and each element's row position:
        rows[i, b] = f(b) for the i-th automorphism f of lambda_image, shape
        (m, n), int32, and lambda_a = lambda_image[pos[a]]."""
        used = np.array(self.lambda_image)
        return self.spec.apply_rows(used), np.searchsorted(used, self.lam)

    @property
    def lambda_rows(self) -> np.ndarray:
        """Action of each lambda_a, shape (n, n), int32: lambda_rows[a, b] =
        lambda_a(b), the sigma table of the YBE solution.  Not cached: a
        brace keeps only the m x n rows of lambda_action."""
        rows, pos = self.lambda_action
        return rows[pos]

    def circle_idx(self, x, y) -> np.ndarray:
        """Circle product x o y = x + lambda_x(y) on element indices,
        elementwise over the broadcast index arrays x, y."""
        rows, pos = self.lambda_action
        return self.spec.add_idx(x, rows[pos[x], y])

    def circle(self, x, y):
        """Circle product on element tuples."""
        spec = self.spec
        return spec.decode(int(self.circle_idx(spec.encode(x), spec.encode(y))))

    @cached_property
    def circle_generators(self) -> tuple[int, ...]:
        """Generators of (A, o): each element, smallest first, not in the
        closure of 0 under right o-multiplication by the earlier ones.  When
        lambda_0 = id, 0 o t = t, so that closure holds every element."""
        n = self.spec.n
        return tuple(_greedy_generators(self.circle_idx, n, range(n)))

    def lambda_desc(self, x):
        """The automorphism lambda_x as a descriptor."""
        return self.spec.aut_desc(int(self.lam[self.spec.encode(x)]))

    @cached_property
    def lambda_image(self) -> tuple[int, ...]:
        """The distinct automorphism indices of the lambda table, ascending."""
        return tuple(_distinct(self.lam, self.spec.n_aut).tolist())

    @cached_property
    def circle_orders(self) -> np.ndarray:
        """Order of each element in (A, o): the least divisor d of |A| with
        x^d = 0, each power taken for every element at once by
        square-and-multiply through circle_idx."""
        n = self.spec.n
        x = np.arange(n)
        orders = np.zeros(n, dtype=np.int64)
        for d in divisors(n):
            if orders.all():
                break
            x_d = power(self.circle_idx, np.zeros_like(x), x, d)
            orders[(x_d == 0) & (orders == 0)] = d
        return orders


def brace_from_regular(spec: GroupSpec, elements: frozenset[int]) -> SkewBrace:
    """Brace with lambda_a = the unique f such that (a, f) lies in the
    subgroup of Hol(A) given by its encoded indices a * n_aut + f.

    This is the regularity check: (a, f) maps 0 to a, so a subgroup acts
    regularly exactly when it has |A| elements with pairwise distinct first
    projections.  Raises ValueError otherwise.
    """
    n, n_aut = spec.n, spec.n_aut
    if len(elements) != n:
        raise ValueError(f"subgroup of order {len(elements)} is not regular on {n} points")
    lam = [-1] * n
    for h in elements:
        a, f = divmod(h, n_aut)
        if lam[a] != -1:
            raise ValueError("subgroup is not regular: repeated first projection")
        lam[a] = f
    return SkewBrace(spec, lam)


def verify_left_brace(B: SkewBrace) -> VerifyResult:
    """Check that B is a skew brace over its carrier.

    Checks: lambda(0) = id, and lambda is a homomorphism (A, o) ->
    Aut(A, +).  These decide the axioms because every lambda_a is an
    automorphism (SkewBrace admits only indices into aut_array), so
    a o b = a + lambda_a(b) gives:

    * bijective circle rows by construction, as b -> a + lambda_a(b) is a
      bijection for every automorphism lambda_a;
    * the brace axiom a o (b+c) = a o b - a + a o c by construction, as
      lambda_a is additive;
    * associativity exactly when lambda_{a o b} = lambda_a lambda_b, since
      (a o b) o c = a + lambda_a(b) + lambda_{a o b}(c) and
      a o (b o c) = a + lambda_a(b) + lambda_a lambda_b(c).

    With a two-sided identity 0 and bijective rows, (A, o) is then a group.

    The homomorphism is decided on the o-generators g of circle_generators,
    in O(n) each.  The b with lambda_{a o b} = lambda_a lambda_b for every a
    form a set S closed under o: for b1, b2 in S, (a o b1) o b2 =
    a o (b1 o b2) by the expansion above, so lambda_{a o (b1 o b2)} =
    lambda_a lambda_b1 lambda_b2 = lambda_a lambda_{b1 o b2}.  And 0 is in S
    exactly when lambda(0) = id.  The generators span every element from 0
    by right o-multiplication, so S is all of A when they lie in it.

    When either check fails, the O(n^2) scan runs, and the first violation
    of each check, in row-major order, is reported as a witness.
    """
    spec = B.spec
    lam0_ok = bool(B.lam[0] == spec.identity_aut)
    if lam0_ok and _lambda_hom_on(B, B.circle_idx, B.circle_generators):
        return VerifyResult(True)
    problems: list[str] = []
    if not lam0_ok:
        problems.append(
            f"lambda(0) is not the identity automorphism (index {int(B.lam[0])})"
        )
    bad = _lambda_hom_witness(B)
    if bad is None:
        raise RuntimeError(
            "lambda fails to be multiplicative at an o-generator, "
            "but the O(n^2) scan finds no violating pair"
        )
    a, b = bad
    problems.append(f"lambda is not multiplicative at {spec.decode(a)}, {spec.decode(b)}")
    return VerifyResult(ok=False, problems=tuple(problems))


def _lambda_compositions(B: SkewBrace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lambda as an array, each element's position in lambda_image, and
    comp[i, j], the index of image[i] o image[j] over lambda_image."""
    image = np.asarray(B.lambda_image)
    comp = B.spec.compose_many(image[:, None], image[None, :])
    return B.lam, B.lambda_action[1], comp


def _lambda_hom_on(B: SkewBrace, product, gens: Sequence[int]) -> bool:
    """True iff lambda_{product(a, g)} = lambda_a o lambda_g for every
    element a and each g in gens; product works over index arrays."""
    lam, pos, comp = _lambda_compositions(B)
    every = np.arange(B.spec.n)[:, None]
    g = np.asarray(gens, dtype=np.intp)
    return bool(np.array_equal(lam[product(every, g)], comp[pos[:, None], pos[g]]))


def _lambda_hom_witness(B: SkewBrace) -> tuple[int, int] | None:
    """The first (a, b), in row-major order, with lambda_{a o b} !=
    lambda_a o lambda_b, or None when lambda is a homomorphism from (A, o).

    Rows are scanned in the blocks of `algebra._blocks`, so no n x n array
    is made.
    """
    lam, pos, comp = _lambda_compositions(B)
    every = np.arange(B.spec.n)
    for a0, rows in _blocks(every, len(every)):
        a = rows[:, None]
        bad = lam[B.circle_idx(a, every)] != comp[pos[a], pos]
        if bad.any():
            i, b = map(int, np.argwhere(bad)[0])
            return a0 + i, b
    return None


def ker_lambda(B: SkewBrace) -> frozenset[int]:
    """Kernel of lambda as a set of element indices."""
    return frozenset(np.flatnonzero(B.lam == B.spec.identity_aut).tolist())


def fix_set(B: SkewBrace) -> frozenset[int]:
    """Fix(B): elements fixed by every lambda_x."""
    rows = B.lambda_action[0]
    mask = (rows == np.arange(B.spec.n)).all(axis=0)
    return frozenset(int(i) for i in np.nonzero(mask)[0])


def is_bi_skew(B: SkewBrace) -> bool:
    """True iff x + (y o z) = (x+y) o x' o (x+z) holds for all x, y, z.

    The direct n^3 scan, the reference lambda_is_additive is tested
    against.  It builds the circle table through circle_idx for the length
    of the call.
    """
    n = B.spec.n
    every = np.arange(n)
    Z = B.circle_idx(every[:, None], every)
    for x in range(n):
        ax = B.spec.add_idx(x, every)
        lhs = ax[Z]
        x_inv = int(np.flatnonzero(Z[x] == 0)[0])
        left = Z[ax, x_inv]
        rhs = Z[np.ix_(left, ax)]
        if not np.array_equal(lhs, rhs):
            return False
    return True


def lambda_is_additive(B: SkewBrace) -> bool:
    """True iff lambda_{x+y} = lambda_x o lambda_y for all x, y.

    Expanding (x+y) o x' o (x+z) with lambda_{x'} = lambda_x^{-1} and
    x' = -lambda_x^{-1}(x) collapses the bi-skew identity to exactly this
    condition, so it must always agree with is_bi_skew (cheaper: no triple
    loop).  As in verify_left_brace, the y that satisfy it for every x are
    closed under +, and hold 0 exactly when lambda_0 = id, so it is checked
    on the carrier's additive generators only.
    """
    spec, r = B.spec, B.spec._r
    # The r unit vectors of Z_m^r, the first plus 1 in Z_q, generate A.
    units = [[int(i == k) for i in range(r)] for k in range(r)]
    gens = [spec.encode((*e, int(k == 0))) for k, e in enumerate(units)]
    return bool(B.lam[0] == spec.identity_aut) and _lambda_hom_on(B, spec.add_idx, gens)


def mult_group_class(B: SkewBrace) -> MultClass:
    """Isomorphism type of (A, o) among the groups of order p^2 q.

    Fingerprint: abelian/exponent, the count of p-power-order elements
    (p-Sylow normality), cyclic vs elementary p-Sylow, and the center size;
    the diagonal semidirect families are separated further by the eigenvalue
    pair of the conjugation action of an order-q element on the p-Sylow,
    reduced to its canonical representative (k and 1/k give the same group).
    """
    spec = B.spec
    p, q, n = spec.p, spec.q, spec.n
    orders = B.circle_orders
    central = _central(B)
    if central.all():
        return MultClass(ZP2Q) if orders.max() == n else MultClass(ZP2xZQ)
    p2 = p * p
    n_p_elements = int(np.count_nonzero(p2 % orders == 0))
    if (orders == p2).any():
        if n_p_elements == p2:
            return MultClass(ZP2_RTIMES_ZQ)
        center = int(np.count_nonzero(central))
        return MultClass(ZQ_RTIMES_ZP2_rp if center == p else ZQ_RTIMES_ZP2_h)
    if n_p_elements != p2:
        return MultClass(ZP_x_ZQ_RTIMES_ZP)
    return _diagonal_class(B, orders)


def _central(B: SkewBrace) -> np.ndarray:
    """Mask of the centre of (A, o): x is central when it commutes with
    every o-generator."""
    every = np.arange(B.spec.n)[:, None]
    gens = np.asarray(B.circle_generators)
    return (B.circle_idx(every, gens) == B.circle_idx(gens, every)).all(axis=1)


def _diagonal_class(B: SkewBrace, orders: np.ndarray) -> MultClass:
    """G_K(k) vs G_F for a normal elementary p-Sylow in a non-abelian circle."""
    spec = B.spec
    p, q = spec.p, spec.q
    if p <= 2:
        raise RuntimeError(
            "elementary normal p-Sylow with non-abelian circle needs q | p-1, "
            "impossible for p = 2"
        )
    mul = B.circle_idx

    def powers(e: int) -> list[int]:
        out, x = [0], e
        while x != 0:
            out.append(x)
            x = int(mul(x, e))
        return out

    sylow = np.flatnonzero((orders == 1) | (orders == p)).tolist()
    e1 = min(a for a in sylow if a != 0)
    e1pows = powers(e1)
    e2 = min(a for a in sylow if a not in set(e1pows))
    e2pows = powers(e2)
    span = mul(np.array(e1pows)[:, None], np.array(e2pows))
    coords = {int(x): ij for ij, x in np.ndenumerate(span)}
    if len(coords) != p * p:
        raise RuntimeError(
            f"the two order-{p} generators span {len(coords)} elements, "
            f"not the {p * p} of the p-Sylow"
        )
    u = int(np.flatnonzero(orders == q)[0])
    uinv = power(mul, 0, u, q - 1)  # u' = u^(ord u - 1)
    a11, a21 = coords[int(mul(mul(u, e1), uinv))]
    a12, a22 = coords[int(mul(mul(u, e2), uinv))]
    tr = (a11 + a22) % p
    det = (a11 * a22 - a12 * a21) % p
    disc = (tr * tr - 4 * det) % p
    if legendre(disc, p) == -1:
        return MultClass(G_F)
    root = next(s for s in range(p) if s * s % p == disc)
    inv2 = pow(2, -1, p)
    g = unit_of_order(p, q)
    w1 = dlog((tr + root) * inv2 % p, g, p)
    w2 = dlog((tr - root) * inv2 % p, g, p)
    if w1 == 0 and w2 == 0:
        raise RuntimeError("trivial conjugation action on the p-Sylow; not expected")
    if w1 == 0 or w2 == 0:
        return MultClass(G_K, 0)
    k = w2 * pow(w1, -1, q) % q
    return MultClass(G_K, min(k, pow(k, -1, q)))


def brace_invariants(B: SkewBrace) -> BraceInvariants:
    """Kernel and fix-set sizes, circle-group class, and the bi-skew flag.

    bi_skew uses Childs' criterion for an abelian additive group: the brace
    is bi-skew iff lambda is a homomorphism from (A, +), which
    lambda_is_additive checks in O(n) per additive generator.  The direct
    n^3 scan is_bi_skew is the independent oracle the tests hold it to.
    """
    return BraceInvariants(
        ker_size=len(ker_lambda(B)),
        fix_size=len(fix_set(B)),
        mult_class=mult_group_class(B),
        bi_skew=lambda_is_additive(B),
    )
