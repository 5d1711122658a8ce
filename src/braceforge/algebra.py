"""Carriers Z_{p^2 q} and Z_p x Z_p x Z_q, their automorphism groups, and
the subgroups of Aut(A) and of the carrier.

Both carriers are A = Z_m^r x Z_q, (m, r) = (p^2, 1) cyclic and (p, 2)
mixed, with Aut(A) = GL_r(Z_m) x Z_q^*; every carrier and automorphism
operation is written once from (m, r).  Elements and automorphisms are
given small-integer indices.  An element index holds the r digits mod m,
least significant first, then the digit mod q (stable, used by every
serialized artifact); addition is digit-wise on it, through two O(n)
lookup arrays and no n x n table (`GroupSpec.add_idx`).  Aut(A) is held
once, as `GroupSpec.aut_array`, one int32 descriptor row per automorphism
(the matrix row by row, acting on columns of digits, then the unit mod q)
filled in place, with a dense int32 descriptor-code -> index table beside
it; `aut_lookup` and `aut_desc`, the only crossings between descriptors and
indices, keep each kind's descriptor format.  Action and composition are
computed for the automorphisms a call names, vectorized over index arrays
(`compose_many`), and passes over all of Aut(A) go in blocks of rows
(`_blocks`).  Every per-carrier table lives on its `GroupSpec` (listed
there); the one module-level registry is `group_spec`'s.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, reduce
from itertools import combinations, permutations
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .arith import power, primitive_root
from .cases import PrimePair

__all__ = [
    "Kind",
    "GroupSpec",
    "group_spec",
    "AutSubgroupClass",
    "aut_group_order",
    "carrier_subgroups",
    "aut_orbits",
    "subgroup_classes_of_order",
]

Element = tuple  # r digits mod m, then one mod q: (n, c) CYCLIC, (a, b, c) MIXED
AutDesc = tuple  # (i, j) for CYCLIC, ((m00, m01, m10, m11), alpha) for MIXED


class Kind(str, Enum):
    """Which abelian carrier of order p^2*q."""

    CYCLIC = "cyclic"  # Z_{p^2} x Z_q, i.e. Z_{p^2 q}
    MIXED = "mixed"    # Z_p x Z_p x Z_q


class GroupSpec:
    """One carrier group A = Z_m^r x Z_q, given by its prime pair and kind:
    (m, r) = (p^2, 1) for CYCLIC, (p, 2) for MIXED, set here and nowhere
    else.  Every table built for it on first use lives on it: `elements`,
    the O(n) digit-code arrays `_add_code` and `_add_back` that `add_idx`
    adds through, the subgroup lattice `carrier_lattice`, Aut(A) as
    `aut_array` with `_aut_code_index`, `aut_generators`, `conj_tables` and
    the per-order Aut(A)-subgroup classes `_aut_classes`.  Nothing else
    holds them: dropping the spec (and its `group_spec` entry) frees them
    all, and specs that compare equal by (p, q, kind) share none.
    """

    def __init__(self, p: int, q: int, kind: Kind | str):
        self.pair = PrimePair(p, q)
        self.p = p
        self.q = q
        self.kind = Kind(kind)
        self._m, self._r = (p * p, 1) if self.kind is Kind.CYCLIC else (p, 2)
        # k -> the classes of order-k subgroups (`subgroup_classes_of_order`)
        self._aut_classes: dict[int, list[AutSubgroupClass]] = {}

    def __repr__(self) -> str:
        return f"GroupSpec({self.p}, {self.q}, {self.kind.value})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupSpec)
            and (self.p, self.q, self.kind) == (other.p, other.q, other.kind)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.kind))

    # ---------------- carrier elements ----------------

    @property
    def n(self) -> int:
        """Carrier order p^2*q."""
        return self.p * self.p * self.q

    def encode(self, x: Element) -> int:
        """Element tuple -> index; components are reduced first."""
        m, r = self._m, self._r
        return self._code((*(d % m for d in x[:r]), x[r] % self.q))

    def decode(self, idx: int) -> Element:
        """Index -> canonical element tuple."""
        if not 0 <= idx < self.n:
            raise ValueError(f"element index {idx} out of range for {self!r}")
        return self._digits(idx)

    def _digits(self, idx):
        """The digits of an element index, or of each in an index array."""
        digits = []
        for _ in range(self._r):
            digits.append(idx % self._m)
            idx = idx // self._m
        return (*digits, idx)

    def _code(self, digits):
        """digits[0] + m digits[1] + m^2 digits[2] + ..., the last of any
        size: an element's index from its digits, or a descriptor's dense
        code from its columns (numpy arrays or Python ints)."""
        value = digits[-1]
        for d in digits[-2::-1]:
            value = value * self._m + d
        return value

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        return tuple(self.decode(i) for i in range(self.n))

    def add(self, x: Element, y: Element) -> Element:
        m, r = self._m, self._r
        return (*((a + b) % m for a, b in zip(x[:r], y[:r])), (x[r] + y[r]) % self.q)

    def element_order(self, x: Element) -> int:
        """Additive order of x."""
        m, r, q = self._m, self._r, self.q
        return lcm(m // gcd(m, *x[:r]), q // gcd(q, x[r]))

    @property
    def _radices(self) -> tuple[int, ...]:
        """Moduli of the digits of an element index, least significant
        first: r times m, then q."""
        return (self._m,) * self._r + (self.q,)

    @cached_property
    def _add_code(self) -> np.ndarray:
        """Each element index rewritten with every digit at radix 2m, m the
        digit's modulus, so that two codes add with no carry between
        digits."""
        code = np.zeros(self.n, dtype=np.intp)
        rest, scale = np.arange(self.n), 1
        for m in self._radices:
            code += rest % m * scale
            rest //= m
            scale *= 2 * m
        return code

    @cached_property
    def _add_back(self) -> np.ndarray:
        """Digit-sum code -> index of the sum, int32: each digit reduced mod
        its modulus.  2^(r+1) n entries."""
        back = np.zeros(self.n * 2 ** len(self._radices), dtype=np.int32)
        rest, scale = np.arange(len(back)), 1
        for m in self._radices:
            back += rest % (2 * m) % m * scale
            rest //= 2 * m
            scale *= m
        return back

    def add_idx(self, x, y):
        """Index of x + y, elementwise over the broadcast index arrays x, y;
        a Python int when both are scalars."""
        s = self._add_back[self._add_code[x] + self._add_code[y]]
        return s if isinstance(s, np.ndarray) else int(s)

    def sylow(self, prime: int) -> frozenset[int]:
        """Indices of the (unique) Sylow subgroup of the carrier at this prime:
        the p-Sylow is Z_m^r, the indices below m^r = p^2, and the q-Sylow
        is Z_q, their multiples."""
        if prime not in (self.p, self.q):
            raise ValueError(f"{prime} does not divide the carrier order")
        p2 = self.p * self.p
        return frozenset(range(0, self.n, p2) if prime == self.q else range(p2))

    @cached_property
    def carrier_lattice(self) -> tuple[frozenset[int], ...]:
        """Every subgroup of the carrier, sorted by (order, sorted elements).

        A subgroup is the product of its Sylow subgroups.  Its q-part is
        cyclic, and its p-part is cyclic unless it is the whole Z_p x Z_p of
        the mixed carrier.  So a subgroup that is not cyclic is the p-Sylow or
        the whole carrier, and those two with the cyclic subgroups, collected
        from element chains, are the lattice.
        """
        n = self.n
        subs = {frozenset({0}), self.sylow(self.p), frozenset(range(n))}
        # Each cyclic subgroup is walked once, from its smallest nonzero
        # element: its other generators k x, k prime to the order, are
        # skipped.
        covered: set[int] = set()
        for x in range(1, n):
            if x in covered:
                continue
            chain, y = [0], x
            while y:
                chain.append(y)
                y = self.add_idx(y, x)
            m = len(chain)
            covered.update(c for k, c in enumerate(chain) if gcd(k, m) == 1)
            subs.add(frozenset(chain))
        return tuple(sorted(subs, key=lambda s: (len(s), sorted(s))))

    # ---------------- automorphisms ----------------

    @cached_property
    def aut_array(self) -> np.ndarray:
        """Every automorphism as an int32 descriptor row, row k for
        automorphism k: the r x r matrix over Z_m row by row, then the unit
        alpha mod q, so (i, j) for CYCLIC and (m00, m01, m10, m11, alpha) for
        MIXED.  Rows ascend lexicographically.  Filled in place, each matrix
        repeated over the q - 1 units alpha.  int32 holds every entry,
        descriptor code and automorphism index in scope, and every sum of
        products that composing two rows forms (`tests/test_int32_width.py`)."""
        m, r, q = self._m, self._r, self.q
        M = np.indices((m,) * (r * r)).reshape(r * r, -1).T  # lexicographic
        # Invertible mod p: the determinant, by Leibniz's formula, is a unit.
        det = reduce(add, (
            (-1) ** sum(a > b for a, b in combinations(s, 2))
            * reduce(mul, (M[:, i * r + j] for i, j in enumerate(s)))
            for s in permutations(range(r))
        ))
        left = M[det % self.p != 0]
        D = np.empty((len(left), q - 1, r * r + 1), dtype=np.int32)
        D[:, :, :-1] = left[:, None, :]
        D[:, :, -1] = np.arange(1, q)
        D = D.reshape(-1, D.shape[2])
        if len(D) != self.n_aut:
            raise RuntimeError(
                f"tabulated {len(D)} automorphisms, but |Aut(A)| = {self.n_aut}"
            )
        return D

    @cached_property
    def n_aut(self) -> int:
        return aut_group_order(self)

    def aut_lookup(self, descs: Iterable[AutDesc]) -> np.ndarray:
        """Automorphism index of each descriptor, or -1 where it is not an
        automorphism.  Entries may be any integers: each is reduced (mod m,
        and mod q) as a Python int before it meets the array."""
        m, q = self._m, self.q
        if self.kind is Kind.CYCLIC:
            rows = [(i % m, j % q) for i, j in descs]
        else:
            rows = [(*(x % m for x in mat), alpha % q) for mat, alpha in descs]
        cols = np.array(rows, dtype=np.int64).reshape(-1, self.aut_array.shape[1]).T
        return self._aut_code_index[self._code(cols)]

    def aut_desc(self, f: int) -> AutDesc:
        """The descriptor of automorphism f, as a tuple of Python ints."""
        row = self.aut_array[f].tolist()
        if self.kind is Kind.CYCLIC:
            return tuple(row)
        return (tuple(row[:4]), row[4])

    @cached_property
    def identity_aut(self) -> int:
        r = self._r
        ident = [int(k % (r + 1) == 0) for k in range(r * r)] + [1]
        return int(self._aut_code_index[self._code(ident)])

    @cached_property
    def _aut_code_index(self) -> np.ndarray:
        """Descriptor code -> automorphism index; -1 where the code is not an
        automorphism.  Size m^(r^2) q: p^2 q (CYCLIC) or p^4 q (MIXED)."""
        r = self._r
        table = np.full(self._m ** (r * r) * self.q, -1, dtype=np.int32)
        D = self.aut_array
        for i, block in _blocks(D, D.shape[1]):
            table[self._code(block.T)] = np.arange(i, i + len(block))
        return table

    def _mat_mul(self, a, b, cols: int) -> list:
        """Entries mod m, row by row, of the product of the r x r matrix a and
        the r x cols matrix b, each given by its entries row by row (numpy
        arrays, broadcast, or Python ints)."""
        r = self._r
        out = []
        for i in range(r):
            for j in range(cols):
                s = a[i * r] * b[j]
                for k in range(1, r):
                    s = s + a[i * r + k] * b[k * cols + j]
                out.append(s % self._m)
        return out

    def _compose_cols(self, a, b):
        """Descriptor columns of f o g from the columns a of f and b of g
        (numpy arrays, broadcast, or Python ints)."""
        return (*self._mat_mul(a, b, self._r), a[-1] * b[-1] % self.q)

    def compose_many(self, F, G) -> np.ndarray:
        """Indices of f o g, elementwise over the broadcast index arrays F, G."""
        D = self.aut_array
        a = np.moveaxis(D[np.asarray(F)], -1, 0)
        b = np.moveaxis(D[np.asarray(G)], -1, 0)
        return self._aut_code_index[self._code(self._compose_cols(a, b))]

    def apply_rows(self, F) -> np.ndarray:
        """Action of each automorphism in F on element indices: shape
        (len(F), n), int32, row k the image of every element under F[k],
        filled block by block."""
        n, q = self.n, self.q
        F = np.asarray(F, dtype=np.intp)
        out = np.empty((len(F), n), dtype=np.int32)
        *digits, c = self._digits(np.arange(n))
        for i, block in _blocks(F, n):
            a = self.aut_array[block].T[:, :, None]
            out[i : i + len(block)] = self._code(
                (*self._mat_mul(a, digits, 1), a[-1] * c % q)
            )
        return out

    def aut_torsion(self, k: int) -> np.ndarray:
        """Ascending indices of the automorphisms f with f^k = id, found by
        square-and-multiply over each block of the descriptor array."""
        D = self.aut_array
        ident = D[self.identity_aut]
        found = [
            i + np.flatnonzero(
                self._code(power(self._compose_cols, ident, block.T, k))
                == self._code(ident)
            )
            for i, block in _blocks(D, D.shape[1])
        ]
        return np.concatenate(found)

    @cached_property
    def aut_generators(self) -> tuple[int, ...]:
        """A small generating set of Aut(A), as indices (verified by closure):
        the transvections I + E_ij, diag(g, 1, ...) for g a primitive root
        mod m, and a primitive root mod q, each where it is not the identity."""
        m, r, q = self._m, self._r, self.q
        changes = [(i * r + j, 1) for i in range(r) for j in range(r) if i != j]
        if m > 2:
            changes.append((0, primitive_root(m)))
        if q > 2:
            changes.append((r * r, primitive_root(q)))
        ident = self.aut_array[self.identity_aut]
        rows = [[v if i == k else e for i, e in enumerate(ident)] for k, v in changes]
        gens = tuple(self._aut_code_index[self._code(np.array(rows).T)].tolist())
        # Close the generators breadth-first over index arrays: the whole
        # group is visited once, so no per-pair memo is filled.
        reached = np.zeros(self.n_aut, dtype=bool)
        reached[self.identity_aut] = True
        frontier = np.array([self.identity_aut])
        while frontier.size:
            products = self.compose_many(frontier[:, None], np.array(gens))
            images = _distinct(products, self.n_aut)
            frontier = images[~reached[images]]
            reached[frontier] = True
        got = int(reached.sum())
        if got != self.n_aut:
            raise RuntimeError(
                f"the automorphism generators close to {got} elements, "
                f"not |Aut(A)| = {self.n_aut}"
            )
        return gens

    @cached_property
    def conj_tables(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per Aut generator psi, two arrays: psi on element indices (intp:
        every conjugation indexes with it, and numpy would convert an int32
        index on each call), and f -> psi o f o psi^-1 on automorphism
        indices (int32, |Aut(A)| entries), filled block by block.
        psi^-1 = psi^(|Aut(A)| - 1) by Lagrange, one descriptor taken to
        that power with Python ints."""
        D = self.aut_array
        one = D[self.identity_aut].tolist()
        rows = self.apply_rows(self.aut_generators).astype(np.intp)
        tables = []
        for g, row in zip(self.aut_generators, rows):
            inv_desc = power(self._compose_cols, one, D[g].tolist(), self.n_aut - 1)
            g_inv = int(self._aut_code_index[self._code(inv_desc)])
            perm = np.empty(self.n_aut, dtype=np.int32)
            for i, block in _blocks(np.arange(self.n_aut), D.shape[1]):
                perm[i : i + len(block)] = self.compose_many(
                    self.compose_many(g, block), g_inv
                )
            tables.append((row, perm))
        return tables

    # ---------------- holomorph ----------------

    @property
    def hol_order(self) -> int:
        return self.n * self.n_aut


# Cells of each temporary in one block of a pass over many automorphisms
# (`_blocks`): a pass over all of Aut(A) holds no |Aut(A)|-row temporary.
_BLOCK_CELLS = 1 << 13


def _blocks(rows: np.ndarray, width: int):
    """(start, rows[start : start + size]) for each block of rows, size rows
    of `width` cells each making at most _BLOCK_CELLS (and at least one
    row)."""
    size = max(1, _BLOCK_CELLS // width)
    for i in range(0, len(rows), size):
        yield i, rows[i : i + size]


_SPEC_CACHE: dict[tuple[int, int, Kind], GroupSpec] = {}


def group_spec(p: int, q: int, kind: Kind | str) -> GroupSpec:
    """Shared, cached GroupSpec instance for (p, q, kind)."""
    key = (p, q, Kind(kind))
    spec = _SPEC_CACHE.get(key)
    if spec is None:
        spec = _SPEC_CACHE[key] = GroupSpec(p, q, kind)
    return spec


def aut_group_order(spec: GroupSpec) -> int:
    """|Aut(A)| in closed form: p(p-1)(q-1) cyclic, p(p-1)^2(p+1)(q-1) mixed."""
    p, q = spec.p, spec.q
    if spec.kind is Kind.CYCLIC:
        return p * (p - 1) * (q - 1)
    return p * (p - 1) * (p - 1) * (p + 1) * (q - 1)


def _distinct(idx: np.ndarray, size: int) -> np.ndarray:
    """The distinct values of the index array `idx`, all in range(size),
    ascending: what np.unique(idx) gives, read off a boolean mask.  A bare
    np.unique imports numpy.ma (numpy 2.4), about 15 ms and 1 MiB in every
    process that calls it."""
    hit = np.zeros(size, dtype=bool)
    hit[idx] = True
    return np.flatnonzero(hit)


def _permutation_rows(rows: np.ndarray) -> np.ndarray:
    """For an (r, k) array with entries in range(k), whether each row takes
    every value once: a mask of the values each row meets, where
    np.sort(rows, axis=1) == arange(k) would sort them."""
    seen = np.zeros(rows.shape, dtype=bool)
    seen[np.arange(len(rows))[:, None], rows] = True
    return seen.all(axis=1)


def _greedy_generators(product, n: int, members: Sequence[int]) -> list[int]:
    """A generating set of the subgroup `members` (ascending) of a group on
    range(n) with identity 0: each member that the earlier ones do not
    generate.  product(x, y) gives x * y elementwise over broadcast index
    arrays."""
    span = np.zeros(n, dtype=bool)
    span[0] = True
    gens: list[int] = []
    for t in members:
        if span[t]:
            continue
        gens.append(t)
        # Close the span under right multiplication by every generator.
        frontier = np.flatnonzero(span)
        while frontier.size:
            img = _distinct(product(frontier[:, None], np.array(gens)), n)
            frontier = img[~span[img]]
            span[frontier] = True
        if span.sum() == len(members):
            break
    return gens


def carrier_subgroups(spec: GroupSpec, order: int | None = None) -> list[frozenset[int]]:
    """All subgroups of the additive carrier (as index sets), smallest first,
    or only those of the given order, in the same relative order."""
    return [S for S in spec.carrier_lattice if order is None or len(S) == order]


# Index arrays as byte keys: fixed-width big-endian, so comparing the keys of
# equal-length arrays compares the arrays lexicographically.
_KEY_DTYPE = ">u4"


def _index_key(arr) -> bytes:
    """The bytes key of an index array or sequence."""
    return np.asarray(arr).astype(_KEY_DTYPE).tobytes()


def _key_array(key: bytes) -> np.ndarray:
    """The int64 index array a bytes key was made from."""
    return np.frombuffer(key, dtype=_KEY_DTYPE).astype(np.int64)


def aut_orbits(spec: GroupSpec, keys: Iterable[bytes], act) -> list[tuple[bytes, int]]:
    """Partition index arrays, given by their keys (`_index_key`), into
    orbits under conjugation by Aut(A).

    `act(arr, perm_elt, perm_aut)` is the image of an index array (int64,
    rebuilt from its key) under one Aut generator psi, given psi on elements
    and f -> psi f psi^-1 on automorphisms (`spec.conj_tables`).
    Each orbit met by `keys` is returned once, as (the key of its smallest
    member, its size), in key order; the size counts every member, listed in
    `keys` or not.
    """
    tables = spec.conj_tables
    # Orbit members are held as their keys only; an array is rebuilt from
    # its key when it is expanded.
    pending = set(keys)
    orbits: list[tuple[bytes, int]] = []
    while pending:
        start = min(pending)
        keys = {start}
        frontier = [start]
        while frontier:
            new = []
            for key in frontier:
                arr = _key_array(key)
                for perm_elt, perm_aut in tables:
                    img = _index_key(act(arr, perm_elt, perm_aut))
                    if img not in keys:
                        keys.add(img)
                        new.append(img)
            frontier = new
        pending -= keys
        orbits.append((min(keys), len(keys)))
    orbits.sort()
    return orbits


def _conjugate_subgroup(arr, perm_elt, perm_aut):
    """psi S psi^-1 for a sorted array of automorphism indices, as a sorted
    list (at most 55 entries in scope)."""
    return sorted(perm_aut[arr].tolist())


class AutSubgroupClass(NamedTuple):
    """One conjugacy class of order-k subgroups of Aut(A)."""

    spec: GroupSpec
    order: int
    elements: frozenset[int]          # the representative subgroup
    generators: tuple[int, ...]       # one or two generators of the representative
    n_conjugates: int                 # size of the conjugacy class


def subgroup_classes_of_order(spec: GroupSpec, k: int) -> list[AutSubgroupClass]:
    """Conjugacy-class representatives of the order-k subgroups of Aut(A),
    found once per spec and kept in its per-order memo."""
    classes = spec._aut_classes.get(k)
    if classes is None:
        classes = spec._aut_classes[k] = _find_subgroup_classes(spec, k)
    return classes


def _find_subgroup_classes(spec: GroupSpec, k: int) -> list[AutSubgroupClass]:
    """Conjugacy-class representatives of the order-k subgroups of Aut(A), k
    a divisor of both |A| and |Aut(A)|, found as products of cyclic
    subgroups.

    The cyclic subgroups <f> with f^k = id are read off a power table and
    partitioned into classes first.  An order-k subgroup T that is not cyclic
    is the product set C1 C2 of two cyclic subgroups: T is Z_p x Z_p, the
    non-abelian group of order pq, or, on the mixed carrier of (2, 3), the
    only one where p^2 q divides |Aut(A)|, Aut(A) = GL(2, 2) x Z_3^* of
    order 12.  Each has a cyclic C1 of prime index, and C1 C2 = T for any
    cyclic C2 <= T outside C1.  If g C1 g^-1 is the representative R of
    C1's class, then g T g^-1 = R (g C2 g^-1), and g C2 g^-1 is again a
    listed cyclic subgroup.  A product set R C with |R| |C| = k |R & C| is
    an order-k subgroup exactly when R C = C R.  So these product subgroups
    of each representative with each cyclic subgroup, with the order-k
    cyclic representatives, meet every class, and partitioning them gives
    the classes and their sizes.

    Each representative is generated by f, its smallest element of largest
    order, and, unless <f> is all of it, g, its smallest element outside
    <f>: <f> has prime index, so <f, g> is the whole group.
    Representatives are orbit-minimal by sorted element tuple; the class list
    is sorted the same way, so output is deterministic.
    """
    ident = spec.identity_aut
    if k == 1:
        return [AutSubgroupClass(spec, 1, frozenset({ident}), (), 1)]
    if spec.n_aut % k != 0 or spec.n % k != 0:
        raise ValueError(
            f"order {k} must divide both |Aut| = {spec.n_aut} and |A| = {spec.n}"
        )
    # Power table: row r holds pool[r]^1, ..., pool[r]^k, so <f> and the
    # order of f are read off f's row.
    pool = spec.aut_torsion(k)
    powers = np.empty((len(pool), k), dtype=np.int32)
    powers[:, 0] = pool
    for i in range(1, k):
        powers[:, i] = spec.compose_many(powers[:, i - 1], pool)
    orders = (powers == ident).argmax(axis=1) + 1
    # Distinct cyclic subgroups <f>, each found from its smallest generator;
    # the generators of each are skipped afterwards.
    cyclics: dict[bytes, list[int]] = {}
    covered: set[int] = set()
    for f, row, d in zip(pool.tolist(), powers.tolist(), orders.tolist()):
        if f == ident or f in covered:
            continue
        covered.update(g for i, g in enumerate(row[:d], 1) if gcd(i, d) == 1)
        C = sorted(row[:d])
        cyclics[_index_key(C)] = C
    cyclic_classes = aut_orbits(spec, cyclics, _conjugate_subgroup)
    total = sum(size for _, size in cyclic_classes)
    if total != len(cyclics):
        # Conjugation preserves f^k = id, so every conjugate must be listed.
        raise RuntimeError(
            f"order {k}: {len(cyclics)} cyclic subgroups <f> with f^{k} = id "
            f"were listed, but their conjugacy classes hold {total}"
        )
    joins: dict[bytes, None] = {}
    for key, _ in cyclic_classes:
        R = cyclics[key]
        if len(R) == k:
            joins[key] = None
            continue
        in_R, R_col = set(R), np.array(R)[:, None]
        for C in cyclics.values():
            # An order-k cyclic C holding R is its own class already.
            if len(C) == k or len(R) * len(C) != k * len(in_R.intersection(C)):
                continue
            RC = set(spec.compose_many(R_col, C).ravel().tolist())
            if RC == set(spec.compose_many(np.array(C)[:, None], R).ravel().tolist()):
                joins[_index_key(sorted(RC))] = None
    classes = []
    for rep, size in aut_orbits(spec, joins, _conjugate_subgroup):
        T = _key_array(rep)
        at = np.searchsorted(pool, T)
        r = at[orders[at].argmax()]
        gens = (int(pool[r]),)
        if orders[r] < k:
            cyc = set(powers[r].tolist())
            gens += (next(t for t in T.tolist() if t not in cyc),)
        classes.append(AutSubgroupClass(spec, k, frozenset(T.tolist()), gens, size))
    return classes
