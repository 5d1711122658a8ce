"""Carriers Z_{p^2 q} and Z_p x Z_p x Z_q, their automorphism groups, and
the subgroups of Aut(A) and of the carrier.

Elements and automorphisms are given small-integer indices.  The carrier's
addition is digit-wise on the index, through two O(n) lookup arrays
(`GroupSpec.add_idx`); no n x n table is kept.  Aut(A) is held once, as
`GroupSpec.aut_array`, one int64 descriptor row per automorphism filled in
place, with a dense descriptor-code -> index table beside it;
`aut_lookup` and `aut_desc` are the only crossings between descriptors and
indices.  The action and composition of automorphisms are computed from the
array for the automorphisms a call names, vectorized over index arrays
(`compose_many`), and passes over all of Aut(A) go in blocks of rows
(`_blocks`).  Index encoding (stable, used by every serialized artifact):
CYCLIC (n mod p^2, m mod q) -> n + p^2*m; MIXED (a, b, c) -> a + p*b +
p^2*c.  Matrices act on column vectors in the ordered basis of the two
order-p generators.  Every per-carrier table lives on its `GroupSpec`
(listed there); the one module-level registry is `group_spec`'s.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from math import gcd, lcm
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

Element = tuple  # (n, m) for CYCLIC, (a, b, c) for MIXED
AutDesc = tuple  # (i, j) for CYCLIC, ((m00, m01, m10, m11), alpha) for MIXED


class Kind(str, Enum):
    """Which abelian carrier of order p^2*q."""

    CYCLIC = "cyclic"  # Z_{p^2} x Z_q, i.e. Z_{p^2 q}
    MIXED = "mixed"    # Z_p x Z_p x Z_q


class GroupSpec:
    """One carrier group: prime pair plus kind, and every table built for it
    on first use: `elements`, the O(n) digit-code arrays `_add_code` and
    `_add_back` that `add_idx` adds through, the subgroup lattice
    `carrier_lattice`, Aut(A) as `aut_array` with `_aut_code_index`,
    `aut_generators`, `conj_tables` and the per-order Aut(A)-subgroup
    classes `_aut_classes`.  Nothing else holds them: dropping the spec (and
    its `group_spec` entry) frees them all, and specs that compare equal by
    (p, q, kind) share none.
    """

    def __init__(self, p: int, q: int, kind: Kind | str):
        self.pair = PrimePair(p, q)
        self.p = p
        self.q = q
        self.kind = Kind(kind)
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
        p, q = self.p, self.q
        if self.kind is Kind.CYCLIC:
            n, m = x
            return n % (p * p) + p * p * (m % q)
        a, b, c = x
        return a % p + p * (b % p) + p * p * (c % q)

    def decode(self, idx: int) -> Element:
        """Index -> canonical element tuple."""
        p, q = self.p, self.q
        if not 0 <= idx < self.n:
            raise ValueError(f"element index {idx} out of range for {self!r}")
        if self.kind is Kind.CYCLIC:
            return (idx % (p * p), idx // (p * p))
        return (idx % p, (idx // p) % p, idx // (p * p))

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        return tuple(self.decode(i) for i in range(self.n))

    def add(self, x: Element, y: Element) -> Element:
        p, q = self.p, self.q
        if self.kind is Kind.CYCLIC:
            return ((x[0] + y[0]) % (p * p), (x[1] + y[1]) % q)
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p, (x[2] + y[2]) % q)

    def element_order(self, x: Element) -> int:
        """Additive order of x."""
        p, q = self.p, self.q
        if self.kind is Kind.CYCLIC:
            on = p * p // gcd(x[0] % (p * p), p * p)
        else:
            on = p // gcd(gcd(x[0] % p, x[1] % p), p)
        return lcm(on, q // gcd(x[-1] % q, q))

    @property
    def _radices(self) -> tuple[int, ...]:
        """Moduli of the digits of an element index, least significant
        first: (p^2, q) for CYCLIC, (p, p, q) for MIXED."""
        p, q = self.p, self.q
        return (p * p, q) if self.kind is Kind.CYCLIC else (p, p, q)

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
        its modulus.  4n entries (CYCLIC) or 8n (MIXED)."""
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
        """Indices of the (unique) Sylow subgroup of the carrier at this prime."""
        if prime not in (self.p, self.q):
            raise ValueError(f"{prime} does not divide the carrier order")
        return frozenset(
            i for i, x in enumerate(self.elements)
            if _is_power(self.element_order(x), prime)
        )

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
        """Every automorphism as an int64 descriptor row, row k for
        automorphism k, in ascending descriptor order: columns (i, j) for
        CYCLIC, units mod p^2 and mod q; (m00, m01, m10, m11, alpha) for
        MIXED, an invertible matrix over F_p and a unit mod q.  Filled in
        place, each left part repeated over the q - 1 units alpha."""
        p, q = self.p, self.q
        if self.kind is Kind.CYCLIC:
            units = np.arange(1, p * p)
            left = units[units % p != 0][:, None]
        else:
            m = np.indices((p, p, p, p)).reshape(4, -1).T  # lexicographic
            left = m[(m[:, 0] * m[:, 3] - m[:, 1] * m[:, 2]) % p != 0]
        D = np.empty((len(left), q - 1, left.shape[1] + 1), dtype=np.int64)
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
        automorphism.  Entries may be any integers: each is reduced (mod
        p^2 or p, and mod q) as a Python int before it meets the array."""
        p, q = self.p, self.q
        if self.kind is Kind.CYCLIC:
            rows = [(i % (p * p), j % q) for i, j in descs]
        else:
            rows = [(*(x % p for x in m), alpha % q) for m, alpha in descs]
        cols = np.array(rows, dtype=np.int64).reshape(-1, self.aut_array.shape[1]).T
        return self._aut_code_index[self._aut_codes(cols)]

    def aut_desc(self, f: int) -> AutDesc:
        """The descriptor of automorphism f, as a tuple of Python ints."""
        row = self.aut_array[f].tolist()
        if self.kind is Kind.CYCLIC:
            return tuple(row)
        return (tuple(row[:4]), row[4])

    @cached_property
    def identity_aut(self) -> int:
        ident = (1, 1) if self.kind is Kind.CYCLIC else ((1, 0, 0, 1), 1)
        return int(self.aut_lookup([ident])[0])

    def _aut_codes(self, cols):
        """Dense integer code of a descriptor, from its columns (numpy arrays
        or Python ints)."""
        p = self.p
        if self.kind is Kind.CYCLIC:
            return cols[0] + p * p * cols[1]
        return (
            cols[0] + p * cols[1] + p**2 * cols[2] + p**3 * cols[3] + p**4 * cols[4]
        )

    @cached_property
    def _aut_code_index(self) -> np.ndarray:
        """Descriptor code -> automorphism index; -1 where the code is not an
        automorphism.  Size p^2 q (CYCLIC) or p^4 q (MIXED)."""
        p, q = self.p, self.q
        size = p * p * q if self.kind is Kind.CYCLIC else p**4 * q
        table = np.full(size, -1, dtype=np.intp)
        D = self.aut_array
        for i, block in _blocks(D, D.shape[1]):
            table[self._aut_codes(block.T)] = np.arange(i, i + len(block))
        return table

    def _compose_cols(self, a, b):
        """Descriptor columns of f o g from the columns a of f and b of g
        (numpy arrays, broadcast, or Python ints)."""
        p, q = self.p, self.q
        if self.kind is Kind.CYCLIC:
            return (a[0] * b[0] % (p * p), a[1] * b[1] % q)
        return (
            (a[0] * b[0] + a[1] * b[2]) % p,
            (a[0] * b[1] + a[1] * b[3]) % p,
            (a[2] * b[0] + a[3] * b[2]) % p,
            (a[2] * b[1] + a[3] * b[3]) % p,
            a[4] * b[4] % q,
        )

    def compose_many(self, F, G) -> np.ndarray:
        """Indices of f o g, elementwise over the broadcast index arrays F, G."""
        D = self.aut_array
        a = np.moveaxis(D[np.asarray(F)], -1, 0)
        b = np.moveaxis(D[np.asarray(G)], -1, 0)
        return self._aut_code_index[self._aut_codes(self._compose_cols(a, b))]

    def apply_rows(self, F) -> np.ndarray:
        """Action of each automorphism in F on element indices: shape
        (len(F), n), int32, row r the image of every element under F[r],
        filled block by block."""
        p, q, n = self.p, self.q, self.n
        F = np.asarray(F, dtype=np.intp)
        out = np.empty((len(F), n), dtype=np.int32)
        idx = np.arange(n)
        if self.kind is Kind.CYCLIC:
            nn, mm = idx % (p * p), idx // (p * p)
        else:
            aa, bb, cc = idx % p, (idx // p) % p, idx // (p * p)
        for i, block in _blocks(F, n):
            D = self.aut_array[block]
            if self.kind is Kind.CYCLIC:
                rows = D[:, 0:1] * nn % (p * p) + p * p * (D[:, 1:2] * mm % q)
            else:
                rows = (
                    (D[:, 0:1] * aa + D[:, 1:2] * bb) % p
                    + p * ((D[:, 2:3] * aa + D[:, 3:4] * bb) % p)
                    + p * p * (D[:, 4:5] * cc % q)
                )
            out[i : i + len(block)] = rows
        return out

    def aut_torsion(self, k: int) -> np.ndarray:
        """Ascending indices of the automorphisms f with f^k = id, found by
        square-and-multiply over each block of the descriptor array."""
        D = self.aut_array
        ident = D[self.identity_aut]
        found = [
            i + np.flatnonzero(
                self._aut_codes(power(self._compose_cols, ident, block.T, k))
                == self._aut_codes(ident)
            )
            for i, block in _blocks(D, D.shape[1])
        ]
        return np.concatenate(found)

    @cached_property
    def aut_generators(self) -> tuple[int, ...]:
        """A small generating set of Aut(A), as indices (verified by closure)."""
        p, q = self.p, self.q
        descs: list[AutDesc] = []
        if self.kind is Kind.CYCLIC:
            descs.append((primitive_root(p * p), 1))
            if q > 2:
                descs.append((1, primitive_root(q)))
        else:
            descs.append(((1, 1, 0, 1), 1))
            descs.append(((1, 0, 1, 1), 1))
            if p > 2:
                descs.append(((primitive_root(p), 0, 0, 1), 1))
            if q > 2:
                descs.append(((1, 0, 0, 1), primitive_root(q)))
        gens = tuple(self.aut_lookup(descs).tolist())
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
        """Per Aut generator psi, two int64 arrays: psi on element indices, and
        f -> psi o f o psi^-1 on automorphism indices, filled block by block.
        psi^-1 = psi^(|Aut(A)| - 1) by Lagrange, one descriptor taken to
        that power with Python ints."""
        D = self.aut_array
        one = D[self.identity_aut].tolist()
        rows = self.apply_rows(self.aut_generators).astype(np.int64)
        tables = []
        for g, row in zip(self.aut_generators, rows):
            inv_desc = power(self._compose_cols, one, D[g].tolist(), self.n_aut - 1)
            g_inv = int(self._aut_code_index[self._aut_codes(inv_desc)])
            perm = np.empty(self.n_aut, dtype=np.intp)
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

    `act(arr, perm_elt, perm_aut)` is the image of an int64 array under one
    Aut generator psi, given psi on elements and f -> psi f psi^-1 on
    automorphisms (`spec.conj_tables`).  Each orbit met by `keys` is
    returned once, as (the key of its smallest member, its size), in key
    order; the size counts every member, listed in `keys` or not.
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
    powers = np.empty((len(pool), k), dtype=np.intp)
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


def _is_power(n: int, prime: int) -> bool:
    while n % prime == 0:
        n //= prime
    return n == 1
