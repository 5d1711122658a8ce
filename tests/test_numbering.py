"""Element and automorphism numbering is pinned by sha256 digests.

Every serialized artifact (lambda-tables, orbit keys, JSON files) is written
in these indices, so the carrier and Aut(A) tables must keep their order on
every carrier in scope, and on (2, 3): the elements and their orders, the
descriptor rows, the generators, the Sylow subgroups and the subgroup
lattice in full, and samples of the action and composition.
``data/numbering_sha256.json`` holds one digest per carrier; regenerate it
only for a change that means to renumber, with
``PYTHONPATH=src python tests/test_numbering.py > tests/data/numbering_sha256.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from braceforge.algebra import GroupSpec, Kind
from braceforge.arith import is_prime
from braceforge.cases import ORDER_BOUND

DIGESTS = Path(__file__).parent / "data" / "numbering_sha256.json"
# Rows of apply_rows, and pairs of compose_many, hashed per carrier.
ROWS = 256
SAMPLE = 4096


def _carriers():
    primes = [k for k in range(2, ORDER_BOUND // 4 + 1) if is_prime(k)]
    for p in primes:
        for q in primes:
            if p != q and p * p * q <= ORDER_BOUND:
                for kind in (Kind.CYCLIC, Kind.MIXED):
                    yield f"{p},{q},{kind.value}", GroupSpec(p, q, kind)


def _digest(spec: GroupSpec) -> str:
    h = hashlib.sha256()

    def put(arr) -> None:
        arr = np.ascontiguousarray(np.asarray(arr, dtype=np.int64))
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())

    put(spec.elements)
    put([spec.element_order(x) for x in spec.elements])
    put(spec.aut_array)
    put(spec.aut_generators)
    put(spec.identity_aut)
    put(sorted(spec.sylow(spec.p)))
    put(sorted(spec.sylow(spec.q)))
    for S in spec.carrier_lattice:
        put(sorted(S))
    put(spec.apply_rows(np.arange(min(ROWS, spec.n_aut))))
    # A fixed spread of (f, g) pairs over the whole of Aut(A).
    f = np.arange(SAMPLE) * 7919 % spec.n_aut
    g = np.arange(SAMPLE) * 104729 % spec.n_aut
    put(spec.compose_many(f, g))
    return h.hexdigest()


def test_numbering_matches_the_pinned_digests():
    want = json.loads(DIGESTS.read_text())
    got = {name: _digest(spec) for name, spec in _carriers()}
    assert got.keys() == want.keys()
    assert len(got) == 216  # 107 pairs in scope, and (2, 3)
    assert [k for k in got if got[k] != want[k]] == []


if __name__ == "__main__":
    json.dump(
        {name: _digest(spec) for name, spec in _carriers()},
        sys.stdout,
        indent=0,
        sort_keys=True,
    )
    sys.stdout.write("\n")
