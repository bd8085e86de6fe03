"""The benchmark's workloads: fixed lists of ``quenta`` CLI invocations.

Sweeps are deterministic, so a workload's inputs are its invocation list;
the seed only permutes the order in which each pass runs them.
"""

from __future__ import annotations

import random

WORKLOADS: dict[str, list[list[str]]] = {
    # The twelve criterion-9 invocations of tests/test_acceptance.py:
    # 469 instances over all ten families; row-reduction-bound.
    "verify-mix": [
        ["verify", "--family", "bch-euclid", "--q", "3"],
        ["verify", "--family", "rs-euclid", "--q", "7"],
        ["verify", "--family", "rs-mds", "--q", "7"],
        ["verify", "--family", "rs-hermit", "--q", "4"],
        ["verify", "--family", "bch-hermit", "--q", "3"],
        ["verify", "--family", "li-lcd", "--q", "2", "--m", "3"],
        ["verify", "--family", "euclid-pair", "--q", "2", "--n", "7"],
        ["verify", "--family", "euclid-lcd", "--q", "2", "--n", "15"],
        ["verify", "--family", "hermitian", "--q", "2", "--n", "5"],
        ["verify", "--family", "hermitian-lcd", "--q", "2", "--n", "5"],
        ["table", "--family", "hermitian", "--q", "2", "--n", "15"],
        ["table", "--family", "bch-euclid", "--q", "3", "--format", "csv"],
    ],
    # 1024 small GF(2) instances built from only 32 distinct cyclic codes.
    "pairs-gf2": [
        ["verify", "--family", "euclid-pair", "--q", "2", "--n", "15"],
    ],
    # 64 instances, almost all time in exhaustive GF(4) distance enumeration.
    "hermitian-gf4": [
        ["verify", "--family", "hermitian-lcd", "--q", "2", "--n", "15"],
    ],
    # 16,384 rows per format and no matrices: defset, constructions and cli.
    "table-grid": [
        ["table", "--family", "euclid-pair", "--q", "2", "--n", "31"],
        ["table", "--family", "euclid-pair", "--q", "2", "--n", "31", "--format", "csv"],
    ],
}


def orders(workload: str, seed: int):
    """Endless permutations of the workload's invocations, drawn from the seed."""
    rng = random.Random(seed)
    invocations = WORKLOADS[workload]
    while True:
        yield [list(argv) for argv in rng.sample(invocations, len(invocations))]
