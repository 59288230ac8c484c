"""Behaviour snapshot of the fractional Menger LP.

Each digest pins, bit for bit, the primal and dual values, the primal
weight of every path, the dual weight of every colour and the ``exact``
flag, beyond 64 paths (float report) as well as up to 64 (``Fraction``).

Nine digests were re-recorded when the simplex moved from Bland's rule and
a float tableau beyond 64 paths to Dantzig's entering column with the
lexicographic leaving row, exact on every LP.  ``counterexample 1 4`` and
``1 5`` did not move.  For each of the nine, the new weights were checked
against the whole path list, outside the suite: the exact weights of the
same LP are primal feasible (non-negative, load at most 1 on every
colour), dual feasible (non-negative, cover at least 1 on every path) and
have equal objectives, (m+k)/m, in ``Fraction`` arithmetic; beyond 64
paths the reported floats are those exact weights correctly rounded.  The
values are unchanged: exactly equal up to 64 paths, within 1e-9 beyond.
Another optimal vertex is what moved (exact value; paths given weight,
old -> new; weights that differ; dual weights that differ):

    counterexample 2 6    4/3    4 -> 7 paths, 9 weights, dual 0 of 8
    counterexample 2 7    9/7    6 -> 9 paths, 12 weights, dual 0 of 9
    counterexample 2 8    5/4    10 -> 8 paths, 15 weights, dual 6 of 10
    counterexample 2 10   6/5    12 -> 12 paths, 23 weights, dual 12 of 12
    counterexample 3 8    11/8   11 -> 9 paths, 18 weights, dual 11 of 11
    counterexample 3 9    4/3    12 -> 11 paths, 21 weights, dual 10 of 12
    counterexample 3 10   13/10  13 -> 12 paths, 23 weights, dual 13 of 13
    subdivided 1 4        5/4    5 -> 5 paths, 0 weights, dual 8 of 13
    subdivided 2 6        4/3    4 -> 7 paths, 9 weights, dual 12 of 26

Beyond 64 paths the old floats were 1.2499999999999996 (2 8),
1.1999999999999993 and 1.1999999999999997 (2 10), 1.3749999999999991 and
1.375 (3 8), 1.3333333333333337 and 1.3333333333333326 (3 9), and
1.2999999999999992 and 1.2999999999999994 (3 10), primal and dual; both
are now the rounded exact value.
"""

import hashlib

import pytest

from rainbowmatch.menger import (
    build_counterexample,
    fractional_menger,
    rainbow_st_paths,
    subdivide_to_simple,
)

SNAPSHOT_SHA256 = {
    "counterexample 1 4": "3462fd5d1432d10f16d9e6bc5c95198dda9a077ab6bbaf1343bfa72efdf0777d",
    "counterexample 1 5": "b9a566c377c22b0d19faffad63e596ba47628ee698bf196d9b2efef9477915c7",
    "counterexample 2 6": "ce877d4e8ce63ba7405b2c0036f95a69f216bef9c3c3aa5f340722c325b913b6",
    "counterexample 2 7": "05f85583dac144e9467a81f85b1f0bc048c69a81d74ad5610b5ef38ee5f231b5",
    "counterexample 2 8": "d33d8ccf372ed7823b298039a17c33186748155e0d51329e90cda9031dbb9b85",
    "counterexample 2 10": "c90f0cd6823bed9ed91a97f6dbdb0569f4cd3717c49087c8470a93d0645bc5f8",
    "counterexample 3 8": "08a2c46afe77befe636eff078613bed07caa91dfa0b117eaac365c056c6f517f",
    "counterexample 3 9": "ac208696f9c2b6f2ec5c29dd201d45a521c1a31eea93b023afc1a10d76fac2d1",
    "counterexample 3 10": "51ccb5baff1ce29c290abc73e3cbf6b294010c36df41d14c5d844234efe39e11",
    "subdivided 1 4": "8c8b0ef4c7e93070c97083d0b197f0febbd8f58f4f240b62d60d3aa031b5ba13",
    "subdivided 2 6": "77f4e951523ee8d6575f1f834a620e5bf5c349c213e60df39c0df205bcbba130",
}


def _digraph(case: str):
    kind, k, m = case.split()
    D = build_counterexample(int(k), int(m))
    return (subdivide_to_simple(D) if kind == "subdivided" else D), int(m)


def _digest(lp) -> str:
    text = repr(
        (
            lp.primal_value,
            lp.dual_value,
            lp.primal_weights,
            sorted(lp.dual_weights.items()),
            lp.exact,
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(SNAPSHOT_SHA256))
def test_lp_matches_snapshot(case):
    D, sink = _digraph(case)
    assert _digest(fractional_menger(rainbow_st_paths(D, 0, sink))) == SNAPSHOT_SHA256[case]
