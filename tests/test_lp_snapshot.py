"""Behaviour snapshot of the fractional Menger LP.

The digests below were recorded before ``fractional_menger`` gave one LP
column to each distinct colour set instead of one to each path.  Each pins,
bit for bit, the primal and dual values, the primal weight of every path,
the dual weight of every colour and the ``exact`` flag, on the float path
(more than 64 paths) as well as the exact one.
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
    "counterexample 2 6": "455a661c113da10d1083ae79f14bdbc3020e24681ddd8e1224abf6d13b6fcc7d",
    "counterexample 2 7": "9a37df6f1a82c32f0624699215f4d0ab0b43a0013cf8f6b454e7efbdc1d9a121",
    "counterexample 2 8": "636ca56991ef9fcf0c8c0f732c54530e852e360e38dc7b17f142200cd49c2b63",
    "counterexample 2 10": "c3e4dfb068dc66bcba69232d4369b73f4abecaeb4c42d7ec6684fafe4b29c5cb",
    "counterexample 3 8": "fde41a1b04edaff2dde011074b2fd3a27943b650e2a61c456f2a805ac6c2dbe6",
    "counterexample 3 9": "cd520bc9df7f2366c1605e9d023073506c77b45ba73102449061364c8f3b9b3f",
    "counterexample 3 10": "dffce2f0d26db574563a374487c7ab6b32a19caf043592c5db8cf3458f20b1e5",
    "subdivided 1 4": "9861f64d3aeb9a71240386bf68fefcec3e691bcf248e958282e30da8f28fc0c7",
    "subdivided 2 6": "2db40a9d35c94832499cb859ec41dcd16ac9e7eddd8892301ba3b2b12c0a0e63",
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
