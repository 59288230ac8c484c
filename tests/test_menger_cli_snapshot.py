"""Behaviour snapshot of the ``menger`` subcommand.

One digest covers the exit code, stdout and stderr of ``menger`` for every
k <= 3 and 2k+2 <= m <= 10, each run plain, with ``--lp``, with ``--simple``
and with ``--simple --lp`` (``--simple`` is skipped for k = 3, m > 8), plus
two runs that exhaust a budget: the node limit, and the path cap.

Re-recorded when the LP became exact on every run, with its values beyond
64 paths reported as the rounded exact optimum.  Compared run by run on
both trees outside the suite, exactly 10 of the 58 runs changed, all
exiting 0 with the same stderr and the same JSON apart from ``lp``'s
``primal_value``, ``dual_value`` and ``gap`` (old -> new; a key not named
kept its value):

    --k 2 --m 8 --lp, --simple --lp   both values 1.2499999999999996 -> 1.25
    --k 2 --m 9 --lp, --simple --lp   1.2222222222222217 and
                                      1.2222222222222219 -> 1.2222222222222223,
                                      gap 2.220446049250313e-16 -> 0.0
    --k 2 --m 10 --lp, --simple --lp  1.1999999999999993 and
                                      1.1999999999999997 -> 1.2,
                                      gap 4.440892098500626e-16 -> 0.0
    --k 3 --m 8 --lp, --simple --lp   primal 1.3749999999999991 -> 1.375,
                                      gap 8.881784197001252e-16 -> 0.0
    --k 3 --m 9 --lp                  1.3333333333333337 and
                                      1.3333333333333326 -> 1.3333333333333333,
                                      gap 1.1102230246251565e-15 -> 0.0
    --k 3 --m 10 --lp                 1.2999999999999992 and
                                      1.2999999999999994 -> 1.3,
                                      gap 2.220446049250313e-16 -> 0.0

Each new value is float((m+k)/m).  These are the ``--lp`` runs beyond 64
paths; every other run is byte for byte the same.
"""

import hashlib

from rainbowmatch.cli import run

SNAPSHOT_SHA256 = "62e973a443f99bbd7ecb89fa080461c6831972faa375e97d34c93f7d4fb191ac"

BUDGET_RUNS = (
    # exits 3 with "node limit exceeded"
    ["menger", "--k", "3", "--m", "9", "--lp", "--node-limit", "500"],
    # exits 3 with "rainbow paths exceed cap 20000"
    ["menger", "--k", "5", "--m", "13", "--lp"],
)


def _argvs():
    for k in (1, 2, 3):
        for m in range(2 * k + 2, 11):
            base = ["menger", "--k", str(k), "--m", str(m)]
            flags = [[], ["--lp"]]
            if not (k == 3 and m > 8):
                flags += [["--simple"], ["--simple", "--lp"]]
            for extra in flags:
                yield base + extra
    yield from BUDGET_RUNS


def test_menger_cli_matches_snapshot(capsys):
    digest = hashlib.sha256()
    for argv in _argvs():
        code = run(argv)
        out, err = capsys.readouterr()
        digest.update(f"{' '.join(argv)}\n{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == SNAPSHOT_SHA256

