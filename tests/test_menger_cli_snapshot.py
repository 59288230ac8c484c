"""Behaviour snapshot of the ``menger`` subcommand.

One digest covers the exit code, stdout and stderr of ``menger`` for every
k <= 3 and 2k+2 <= m <= 10, each run plain, with ``--lp``, with ``--simple``
and with ``--simple --lp`` (``--simple`` is skipped for k = 3, m > 8), plus
two runs that exhaust a budget: the node limit, and the path cap.
"""

import hashlib

from rainbowmatch.cli import run

SNAPSHOT_SHA256 = "d4e4cb1481ea5f0e27d8f8bac6f61ada23c77b1000a76536f998e48e6dde06aa"

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

