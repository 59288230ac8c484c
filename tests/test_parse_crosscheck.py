"""Cross-check of the edge-list reader against a line-by-line reference.

The reference is the reader's former loop: one line at a time, then one edge
at a time through the graph invariants, raising at the first fault.  The
reader under test tokenises a text of plain lines all at once and reads any
other text line by line, so both must agree on every text: the same edges and
colour classes from a well-formed one, the same exception type and text from
a malformed one.
"""

import random

import pytest

from rainbowmatch import core
from rainbowmatch.core import Edge, RainbowMatching, read_edge_list, read_matching, write_edge_list
from rainbowmatch.errors import (
    DuplicateEdgeAcrossColours,
    DuplicateEndpointInColourClass,
    IdOutOfRange,
)
from rainbowmatch.gen import generate_instance


def reference_read(text, edge_disjoint=False):
    """(edges, colour classes) of an edge-list text; raises at the first fault."""
    lines = [ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"header must be 'L R C', got {lines[0]!r}")
    left, right, colours = (int(t) for t in header)
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"edge line must be 'x y c', got {ln!r}")
        edges.append(Edge(*(int(t) for t in parts)))
    if left < 0 or right < 0 or colours < 0:
        raise IdOutOfRange("sizes must be non-negative")
    classes = [[] for _ in range(colours)]
    x_seen = [set() for _ in range(colours)]
    y_seen = [set() for _ in range(colours)]
    pairs = {}
    for e in edges:
        x, y, c = e
        if not (0 <= x < left):
            raise IdOutOfRange(f"X-vertex {x} outside [0, {left})")
        if not (0 <= y < right):
            raise IdOutOfRange(f"Y-vertex {y} outside [0, {right})")
        if not (0 <= c < colours):
            raise IdOutOfRange(f"colour {c} outside [0, {colours})")
        if x in x_seen[c]:
            raise DuplicateEndpointInColourClass(f"colour {c} has two edges at X-vertex {x}")
        if y in y_seen[c]:
            raise DuplicateEndpointInColourClass(f"colour {c} has two edges at Y-vertex {y}")
        x_seen[c].add(x)
        y_seen[c].add(y)
        if edge_disjoint:
            if (x, y) in pairs:
                raise DuplicateEdgeAcrossColours(
                    f"pair ({x}, {y}) carries colours {pairs[(x, y)]} and {c}"
                )
            pairs[(x, y)] = c
        classes[c].append(e)
    return tuple(edges), tuple(tuple(cl) for cl in classes)


def fast_read(text, edge_disjoint=False):
    graph = read_edge_list(text, edge_disjoint)
    assert all(type(e) is Edge for e in graph.edges)
    return graph.edges, graph.colour_classes


def outcome(read, text, edge_disjoint):
    try:
        return read(text, edge_disjoint)
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)


FIXED = [
    # token count a multiple of 3, but line 2 holds two values
    ("2 2 1\n0 0\n0 0 0 1\n", (ValueError, "edge line must be 'x y c', got '0 0'")),
    ("", (ValueError, "empty edge-list input")),
    ("\n  \n# only a comment\n", (ValueError, "empty edge-list input")),
    ("2 2 1\n", ((), ((),))),  # a header only: no edges
    ("2 2\n", (ValueError, "header must be 'L R C', got '2 2'")),
    ("2 2 1 1\n0 0 0\n", (ValueError, "header must be 'L R C', got '2 2 1 1'")),
    ("2 2 1\n+1 0 0\n", ((Edge(1, 0, 0),), ((Edge(1, 0, 0),),))),  # int() takes a sign
    ("20 2 1\n1_0 0 0\n", ((Edge(10, 0, 0),), ((Edge(10, 0, 0),),))),  # and underscores
    ("2 2 1\n-1 0 0\n", (IdOutOfRange, "X-vertex -1 outside [0, 2)")),
    ("2 2 1\n0 zero 0\n", (ValueError, "invalid literal for int() with base 10: 'zero'")),
    ("2 x 1\n0 0 0\n", (ValueError, "invalid literal for int() with base 10: 'x'")),
    ("2 2 1\n0 2 0\n", (IdOutOfRange, "Y-vertex 2 outside [0, 2)")),
    ("2 2 1\n0 0 1\n", (IdOutOfRange, "colour 1 outside [0, 1)")),
    ("-1 2 1\n", (IdOutOfRange, "sizes must be non-negative")),
    ("2 2 1\n0 0 0\n0 1 0\n", (DuplicateEndpointInColourClass, "colour 0 has two edges at X-vertex 0")),
    ("2 2 2\n0 1 0\n1 1 0\n", (DuplicateEndpointInColourClass, "colour 0 has two edges at Y-vertex 1")),
    # two faults: the duplicate endpoint comes first in edge order, although
    # a check over whole columns would see the out-of-range id first
    ("3 3 2\n1 1 1\n0 0 0\n0 1 0\n0 5 1\n",
     (DuplicateEndpointInColourClass, "colour 0 has two edges at X-vertex 0")),
    ("3 3 2\n0 5 1\n0 0 0\n0 1 0\n", (IdOutOfRange, "Y-vertex 5 outside [0, 3)")),
    # tabs, CRLF, trailing spaces, blank and whitespace-only lines, comments,
    # and no final newline
    ("# c\r\n2\t2 2  \r\n\r\n \t \n0 0 0 # e\n1\t1  1",
     ((Edge(0, 0, 0), Edge(1, 1, 1)), ((Edge(0, 0, 0),), (Edge(1, 1, 1),)))),
]

ONE_EDGE = ((Edge(0, 1, 0),), ((Edge(0, 1, 0),),))
# Texts at the edge of the layout the reader takes in bulk (three ASCII-digit
# ids joined by single spaces, "\n" after each line but perhaps the last): on
# either side of that edge, each must read as the line-by-line reference does.
NEAR_CANONICAL = [
    ("2 2 1\n0  1 0\n", ONE_EDGE),  # a double space
    ("2 2 1\n 0 1 0\n", ONE_EDGE),  # a leading space
    ("2 2 1\n0 1 0 \n", ONE_EDGE),  # a trailing space
    ("2 2 1\n0\t1 0\n", ONE_EDGE),
    ("2 2 1\r\n0 1 0\r\n", ONE_EDGE),
    ("4 4 1\n\u0663 \uff13 0\n", ((Edge(3, 3, 0),), ((Edge(3, 3, 0),),))),  # digits int() reads
    # str.splitlines breaks a line at these, so an id after one starts a new line
    *[(f"2 2 1\n0{ch}1 0\n", (ValueError, "edge line must be 'x y c', got '0'"))
      for ch in "\x0b\x0c\x1c\x85\u2028"],
    ("2 2 1\n0\xa01 0\n", ONE_EDGE),  # whitespace to str.split, not to splitlines
    *[(f"2 2 1\n0 1 0{ch}\n", ONE_EDGE) for ch in "\x0b\x0c\x1c\x85\xa0\u2028"],
    ("  ", (ValueError, "empty edge-list input")),  # "  \n" less its line break
    ("2 2 1", ((), ((),))),  # a header only, with no final newline
    ("2 2 1\n0 1 0", ONE_EDGE),  # a last edge line with no final newline
    ("2 2 1\n0 1 0\n\n", ONE_EDGE),  # a trailing blank line
]
FIXED += NEAR_CANONICAL


def int_error(token):
    try:
        int(token)
    except ValueError as exc:
        return str(exc)


# Two ids too long for int(), the first in file order the longer: canonical
# text and its CRLF copy (read in bulk and line by line) must name the first.
LONG_IDS = {"long-ids": "2 2 1\n" + "1" * 4500 + " " + "1" * 4400 + " 0\n"}
LONG_IDS["long-ids-crlf"] = LONG_IDS["long-ids"].replace("\n", "\r\n")
FIXED += [
    pytest.param(text, (ValueError, int_error("1" * 4500)), id=name)
    for name, text in LONG_IDS.items()
]


@pytest.mark.parametrize("text,expected", FIXED)
def test_fixed_texts(text, expected):
    assert outcome(reference_read, text, False) == expected
    assert outcome(fast_read, text, False) == expected


def test_duplicate_pair_only_under_edge_disjoint():
    text = "2 2 2\n0 0 0\n1 1 0\n0 0 1\n"
    fault = (DuplicateEdgeAcrossColours, "pair (0, 0) carries colours 0 and 1")
    assert outcome(fast_read, text, True) == outcome(reference_read, text, True) == fault
    assert outcome(fast_read, text, False) == outcome(reference_read, text, False)
    assert len(fast_read(text)[0]) == 3


SEPARATORS = [" ", "  ", "\t", " \t "]
CORRUPT_TOKENS = ["+1", "1_0", "-1", "x", "1.5", "07", "99"]


def random_text(rng):
    """A seeded edge-list text: valid at first, laid out in a random way, then
    corrupted at one place in half the cases."""
    left, right, colours = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 4)
    rows = [[str(left), str(right), str(colours)]]
    for c in range(colours):
        k = rng.randint(0, min(left, right))
        for x, y in zip(rng.sample(range(left), k), rng.sample(range(right), k)):
            rows.append([str(x), str(y), str(c)])
    body = rows[1:]
    rng.shuffle(body)
    rows[1:] = body
    if rng.random() < 0.5:
        i = rng.randrange(len(rows))
        kind = rng.randrange(5)
        if kind == 0:
            rows[i][rng.randrange(3)] = rng.choice(CORRUPT_TOKENS)
        elif kind == 1:
            rows[i].pop(rng.randrange(3))
        elif kind == 2:
            rows[i].append(str(rng.randint(0, 3)))
        elif kind == 3 and i + 1 < len(rows):  # the token count stays a multiple of 3
            rows[i + 1].append(rows[i].pop())
        elif len(rows) > 1:
            rows.insert(rng.randrange(1, len(rows) + 1), list(rng.choice(rows[1:])))
    lines = []
    for row in rows:
        while rng.random() < 0.2:
            lines.append(rng.choice(["", "  ", "\t", "# a comment", " # 1 2 3"]))
        line = rng.choice(SEPARATORS).join(row)
        if rng.random() < 0.2:
            line = rng.choice(SEPARATORS) + line
        if rng.random() < 0.2:
            line += rng.choice(SEPARATORS)
        if rng.random() < 0.1:
            line += "# x y c"
        lines.append(line)
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    text = newline.join(lines)
    return text if rng.random() < 0.2 else text + newline


def test_random_texts_agree_with_reference():
    rng = random.Random(2015)
    parsed = raised = 0
    for _ in range(3000):
        text = random_text(rng)
        for edge_disjoint in (False, True):
            expected = outcome(reference_read, text, edge_disjoint)
            assert outcome(fast_read, text, edge_disjoint) == expected, text
            if isinstance(expected[0], type):
                raised += 1
            else:
                parsed += 1
    assert parsed > 1000 and raised > 1000


# Tokens int() reads in its own way.  "07", "-0" and a 20-digit id pass the
# plain-text gate and are read once per distinct token; "+1" and "1_0" send
# the text to the line loop.
INT_OWN = [
    "9 9 2\n07 7 0\n7 0 1\n",  # "07" and "7" are one X-vertex: a fault in colour 1
    "9 9 2\n07 7 0\n7 0 0\n",  # ... and in colour 0
    "9 9 2\n07 007 0\n7 7 1\n0 1 -0\n",
    "2 2 1\n-0 -0 -0\n",
    "2 2 1\n+1 0 0\n0 +1 0\n",
    "20 20 2\n1_0 10 0\n10 1_0 1\n",
    "12345678901234567890 3 1\n12345678901234567889 0 0\n",
    "2 2 1\n12345678901234567890 0 0\n",
    "2 2 1\n-12345678901234567890 0 0\n",
    "3 3 2\n0 0 0\n1 1 1\n0 0 1\n",  # a pair carrying two colours
]


@pytest.mark.parametrize("text", INT_OWN)
def test_int_own_tokens_agree_with_reference(text):
    for edge_disjoint in (False, True):
        assert outcome(fast_read, text, edge_disjoint) == outcome(reference_read, text, edge_disjoint)


def planted_text(rng, n, fault):
    """An edge-list text of n edge-disjoint classes of size n+1 on n+3 vertices
    (rows of a cyclic square) and one empty class, edges shuffled; ``fault``
    breaks one edge, or puts a copy of one in the empty class."""
    order = n + 3
    edges = []
    for c, shift in enumerate(rng.sample(range(order), n)):
        for x in rng.sample(range(order), n + 1):
            edges.append([x, (x + shift) % order, c])
    rng.shuffle(edges)
    i = rng.randrange(len(edges))
    if fault == "range":
        edges[i][rng.randrange(3)] = order + n
    elif fault == "endpoint":  # the X-vertex of another edge of its colour
        j = next(j for j in range(len(edges)) if j != i and edges[j][2] == edges[i][2])
        edges[i][0] = edges[j][0]
    elif fault == "pair":
        edges.insert(rng.randrange(len(edges)), [*edges[i][:2], n])
    rows = [f"{order} {order} {n + 1}"]
    rows.extend(f"{x} {y} {c}" for x, y, c in edges)
    return "\n".join(rows) + "\n"


PLANTED_FAULTS = {
    None: (None, None),
    "range": (IdOutOfRange, IdOutOfRange),
    "endpoint": (DuplicateEndpointInColourClass, DuplicateEndpointInColourClass),
    "pair": (None, DuplicateEdgeAcrossColours),
}


@pytest.mark.parametrize("fault", PLANTED_FAULTS)
def test_planted_texts_agree_with_reference(fault):
    rng = random.Random(f"planted/{fault}")
    for _ in range(3):
        text = planted_text(rng, 40, fault)
        assert len(text.splitlines()) == 1 + 40 * 41 + (fault == "pair")
        for edge_disjoint, raises in zip((False, True), PLANTED_FAULTS[fault]):
            expected = outcome(reference_read, text, edge_disjoint)
            assert outcome(fast_read, text, edge_disjoint) == expected
            assert expected[0] is raises if raises else len(expected[0]) == len(text.splitlines()) - 1


def test_generated_and_benchmark_layouts_take_the_bulk_path():
    # the solver workloads' inputs are read in bulk; one step off the layout
    # sends a text to the line loop, which reads the same graph
    generated = write_edge_list(generate_instance("random", 12, 10, seed=3, left_size=15))
    planted = planted_text(random.Random("bulk"), 40, None)  # as the benchmark writes them
    for text in (generated, planted):
        rows = core._plain_rows(text)
        assert rows is not None and len(rows) == len(text.splitlines())
        graph = read_edge_list(text)
        for changed in (text.replace("\n", "\r\n"), text.replace(" ", "\t", 1),
                        text.replace(" ", "  ", 1)):
            assert core._plain_rows(changed) is None
            assert read_edge_list(changed) == graph


def reference_read_matching(text):
    """The matching of a text read one line at a time."""
    edges = []
    for raw in text.splitlines():
        ln = raw.split("#", 1)[0].strip()
        if not ln:
            continue
        parts = ln.split()
        try:
            if len(parts) != 3:
                raise ValueError
            edges.append(Edge(*(int(t) for t in parts)))
        except ValueError:
            raise ValueError(f"matching line must be 'x y c', got {ln!r}") from None
    return RainbowMatching(tuple(edges))


def read_matching_checked(text):
    matching = read_matching(text)
    assert all(type(e) is Edge for e in matching)
    return matching


def matching_outcome(read, text):
    try:
        return read(text)
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)


@pytest.mark.parametrize("text", [
    "", "\n\n", "0 0 0\n", "0 0 0\n1 1 1", "07 -0 12345678901234567890\n",
    "# a matching\n0 0 0  # e\r\n1\t1 1\r\n", "+1 1_0 0\n",
    "0 0\n", "0 0 0 0\n", "0 x 0\n", "1.5 0 0\n", *INT_OWN,
    *(text for text, _ in NEAR_CANONICAL),
    *(pytest.param(text, id=name) for name, text in LONG_IDS.items()),
])
def test_read_matching_fixed_texts(text):
    assert matching_outcome(read_matching_checked, text) == matching_outcome(reference_read_matching, text)


def test_read_matching_random_texts_agree_with_reference():
    rng = random.Random("read_matching")
    parsed = raised = 0
    for _ in range(1000):
        text = random_text(rng)
        expected = matching_outcome(reference_read_matching, text)
        assert matching_outcome(read_matching_checked, text) == expected, text
        if isinstance(expected, RainbowMatching):
            parsed += 1
        else:
            raised += 1
    assert parsed > 300 and raised > 100


def test_an_over_long_id_is_named_in_file_order():
    assert "4500 digits" in int_error("1" * 4500)
    assert core._plain_rows(LONG_IDS["long-ids"]) is None  # the bulk path hands it on
    for read in (read_edge_list, read_matching):
        canonical, crlf = (matching_outcome(read, text) for text in LONG_IDS.values())
        assert canonical == crlf and canonical[0] is ValueError
