import pytest

from rainbowmatch.core import Edge, RainbowMatching
from rainbowmatch.errors import (
    ColumnRepeat,
    MatchingGraphMismatch,
    NotSquare,
    RaggedRows,
    RowRepeat,
    TooManySymbols,
)
from rainbowmatch.latin import (
    extract_transversal,
    parse_latin,
    rectangle_to_graph,
    square_to_graph,
)
from rainbowmatch.oracle import exact_max_rainbow_matching

from helpers import enumerate_latin_squares, latin_text, max_partial_transversal

CYCLIC_3 = "1 2 3\n2 3 1\n3 1 2"


def test_parse_2x2():
    rect = parse_latin("1 2\n2 1")
    assert (rect.rows, rect.cols) == (2, 2)
    assert rect.grid == ((0, 1), (1, 0))
    assert rect.symbols == ("1", "2")


def test_parse_1x1():
    rect = parse_latin("1")
    assert (rect.rows, rect.cols) == (1, 1)


def test_parse_cyclic_3():
    rect = parse_latin(CYCLIC_3)
    assert rect.grid == ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def test_parse_arbitrary_tokens():
    rect = parse_latin("ox cat\ncat ox")
    assert rect.symbols == ("ox", "cat")


@pytest.mark.parametrize(
    "text,err",
    [
        ("1 2\n1", RaggedRows),
        ("1 1\n2 2", RowRepeat),
        ("1 2\n1 2", ColumnRepeat),
        ("1 2\n3 1", TooManySymbols),
    ],
)
def test_parse_errors(text, err):
    with pytest.raises(err):
        parse_latin(text)


def test_parse_error_coordinates():
    with pytest.raises(ColumnRepeat) as exc:
        parse_latin("1 2\n1 2")
    assert "column 0" in str(exc.value)


def test_write_parse_identity():
    for text in ("1 2\n2 1", CYCLIC_3, "a b c\nb c a\nc a b"):
        rect = parse_latin(text)
        assert parse_latin(latin_text(rect)) == rect


def test_square_to_graph_1x1():
    g = square_to_graph(parse_latin("1"))
    assert g.edges == (Edge(0, 0, 0),)


def test_square_to_graph_2x2_matches_core_example():
    g = square_to_graph(parse_latin("1 2\n2 1"))
    assert g.colour_classes[0] == (Edge(0, 0, 0), Edge(1, 1, 0))
    assert g.colour_classes[1] == (Edge(0, 1, 1), Edge(1, 0, 1))


def test_square_to_graph_cyclic3():
    g = square_to_graph(parse_latin(CYCLIC_3))
    assert len(g.edges) == 9
    assert all(len(g.colour_classes[c]) == 3 for c in range(3))


def test_square_to_graph_rejects_rectangle():
    with pytest.raises(NotSquare):
        square_to_graph(parse_latin("1 2"))


def test_rectangle_to_graph_1x2():
    g = rectangle_to_graph(parse_latin("1 2"))
    assert g.colour_count == 1
    assert g.colour_classes[0] == (Edge(0, 0, 0), Edge(1, 1, 0))


def test_rectangle_to_graph_2x3():
    g = rectangle_to_graph(parse_latin("1 2 3\n2 3 1"))
    assert g.colour_count == 2
    assert all(len(g.colour_classes[c]) == 3 for c in range(2))


def test_rectangle_to_graph_cyclic3():
    g = rectangle_to_graph(parse_latin(CYCLIC_3))
    assert g.colour_count == 3
    assert all(len(g.colour_classes[c]) == 3 for c in range(3))


def test_extract_transversal_empty():
    assert extract_transversal(parse_latin("1 2\n2 1"), RainbowMatching()) == ()


def test_extract_transversal_2x2_best():
    rect = parse_latin("1 2\n2 1")
    g = square_to_graph(rect)
    best = exact_max_rainbow_matching(g)
    cells = extract_transversal(rect, best.matching)
    assert len(cells) == 1


def test_extract_transversal_cyclic3_full():
    rect = parse_latin(CYCLIC_3)
    g = square_to_graph(rect)
    best = exact_max_rainbow_matching(g)
    cells = extract_transversal(rect, best.matching)
    assert len(cells) == 3
    rows = {c[0] for c in cells}
    cols = {c[1] for c in cells}
    syms = {c[2] for c in cells}
    assert len(rows) == len(cols) == len(syms) == 3


def test_extract_transversal_mismatch():
    rect = parse_latin("1 2\n2 1")
    with pytest.raises(MatchingGraphMismatch):
        extract_transversal(rect, RainbowMatching((Edge(0, 0, 1),)))


def test_matching_size_equals_transversal_size_small_orders():
    # graph-level optimum == independent cell-level backtracker, orders <= 4;
    # order 5 spot checks come from the seeded corpus in the CLI tests
    import itertools

    for n in (1, 2, 3):
        for grid in enumerate_latin_squares(n):
            from rainbowmatch.latin import LatinRectangle

            rect = LatinRectangle(n, n, grid, tuple(str(i) for i in range(n)))
            g = square_to_graph(rect)
            assert exact_max_rainbow_matching(g).size == max_partial_transversal(grid)
    # order 4: the full 576-square sweep lives in test_oracle; sample here
    squares = list(itertools.islice(enumerate_latin_squares(4), 40))
    for grid in squares:
        from rainbowmatch.latin import LatinRectangle

        rect = LatinRectangle(4, 4, grid, tuple(str(i) for i in range(4)))
        g = square_to_graph(rect)
        assert exact_max_rainbow_matching(g).size == max_partial_transversal(grid)


def test_order5_corpus_matches_backtracker():
    from rainbowmatch.gen import random_latin_square

    for seed in range(6):
        rect = random_latin_square(5, seed=seed)
        g = square_to_graph(rect)
        assert exact_max_rainbow_matching(g).size == max_partial_transversal(rect.grid)
