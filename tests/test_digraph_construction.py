"""Construction of ``LabelledDigraph`` and of the switching engine's Y side.

Both build their arc or edge tuples in bulk.  Whatever form the input takes,
every stored element must be an ``Arc`` (an ``Edge``) equal to the input, and
a malformed arc must fail exactly as ``Arc(*a)`` fails on it.
"""

import pytest

from rainbowmatch.core import Edge
from rainbowmatch.digraph import Arc, LabelledDigraph
from rainbowmatch.gen import generate_instance
from rainbowmatch.switching import _swapped, _YSide

ARCS = [(0, 1, "a"), (1, 2, 0), (2, 0, None), (0, 2, (1, 2)), (0, 1, "b")]


@pytest.mark.parametrize("form", ["tuples", "lists", "arcs", "generator"])
def test_arc_forms_give_equal_arcs(form):
    given = {
        "tuples": list(ARCS),
        "lists": [list(a) for a in ARCS],
        "arcs": [Arc(*a) for a in ARCS],
        "generator": (a for a in ARCS),
    }[form]
    D = LabelledDigraph(3, given)
    assert D.arcs == tuple(Arc(*a) for a in ARCS)
    assert all(type(a) is Arc for a in D.arcs)
    assert all(type(a) is Arc for v in range(3) for a in D.out_arcs(v))


def test_no_arcs():
    assert LabelledDigraph(2, []).arcs == ()
    assert LabelledDigraph(0, iter(())).arcs == ()


@pytest.mark.parametrize("bad", [(0, 1), (0, 1, 2, 3), (), ("ab",)])
def test_arc_of_wrong_size_fails_as_arc_does(bad):
    for arcs in ([bad], [(0, 1, 0), bad, (1, 0, 0)], [(0, 1, 0), (0, 1, 0, 0), bad]):
        first = next(a for a in arcs if len(a) != 3)
        with pytest.raises(TypeError) as expected:
            Arc(*first)
        with pytest.raises(TypeError) as got:
            LabelledDigraph(2, arcs)
        assert str(got.value) == str(expected.value)


def test_range_and_self_loop_messages():
    with pytest.raises(ValueError) as err:
        LabelledDigraph(3, [(0, 1, 0), (0, 5, 1)])
    assert str(err.value) == "arc Arc(tail=0, head=5, label=1) endpoint out of range"
    with pytest.raises(ValueError) as err:
        LabelledDigraph(3, [(-1, 1, "x")])
    assert str(err.value) == "arc Arc(tail=-1, head=1, label='x') endpoint out of range"
    with pytest.raises(ValueError) as err:
        LabelledDigraph(3, [(0, 1, 0), [1, 1, 0]])
    assert str(err.value) == "self-loop Arc(tail=1, head=1, label=0) not allowed"


def test_y_side_swaps_every_class():
    g = generate_instance("random", 6, 5, True, seed=3, left_size=7, right_size=8)
    side = _YSide(g)
    assert (side.left_size, side.right_size) == (g.right_size, g.left_size)
    assert len(side.colour_classes) == g.colour_count
    for host_class, side_class in zip(g.colour_classes, side.colour_classes):
        assert side_class == tuple(Edge(e.y, e.x, e.c) for e in host_class)
        assert all(type(e) is Edge for e in side_class)
    assert _swapped(()) == ()
    assert _swapped(iter([Edge(1, 2, 3)])) == (Edge(2, 1, 3),)
