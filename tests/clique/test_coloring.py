"""The bitset coloring of the clique search against a list-based oracle."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clique.mcbrb import _local_masks, color_classes

COMMON = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def first_fit(candidates, adjacency):
    """Greedy coloring by vertex, in candidate order, with plain lists.

    Each vertex joins the first class holding none of its neighbours;
    the result lists the classes in order, each in candidate order.
    """
    classes: list[list[int]] = []
    for v in candidates:
        for cls in classes:
            if not any(w in adjacency[v] for w in cls):
                cls.append(v)
                break
        else:
            classes.append([v])
    ordered = [v for cls in classes for v in cls]
    colors = [c for c, cls in enumerate(classes, start=1) for _ in cls]
    return ordered, colors


def as_runs(order, cuts):
    """``order`` as ascending runs, split at every descent and at ``cuts``."""
    runs = []
    run = 0
    for i, v in enumerate(order):
        if run and (i in cuts or v < order[i - 1]):
            runs.append(run)
            run = 0
        run |= 1 << v
    return runs + [run] if run else runs


def flatten(pieces, ends):
    """``color_classes`` output as ``(ordered, colors)``."""
    ordered, colors = [], []
    start = 0
    for color, end in enumerate(ends, start=1):
        for piece in pieces[start:end]:
            while piece:
                low = piece & -piece
                ordered.append(low.bit_length() - 1)
                colors.append(color)
                piece ^= low
        start = end
    return ordered, colors


@st.composite
def colorings(draw):
    """A random graph on local positions, an order and extra run cuts."""
    n = draw(st.integers(min_value=0, max_value=40))
    p = draw(st.floats(min_value=0.0, max_value=1.0))
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    adjacency = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rnd.random() < p:
                adjacency[u].add(v)
                adjacency[v].add(u)
    order = draw(st.permutations(range(n)))
    subset = order[: draw(st.integers(min_value=0, max_value=n))]
    cuts = set(draw(st.lists(st.integers(min_value=1, max_value=max(n, 1)))))
    return adjacency, subset, cuts


@COMMON
@given(colorings())
def test_color_classes_equal_first_fit(case):
    adjacency, order, cuts = case
    masks = [sum(1 << w for w in row) for row in adjacency]
    got = flatten(*color_classes(as_runs(order, cuts), masks))
    assert got == first_fit(order, adjacency)


@COMMON
@given(colorings())
def test_local_masks_are_the_induced_adjacency(case):
    adjacency, order, _cuts = case
    # Relabel the positions as sparse global IDs.
    ids = [7 * v + 3 for v in range(len(adjacency))]
    global_adj = {ids[v]: {ids[w] for w in row} for v, row in enumerate(adjacency)}
    candidates = [ids[v] for v in order]
    masks = _local_masks(global_adj, candidates)
    for i, v in enumerate(order):
        want = {j for j, w in enumerate(order) if w in adjacency[v]}
        assert masks[i] == sum(1 << j for j in want)
