"""The constructor and ``from_lines``, its alias, must agree with a reference
copy of the two-pass code they replaced: ``from_lines`` made each line
canonical, then the constructor validated it again and built the tables in
a second loop.  They must agree on the lines, their order, the tables, and
on the exception raised for each single-fault input.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doilyspace.incidence import IncidenceStructure

FIELDS = ("point_count", "labels", "full_mask", "line_masks", "lines_through", "perp_masks",
          "partial_linear")


def check_points(line):
    for p in line:
        if type(p) is not int:
            raise TypeError(f"point index must be an int, got {type(p).__name__}")


class Reference:
    """The tables as the two-pass code built them from ``from_lines``'
    distinct frozenset lines, with each point's type checked first."""

    def __init__(self, point_count, lines, labels=None):
        if type(point_count) is not int or point_count < 0:
            raise ValueError(f"point count {point_count!r} is not a non-negative int")
        lines = tuple(lines)
        labels = None if labels is None else tuple(labels)
        line_masks = []
        through = [[] for _ in range(point_count)]
        perps = [1 << p for p in range(point_count)]
        line_pairs = 0
        for idx, line in enumerate(lines):
            size = len(line)
            if size < 2:
                raise ValueError(f"line {set(line)} has fewer than 2 points")
            if min(line) < 0 or max(line) >= point_count:
                raise ValueError(f"line {set(line)} has out-of-range points")
            m = 0
            for p in line:
                m |= 1 << p
                through[p].append(idx)
            for p in line:
                perps[p] |= m
            line_masks.append(m)
            line_pairs += size * (size - 1)
        if labels is not None and len(labels) != point_count:
            raise ValueError("labels must match the point count")
        self.point_count = point_count
        self.lines = lines
        self.labels = labels
        self.full_mask = (1 << point_count) - 1
        self.line_masks = tuple(line_masks)
        self.lines_through = tuple(map(tuple, through))
        self.perp_masks = tuple(perps)
        self.partial_linear = sum(m.bit_count() for m in perps) - point_count == line_pairs

    @classmethod
    def from_lines(cls, point_count, lines, labels=None):
        canon = set()
        for line in lines:
            points = tuple(line)
            check_points(points)
            unique = frozenset(points)
            if len(unique) != len(points):
                raise ValueError(f"line {list(points)} names a point twice")
            canon.add(unique)
        return cls(point_count, tuple(sorted(canon, key=sorted)), labels)


def outcome(build, *args):
    """The built lines and tables, or the type and message of the exception
    raised."""
    try:
        g = build(*args)
    except (TypeError, ValueError) as e:
        return type(e), str(e)
    return g.lines, tuple(getattr(g, name) for name in FIELDS)


@st.composite
def valid_inputs(draw):
    """A point count, at least one distinct line of 2 to 4 points in range,
    and labels or None."""
    n = draw(st.integers(2, 8))
    lines = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=2, max_size=4),
                          min_size=1, max_size=10, unique=True))
    labels = draw(st.none() | st.just([f"p{k}" for k in range(n)]))
    return n, lines, labels


@st.composite
def point_sequences(draw, lines, ordered):
    """Each line as a list in a drawn order, or as a tuple, set or frozenset
    unless ordered (a set would drop a repeated point)."""
    kinds = [list, tuple] + [set, frozenset] * (not ordered)
    return [draw(st.sampled_from(kinds))(draw(st.permutations(list(line)))) for line in lines]


FAULTS = ("repeated point", "short line", "negative point", "point past the end",
          "non-int point", "bad point count", "wrong label length")


def inject(draw, fault, n, lines, labels):
    """The input with exactly one fault; lines are lists of points."""
    lines = [list(line) for line in lines]
    k = draw(st.integers(0, len(lines) - 1))
    if fault == "repeated point":
        lines[k].insert(draw(st.integers(0, len(lines[k]))), draw(st.sampled_from(lines[k])))
    elif fault == "short line":
        lines[k] = lines[k][:draw(st.integers(0, 1))]
    elif fault in ("negative point", "point past the end"):
        bad = -draw(st.integers(1, 3)) if fault == "negative point" else n + draw(
            st.integers(0, 3))
        lines[k][draw(st.integers(0, len(lines[k]) - 1))] = bad
    elif fault == "non-int point":
        # a bool or float equal to the point it replaces meets no other point of the line
        j = draw(st.integers(0, len(lines[k]) - 1))
        p = lines[k][j]
        lines[k][j] = draw(st.sampled_from([float(p), frozenset({p}), str(p), None]
                                           + [bool(p)] * (p < 2)))
    elif fault == "bad point count":
        n = draw(st.sampled_from([-1, 2.5, "3", None, True]))
    elif fault == "wrong label length":
        labels = [f"p{j}" for j in range(n + draw(st.sampled_from([-1, 1])))]
    return n, lines, labels


@settings(max_examples=200, deadline=None)
@given(valid=valid_inputs(), data=st.data())
def test_from_lines_agrees_with_the_two_pass_reference(valid, data):
    # the constructor and from_lines on the same inputs
    n, lines, labels = valid
    fault = data.draw(st.sampled_from((None,) + FAULTS))
    if fault is not None:
        n, lines, labels = inject(data.draw, fault, n, lines, labels)
    sequences = data.draw(point_sequences(lines, ordered=fault == "repeated point"))
    # a line may come again, in another order, and the lines in any order
    sequences += [data.draw(st.permutations(list(line)))
                  for line in data.draw(st.lists(st.sampled_from(sequences), max_size=3))]
    sequences = data.draw(st.permutations(sequences))
    expected = outcome(Reference.from_lines, n, sequences, labels)
    assert outcome(IncidenceStructure, n, sequences, labels) == expected
    assert outcome(IncidenceStructure.from_lines, n, sequences, labels) == expected
    assert (fault is None) == (not isinstance(expected[0], type))


@pytest.mark.parametrize("lines", [[[0, True, 2], [0, 1, 2]], [[0, 1, 2], [2, True, 0]]])
def test_a_bool_point_is_rejected_where_it_would_equal_an_int(lines):
    # True == 1, so a line holding it would equal a line of ints
    with pytest.raises(TypeError, match="^point index must be an int, got bool$"):
        IncidenceStructure.from_lines(3, lines)
    assert outcome(IncidenceStructure, 3, lines) == outcome(Reference.from_lines, 3, lines)


def test_a_short_line_is_named_before_its_range():
    # one line with both faults, where the random inputs hold only one
    lines = [[0, 1], [-1]]
    assert outcome(IncidenceStructure.from_lines, 3, lines) == (
        ValueError, "line {-1} has fewer than 2 points")
    assert outcome(Reference.from_lines, 3, lines) == outcome(IncidenceStructure, 3, lines)
