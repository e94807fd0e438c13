"""``export`` builds each sector's skeleton once per magic line and marks
only the chosen, trace and concurrent roles per call.  The per-call
construction it replaced is kept here as the reference."""

import json

import pytest

from doilyspace import cli, magicline, render
from doilyspace.magicline import build_magic_line, doily_trace

FIGURES = ("hyperbolic", "elliptic", "cone")


def reference_export_roles(figure: str, point_label: str):
    ml = build_magic_line()
    constituent = ml.constituents[figure]
    valid = sorted(
        ml.label_of[v] for v in constituent.w_points
        if v not in ml.core_set and v != ml.nucleus_w)
    if point_label not in valid:
        raise ValueError(
            f"point {point_label!r} is not an off point of the {figure} sector; "
            f"valid labels: {', '.join(valid)}")
    chosen_w = ml.w_of_label[point_label]
    trace = doily_trace(ml, chosen_w)
    core_point = {d: w for w, d in ml.core_duads.items()}
    trace_labels = {ml.label_of[core_point[d]] for d in trace.duads}
    struct = constituent.structure
    chosen_local = constituent.local_index(chosen_w)

    nodes = []
    for local, w_idx in enumerate(constituent.w_points):
        label = struct.labels[local]
        if local == chosen_local:
            role = "chosen"
        elif label in trace_labels:
            role = "trace"
        elif w_idx in ml.core_set:
            role = "core"
        else:
            role = "sector"
        nodes.append({"label": label, "role": role})

    lines = []
    for idx, line in enumerate(struct.lines):
        members = sorted(struct.labels[q] for q in line)
        through = chosen_local in line
        in_core = all(constituent.w_points[q] in ml.core_set for q in line)
        role = "concurrent" if through else ("core" if in_core else "plain")
        lines.append({"id": f"L{idx}", "points": members, "role": role})

    return {
        "figure": figure,
        "point": point_label,
        "trace": {"name": trace.name, "kind": trace.kind,
                  "points": sorted(trace_labels)},
        "nodes": nodes,
        "lines": lines,
    }


def off_points():
    ml = build_magic_line()
    return [(figure, ml.label_of[v]) for figure, c in ml.constituents.items()
            for v in c.w_points if v not in ml.core_set and v != ml.nucleus_w]


def test_every_off_point_exports_as_the_reference():
    points = off_points()
    assert len(points) == 47
    for figure, label in points:
        expected = reference_export_roles(figure, label)
        for _ in range(2):  # a second call must not see the first one's roles
            got = render.export_roles(figure, label)
            assert got == expected
            assert json.dumps(got) == json.dumps(expected)  # key order too


def test_rejected_labels_give_the_reference_message():
    ml = build_magic_line()
    rejected = [ml.label_of[w] for w in ml.core_w] + ["123456", "no-such-label"]
    for figure in FIGURES:
        for label in rejected:
            with pytest.raises(ValueError) as expected:
                reference_export_roles(figure, label)
            with pytest.raises(render.NotAnOffPoint) as got:
                render.export_roles(figure, label)
            assert str(got.value) == str(expected.value)


def test_only_a_rejected_label_is_a_usage_error(monkeypatch, capsys):
    assert cli.main(["export", "--figure", "cone", "--point", "12"]) == 2
    assert "is not an off point of the cone sector" in capsys.readouterr().err

    def broken(ml, w):
        raise ValueError("a fault inside the export")

    monkeypatch.setattr(magicline, "doily_trace", broken)
    with pytest.raises(ValueError, match="a fault inside the export"):
        cli.main(["export", "--figure", "cone", "--point", "3456"])


def test_the_skeleton_follows_a_rebuilt_magic_line(monkeypatch):
    render.export_roles("elliptic", "3'")
    old = build_magic_line()
    build_magic_line.cache_clear()
    try:
        new = build_magic_line()
        assert new is not old
        struct = new.constituents["elliptic"].structure
        monkeypatch.setattr(struct, "labels", tuple(l + "~" for l in struct.labels))
        nodes = render.export_roles("elliptic", "3'")["nodes"]
        assert [n["label"] for n in nodes] == list(struct.labels)
    finally:
        build_magic_line.cache_clear()
    assert render.sector_skeleton.cache_info().currsize <= 3
