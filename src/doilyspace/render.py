"""The ``export`` figures and ``tables`` listings, imported by ``cli`` on first use so that
``verify`` never compiles them.  Never importing ``cli`` (``python -m`` would compile it twice),
it looks layer functions up on their modules at call time, as ``cli`` sees them."""

from __future__ import annotations

import json
from functools import lru_cache

from . import doily, magicline, veldkamp


class NotAnOffPoint(ValueError):
    """An export's point label that is not an off point of the chosen sector."""


@lru_cache(maxsize=3)  # the three sectors of the cached magic line
def sector_skeleton(ml: magicline.MagicLine, figure: str):
    """The part of an export that does not depend on the chosen point: the
    sorted off-point labels, each node's label and role when neither chosen
    nor traced, each line's id, sorted labels and role when not concurrent."""
    constituent = ml.constituents[figure]
    struct = constituent.structure
    valid = tuple(sorted(ml.label_of[v] for v in constituent.w_points if v in ml.traces))
    nodes = tuple((struct.labels[local], "core" if w_idx in ml.core_set else "sector")
                  for local, w_idx in enumerate(constituent.w_points))
    lines = tuple(
        (f"L{idx}", tuple(sorted(struct.labels[q] for q in line)),
         "core" if all(constituent.w_points[q] in ml.core_set for q in line) else "plain")
        for idx, line in enumerate(struct.lines))
    return valid, nodes, lines


def export_roles(figure: str, point_label: str):
    """One off point's export; NotAnOffPoint lists the valid labels for any other label."""
    ml = magicline.build_magic_line()
    valid, nodes, lines = sector_skeleton(ml, figure)
    if point_label not in valid:
        raise NotAnOffPoint(
            f"point {point_label!r} is not an off point of the {figure} sector; "
            f"valid labels: {', '.join(valid)}")
    chosen_w = ml.w_of_label[point_label]
    trace = magicline.doily_trace(ml, chosen_w)
    trace_labels = {doily.duad_label(d) for d in trace.duads}
    constituent = ml.constituents[figure]
    chosen_local = constituent.local_index(chosen_w)
    through = set(constituent.structure.lines_through[chosen_local])
    return {
        "figure": figure,
        "point": point_label,
        "trace": {"name": trace.name, "kind": trace.kind,
                  "points": sorted(trace_labels)},
        "nodes": [
            {"label": label,
             "role": "chosen" if local == chosen_local
             else "trace" if label in trace_labels else role}
            for local, (label, role) in enumerate(nodes)],
        "lines": [
            {"id": line_id, "points": list(points),
             "role": "concurrent" if idx in through else role}
            for idx, (line_id, points, role) in enumerate(lines)],
    }


def render_dot(data: dict, line_nodes: bool) -> str:
    out = [f'graph "{data["figure"]}_{data["point"]}" {{']
    out.append("  node [shape=circle];")
    for node in data["nodes"]:
        out.append(f'  "{node["label"]}" [role={node["role"]}];')
    for line in data["lines"]:
        if line_nodes:
            out.append(f'  "{line["id"]}" [shape=point, role=line_{line["role"]}];')
            for p in line["points"]:
                out.append(f'  "{line["id"]}" -- "{p}" [role={line["role"]}];')
        else:
            a, b, c = line["points"]
            for u, v in ((a, b), (a, c), (b, c)):
                out.append(f'  "{u}" -- "{v}" [line={line["id"]}, role={line["role"]}];')
    out.append("}")
    return "\n".join(out) + "\n"


@lru_cache(maxsize=1)
def hyperplane_rows() -> tuple[dict, ...]:
    """The doily's 31 hyperplanes, built once per process: their rows read
    only the table of named hyperplanes, which no builder rebuilds."""
    return tuple({"name": h.name, "kind": h.kind, "size": h.size,
                  "points": tuple(map(doily.duad_label, h.duads))}
                 for h in doily.all_named_hyperplanes())


@lru_cache(maxsize=1)  # the Veldkamp space of the cached doily
def veldkamp_rows(space: veldkamp.VeldkampSpace) -> tuple[dict, ...]:
    """The 155 Veldkamp lines of the doily's space, built once per space."""
    return tuple({"members": tuple(doily.classify_hyperplane(m).name for m in line.members),
                  "family": veldkamp.classify_veldkamp_line(line)}
                 for line in space.lines)


@lru_cache(maxsize=1)  # the cached magic line
def sector_map_rows(ml: magicline.MagicLine) -> tuple[dict, ...]:
    """The sector image of each of the 31 hyperplanes, built once per magic line."""
    rows = []
    for h in doily.all_named_hyperplanes():
        image = magicline.sector_image(ml, h)
        rows.append({"hyperplane": h.name, "image": str(image), "sector": image.sector,
                     "image_kind": "pair" if len(image.labels) == 2 else "point"})
    return tuple(rows)


def table(what: str, fmt: str) -> str:
    """One listing in either format; its rows are built once, formatted on every call."""
    rows = {"hyperplanes": hyperplane_rows,
            "veldkamp_lines": lambda: veldkamp_rows(veldkamp.doily_veldkamp_space()),
            "sector_maps": lambda: sector_map_rows(magicline.build_magic_line())}[what]()
    if fmt == "structured":
        return json.dumps(rows, indent=2) + "\n"
    if what == "hyperplanes":
        lines = [f"{r['name']:<6} {r['kind']:<9} {r['size']:>2}  " + " ".join(r["points"])
                 for r in rows]
    elif what == "veldkamp_lines":
        lines = [f"{k:>3}  {{{', '.join(r['members'])}}}  {r['family']}"
                 for k, r in enumerate(rows, 1)]
    else:
        lines = [f"{r['hyperplane']:<6} -> {r['image']:<8} ({r['sector']} {r['image_kind']})"
                 for r in rows]
    return "\n".join(lines) + "\n"
