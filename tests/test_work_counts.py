"""A cold ``verify all`` must compute each magic-line trace, each Veldkamp
line's family, each permuted hyperplane and the doily's Veldkamp space once,
search for one isomorphism only (the core onto the doily: the sector models
are certified by the labels' bijection) and polarize each form once, and a
warm process must not build that space again.  Searches against one target
compute the target's point invariants once.

The cold run happens in a fresh process, so no cache is warm.  The helpers
are wrapped in the namespaces that call them, and the counts are exact: they
guard the work done, not the time it takes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from doilyspace import checks, cli, doily, incidence, magicline, veldkamp
from doilyspace.incidence import IncidenceStructure, find_isomorphism

SRC = Path(__file__).resolve().parent.parent / "src"

COUNT_WORK = """\
import io, json, sys
from contextlib import redirect_stdout
from doilyspace import checks, cli, gf2, magicline, veldkamp

counts = {"trace": 0, "member": 0, "permute": 0, "space": 0, "search": 0,
          "bilinear": 0, "family": 0}

def counted(module, name, key):
    original = getattr(module, name)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)
    setattr(module, name, wrapper)

for module in (checks, veldkamp):
    if hasattr(module, "build_veldkamp_space"):
        counted(module, "build_veldkamp_space", "space")
for module in (checks, magicline):
    if hasattr(module, "find_isomorphism"):
        counted(module, "find_isomorphism", "search")

counted(magicline, "_perp_trace", "trace")
# the family rules classify the three members of each line they classify
counted(veldkamp, "classify_hyperplane", "member")
# family_of reads each line's members and, in the magic-line checks, its image
for module in (veldkamp, magicline):
    counted(module, "family_of", "family")
counted(checks, "apply_duad_permutation", "permute")
counted(gf2.BilinearForm, "__init__", "bilinear")
with redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "all", "--format", "structured"])
print(json.dumps({"exit": code, "traces": counts["trace"],
                  "classifications": counts["member"] / 3,
                  "family_readings": counts["family"],
                  "permutations": counts["permute"],
                  "veldkamp_spaces": counts["space"],
                  "isomorphism_searches": counts["search"],
                  "bilinear_forms": counts["bilinear"]}))
"""


def test_cold_verify_all_does_each_piece_of_work_once():
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-S", "-c", COUNT_WORK], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == {
        "exit": 0,
        "traces": 47,  # 20 hyperbolic, 12 elliptic and 15 cone off points
        "classifications": 155,  # the doily's Veldkamp lines
        "family_readings": 310,  # the 155 lines and their 155 sector images
        "permutations": 62,  # 31 hyperplanes under each of 2 generators
        "veldkamp_spaces": 1,  # the doily's, shared by both suites that read it
        "isomorphism_searches": 1,  # the core onto the doily
        "bilinear_forms": 3,  # one polarization each of Q+, Q- and the cone
    }


def test_a_cold_magic_line_builds_each_constituent_once(monkeypatch):
    # with W(5,2), the doily, its classify table and the sector models built,
    # the magic line builds its core once, for the isomorphism search, and
    # each constituent once, already labelled
    magicline.build_w52()
    doily.build_doily()
    doily._classify_table()
    magicline.build_sector_models()
    built = []
    original = IncidenceStructure.__init__

    def counting(self, point_count, *args, **kwargs):
        built.append(point_count)
        original(self, point_count, *args, **kwargs)

    # every structure, from_lines' included, is built by the constructor
    monkeypatch.setattr(IncidenceStructure, "__init__", counting)
    ml = magicline.build_magic_line.__wrapped__()
    assert sorted(built) == [15, 27, 31, 35]
    assert all(c.structure.labels == tuple(ml.label_of[w] for w in c.w_points)
               for c in ml.constituents.values())


def test_warm_calls_build_no_veldkamp_space(monkeypatch, capsys):
    assert cli.main(["tables", "veldkamp_lines"]) == 0
    builds = []
    for module in (checks, veldkamp):
        if hasattr(module, "build_veldkamp_space"):
            original = getattr(module, "build_veldkamp_space")
            monkeypatch.setattr(module, "build_veldkamp_space",
                                lambda g, original=original: builds.append(g) or original(g))
    for argv in (["tables", "veldkamp_lines"], ["verify", "veldkamp"],
                 ["verify", "magicline"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert builds == []


def test_searches_against_one_target_compute_its_invariants_once(monkeypatch):
    # each structure keeps its search profile: two sources and one target
    # make three invariant computations, not four
    d = doily.build_doily()
    target = IncidenceStructure(d.point_count, d.lines)
    sources = [IncidenceStructure.from_lines(
        d.point_count, ([(p * k) % 15 for p in line] for line in d.lines)) for k in (2, 7)]
    calls = []
    original = incidence._point_invariants
    monkeypatch.setattr(incidence, "_point_invariants", lambda g: calls.append(g) or original(g))
    for source in sources:
        mapping = find_isomorphism(source, target)
        assert incidence.is_isomorphism(source, target, mapping)
    assert len(calls) == 3 and sum(g is target for g in calls) == 1


def test_only_the_target_of_a_search_keeps_a_target_profile():
    d = doily.build_doily()
    target = IncidenceStructure(d.point_count, d.lines)
    source = IncidenceStructure.from_lines(
        d.point_count, ([(p * 2) % 15 for p in line] for line in d.lines))
    assert find_isomorphism(source, target) is not None
    assert "search_profile" in vars(source) and "search_profile" in vars(target)
    assert "target_profile" in vars(target) and "target_profile" not in vars(source)


def test_a_relabelled_structure_checks_partial_linearity_once(monkeypatch):
    # the constructor makes a structure's tables, its partial-linearity flag
    # included; as in one relabel-and-search operation, the search, the
    # gamma-space check and the Veldkamp space construct no structure but
    # the relabelled source
    d = doily.build_doily()
    target = IncidenceStructure(d.point_count, d.lines)
    built = []
    original = IncidenceStructure.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(IncidenceStructure, "__init__", counted)
    source = IncidenceStructure.from_lines(
        d.point_count, ([(p * 2) % 15 for p in line] for line in d.lines))
    mapping = find_isomorphism(source, target)
    assert incidence.is_isomorphism(source, target, mapping)
    assert incidence.check_gamma_space(source)
    assert len(veldkamp.build_veldkamp_space(source).lines) == 155
    assert source.partial_linear
    assert len(built) == 1 and built[0] is source
