"""Tests for the combinatorial sector models versus the coordinate quadrics."""

from itertools import combinations, permutations

import pytest

from doilyspace import checks, magicline
from doilyspace.doily import DUADS, S_ELEMENTS, S_SET, SYNTHEMES, duad_label
from doilyspace.incidence import (
    IncidenceStructure,
    check_gq,
    find_isomorphism,
    is_isomorphism,
)
from doilyspace.magicline import (
    CONE_SECTOR,
    ELLIPTIC_SECTOR,
    HYPERBOLIC_SECTOR,
    NUCLEUS_LABEL,
    build_magic_line,
    build_sector_models,
    label_map,
)


def label_rule_models():
    """A second statement of the sector models: every point and line spelled
    in label strings, each line's points looked up by label."""
    def subset(elems):
        return "".join(str(e) for e in sorted(elems))

    def model(off_labels, off_lines):
        labels = [duad_label(d) for d in DUADS] + off_labels
        index = {lab: k for k, lab in enumerate(labels)}
        lines = [[duad_label(d) for d in syn] for syn in SYNTHEMES] + off_lines
        return IncidenceStructure(
            len(labels), ([index[lab] for lab in line] for line in lines), labels)

    def quad(d):
        return subset(S_SET - set(d))

    triples = {frozenset(t): subset(t) for t in combinations(S_ELEMENTS, 3)}
    return {
        HYPERBOLIC_SECTOR: model(
            list(triples.values()),
            [[triples[x], triples[y], subset((x & y) | (S_SET - (x | y)))]
             for x, y in combinations(triples, 2) if len(x & y) == 1]),
        ELLIPTIC_SECTOR: model(
            [f"{i}" for i in S_ELEMENTS] + [f"{i}'" for i in S_ELEMENTS],
            [[f"{i}", f"{j}'", subset((i, j))] for i, j in permutations(S_ELEMENTS, 2)]),
        CONE_SECTOR: model(
            sorted(quad(d) for d in DUADS) + [NUCLEUS_LABEL],
            [[NUCLEUS_LABEL, quad(d), duad_label(d)] for d in DUADS]
            + [[quad(a), quad(b), duad_label(c)] for syn in SYNTHEMES
               for a, b, c in permutations(syn)]),
    }


def test_index_rules_build_the_label_rule_models():
    # equal point counts, lines in order and labels, sector by sector
    models = build_sector_models()
    oracle = label_rule_models()
    assert list(models) == list(oracle) == [HYPERBOLIC_SECTOR, ELLIPTIC_SECTOR, CONE_SECTOR]
    for sector, model in models.items():
        assert model == oracle[sector]
        assert (model.point_count, model.lines, model.labels) == (
            oracle[sector].point_count, oracle[sector].lines, oracle[sector].labels)


def test_model_counts():
    models = build_sector_models()
    assert models[HYPERBOLIC_SECTOR].point_count == 35
    assert len(models[HYPERBOLIC_SECTOR].lines) == 105
    assert models[ELLIPTIC_SECTOR].point_count == 27
    assert len(models[ELLIPTIC_SECTOR].lines) == 45
    assert models[CONE_SECTOR].point_count == 31
    assert len(models[CONE_SECTOR].lines) == 75


def test_hyperbolic_model_degrees():
    models = build_sector_models()
    g = models[HYPERBOLIC_SECTOR]
    for p in range(g.point_count):
        assert g.degree(p) == 9


def test_elliptic_model_is_gq_2_4():
    models = build_sector_models()
    assert check_gq(models[ELLIPTIC_SECTOR], 2, 4)


def test_cone_model_degrees():
    models = build_sector_models()
    g = models[CONE_SECTOR]
    nucleus = g.labels.index(NUCLEUS_LABEL)
    for p in range(g.point_count):
        assert g.degree(p) == (15 if p == nucleus else 7)


def test_models_isomorphic_to_coordinate_constituents():
    ml = build_magic_line()
    models = build_sector_models()
    for model, constituent in ((models[HYPERBOLIC_SECTOR], ml.q_plus),
                               (models[ELLIPTIC_SECTOR], ml.q_minus),
                               (models[CONE_SECTOR], ml.cone)):
        mapping = find_isomorphism(model, constituent.structure)
        assert mapping is not None
        # independent re-check: the map carries lines exactly onto lines
        assert is_isomorphism(model, constituent.structure, mapping)


def test_model_labels_are_the_sector_labels():
    ml = build_magic_line()
    models = build_sector_models()
    assert set(models[HYPERBOLIC_SECTOR].labels) == {
        ml.label_of[w] for w in ml.q_plus.w_points}
    assert set(models[ELLIPTIC_SECTOR].labels) == {
        ml.label_of[w] for w in ml.q_minus.w_points}
    assert set(models[CONE_SECTOR].labels) == {
        ml.label_of[w] for w in ml.cone.w_points}


def test_models_are_built_without_the_magic_line(monkeypatch):
    def refuse():
        raise AssertionError("the sector models must not build the magic line")

    monkeypatch.setattr(magicline, "build_magic_line", refuse)
    build_sector_models.cache_clear()
    models = build_sector_models()
    assert len(models[CONE_SECTOR].lines) == 75


def test_cone_off_lines_follow_the_syntheme_rule():
    # for each syntheme {ij, kl, mn} and each choice of its core duad mn,
    # the line {S - ij, S - kl, mn}
    def quad(duad):
        return "".join(str(e) for e in sorted(S_SET - set(duad)))

    rule = set()
    for syn in SYNTHEMES:
        for mn in syn:
            ij, kl = (d for d in syn if d != mn)
            rule.add(frozenset((quad(ij), quad(kl), duad_label(mn))))
    assert len(rule) == 45

    g = build_sector_models()[CONE_SECTOR]
    spelled = {frozenset(g.labels[p] for p in line) for line in g.lines}
    synthemes = {frozenset(duad_label(d) for d in syn) for syn in SYNTHEMES}
    vertex_lines = {line for line in spelled if NUCLEUS_LABEL in line}
    assert len(vertex_lines) == 15
    assert spelled - synthemes - vertex_lines == rule


# each constituent with the label of one of its off points
OFF_LABEL = {"hyperbolic": "146", "elliptic": "3'", "cone": "3456"}
CONSTITUENTS = tuple(OFF_LABEL)
MODEL_CHECK = "sector models isomorphic to the coordinate constituents"


def line_images(model, mapping):
    return {frozenset(mapping[p] for p in line) for line in model.lines}


def test_label_map_has_the_effect_of_the_searched_isomorphism():
    # the certificate verify uses: the bijection the certified labels give
    ml = build_magic_line()
    models = build_sector_models()
    for name in CONSTITUENTS:
        model, struct = models[name], ml.constituents[name].structure
        mapping = label_map(model, struct)
        found = find_isomorphism(model, struct)
        assert is_isomorphism(model, struct, mapping)
        assert is_isomorphism(model, struct, found)
        assert all(struct.labels[mapping[p]] == model.labels[p] for p in mapping)
        assert line_images(model, mapping) == line_images(model, found) == set(struct.lines)


def relabelled(name, struct, change):
    labels = list(struct.labels)
    if change == "rename":
        labels[0] += "~"
    else:  # swap a core duad with an off point's label
        a, b = labels.index("12"), labels.index(OFF_LABEL[name])
        labels[a], labels[b] = labels[b], labels[a]
    return tuple(labels)


@pytest.mark.parametrize("change", ["rename", "swap"])
def test_a_changed_label_fails_the_model_check_without_raising(monkeypatch, change):
    # a renamed label leaves the label sets unequal, so no map is built; a
    # swap gives a map that is_isomorphism rejects
    ml = build_magic_line()
    for k, name in enumerate(CONSTITUENTS):
        struct = ml.constituents[name].structure
        with monkeypatch.context() as patch:
            patch.setattr(struct, "labels", relabelled(name, struct, change))
            check, = [c for c in checks._magicline_checks() if c.name == MODEL_CHECK]
        assert check.actual == [j != k for j in range(3)]
        assert not check.passed
