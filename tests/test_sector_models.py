"""Tests for the combinatorial sector models versus the coordinate quadrics."""

from doilyspace import magicline
from doilyspace.doily import S_SET, SYNTHEMES, duad_label
from doilyspace.incidence import check_gq, find_isomorphism, is_isomorphism
from doilyspace.magicline import NUCLEUS_LABEL, build_magic_line, build_sector_models


def test_model_counts():
    models = build_sector_models()
    assert models.hyperbolic.point_count == 35
    assert len(models.hyperbolic.lines) == 105
    assert models.elliptic.point_count == 27
    assert len(models.elliptic.lines) == 45
    assert models.cone.point_count == 31
    assert len(models.cone.lines) == 75


def test_hyperbolic_model_degrees():
    models = build_sector_models()
    g = models.hyperbolic
    for p in range(g.point_count):
        assert g.degree(p) == 9


def test_elliptic_model_is_gq_2_4():
    models = build_sector_models()
    assert check_gq(models.elliptic, 2, 4)


def test_cone_model_degrees():
    models = build_sector_models()
    g = models.cone
    nucleus = g.labels.index(NUCLEUS_LABEL)
    for p in range(g.point_count):
        assert g.degree(p) == (15 if p == nucleus else 7)


def test_models_isomorphic_to_coordinate_constituents():
    ml = build_magic_line()
    models = build_sector_models()
    for model, constituent in ((models.hyperbolic, ml.q_plus),
                               (models.elliptic, ml.q_minus),
                               (models.cone, ml.cone)):
        mapping = find_isomorphism(model, constituent.structure)
        assert mapping is not None
        # independent re-check: the map carries lines exactly onto lines
        assert is_isomorphism(model, constituent.structure, mapping)


def test_model_labels_are_the_sector_labels():
    ml = build_magic_line()
    models = build_sector_models()
    assert set(models.hyperbolic.labels) == {
        ml.label_of[w] for w in ml.q_plus.w_points}
    assert set(models.elliptic.labels) == {
        ml.label_of[w] for w in ml.q_minus.w_points}
    assert set(models.cone.labels) == {
        ml.label_of[w] for w in ml.cone.w_points}


def test_models_are_built_without_the_magic_line(monkeypatch):
    def refuse():
        raise AssertionError("the sector models must not build the magic line")

    monkeypatch.setattr(magicline, "build_magic_line", refuse)
    build_sector_models.cache_clear()
    models = build_sector_models()
    assert len(models.cone.lines) == 75


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

    g = build_sector_models().cone
    spelled = {frozenset(g.labels[p] for p in line) for line in g.lines}
    synthemes = {frozenset(duad_label(d) for d in syn) for syn in SYNTHEMES}
    vertex_lines = {line for line in spelled if NUCLEUS_LABEL in line}
    assert len(vertex_lines) == 15
    assert spelled - synthemes - vertex_lines == rule
