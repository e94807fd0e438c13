"""``tables`` builds each listing's rows once per process, keyed to the cached
object they read (the doily's Veldkamp space, the magic line), and formats
them on every call, so a repeated listing is byte-identical and a rebuilt
builder's instance gets rows of its own."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from doilyspace import cli, render, veldkamp
from doilyspace.doily import build_doily, classify_hyperplane
from doilyspace.magicline import SectorImage, build_magic_line

GOLDENS = Path(__file__).resolve().parent.parent / "benchmarks" / "goldens.json"
TABLES = [g for g in json.loads(GOLDENS.read_text(encoding="utf-8"))["outputs"]
          if g["argv"][0] == "tables"]
ROW_CACHES = (render.hyperplane_rows, render.veldkamp_rows, render.sector_map_rows)


def _sha256_of(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def test_every_listing_and_format_is_pinned():
    assert len(TABLES) == 6


@pytest.mark.parametrize("golden", TABLES, ids=[" ".join(g["argv"]) for g in TABLES])
def test_a_repeated_listing_matches_its_golden_each_time(golden):
    for _ in range(2):  # the second call formats the rows the first one built
        assert _sha256_of(golden["argv"]) == golden["sha256"]


def test_the_veldkamp_rows_follow_a_rebuilt_doily(monkeypatch):
    render.table("veldkamp_lines", "text")
    old = veldkamp.doily_veldkamp_space()
    build_doily.cache_clear()
    try:
        new = veldkamp.doily_veldkamp_space()
        assert new is not old
        monkeypatch.setattr(new, "lines", new.lines[::-1])
        rows = json.loads(render.table("veldkamp_lines", "structured"))
        first = new.lines[0]
        assert rows[0]["members"] == [classify_hyperplane(m).name for m in first.members]
        assert rows[0]["family"] == veldkamp.classify_veldkamp_line(first)
        assert render.veldkamp_rows(new) is render.veldkamp_rows(new)
    finally:
        build_doily.cache_clear()
    assert json.loads(render.table("veldkamp_lines", "structured"))[0] != rows[0]


def test_the_sector_map_rows_follow_a_rebuilt_magic_line(monkeypatch):
    render.table("sector_maps", "text")
    old = build_magic_line()
    build_magic_line.cache_clear()
    try:
        new = build_magic_line()
        assert new is not old
        monkeypatch.setattr(new, "sector_images", {
            m: SectorImage(image.sector, tuple(l + "~" for l in image.labels))
            for m, image in new.sector_images.items()})
        rows = json.loads(render.table("sector_maps", "structured"))
        assert all("~" in row["image"] for row in rows)
    finally:
        build_magic_line.cache_clear()
    assert not any("~" in row["image"] for row in json.loads(render.table("sector_maps",
                                                                           "structured")))


def test_each_row_cache_stays_within_its_size():
    for listing in ("hyperplanes", "veldkamp_lines", "sector_maps"):
        render.table(listing, "text")
    for cache in ROW_CACHES:
        info = cache.cache_info()
        assert 1 <= info.currsize <= info.maxsize
