"""Link checks that reuse the previous build's per-page scans.

Along an edit chain, ``check_site(site, previous)`` must report exactly
what a cold ``check_site(site)`` reports, while rescanning only the pages
whose text changed.  A report loaded from the disk tier keeps no scans,
so a check against it rescans every page.
"""

from __future__ import annotations

import random

import pytest

from repro.mdm import model_to_xml, sales_model
from repro.server.buildstore import BuildStore
from repro.server.cache import SiteEntry, page_etag
from repro.server.store import ModelRecord
from repro.testkit.generators import apply_model_edit, random_model_edit_script
from repro.web import Site, check_site, linkcheck, publish_multi_page

FIELDS = ("broken_pages", "broken_anchors", "orphans", "total_links")


@pytest.fixture
def scan_count(monkeypatch):
    """Counts the pages each check actually scans."""
    calls = []
    real = linkcheck._scan_page

    def counting(content):
        calls.append(content)
        return real(content)

    monkeypatch.setattr(linkcheck, "_scan_page", counting)
    return calls


def _html(site: Site) -> list[str]:
    return [name for name in site.pages if name.endswith(".html")]


def _changed(old: Site, new: Site) -> int:
    return sum(1 for name in _html(new)
               if old.pages.get(name) != new.pages[name])


def check_step(old: Site, old_report, new: Site, scan_count,
               *, rescans: int | None = None):
    """Check *new* reusing *old*; assert it equals a cold check."""
    scan_count.clear()
    reused = check_site(new, previous=(old.pages, old_report))
    expected = _changed(old, new) if rescans is None else rescans
    assert len(scan_count) == expected
    cold = check_site(new)
    for name in FIELDS:
        assert getattr(reused, name) == getattr(cold, name), name
    assert set(reused.scans) == set(_html(new))
    return reused


def _edited(site: Site, page: str, text: str) -> Site:
    return Site(pages={**site.pages, page: text}, messages=site.messages)


def test_page_edits_along_a_chain(scan_count):
    site = publish_multi_page(sales_model())
    report = check_site(site)
    assert report.ok
    pages = sorted(name for name in _html(site) if name != "index.html")
    first, second = pages[0], pages[1]

    # Two pages change: one gains an anchor, the other a link to it.
    anchored = _edited(site, second, site.pages[second].replace(
        "</body>", '<h2 id="sec">s</h2></body>'))
    anchored = _edited(anchored, first, anchored.pages[first].replace(
        "</body>", f'<a href="{second}#sec">s</a></body>'))
    report = check_step(site, report, anchored, scan_count, rescans=2)
    assert report.ok

    # An edit that adds a dangling href.
    dangling = _edited(anchored, first, anchored.pages[first].replace(
        "</body>", '<a href="ghost.html">x</a></body>'))
    report = check_step(anchored, report, dangling, scan_count)
    assert report.broken_pages == [(first, "ghost.html")]

    # An edit that removes an anchor another page links to: only the
    # target page is rescanned, yet the linking page's href breaks.
    no_anchor = _edited(dangling, second, site.pages[second])
    report = check_step(dangling, report, no_anchor, scan_count, rescans=1)
    assert report.broken_anchors == [(first, f"{second}#sec")]

    # An edit that removes a page: its inbound links break, no rescan.
    removed = Site(pages={name: text for name, text in no_anchor.pages.items()
                          if name != second}, messages=no_anchor.messages)
    report = check_step(no_anchor, report, removed, scan_count, rescans=0)
    assert (first, f"{second}#sec") in report.broken_pages

    # Undoing everything restores the clean report.
    report = check_step(removed, report, site, scan_count)
    assert report.ok


def test_model_edit_chain(scan_count):
    model = sales_model()
    site = publish_multi_page(model)
    report = check_site(site)
    for op in random_model_edit_script(random.Random(3), 8):
        model, _what = apply_model_edit(model, op)
        edited = publish_multi_page(model)
        report = check_step(site, report, edited, scan_count)
        site = edited


def test_disk_tier_report_falls_back_to_a_full_scan(tmp_path, scan_count):
    site = publish_multi_page(sales_model())
    xml = model_to_xml(sales_model()).encode("utf-8")
    record = ModelRecord(name="sales", xml_bytes=xml,
                         content_hash="0" * 64, model=sales_model())
    pages = {name: text.encode("utf-8") for name, text in site.pages.items()}
    store = BuildStore(str(tmp_path))
    store.store_site(SiteEntry(
        name="sales", variant="multi", content_hash=record.content_hash,
        revision=1, pages=pages,
        etags={name: page_etag(data) for name, data in pages.items()},
        link_report=check_site(site), messages=site.messages))
    loaded = store.load_site(record, "multi").link_report
    assert loaded.scans == {}

    first = sorted(_html(site))[0]
    edited = _edited(site, first, site.pages[first].replace(
        "</body>", '<a href="ghost.html">x</a></body>'))
    report = check_step(site, loaded, edited, scan_count,
                        rescans=len(_html(edited)))
    assert (first, "ghost.html") in report.broken_pages
