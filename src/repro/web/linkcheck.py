"""Link checking for generated sites (verifies Fig. 6 navigation).

The paper's claim "whenever it is possible, there is a link connecting
different pieces of information" is testable: every ``href`` and every
``#anchor`` in a generated site must resolve.  :func:`check_site` scans
each HTML page (with the stdlib HTML parser, since the ``html`` output
method legitimately leaves void elements unclosed) and reports dangling
references and orphan pages.

Scanning is the expensive half, and it is per page: the report keeps each
page's anchors and links, so checking the next build of an edited site
rescans only the pages whose text changed.  The cross-page join always
runs in full, so a reusing check and a cold check report the same thing.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from html.parser import HTMLParser
from typing import NamedTuple

from .publisher import PROFILE_PAGE, Site

__all__ = ["LinkReport", "PageScan", "check_site"]


class PageScan(NamedTuple):
    """What one page contributes to the link graph."""

    anchors: frozenset[str]
    links: tuple[str, ...]


@dataclass
class LinkReport:
    """Outcome of checking a site's link graph."""

    #: (page, target) pairs whose target page does not exist.
    broken_pages: list[tuple[str, str]] = field(default_factory=list)
    #: (page, anchor) pairs whose #anchor does not exist on the target.
    broken_anchors: list[tuple[str, str]] = field(default_factory=list)
    #: Pages with no inbound link (excluding index.html).
    orphans: list[str] = field(default_factory=list)
    total_links: int = 0
    #: page → its scan, for reuse by the next check of the same site.
    #: Empty for a report rebuilt from its JSON form (the disk tier).
    scans: dict[str, PageScan] = field(
        default_factory=dict, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        """True when no broken links or anchors were found."""
        return not self.broken_pages and not self.broken_anchors


class _PageScanner(HTMLParser):
    """Collects hrefs and anchors from one page."""

    def __init__(self) -> None:
        super().__init__()
        self.links: list[str] = []
        self.anchors: set[str] = set()

    def handle_starttag(self, tag: str, attrs) -> None:
        attributes = dict(attrs)
        identifier = attributes.get("id")
        if identifier:
            self.anchors.add(identifier)
        if tag == "a":
            anchor = attributes.get("name")
            if anchor:
                self.anchors.add(anchor)
            href = attributes.get("href")
            if href and not href.startswith(
                    ("http:", "https:", "mailto:")) and \
                    not href.endswith(".css"):
                self.links.append(href)


def _scan_page(content: str) -> PageScan:
    scanner = _PageScanner()
    scanner.feed(content)
    return PageScan(frozenset(scanner.anchors), tuple(scanner.links))


def check_site(
        site: Site,
        previous: tuple[Mapping[str, str], LinkReport | None] | None = None,
) -> LinkReport:
    """Check every internal link and anchor of *site*.

    *previous* is an earlier build of the same site as ``(pages,
    report)``: a page whose text equals its text in ``pages`` reuses its
    scan from ``report`` instead of being parsed again.  Pages the report
    has no scan for (a report loaded from disk keeps none) are scanned.
    The result is the same as a check without *previous*.
    """
    old_pages, old_report = previous if previous is not None else ({}, None)
    old_scans = old_report.scans if old_report is not None else {}
    report = LinkReport()
    scans = report.scans
    for name, content in site.pages.items():
        if not name.endswith(".html"):
            continue
        scan = old_scans.get(name)
        if scan is None or old_pages.get(name) != content:
            scan = _scan_page(content)
        scans[name] = scan

    inbound: set[str] = set()
    for page, (_, page_links) in scans.items():
        for href in page_links:
            report.total_links += 1
            target, _, fragment = href.partition("#")
            target_page = target or page
            if target_page not in site.pages:
                report.broken_pages.append((page, href))
                continue
            inbound.add(target_page)
            target_scan = scans.get(target_page)
            if fragment and (target_scan is None
                             or fragment not in target_scan.anchors):
                report.broken_anchors.append((page, href))

    for name in site.pages:
        if name.endswith(".html") and name != "index.html" and \
                name != PROFILE_PAGE and name not in inbound:
            # The profile page is an additive diagnostic emitted while
            # profiling is on; model pages never link to it by design
            # (their bytes are pinned), so it is not an orphan.
            report.orphans.append(name)
    return report
