"""A small HTML document model on top of the XML substrate.

Pages are well-formed XHTML trees (:class:`repro.xmlcore.Element`), so the
same parser, serializer and differ work on data documents and rendered
pages alike.  The helpers here keep page construction readable and put
navigation anchors in one canonical shape: ``<a href rel>``.
"""

from __future__ import annotations

import functools
import posixpath
from dataclasses import dataclass

from repro.hypermedia.access import Anchor
from repro.xmlcore import Element, build, comment, qname, serialize

#: Class attribute marking the per-session breadcrumb trail ``<nav>`` — the
#: only session-variant region of a rendered page (everything else is
#: deterministic for a fixed audience, page and deployment state).
TRAIL_NAV_CLASS = "breadcrumbs"

#: The placeholder the skeleton serializer emits where the trail block
#: sat.  :func:`compose_page` splices a per-request fragment over it.
TRAIL_SLOT = "<!--repro:trail-->"

_CLASS_ATTR = qname("class")

#: Entries kept by :func:`site_relpath`'s memo.  Fixed, so long-tail or
#: hostile traffic (every request naming a new page) cannot grow the
#: process: the least recently used pairs are dropped.  An entry costs
#: ~0.3 KB; a long-tail catalog that cycles through more pairs than this
#: loses no measurable throughput to the misses.
RELPATH_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=RELPATH_MEMO_SIZE)
def site_relpath(path: str, start: str) -> str:
    """The href from site directory *start* to site path *path*, memoized.

    ``posixpath.relpath`` resolved at the site root instead of the
    process's working directory: the same answer for every path that
    stays inside the site, and for ``..`` or rooted paths one that no
    longer depends on where the server was started.  The answer is then
    a function of the arguments alone, so a bounded LRU memoizes it —
    ``relpath`` calls ``abspath`` and ``os.getcwd()`` twice per call,
    most of an href's cost on a hot render path.
    """
    if not path:
        raise ValueError("no path specified")
    return posixpath.relpath(posixpath.join("/", path), posixpath.join("/", start))


def page_skeleton(title: str) -> tuple[Element, Element]:
    """An ``<html>`` scaffold; returns ``(html, body)``."""
    body = build("body", {})
    html = build(
        "html",
        {},
        build("head", {}, build("title", {}, title)),
        body,
    )
    return html, body


def heading(level: int, text: str) -> Element:
    return build(f"h{level}", {}, text)


def paragraph(*children: Element | str) -> Element:
    return build("p", {}, *children)


def image(src: str, alt: str) -> Element:
    return build("img", {"src": src, "alt": alt})


def anchor_element(anchor: Anchor) -> Element:
    """Render an :class:`~repro.hypermedia.access.Anchor` as ``<a>``."""
    return build("a", {"href": anchor.href, "rel": anchor.rel}, anchor.label)


def anchor_list(anchors: list[Anchor]) -> Element:
    """A ``<ul>`` of anchors — the index listings of Figures 3–4."""
    items = [build("li", {}, anchor_element(a)) for a in anchors]
    return build("ul", {}, *items)


def nav_block(anchors: list[Anchor]) -> Element:
    """The navigation region of a page: one ``<nav>`` with all anchors.

    Keeping every navigational element inside a single ``<nav>`` is what
    lets the weaving pipeline add or replace navigation without touching
    the content region — the separation the paper is after.
    """
    children: list[Element] = []
    steps = [a for a in anchors if a.rel in ("prev", "next")]
    entries = [a for a in anchors if a not in steps]
    if entries:
        children.append(anchor_list(entries))
    for step in steps:
        children.append(paragraph(anchor_element(step)))
    return build("nav", {}, *children)


def compose_page(skeleton: str, fragment: str) -> str:
    """Splice a per-request trail *fragment* into a cached *skeleton*.

    The inverse of :meth:`HtmlPage.skeleton_html`: the skeleton's
    :data:`TRAIL_SLOT` is replaced by the fragment (or removed when the
    request has no trail to show).  Plain string surgery: the fragment
    comes from :func:`repro.navigation.session.breadcrumb_fragment`,
    which joins memoized crumb markup, so a cache hit builds no DOM and
    serializes nothing.
    """
    return skeleton.replace(TRAIL_SLOT, fragment, 1)


@dataclass(frozen=True)
class HtmlPage:
    """One built page: a site-relative path plus its XHTML tree."""

    path: str
    tree: Element

    @property
    def title(self) -> str:
        title_el = self.tree.find("title")
        return title_el.text_content() if title_el is not None else ""

    def html(self, *, indent: str | None = "  ") -> str:
        return serialize(self.tree, indent=indent)

    def anchors(self) -> list[Anchor]:
        """All anchors in the page, in document order."""
        return [
            Anchor(
                label=a.text_content(),
                href=a.get("href") or "",
                rel=a.get("rel") or "link",
            )
            for a in self.tree.findall("a")
        ]

    def skeleton_html(self, *, indent: str | None = "  ") -> tuple[str, str]:
        """Serialize this page split into ``(skeleton, trail_fragment)``.

        The skeleton is the full page with the session-variant trail
        block (the ``<nav class="breadcrumbs">`` child of ``<body>``, if
        any — the breadcrumb aspect appends it there) lifted out and
        :data:`TRAIL_SLOT` emitted in its place — at the end of ``<body>``
        when the page carries no trail, so a cached skeleton always has a
        splice point.  The fragment is the lifted trail serialized
        compactly (``""`` when absent).  ``compose_page(skeleton,
        fragment)`` reassembles the page; the tree is restored before
        returning, so splitting never mutates the page for later readers.
        """
        body = self.tree.find("body")
        if body is None:
            return serialize(self.tree, indent=indent), ""
        children = body.children
        slot_index = next(
            (
                i
                for i, child in enumerate(children)
                if isinstance(child, Element)
                and child.name.local == "nav"
                and child.get(_CLASS_ATTR) == TRAIL_NAV_CLASS
            ),
            None,
        )
        if slot_index is None:
            trail = None
            slot_index = len(children)
            fragment = ""
        else:
            trail = children[slot_index]
            body.remove(trail)
            fragment = serialize(trail)
        slot = comment("repro:trail")
        body.insert(slot_index, slot)
        try:
            skeleton = serialize(self.tree, indent=indent)
        finally:
            body.remove(slot)
            if trail is not None:
                body.insert(slot_index, trail)
        return skeleton, fragment

    def content_region(self) -> Element | None:
        """The page body minus its ``<nav>`` blocks (for content diffs)."""
        body = self.tree.find("body")
        if body is None:
            return None
        from repro.xmlcore import deep_copy

        clone = deep_copy(body)
        for nav in list(clone.findall("nav")):
            nav.detach()
        return clone
