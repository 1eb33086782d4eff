"""Tests for navigation sessions: the context-dependent semantics of §2."""

import contextlib
import os
import posixpath

import pytest
from hypothesis import given, settings, strategies as st

from repro.aop import InstanceScope, WeaverRuntime
from repro.baselines import museum_fixture
from repro.core import PageRenderer
from repro.navigation import (
    BreadcrumbAspect,
    BreadcrumbTrail,
    NavigationError,
    NavigationSession,
    SessionRecord,
)
from repro.navigation import session as session_module
from repro.navigation.session import breadcrumb_fragment, breadcrumb_nav
from repro.web import html as html_module
from repro.web import site_relpath
from repro.xmlcore import serialize


@pytest.fixture()
def fixture():
    return museum_fixture()


@pytest.fixture()
def contexts(fixture):
    return fixture.contexts()


class TestVisiting:
    def test_visit_without_context(self, fixture):
        session = NavigationSession(fixture.nav)
        position = session.visit(fixture.painting_node("guitar"))
        assert position.context is None
        assert session.current_node.node_id == "guitar"

    def test_visit_with_context_requires_membership(self, fixture, contexts):
        session = NavigationSession(fixture.nav)
        with pytest.raises(NavigationError):
            session.visit(
                fixture.painting_node("memory"), contexts["by-painter:picasso"]
            )

    def test_enter_context_defaults_to_first_member(self, fixture, contexts):
        session = NavigationSession(fixture.nav)
        session.enter_context(contexts["by-painter:picasso"])
        assert session.current_node.node_id == "avignon"


class TestContextDependentMovement:
    def test_next_depends_on_arrival_context(self, fixture, contexts):
        """The museum story: Guitar's Next differs by how you arrived."""
        guitar = fixture.painting_node("guitar")

        via_author = NavigationSession(fixture.nav)
        via_author.visit(guitar, contexts["by-painter:picasso"])
        assert via_author.next().node.node_id == "guernica"

        via_movement = NavigationSession(fixture.nav)
        via_movement.visit(guitar, contexts["by-movement:cubism"])
        assert via_movement.next().node.node_id == "clarinet"

    def test_next_stays_in_context(self, fixture, contexts):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painting_node("guitar"), contexts["by-painter:picasso"])
        session.next()
        assert session.current_context.name == "by-painter:picasso"

    def test_previous(self, fixture, contexts):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painting_node("guitar"), contexts["by-painter:picasso"])
        assert session.previous().node.node_id == "avignon"

    def test_next_at_end_raises(self, fixture, contexts):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painting_node("guernica"), contexts["by-painter:picasso"])
        with pytest.raises(NavigationError):
            session.next()

    def test_next_without_context_raises(self, fixture):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painting_node("guitar"))
        with pytest.raises(NavigationError) as info:
            session.next()
        assert "context" in str(info.value)


class TestFollowingLinks:
    def test_follow_unique_link(self, fixture):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painting_node("guitar"))
        position = session.follow("painted_by")
        assert position.node.node_id == "picasso"
        assert position.context is None  # leaving a context

    def test_follow_ambiguous_link_requires_choice(self, fixture):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painter_node("picasso"))
        with pytest.raises(NavigationError) as info:
            session.follow("paints")
        assert "guernica" in str(info.value)

    def test_follow_with_target_selection(self, fixture):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painter_node("picasso"))
        assert session.follow("paints", to="guitar").node.node_id == "guitar"

    def test_follow_missing_link_raises(self, fixture):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painter_node("picasso"))
        with pytest.raises(NavigationError):
            session.follow("paints", to="memory")  # Dali's, not Picasso's

    def test_follow_drops_context(self, fixture, contexts):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painting_node("guitar"), contexts["by-painter:picasso"])
        session.follow("painted_by")
        assert session.current_context is None

    def test_follow_without_schema_raises(self, fixture):
        session = NavigationSession()  # no schema
        session.visit(fixture.painting_node("guitar"))
        with pytest.raises(NavigationError):
            session.follow("painted_by")


class TestHistoryIntegration:
    def test_back_restores_node_and_context(self, fixture, contexts):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painting_node("guitar"), contexts["by-painter:picasso"])
        session.next()
        position = session.back()
        assert position.node.node_id == "guitar"
        assert position.context.name == "by-painter:picasso"
        # next() works again from the restored context.
        assert session.next().node.node_id == "guernica"

    def test_trail_describes_walk(self, fixture, contexts):
        session = NavigationSession(fixture.nav)
        session.visit(fixture.painting_node("guitar"), contexts["by-painter:picasso"])
        session.next()
        trail = session.trail()
        assert len(trail) == 2
        assert "guitar" in trail[0] and "by-painter:picasso" in trail[0]


class TestSessionRecord:
    """The portable snapshot: plain data, strict validation, JSON-stable."""

    def test_json_round_trip_is_exact(self):
        record = SessionRecord(
            sid="alice",
            audience="visitor",
            trail=(("a.html", "A"), ("b.html", "B")),
            last_seen=12.5,
            requests=3,
        )
        assert SessionRecord.from_json(record.to_json()) == record

    def test_trail_normalizes_to_string_pairs(self):
        record = SessionRecord(
            sid="s", audience="visitor", trail=[["a.html", "A"]]
        )
        assert record.trail == (("a.html", "A"),)

    def test_empty_identity_is_rejected(self):
        with pytest.raises(ValueError):
            SessionRecord(sid="", audience="visitor")
        with pytest.raises(ValueError):
            SessionRecord(sid="s", audience="")

    def test_from_dict_validates_shape(self):
        with pytest.raises(ValueError, match="mapping"):
            SessionRecord.from_dict(["not", "a", "mapping"])
        with pytest.raises(ValueError, match="audience"):
            SessionRecord.from_dict({"sid": "s"})
        with pytest.raises(ValueError, match="pairs"):
            SessionRecord.from_dict(
                {"sid": "s", "audience": "visitor", "trail": [["lonely"]]}
            )

    def test_bookkeeping_defaults_are_optional_in_payloads(self):
        record = SessionRecord.from_dict({"sid": "s", "audience": "visitor"})
        assert record.trail == ()
        assert record.last_seen == 0.0
        assert record.requests == 0


class TestTrailRestore:
    def test_restore_replaces_the_trail_exactly(self):
        trail = BreadcrumbTrail(8)
        trail.push("old.html", "Old")
        trail.restore([("a.html", "A"), ("b.html", "B")])
        assert trail.entries() == [("a.html", "A"), ("b.html", "B")]

    def test_restore_truncates_from_the_old_end(self):
        trail = BreadcrumbTrail(2)
        trail.restore([("a", "A"), ("b", "B"), ("c", "C")])
        # Same convergence record() would reach: the oldest entries drop.
        assert trail.paths() == ["b", "c"]

    def test_round_trip_through_a_record_is_lossless(self):
        source = BreadcrumbTrail(8)
        for path in ("a", "b", "c"):
            source.push(path, path.upper())
        record = SessionRecord(
            sid="s", audience="visitor", trail=tuple(source.entries())
        )
        target = BreadcrumbTrail(8)
        target.restore(SessionRecord.from_json(record.to_json()).trail)
        assert target.entries() == source.entries()


class TestPerReceiverBreadcrumbs:
    """One breadcrumb deployment, each receiver stamped with its own trail."""

    def test_each_receiver_records_into_its_own_trail(self, fixture):
        aspect = BreadcrumbAspect()
        mine, theirs, stranger = (PageRenderer(fixture) for _ in range(3))
        trails = {"mine": BreadcrumbTrail(4), "theirs": BreadcrumbTrail(4)}
        aspect.register(mine, trails["mine"])
        aspect.register(theirs, trails["theirs"])
        scope = InstanceScope([mine, theirs, stranger])
        node = fixture.painting_node("guitar")
        with WeaverRuntime("trails").weave(PageRenderer, aspect, instances=scope):
            mine.render_home()
            page = mine.render_node(node).html()
            theirs.render_node(node)
            # A scope member with no registered trail renders unstamped.
            plain = stranger.render_home().html()
            stranger.render_node(node)
        assert 'class="breadcrumbs"' in page
        assert 'class="breadcrumbs"' not in plain
        assert trails["mine"].paths() == ["index.html", node.uri]
        assert trails["theirs"].paths() == [node.uri]
        assert aspect.trail_for(stranger) is None

    def test_unregister_forgets_the_receiver(self, fixture):
        aspect = BreadcrumbAspect()
        renderer = PageRenderer(fixture)
        trail = BreadcrumbTrail(4)
        aspect.register(renderer, trail)
        assert aspect.trail_for(renderer) is trail
        aspect.unregister(renderer)
        aspect.unregister(renderer)  # idempotent
        assert aspect.trail_for(renderer) is None


# -- the cache-hit trail fragment ---------------------------------------------

_SEGMENTS = st.sampled_from(
    ["PaintingNode", "rooms", "a", "b.c", "déjà", "x y", "R&D", 'say"<hi>\t']
)
_FILES = st.sampled_from(["index.html", "guitar.html", "a.html", "é.html"])


@st.composite
def _site_paths(draw):
    """Site-relative page paths: at the root or up to three levels deep."""
    directories = draw(st.lists(_SEGMENTS, max_size=3))
    return "/".join([*directories, draw(_FILES)])


# Markup-significant characters, whitespace the attribute escaper encodes,
# non-ASCII text and the empty title.
_TITLES = st.text(
    alphabet=st.one_of(
        st.sampled_from(list('&<>"\t\n\r\'')), st.characters(), st.just("é")
    ),
    max_size=12,
)


class TestBreadcrumbFragment:
    """The cache-hit fragment is the trail ``<nav>`` serialized, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(
        path=_site_paths(),
        crumbs=st.lists(st.tuples(_site_paths(), _TITLES), max_size=6),
    )
    def test_fragment_is_the_serialized_nav(self, path, crumbs):
        nav = breadcrumb_nav(crumbs, path)
        expected = "" if nav is None else serialize(nav)
        assert breadcrumb_fragment(crumbs, path) == expected
        # A second call answers from the memo, with the same bytes.
        assert breadcrumb_fragment(crumbs, path) == expected

    @pytest.mark.parametrize(
        "path, crumb, href",
        [
            ("index.html", "PaintingNode/guitar.html", "PaintingNode/guitar.html"),
            ("PaintingNode/guitar.html", "index.html", "../index.html"),
            ("PaintingNode/guitar.html", "PaintingNode/violin.html", "violin.html"),
            ("PaintingNode/guitar.html", "rooms/a/b.html", "../rooms/a/b.html"),
            ("a/b/c.html", "a/d.html", "../d.html"),
        ],
    )
    def test_hrefs_above_below_and_beside_the_page(self, path, crumb, href):
        fragment = breadcrumb_fragment([(crumb, "T & <U>")], path)
        assert fragment == (
            '<nav class="breadcrumbs"><ul><li>'
            f'<a href="{href}" rel="breadcrumb">T &amp; &lt;U&gt;</a>'
            "</li></ul></nav>"
        )

    def test_memos_are_bounded(self):
        """Long-tail or hostile traffic cannot grow the memos past a fixed size."""
        memos = (
            (session_module._crumb_markup, session_module.CRUMB_MEMO_SIZE),
            (site_relpath, html_module.RELPATH_MEMO_SIZE),
        )
        for memo, size in memos:
            assert memo.cache_info().maxsize == size
        flood = session_module.CRUMB_MEMO_SIZE + html_module.RELPATH_MEMO_SIZE
        for i in range(flood):
            breadcrumb_fragment([(f"hostile/{i}.html", f"t{i}")], "x/page.html")
        for memo, size in memos:
            assert memo.cache_info().currsize <= size


_REL_PARTS = st.sampled_from(["a", "b", ".", "..", "", "c.html"])


@st.composite
def _any_paths(draw):
    """Relative, rooted, ``.``/``..``-laden and empty-segment paths."""
    path = "/".join(draw(st.lists(_REL_PARTS, min_size=1, max_size=4)))
    return draw(st.sampled_from(["", "/"])) + path


@contextlib.contextmanager
def _cwd(directory):
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


class TestSiteRelpath:
    """``site_relpath`` is ``posixpath.relpath`` resolved at the site root."""

    @settings(max_examples=300, deadline=None)
    @given(path=_any_paths(), start=_any_paths())
    def test_is_relpath_from_the_root_whatever_the_cwd(self, path, start):
        # This file's directory: at least two levels deep, so ``..``
        # resolves differently there than at the root.
        deep = os.path.dirname(os.path.abspath(__file__))
        with _cwd("/"):
            try:
                expected = posixpath.relpath(path, start)
            except ValueError:
                expected = ValueError
        # Answer in the deep directory first, from an empty memo: a memo
        # of plain ``relpath`` would then keep that directory's answer.
        site_relpath.cache_clear()
        for cwd in (deep, "/"):
            with _cwd(cwd):
                if expected is ValueError:
                    with pytest.raises(ValueError):
                        site_relpath(path, start)
                else:
                    assert site_relpath(path, start) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        path=_site_paths(), start=st.lists(_SEGMENTS, max_size=3).map("/".join)
    )
    def test_agrees_with_relpath_inside_the_site(self, path, start):
        """Site paths never climb, so any working directory gives this answer."""
        assert site_relpath(path, start or ".") == posixpath.relpath(
            path, start or "."
        )
