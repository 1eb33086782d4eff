"""ServingConfig, the SessionTier handle, and the deprecation shims.

The api_redesign satellite suite: the typed config surface's validation
and env interaction, the :class:`SessionTier` lifecycle that replaces
the four-call adopt/deploy/undeploy/release dance, and the
``DeprecationWarning`` shims that keep every pre-redesign call site
running while it migrates.
"""

import pytest

from repro.aop import Aspect, around
from repro.baselines import museum_fixture
from repro.hypermedia.errors import NavigationError
from repro.navigation import (
    AudienceBundle,
    AudienceServer,
    BreadcrumbTrail,
    NavigationApp,
    ServingConfig,
    SessionTier,
)
from repro.xmlcore import build

VISITOR = [AudienceBundle("visitor", ("index", "guided-tour"))]


class MarkAspect(Aspect):
    """A session-private extra: appends ``<p class="mark">`` to node pages."""

    @around("execution(PageRenderer.render_node)")
    def mark(self, jp):
        page = jp.proceed()
        page.tree.find("body").append(build("p", {"class": "mark"}))
        return page


@pytest.fixture()
def fixture():
    return museum_fixture()


class TestServingConfig:
    def test_defaults_validate(self):
        config = ServingConfig()
        assert config.session_idle_timeout == 600.0
        assert config.cache_enabled is True

    @pytest.mark.parametrize(
        "changes",
        [
            {"session_idle_timeout": 0.0},
            {"session_idle_timeout": -1.0},
            {"max_sessions": 0},
            {"breadcrumb_limit": 0},
            {"lint": "loud"},
            {"cache_pages": 0},
        ],
    )
    def test_rejects_bad_values(self, changes):
        with pytest.raises(ValueError):
            ServingConfig(**changes)

    def test_none_idle_timeout_disables_eviction(self):
        assert ServingConfig(session_idle_timeout=None).session_idle_timeout is None

    def test_replace_revalidates(self):
        config = ServingConfig()
        assert config.replace(max_sessions=9).max_sessions == 9
        with pytest.raises(ValueError):
            config.replace(max_sessions=-1)

    def test_cache_active_needs_both_switches(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAGE_CACHE", raising=False)
        assert ServingConfig().cache_active()
        assert not ServingConfig(cache_enabled=False).cache_active()
        monkeypatch.setenv("REPRO_PAGE_CACHE", "off")
        assert not ServingConfig().cache_active()

    def test_flows_through_server_and_app(self, fixture):
        config = ServingConfig(breadcrumb_limit=2, max_sessions=7)
        with AudienceServer(fixture, VISITOR, config=config) as server:
            assert server.config is config
            app = NavigationApp(server)
            # The app inherits the server's config when not given one.
            assert app.config is config
            assert app.config.max_sessions == 7
            app.close()


class TestSessionTier:
    def test_context_manager_unwinds_everything(self, fixture):
        with AudienceServer(fixture, VISITOR) as server:
            with server.session_tier("visitor", BreadcrumbTrail(4)) as tier:
                assert isinstance(tier, SessionTier)
                aspect = MarkAspect()
                tier.deploy(aspect)
                assert tier.aspects() == [aspect]
                assert tier.renderer in server.scope("visitor")
                assert tier.renderer in tier.scope
            # Closed: deployment unwound, renderer released.
            assert tier.aspects() == []
            assert tier.renderer not in server.scope("visitor")

    def test_close_is_idempotent_and_blocks_deploys(self, fixture):
        with AudienceServer(fixture, VISITOR) as server:
            tier = server.session_tier("visitor", BreadcrumbTrail(4))
            tier.close()
            tier.close()
            with pytest.raises(NavigationError):
                tier.deploy(MarkAspect())

    def test_undeploy_unwinds_one_aspect_early(self, fixture):
        with AudienceServer(fixture, VISITOR) as server:
            with server.session_tier("visitor", BreadcrumbTrail(4)) as tier:
                first = MarkAspect()
                second = MarkAspect()
                tier.deploy(first)
                tier.deploy(second)
                tier.undeploy(first)
                assert tier.aspects() == [second]

    def test_tier_scoped_aspect_only_advises_this_session(self, fixture):
        with AudienceServer(fixture, VISITOR) as server:
            with (
                server.session_tier("visitor", BreadcrumbTrail(4)) as mine,
                server.session_tier("visitor", BreadcrumbTrail(4)) as theirs,
            ):
                mine.deploy(MarkAspect())
                node = next(iter(mine.renderer.node_inventory()))
                mine_html = mine.renderer.render_node(node).html()
                theirs_html = theirs.renderer.render_node(node).html()
                assert 'class="mark"' in mine_html
                assert 'class="mark"' not in theirs_html


class TestDeprecationShims:
    def test_audience_server_lint_kwarg_warns_and_folds(self, fixture):
        with pytest.warns(DeprecationWarning, match="lint"):
            server = AudienceServer(fixture, VISITOR, lint="warn")
        with server:
            assert server.config.lint == "warn"

    def test_navigation_app_kwargs_warn_and_fold(self, fixture):
        with AudienceServer(fixture, VISITOR) as server:
            with pytest.warns(DeprecationWarning, match="max_sessions"):
                app = NavigationApp(server, max_sessions=3)
            assert app.config.max_sessions == 3
            app.close()
            with pytest.warns(DeprecationWarning, match="breadcrumb_limit"):
                app = NavigationApp(server, breadcrumb_limit=2)
            app.close()
            with pytest.warns(DeprecationWarning, match="session_idle_timeout"):
                app = NavigationApp(server, session_idle_timeout=5.0)
            app.close()

    def test_old_scope_methods_delegate_with_warnings(self, fixture):
        with AudienceServer(fixture, VISITOR) as server:
            with pytest.warns(DeprecationWarning, match="adopt_renderer"):
                renderer = server.adopt_renderer("visitor")
            aspect = MarkAspect()
            with pytest.warns(DeprecationWarning, match="deploy_scoped"):
                server.deploy_scoped(aspect, [renderer], audience="visitor")
            with pytest.warns(DeprecationWarning, match="undeploy_scoped"):
                server.undeploy_scoped(aspect)
            with pytest.warns(DeprecationWarning, match="release_renderer"):
                server.release_renderer("visitor", renderer)
            assert renderer not in server.scope("visitor")
