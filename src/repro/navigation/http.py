"""An HTTP serving front over :class:`~repro.navigation.serving.AudienceServer`.

The ROADMAP's production rung: the live multi-audience process behind a
real (threaded WSGI) HTTP server.  ``GET /{audience}/{page_uri}`` renders
the page through that audience's instance-scoped navigation stack — one
woven renderer class, every audience's stack live simultaneously — and
every *session* is a member of two persistent scopes, never a deployment
of its own:

- the session's private renderer instance is adopted into the audience's
  :class:`~repro.aop.InstanceScope`, so it rides the audience's
  navigation (and any live ``reconfigure`` of it);
- it also joins the server's session scope, over which one
  :class:`~repro.navigation.session.BreadcrumbAspect` deployment —
  woven once, when the server is built, above every audience stack —
  stamps each page with the *receiver's own* registered
  :class:`~repro.navigation.session.BreadcrumbTrail`, so two users of
  one audience each see only their own footsteps;
- sessions idle past the timeout are evicted: the renderer leaves both
  scopes (its marker stamps stripped, back to plain rendering) and its
  trail is unregistered.

Opening and evicting a session therefore never deploys, undeploys or
moves the weave epoch: its cost is a renderer instance and two scope
insertions, however many sessions are live.

Sessions are identified by the ``repro_session`` cookie (minted on the
first response) or an explicit ``X-Repro-Session`` request header.

The management surface lives under ``/-/``:

- ``GET /-/stats`` — scope-aware :meth:`~repro.aop.WeaverRuntime.stats`
  (dispatch tiers, join point pools, codegen counters) plus per-audience
  scope sizes and live session counts, as JSON;
- ``POST /-/reconfigure/{audience}`` — swap one audience's stack while
  requests are in flight (body: comma-separated access-structure names,
  or JSON ``{"access_structures": [...]}``); every other audience's — and
  every live session's trail — next response is unchanged.

Run it::

    python -m repro.tools serve --audiences visitor,curator --port 8000

or embed it: :class:`NavigationApp` is a plain WSGI callable, and
:func:`make_wsgi_server` binds it under a threaded ``wsgiref`` server
(one OS thread per in-flight request — genuine request concurrency over
the instance-scope dispatchers and join point pools).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import uuid
from collections import OrderedDict, deque
from dataclasses import dataclass
from socketserver import ThreadingMixIn
from typing import Any, Callable, Iterable, Mapping
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from repro.web import compose_page

from .audience import DEFAULT_AUDIENCES, AudienceBundle
from .cache import CachedSkeleton
from .config import ServingConfig
from .errors import NavigationError
from .serving import (
    _UNSET,
    AudienceServer,
    SessionTier,
    _deprecated,
    build_node_map,
    resolve_page_target,
)
from .session import BreadcrumbTrail, SessionRecord, breadcrumb_fragment

#: The session cookie the app mints on a cookieless request.
SESSION_COOKIE = "repro_session"

#: Request header overriding the cookie (handy for scripted clients).
SESSION_HEADER = "HTTP_X_REPRO_SESSION"

#: Request header controlling the page cache; send ``bypass`` to force a
#: full render through the session's own woven renderer.  Responses echo
#: the cache outcome in the same header: ``hit``, ``miss``, ``bypass``
#: or ``off``.
CACHE_HEADER = "HTTP_X_REPRO_CACHE"


class SessionCapacityError(RuntimeError):
    """No capacity for another session scope (served as ``503``)."""


def quantile(sorted_values: "list[float]", q: float) -> float:
    """The *q*-quantile of pre-sorted *sorted_values* (nearest-rank).

    ``0.0`` on an empty list — callers report latency summaries for
    windows that may not have seen a request yet.
    """
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q * len(sorted_values)) - 1))
    return sorted_values[rank]


class LatencyWindow:
    """A bounded rolling window of request latencies, in microseconds.

    One per audience on the serving app: every successful page response
    records its service time, and :meth:`summary` folds the window into
    the ``count``/``p50``/``p99`` triple ``/-/stats`` publishes — so a
    load harness reads its results from the management surface instead of
    scraping stdout.  The count is lifetime (monotonic); the percentiles
    cover the last *size* requests.  Mutations are lock-serialized:
    renders run concurrently across server threads.
    """

    def __init__(self, size: int = 512):
        if size < 1:
            raise ValueError("latency window size must be >= 1")
        self._lock = threading.Lock()
        self._window: deque[float] = deque(maxlen=size)
        self._count = 0

    def record(self, elapsed_us: float) -> None:
        with self._lock:
            self._window.append(elapsed_us)
            self._count += 1

    def summary(self) -> dict[str, float]:
        with self._lock:
            count = self._count
            window = sorted(self._window)
        return {
            "count": count,
            "window": len(window),
            "p50_us": round(quantile(window, 0.50), 1),
            "p99_us": round(quantile(window, 0.99), 1),
        }


class _MethodNotAllowed(Exception):
    """Wrong HTTP method for a known route (served as ``405`` + Allow)."""

    def __init__(self, method: str, allowed: str):
        super().__init__(f"method {method} not allowed here (use {allowed})")
        self.allowed = allowed


@dataclass
class ServingSession:
    """One authenticated session's scope tier, held by the app."""

    sid: str
    audience: str
    #: The session's scope tier handle (renderer, trail, scope memberships).
    tier: SessionTier
    #: Last request time, by the app's clock; eviction compares this.
    last_seen: float
    #: Pages served to this session (observability for ``/-/stats``).
    requests: int = 0

    @property
    def renderer(self) -> Any:
        """The session's private renderer (a member of the audience scope)."""
        return self.tier.renderer

    @property
    def trail(self) -> BreadcrumbTrail:
        """The session's breadcrumb trail (registered with the server)."""
        return self.tier.trail


class NavigationApp:
    """A WSGI application serving every audience — and every user — live.

    One :class:`~repro.navigation.serving.AudienceServer` underneath; the
    app adds the HTTP routing and the per-session scope tier.  Renders
    are lock-free and run concurrently across server threads; session
    bookkeeping (open/evict) and weave mutations are serialized by the
    app's lock over the server's.

    Session policy comes from a :class:`~repro.navigation.config.
    ServingConfig` (default: the server's own): ``session_idle_timeout``
    seconds without a request evicts a session (checked opportunistically
    on every request, or explicitly via :meth:`evict_idle`);
    ``max_sessions`` bounds the live scope tier — every session costs a
    renderer instance plus its trail, so a client that never replays its
    cookie must not grow the process without limit; at the cap
    (after evicting every idle session) new sessions are refused with
    ``503``.  The old per-knob keyword arguments still work as
    deprecated shims.  ``clock`` is injectable for tests.

    When the server's page-cache tier is on, ``GET`` responses assemble
    from a cached audience-level skeleton plus the session's breadcrumb
    fragment (see :mod:`repro.navigation.cache`), which
    :func:`~repro.navigation.session.breadcrumb_fragment` joins from
    memoized crumb markup — a hit builds no DOM and serializes nothing.
    The ``X-Repro-Cache`` response header reports ``hit``/``miss``/
    ``bypass``/``off``, and sending ``X-Repro-Cache: bypass`` forces a
    full render through the session's own woven renderer.
    """

    def __init__(
        self,
        server: AudienceServer,
        config: ServingConfig | None = None,
        *,
        session_idle_timeout: Any = _UNSET,
        max_sessions: Any = _UNSET,
        breadcrumb_limit: Any = _UNSET,
        clock: Callable[[], float] = time.monotonic,
    ):
        from repro.core import PageRenderer

        self._server = server
        if config is None:
            config = server.config
        for name, value in (
            ("session_idle_timeout", session_idle_timeout),
            ("max_sessions", max_sessions),
            ("breadcrumb_limit", breadcrumb_limit),
        ):
            if value is not _UNSET:
                _deprecated(
                    f"NavigationApp({name}=...)",
                    f"NavigationApp(config=ServingConfig({name}=...))",
                )
                config = config.replace(**{name: value})
        self._config = config
        self._idle_timeout = config.session_idle_timeout
        self._max_sessions = config.max_sessions
        self._breadcrumb_limit = config.breadcrumb_limit
        self._clock = clock
        self._lock = threading.Lock()
        #: Live sessions, least recently touched first: every touch
        #: (request, restore) moves its session to the end, so idle
        #: eviction stops at the first session that is still fresh.
        self._sessions: OrderedDict[tuple[str, str], ServingSession] = (
            OrderedDict()
        )
        self._evicted_total = 0
        #: Pages served by sessions since evicted (live counts add to it).
        self._served_by_evicted = 0
        self._sid_counter = itertools.count(1)
        # Per-audience request counters and rolling latency windows; the
        # /-/stats latency summary the load harness reads comes from here.
        self._latency: dict[str, LatencyWindow] = {
            audience: LatencyWindow() for audience in server.audiences()
        }
        # Normalized URI -> node: fixture-level, identical for every
        # renderer instance, so one inventory pass serves all sessions.
        self._nodes = build_node_map(PageRenderer(server.fixture))

    @property
    def config(self) -> ServingConfig:
        """The effective serving configuration (shims already folded in)."""
        return self._config

    # -- the WSGI surface ------------------------------------------------------

    def __call__(self, environ, start_response) -> list[bytes]:
        status, headers, body = self.respond(environ)
        start_response(status, headers)
        return [body]

    def respond(self, environ) -> tuple[str, list[tuple[str, str]], bytes]:
        """The transport-neutral request surface: environ in, response out.

        Takes a WSGI-shaped environ dict and returns the complete
        ``(status, headers, body)`` triple with the routing errors already
        mapped to their HTTP statuses.  Both fronts route through here —
        :meth:`__call__` adds the WSGI calling convention on top, and the
        ASGI front (:mod:`repro.navigation.asgi`) runs it on a worker
        thread under its event loop — so the two cannot drift apart.
        """
        try:
            return self._route(environ)
        except NavigationError as exc:
            return _text_response("404 Not Found", str(exc))
        except SessionCapacityError as exc:
            return _text_response("503 Service Unavailable", str(exc))
        except _MethodNotAllowed as exc:
            status, headers, body = _text_response(
                "405 Method Not Allowed", str(exc)
            )
            headers.append(("Allow", exc.allowed))
            return status, headers, body

    def _route(self, environ) -> tuple[str, list[tuple[str, str]], bytes]:
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/") or "/"
        if path == "/":
            return self._front_door(method)
        if path == "/-/stats":
            _require_method(method, "GET")
            return _json_response("200 OK", self.stats())
        if path == "/-/sessions":
            _require_method(method, "GET")
            return _json_response(
                "200 OK",
                {
                    "sessions": [
                        record.to_dict() for record in self.snapshot_sessions()
                    ]
                },
            )
        if path == "/-/sessions/restore":
            _require_method(method, "POST")
            return self._restore_sessions(environ)
        if path.startswith("/-/reconfigure/"):
            _require_method(method, "POST")
            return self._reconfigure(environ, path[len("/-/reconfigure/") :])
        if path.startswith("/-/"):
            raise NavigationError(f"no management endpoint at {path!r}")
        audience, _, page_uri = path.lstrip("/").partition("/")
        # Existence before method: 405 asserts the resource exists, so a
        # POST to an unknown audience must 404 like its GET would.
        self._require_audience(audience)
        _require_method(method, "GET")
        return self._page(environ, audience, page_uri)

    def _front_door(self, method: str):
        _require_method(method, "GET")
        lines = ["<html><head><title>Audiences</title></head><body><ul>"]
        for audience in self._server.audiences():
            stack = "+".join(self._server.bundle(audience).access_structures)
            lines.append(
                f'<li><a href="/{audience}/index.html">{audience}</a>'
                f" ({stack})</li>"
            )
        lines.append("</ul></body></html>")
        body = "\n".join(lines).encode("utf-8")
        return "200 OK", _html_headers(body), body

    def _require_audience(self, audience: str) -> None:
        if audience not in self._server.audiences():
            raise NavigationError(
                f"no audience {audience!r} "
                f"(serving: {', '.join(self._server.audiences()) or 'none'})"
            )

    def _page(self, environ, audience: str, page_uri: str):
        started = time.perf_counter()
        # Resolve the page *before* touching the session tier: a request
        # that will 404 must not cost a renderer + scope memberships.
        normalized, node = resolve_page_target(self._nodes, page_uri)
        session, minted = self._session_for(environ, audience)
        bypass = environ.get(CACHE_HEADER, "").strip().lower() == "bypass"
        cache = None if bypass else self._server.page_cache(audience)
        if cache is None:
            # Full render through the session's own woven renderer: the
            # audience stack *and* the trail deployment both fire.  The
            # page is laid out exactly as a cached one — skeleton plus
            # compact trail fragment — so hit, miss, bypass and off
            # serve the same bytes for the same trail.
            if node is None:
                page = session.renderer.render_home()
            else:
                page = session.renderer.render_node(node)
            skeleton, fragment = page.skeleton_html()
            outcome = "bypass" if bypass else "off"
        else:
            # Cached path: the skeleton is audience-level (rendered
            # through the audience's shared renderer, which no session
            # scope advises — nothing session-variant can leak into it)
            # and the trail block is assembled per request from the
            # session's trail, then spliced over the skeleton's slot.
            # The epoch is snapshotted *before* the render: a weave
            # mutation landing mid-render moves the audience to a newer
            # epoch, so the skeleton we install stays keyed under the
            # superseded one and no later request can hit it.
            epoch = self._server.weave_epoch(audience)
            entry = cache.get(normalized, epoch)
            if entry is None:
                outcome = "miss"
                renderer = self._server.renderer(audience)
                if node is None:
                    page = renderer.render_home()
                else:
                    page = renderer.render_node(node)
                skeleton, _ = page.skeleton_html()
                entry = CachedSkeleton(
                    skeleton=skeleton,
                    title=page.title or page.path,
                    path=page.path,
                )
                cache.put(normalized, epoch, entry)
            else:
                outcome = "hit"
            # Same (path, title) the trail aspect would have recorded on
            # a live render, so hit, miss and bypass grow the trail
            # identically.
            crumbs = session.trail.record(entry.path, entry.title)
            skeleton = entry.skeleton
            fragment = breadcrumb_fragment(crumbs, entry.path)
        body = compose_page(skeleton, fragment).encode("utf-8")
        headers = _html_headers(body)
        if minted:
            headers.append(
                ("Set-Cookie", f"{SESSION_COOKIE}={session.sid}; Path=/")
            )
        headers.append(("X-Repro-Audience", audience))
        headers.append(("X-Repro-Session", session.sid))
        headers.append(("X-Repro-Cache", outcome))
        self._latency[audience].record((time.perf_counter() - started) * 1e6)
        return "200 OK", headers, body

    def _reconfigure(self, environ, audience: str):
        # ValueError -> 400 only here: a malformed body or an unknown
        # access-structure name is the client's fault (and the audience's
        # old stack stays intact — reconfigure is atomic), while a
        # ValueError anywhere else in the request path is a server bug
        # and must surface as a 500.  Unknown audiences raise
        # NavigationError -> 404 (the route names a resource).
        try:
            names = _parse_reconfigure_body(environ)
            self._server.reconfigure(audience, names)
        except ValueError as exc:
            return _text_response("400 Bad Request", str(exc))
        return _json_response(
            "200 OK",
            {
                "audience": audience,
                "access_structures": list(
                    self._server.bundle(audience).access_structures
                ),
            },
        )

    # -- the session tier ------------------------------------------------------

    def _session_for(self, environ, audience: str) -> tuple[ServingSession, bool]:
        sid = environ.get(SESSION_HEADER) or _cookie_sid(environ)
        with self._lock:
            # Read inside the lock, so touches land in clock order and
            # the dict's order stays the order of ``last_seen``.
            now = self._clock()
            self._evict_idle_locked(now)
            minted = sid is None
            if minted:
                sid = f"s{next(self._sid_counter)}-{uuid.uuid4().hex[:12]}"
            session = self._sessions.get((sid, audience))
            if session is None:
                if len(self._sessions) >= self._max_sessions:
                    raise SessionCapacityError(
                        f"{len(self._sessions)} live sessions (cap "
                        f"{self._max_sessions}); retry with an existing "
                        "session cookie or after the idle timeout"
                    )
                session = self._open_session_locked(sid, audience, now)
            else:
                self._sessions.move_to_end((sid, audience))
            session.last_seen = now
            session.requests += 1
            return session, minted

    def _open_session_locked(
        self, sid: str, audience: str, now: float
    ) -> ServingSession:
        # Scope membership only: the renderer joins the audience and
        # session scopes and its trail is registered with the server's
        # one trail deployment — nothing is woven.
        tier = self._server.session_tier(
            audience, trail=BreadcrumbTrail(self._breadcrumb_limit)
        )
        session = ServingSession(sid=sid, audience=audience, tier=tier, last_seen=now)
        self._sessions[(sid, audience)] = session
        return session

    def _close_session_locked(self, session: ServingSession) -> None:
        self._sessions.pop((session.sid, session.audience), None)
        # Closing the tier takes the renderer out of both scopes
        # (stripping their marker stamps) and unregisters its trail, so
        # the instance is back to plain rendering.
        session.tier.close()
        self._evicted_total += 1
        self._served_by_evicted += session.requests

    def _evict_idle_locked(self, now: float) -> list[ServingSession]:
        # Sessions are held least recently touched first, so the expired
        # ones are a prefix: the scan costs O(expired), not O(live).
        if self._idle_timeout is None:
            return []
        expired = []
        for session in self._sessions.values():
            if now - session.last_seen <= self._idle_timeout:
                break
            expired.append(session)
        for session in expired:
            self._close_session_locked(session)
        return expired

    def evict_idle(self, *, now: float | None = None) -> int:
        """Evict every session idle past the timeout; returns the count."""
        with self._lock:
            return len(
                self._evict_idle_locked(self._clock() if now is None else now)
            )

    def sessions(self) -> list[ServingSession]:
        """The live sessions (snapshot, newest bookkeeping included)."""
        with self._lock:
            return list(self._sessions.values())

    # -- session portability ---------------------------------------------------

    def snapshot_sessions(self) -> list[SessionRecord]:
        """Every live session as a portable :class:`SessionRecord`.

        Plain data — the cluster front (or a draining worker's ``SIGTERM``
        handler) serializes these, and another worker restores them via
        :meth:`restore_session` with the trails byte-for-byte intact.
        Also served at ``GET /-/sessions``.
        """
        with self._lock:
            return [
                SessionRecord(
                    sid=session.sid,
                    audience=session.audience,
                    trail=tuple(session.trail.entries()),
                    last_seen=session.last_seen,
                    requests=session.requests,
                )
                for session in self._sessions.values()
            ]

    def restore_session(self, record: SessionRecord) -> ServingSession:
        """Restore a snapshotted session into this app's scope tier.

        Opens the session's scope tier if ``(sid, audience)`` is not
        already live (same path a cookie-bearing request takes: capacity
        check, private renderer, registered trail), then
        replaces its breadcrumb trail with the record's — so the next
        page this session renders shows exactly the crumbs it would have
        on the worker it left.  ``last_seen`` is stamped from *this*
        app's clock (monotonic clocks don't travel between processes)
        and the record's request count is carried over.

        Raises :class:`~repro.navigation.errors.NavigationError` for an
        unknown audience and :class:`SessionCapacityError` at the session
        cap — the HTTP surface maps them to 404/503 as usual.
        """
        with self._lock:
            now = self._clock()
            self._evict_idle_locked(now)
            if record.audience not in self._server.audiences():
                raise NavigationError(
                    f"cannot restore session {record.sid!r}: no audience "
                    f"{record.audience!r}"
                )
            session = self._sessions.get((record.sid, record.audience))
            if session is None:
                if len(self._sessions) >= self._max_sessions:
                    raise SessionCapacityError(
                        f"cannot restore session {record.sid!r}: "
                        f"{len(self._sessions)} live sessions (cap "
                        f"{self._max_sessions})"
                    )
                session = self._open_session_locked(
                    record.sid, record.audience, now
                )
                session.requests = record.requests
            else:
                self._sessions.move_to_end((record.sid, record.audience))
            session.last_seen = now
            session.trail.restore(record.trail)
            return session

    def _restore_sessions(self, environ):
        # Mirrors _reconfigure's error split: a malformed body is the
        # client's fault (400); capacity is 503 per the session-tier
        # contract.  Restores are per-record best-effort so one bad
        # record cannot strand the rest of a draining worker's sessions —
        # the response reports both sides.
        try:
            records = _parse_restore_body(environ)
        except ValueError as exc:
            return _text_response("400 Bad Request", str(exc))
        restored, errors = [], []
        for record in records:
            try:
                self.restore_session(record)
            except (NavigationError, SessionCapacityError) as exc:
                errors.append({"sid": record.sid, "error": str(exc)})
            else:
                restored.append(record.sid)
        return _json_response(
            "200 OK", {"restored": restored, "errors": errors}
        )

    def close(self) -> None:
        """Evict every session (the underlying server stays open)."""
        with self._lock:
            for session in list(self._sessions.values()):
                self._close_session_locked(session)

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The management snapshot served at ``GET /-/stats``."""
        with self._lock:
            by_audience: dict[str, int] = {}
            for session in self._sessions.values():
                by_audience[session.audience] = (
                    by_audience.get(session.audience, 0) + 1
                )
            sessions = {
                "active": len(self._sessions),
                "evicted_total": self._evicted_total,
                "by_audience": by_audience,
                # Monotonic: evicted sessions' counts are accumulated, so
                # the total never drops when the idle timeout fires.
                "requests": self._served_by_evicted
                + sum(s.requests for s in self._sessions.values()),
            }
        audiences = {}
        for audience in self._server.audiences():
            cache = self._server.page_cache(audience)
            latency = self._latency[audience].summary()
            audiences[audience] = {
                "access_structures": list(
                    self._server.bundle(audience).access_structures
                ),
                "scope_instances": len(self._server.scope(audience)),
                "weave_epoch": self._server.weave_epoch(audience),
                "requests": latency.pop("count"),
                "latency": latency,
                "cache": {"enabled": cache is not None}
                | (cache.stats() if cache is not None else {}),
            }
        return {
            "audiences": audiences,
            "sessions": sessions,
            "runtime": self._server.runtime.stats(),
        }


# -- WSGI plumbing -------------------------------------------------------------


def _require_method(method: str, expected: str) -> None:
    if method != expected:
        raise _MethodNotAllowed(method, expected)


def _cookie_sid(environ) -> str | None:
    for part in environ.get("HTTP_COOKIE", "").split(";"):
        name, _, value = part.strip().partition("=")
        if name == SESSION_COOKIE and value:
            return value
    return None


def _parse_reconfigure_body(environ) -> list[str]:
    try:
        length = int(environ.get("CONTENT_LENGTH") or 0)
    except ValueError:
        length = 0
    raw = environ["wsgi.input"].read(length).decode("utf-8") if length else ""
    raw = raw.strip()
    if raw.startswith("{"):
        payload = json.loads(raw)
        names = payload.get("access_structures")
        if not isinstance(names, list) or not names:
            raise ValueError(
                'reconfigure body must carry {"access_structures": [...]}'
            )
        return [str(name) for name in names]
    names = [name.strip() for name in raw.split(",") if name.strip()]
    if not names:
        raise ValueError(
            "reconfigure body names no access structures "
            "(send e.g. 'index,guided-tour')"
        )
    return names


def _parse_restore_body(environ) -> list[SessionRecord]:
    try:
        length = int(environ.get("CONTENT_LENGTH") or 0)
    except ValueError:
        length = 0
    raw = environ["wsgi.input"].read(length).decode("utf-8") if length else ""
    raw = raw.strip()
    if not raw:
        raise ValueError(
            'restore body must carry {"sessions": [...]} or a JSON list '
            "of session records"
        )
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"restore body is not JSON: {exc}") from exc
    if isinstance(payload, Mapping):
        payload = payload.get("sessions")
    if not isinstance(payload, list):
        raise ValueError(
            'restore body must carry {"sessions": [...]} or a JSON list '
            "of session records"
        )
    return [SessionRecord.from_dict(item) for item in payload]


def _html_headers(body: bytes) -> list[tuple[str, str]]:
    return [
        ("Content-Type", "text/html; charset=utf-8"),
        ("Content-Length", str(len(body))),
    ]


def _json_response(status: str, payload: Any):
    body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    headers = [
        ("Content-Type", "application/json"),
        ("Content-Length", str(len(body))),
    ]
    return status, headers, body


def _text_response(status: str, message: str):
    body = (message + "\n").encode("utf-8")
    headers = [
        ("Content-Type", "text/plain; charset=utf-8"),
        ("Content-Length", str(len(body))),
    ]
    return status, headers, body


class ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
    """``wsgiref`` with one thread per in-flight request."""

    daemon_threads = True


class _QuietHandler(WSGIRequestHandler):
    """Suppress per-request access logging (CI logs stay readable)."""

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass


def make_wsgi_server(
    app: NavigationApp,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    quiet: bool = True,
) -> WSGIServer:
    """Bind *app* under a threaded WSGI server (``port=0``: ephemeral).

    Returns the listening server; call ``serve_forever()`` on it (or
    drive it from a thread in tests) and ``server_close()`` when done.
    """
    return make_server(
        host,
        port,
        app,
        server_class=ThreadingWSGIServer,
        handler_class=_QuietHandler if quiet else WSGIRequestHandler,
    )


def serve(
    fixture: Any,
    bundles: Iterable[AudienceBundle] | None = None,
    *,
    host: str = "127.0.0.1",
    port: int = 8000,
    config: ServingConfig | None = None,
    session_idle_timeout: Any = _UNSET,
    quiet: bool = True,
    ready: Callable[[WSGIServer], None] | None = None,
    on_drain: Callable[[NavigationApp], None] | None = None,
) -> None:
    """Stand up the whole stack and serve until interrupted.

    Weaves every bundle into one live :class:`AudienceServer` (built with
    *config* — session policy, lint mode and the page-cache tier in one
    :class:`~repro.navigation.config.ServingConfig`), wraps it in a
    :class:`NavigationApp`, binds the threaded WSGI server and blocks in
    ``serve_forever()``.  *ready* (if given) is called with the bound
    server before serving starts — the CLI uses it to print the ephemeral
    port.  *on_drain* (if given) is called with the still-live app after
    the listener closes but before the sessions unwind — the CLI's
    graceful-shutdown hook snapshots every live
    :class:`~repro.navigation.session.SessionRecord` there.  Teardown
    unwinds every session and the audience stacks, so the renderer class
    leaves the process exactly as it entered.
    """
    if config is None:
        config = ServingConfig()
    if session_idle_timeout is not _UNSET:
        _deprecated(
            "serve(session_idle_timeout=...)",
            "serve(config=ServingConfig(session_idle_timeout=...))",
        )
        config = config.replace(session_idle_timeout=session_idle_timeout)
    bundles = list(bundles) if bundles is not None else list(DEFAULT_AUDIENCES)
    with AudienceServer(fixture, bundles, config=config) as server:
        app = NavigationApp(server)
        httpd = make_wsgi_server(app, host, port, quiet=quiet)
        if ready is not None:
            ready(httpd)
        try:
            httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            httpd.server_close()
            if on_drain is not None:
                on_drain(app)
            app.close()
