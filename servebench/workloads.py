"""The four traffic mixes, the client-side model and the response checks.

Everything here is benchmark-owned.  The program sees only requests:
WSGI-shaped environs handed to ``NavigationApp.respond`` (or the same
requests as HTTP bytes for ``museum-http``).  Each mix is generated from
the seed alone, so one seed always gives one stream.

The :class:`ClientModel` predicts every response from what the client has
sent and seen so far -- cache outcome, breadcrumb trail, guided-tour
markup -- and :meth:`ClientModel.check_page` compares a response with the
prediction.  A response that disagrees is a failed operation.
"""

from __future__ import annotations

import hashlib
import io
import json
import posixpath
import random
import re
from collections import OrderedDict
from dataclasses import dataclass, field

#: Mix name -> fixture, Zipf exponent of page popularity, returning
#: sessions per audience, nominal rate, slice size and warm-up requests.
#: ``rate`` is in reference requests per second: a run of ``--seconds S``
#: times ``S * rate`` requests, so the work per run is fixed by the seed
#: and S, never by the host's speed.  ``slice`` requests follow each
#: kernel run (about 20 reference ms of work).
MIXES = {
    "museum-browse": dict(
        fixture="museum", zipf=1.0, returning=8, rate=2400, slice=40, warmup=500
    ),
    "catalog-longtail": dict(
        fixture="catalog", zipf=0.45, returning=8, rate=550, slice=12, warmup=1500
    ),
    "reweave-churn": dict(
        fixture="museum", zipf=1.0, returning=0, rate=800, slice=24, warmup=500
    ),
    "museum-http": dict(
        fixture="museum", zipf=1.0, returning=8, rate=1300, slice=24, warmup=500
    ),
}

#: The serving configuration ``repro.tools serve`` builds by default
#: (``--session-ttl 600 --cache-pages 256``, cache on).
IDLE_TIMEOUT = 600.0
CACHE_PAGES = 256
TRAIL_LIMIT = 8

#: reweave-churn: readers live at once, pages each reader reads, requests
#: a finished reader idles before the virtual clock evicts it, and reads
#: between two reconfigures of the curator's stack.
CHURN_READERS = 8
CHURN_READS = 8
CHURN_LINGER = 16
CHURN_RECONFIGURE_EVERY = 100
#: Virtual seconds per request: a session idle for CHURN_LINGER requests
#: has been idle just over the timeout, so the next request evicts it.
CHURN_TICK = IDLE_TIMEOUT / CHURN_LINGER + 1e-3

#: Every Nth cache hit is re-rendered with ``X-Repro-Cache: bypass`` and
#: compared byte for byte.
BYPASS_SAMPLE = 32

SESSION_HEADER = "HTTP_X_REPRO_SESSION"
TOUR_STRUCTURES = ("guided-tour", "indexed-guided-tour")
CURATOR_PLAIN = ("index",)
CURATOR_TOURED = ("index", "guided-tour")


def make_fixture(kind: str):
    from repro.baselines import museum_fixture, synthetic_museum

    if kind == "museum":
        return museum_fixture()
    return synthetic_museum(40, 20)


class VirtualClock:
    """The app's clock in reweave-churn; the client advances it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def build_app(mix: str, clock=None):
    """Build the server the way ``repro.tools serve`` does.

    Returns ``(server, app)``.  The caller closes ``app`` then ``server``.
    """
    from repro.navigation import (
        DEFAULT_AUDIENCES,
        AudienceServer,
        NavigationApp,
        ServingConfig,
    )

    config = ServingConfig(
        session_idle_timeout=IDLE_TIMEOUT,
        cache_enabled=True,
        cache_pages=CACHE_PAGES,
    )
    fixture = make_fixture(MIXES[mix]["fixture"])
    server = AudienceServer(fixture, list(DEFAULT_AUDIENCES), config=config)
    if clock is None:
        app = NavigationApp(server)
    else:
        app = NavigationApp(server, clock=clock)
    return server, app


def page_uris(fixture) -> list[str]:
    """Every servable page of *fixture*, home first, in a stable order."""
    from repro.core import PageRenderer
    from repro.navigation.serving import build_node_map

    return ["index.html", *sorted(build_node_map(PageRenderer(fixture)))]


# -- streams -------------------------------------------------------------------


@dataclass
class Op:
    """One request of a stream."""

    kind: str  # "get" or "reconfigure"
    audience: str
    page: str = ""
    sid: str = ""
    structures: tuple[str, ...] = ()


@dataclass
class Stream:
    setup: list[Op]
    ops: list[Op]
    warmup: int
    stacks: dict[str, tuple[str, ...]]
    tick: float = 0.0
    digest: str = field(default="")


def _zipf_weights(n: int, exponent: float) -> list[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(n)]


def make_stream(mix: str, seed: int, seconds: float, pages: list[str]) -> Stream:
    """The seeded request stream of *mix* for a run of *seconds*."""
    from repro.navigation import DEFAULT_AUDIENCES

    spec = MIXES[mix]
    rng = random.Random(f"{mix}:{seed}")
    audiences = [bundle.name for bundle in DEFAULT_AUDIENCES]
    stacks = {b.name: tuple(b.access_structures) for b in DEFAULT_AUDIENCES}
    order = list(pages)
    rng.shuffle(order)
    weights = _zipf_weights(len(order), spec["zipf"])
    total = max(1, round(seconds * spec["rate"]))
    warmup = spec["warmup"]
    count = total + warmup

    setup: list[Op] = []
    ops: list[Op] = []
    tick = 0.0
    if mix == "reweave-churn":
        tick = CHURN_TICK
        ops = _churn_ops(rng, audiences, order, weights, count)
    else:
        sessions = [
            (f"r{seed}-{index:02d}-{audience}", audience)
            for index in range(spec["returning"])
            for audience in audiences
        ]
        # Returning visitors: each already has a full trail when the
        # measured traffic starts.
        for sid, audience in sessions:
            for page in rng.choices(order, weights, k=TRAIL_LIMIT + 2):
                setup.append(Op("get", audience, page, sid))
        for page in rng.choices(order, weights, k=count):
            sid, audience = sessions[rng.randrange(len(sessions))]
            ops.append(Op("get", audience, page, sid))
    digest = hashlib.sha256(
        repr([(o.kind, o.audience, o.page, o.sid, o.structures) for o in setup + ops])
        .encode()
    ).hexdigest()[:16]
    return Stream(setup, ops, warmup, stacks, tick, digest)


def _churn_ops(rng, audiences, order, weights, count) -> list[Op]:
    """Readers take turns, so each is idle for fewer than CHURN_LINGER
    requests while reading and is evicted only after its last page."""
    ops: list[Op] = []
    serial = 0

    def new_reader() -> list:  # [sid, audience, reads left]
        nonlocal serial
        serial += 1
        return [f"c{serial:05d}", audiences[serial % len(audiences)], CHURN_READS]

    readers = [new_reader() for _ in range(CHURN_READERS)]
    toured = False
    reads = 0
    while len(ops) < count:
        slot = reads % CHURN_READERS
        sid, audience, left = readers[slot]
        ops.append(Op("get", audience, rng.choices(order, weights)[0], sid))
        reads += 1
        readers[slot][2] = left - 1
        if left - 1 == 0:
            readers[slot] = new_reader()
        if reads % CHURN_RECONFIGURE_EVERY == 0:
            toured = not toured
            ops.append(
                Op(
                    "reconfigure",
                    "curator",
                    structures=CURATOR_TOURED if toured else CURATOR_PLAIN,
                )
            )
    return ops


# -- requests --------------------------------------------------------------------


def environ_for(op: Op, *, bypass: bool = False) -> dict:
    if op.kind == "reconfigure":
        body = ",".join(op.structures).encode()
        return {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": f"/-/reconfigure/{op.audience}",
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
        }
    environ = {
        "REQUEST_METHOD": "GET",
        "PATH_INFO": f"/{op.audience}/{op.page}",
        SESSION_HEADER: op.sid,
    }
    if bypass:
        environ["HTTP_X_REPRO_CACHE"] = "bypass"
    return environ


def restore_environ(sid: str, audience: str, trail) -> dict:
    body = json.dumps(
        {"sessions": [{"sid": sid, "audience": audience, "trail": trail}]}
    ).encode()
    return {
        "REQUEST_METHOD": "POST",
        "PATH_INFO": "/-/sessions/restore",
        "CONTENT_LENGTH": str(len(body)),
        "wsgi.input": io.BytesIO(body),
    }


# -- the client-side model -----------------------------------------------------------

_TITLE = re.compile(r"<title>(.*?)</title>", re.S)
_TRAIL = re.compile(r'<nav class="breadcrumbs">(.*?)</nav>', re.S)
_CRUMB = re.compile(r'<a href="([^"]*)" rel="breadcrumb">(.*?)</a>', re.S)


class CheckFailed(Exception):
    """A response disagreed with the client-side model."""


class ClientModel:
    """What every response should be, predicted from the client's history.

    Mirrors the serving contract the program documents: a per-audience
    LRU page cache of ``CACHE_PAGES`` entries that a reconfigure empties;
    per-session trails of at most ``TRAIL_LIMIT`` pages, revisits moved
    to the end; sessions idle past the timeout evicted on the next
    request; guided-tour markup (``rel="prev"``/``rel="next"``) on
    painting pages exactly while the audience's stack holds a tour.
    """

    def __init__(self, stacks: dict[str, tuple[str, ...]], clock=None):
        self.stacks = dict(stacks)
        self.clock = clock
        self.cache: dict[str, OrderedDict] = {a: OrderedDict() for a in stacks}
        self.trails: dict[tuple[str, str], list[tuple[str, str]]] = {}
        self.last_seen: dict[tuple[str, str], float] = {}
        self.titles: dict[str, str] = {}
        self.outcomes = {"hit": 0, "miss": 0, "bypass": 0}
        self.opened = 0
        self.evicted = 0
        self.reconfigures = 0
        self.hits_seen = 0
        self.bypass_identical = 0
        self.bypass_trail_layout = 0

    # -- predictions -------------------------------------------------------------

    def expect_get(self, op: Op) -> tuple[str, list[tuple[str, str]]]:
        """Advance the model for *op*; returns (cache outcome, crumbs shown)."""
        now = self.clock.now if self.clock is not None else 0.0
        if self.clock is not None:
            for key, seen in list(self.last_seen.items()):
                if now - seen > IDLE_TIMEOUT:
                    del self.last_seen[key]
                    del self.trails[key]
                    self.evicted += 1
        key = (op.sid, op.audience)
        if key not in self.trails:
            self.trails[key] = []
            self.opened += 1
        self.last_seen[key] = now
        lru = self.cache[op.audience]
        if op.page in lru:
            lru.move_to_end(op.page)
            outcome = "hit"
        else:
            lru[op.page] = True
            while len(lru) > CACHE_PAGES:
                lru.popitem(last=False)
            outcome = "miss"
        trail = self.trails[key]
        crumbs = [entry for entry in trail if entry[0] != op.page]
        return outcome, crumbs

    def record_visit(self, op: Op, crumbs, title: str) -> None:
        key = (op.sid, op.audience)
        self.trails[key] = (crumbs + [(op.page, title)])[-TRAIL_LIMIT:]

    def reconfigured(self, audience: str, structures: tuple[str, ...]) -> None:
        self.stacks[audience] = tuple(structures)
        self.cache[audience].clear()
        self.reconfigures += 1

    def toured(self, audience: str, page: str) -> bool:
        return page.startswith("PaintingNode/") and any(
            name in TOUR_STRUCTURES for name in self.stacks[audience]
        )

    # -- checks ------------------------------------------------------------------

    def check_page(self, op: Op, response, outcome: str, crumbs) -> str:
        """Check a page response; returns the page title it carried."""
        status, headers, body = response
        if status != "200 OK":
            raise CheckFailed(f"{op.audience}/{op.page}: status {status}")
        names = {name.lower(): value for name, value in headers}
        if names.get("x-repro-audience") != op.audience:
            raise CheckFailed(f"{op.page}: audience header {names}")
        if names.get("x-repro-cache") != outcome:
            raise CheckFailed(
                f"{op.audience}/{op.page}: cache {names.get('x-repro-cache')!r}"
                f", model says {outcome!r}"
            )
        if names.get("x-repro-session") != op.sid:
            raise CheckFailed(f"{op.page}: session header {names}")
        if names.get("content-length") != str(len(body)):
            raise CheckFailed(f"{op.page}: content-length mismatch")
        text = body.decode("utf-8")
        match = _TITLE.search(text)
        if match is None:
            raise CheckFailed(f"{op.audience}/{op.page}: no <title>")
        title = match.group(1)
        known = self.titles.setdefault(op.page, title)
        if known != title:
            raise CheckFailed(f"{op.page}: title {title!r}, earlier {known!r}")
        directory = posixpath.dirname(op.page) or "."
        expected = [
            (posixpath.relpath(path, directory), crumb_title)
            for path, crumb_title in crumbs
        ]
        trails = _TRAIL.findall(text)
        seen = _CRUMB.findall(trails[0]) if trails else []
        if len(trails) > 1 or seen != expected:
            raise CheckFailed(
                f"{op.sid} {op.audience}/{op.page}: trail {seen}, model {expected}"
            )
        toured = 'rel="next"' in text or 'rel="prev"' in text
        if toured != self.toured(op.audience, op.page):
            raise CheckFailed(
                f"{op.audience}/{op.page}: tour markup {toured}, stack "
                f"{self.stacks[op.audience]}"
            )
        return title

    def check_reconfigure(self, op: Op, response) -> None:
        status, _, body = response
        if status != "200 OK":
            raise CheckFailed(f"reconfigure {op.audience}: status {status}")
        payload = json.loads(body)
        if tuple(payload.get("access_structures", ())) != op.structures:
            raise CheckFailed(f"reconfigure {op.audience}: answered {payload}")

    def counts(self) -> dict[str, int]:
        return {
            **{f"outcome.{k}": v for k, v in self.outcomes.items()},
            "sessions.opened": self.opened,
            "sessions.evicted": self.evicted,
            "reconfigures": self.reconfigures,
            "bypass.byte_identical": self.bypass_identical,
            "bypass.trail_layout_only": self.bypass_trail_layout,
        }
