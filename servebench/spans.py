"""Benchmark-owned timing wrappers and the per-request span tree.

The traced run must not change the advice chain it measures, so it uses
no aspect: plain wrappers go on the module globals and class attributes
the request path looks up at call time, and come off again after each
traced slice.  No wrapper touches ``PageRenderer``: the weaver rewrites
its members on every session open, close and reconfigure, and a foreign
wrapper there would break the weaver's LIFO checks.  The woven render is
timed instead through a proxy returned by ``AudienceServer.renderer``,
which survives any number of re-weaves.

Each span records name, start, end, parent and request id in flat
integer arrays that stay in memory until the run ends.  A layer's *self*
time is its span's duration minus its children's, so the self times of
one request add up exactly to its root ``respond`` span by
construction.  ``run.py`` checks that the spans nest, and compares each
root span with the time the client measured around the same request.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

#: Span name -> where it is installed: ("attr", module, class, member) or
#: ("global", module, function).  Globals are patched in every ``repro``
#: module that binds the same function object.
SPANS = {
    "http": ("attr", "repro.navigation.http", "NavigationApp", "respond"),
    "serving.session_open": (
        "attr", "repro.navigation.http", "NavigationApp", "_open_session_locked"
    ),
    "serving.session_close": (
        "attr", "repro.navigation.http", "NavigationApp", "_close_session_locked"
    ),
    "serving.reconfigure": (
        "attr", "repro.navigation.serving", "AudienceServer", "reconfigure"
    ),
    "aop.deploy": ("attr", "repro.aop.runtime", "WeaverRuntime", "_deploy"),
    "aop.undeploy": ("attr", "repro.aop.runtime", "WeaverRuntime", "undeploy"),
    "cache.get": ("attr", "repro.navigation.cache", "PageCache", "get"),
    "cache.put": ("attr", "repro.navigation.cache", "PageCache", "put"),
    "session.trail_record": (
        "attr", "repro.navigation.session", "BreadcrumbTrail", "record"
    ),
    "session.fragment": (
        "global", "repro.navigation.session", "breadcrumb_fragment"
    ),
    "core.anchors": ("attr", "repro.core.navspec", "NavigationSpec", "anchors_for"),
    "core.home_anchors": (
        "attr", "repro.core.navspec", "NavigationSpec", "home_anchors"
    ),
    "core.relativize": ("global", "repro.core.aspect", "_relativize"),
    "xmlcore.build": ("global", "repro.xmlcore.builder", "build"),
    "xmlcore.subelement": ("attr", "repro.xmlcore.dom", "Element", "subelement"),
    "xmlcore.serialize": ("global", "repro.xmlcore.serializer", "serialize"),
    "asgi.build_environ": ("global", "repro.navigation.asgi", "build_environ"),
}

#: Counting wrappers (no span): name -> location, as in SPANS.
COUNTERS = {
    "xmlcore.elements": ("attr", "repro.xmlcore.dom", "Element", "__init__"),
    "xmlcore.qnames": ("attr", "repro.xmlcore.names", "QName", "__post_init__"),
}

#: Summed return values (no span): drop_stale returns how many it reclaimed.
TALLIES = {
    "cache.stale_dropped": (
        "attr", "repro.navigation.cache", "PageCache", "drop_stale"
    ),
}

#: Spans that merge into one reported layer.
LAYER_OF = {
    "xmlcore.subelement": "xmlcore.build",
    "core.home_anchors": "core.anchors",
}

ROOT = "http"
RENDER = "render"
BASE = "render.base"


class Tracer:
    """Install/remove the wrappers and keep every span of the run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_rid = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.stack: list[int] = []
        self.rid = -1
        self.active = False
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def timed(self, name: str, fn):
        nid = self._id(name)
        tracer = self
        perf = time.perf_counter_ns
        s_name, s_parent, s_rid = self.s_name, self.s_parent, self.s_rid
        s_start, s_end, stack = self.s_start, self.s_end, self.stack

        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_rid.append(tracer.rid)
            s_end.append(0)
            stack.append(index)
            s_start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                s_end[index] = perf()
                stack.pop()

        span.__wrapped__ = fn
        return span

    def counting(self, name: str, fn):
        counts = self.counts
        tracer = self

        def count(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        count.__wrapped__ = fn
        return count

    def tallying(self, name: str, fn):
        counts = self.counts
        tracer = self

        def tally(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                counts[name] += result
            return result

        tally.__wrapped__ = fn
        return tally

    def _renderer_proxy(self, fn):
        node = self.timed(RENDER, lambda renderer, node: renderer.render_node(node))
        home = self.timed(RENDER, lambda renderer: renderer.render_home())

        class TimedRenderer:
            __slots__ = ("real",)

            def __init__(self, real):
                self.real = real

            def render_node(self, target):
                return node(self.real, target)

            def render_home(self):
                return home(self.real)

        def renderer(server, audience):
            return TimedRenderer(fn(server, audience))

        return renderer

    # -- install / remove -----------------------------------------------------

    def prepare(self) -> None:
        """Resolve every patch site once (the modules must be imported)."""
        self._id(ROOT)
        for table, make in (
            (SPANS, self.timed),
            (COUNTERS, self.counting),
            (TALLIES, self.tallying),
        ):
            for name, where in table.items():
                self._plan(where, lambda fn, n=name, m=make: m(n, fn))
        self._plan(
            ("attr", "repro.navigation.serving", "AudienceServer", "renderer"),
            self._renderer_proxy,
        )

    def _plan(self, where, make) -> None:
        if where[0] == "attr":
            _, module, cls_name, member = where
            owner = getattr(sys.modules[module], cls_name)
            original = owner.__dict__[member]
            self._patches.append((owner, member, original, make(original)))
            return
        _, module, function = where
        original = getattr(sys.modules[module], function)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def check_removed(self) -> bool:
        """True when every patched site holds its original object again."""
        return all(
            (owner.__dict__ if isinstance(owner, type) else vars(owner))[attr]
            is original
            for owner, attr, original, _ in self._patches
        )

    # -- analysis -------------------------------------------------------------

    def mark(self) -> int:
        return len(self.s_start)

    def truncate(self, mark: int) -> None:
        for buf in (self.s_name, self.s_parent, self.s_rid, self.s_start, self.s_end):
            del buf[mark:]

    def self_times(self, start: int, stop: int) -> dict:
        """Request id -> root span -> layer -> self ns, over ``[start, stop)``.

        Each tree also carries ``"__root__"``: its root span's duration.
        Raises ``ValueError`` when a child span is not nested in its parent.
        """
        names = self.names
        out: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(int)))
        root_of: dict[int, str] = {}
        for index in range(start, stop):
            duration = self.s_end[index] - self.s_start[index]
            layer = names[self.s_name[index]]
            layer = LAYER_OF.get(layer, layer)
            parent = self.s_parent[index]
            if parent < start:
                root = root_of[index] = layer
                tree = out[self.s_rid[index]][root]
                tree["__root__"] += duration
            else:
                if not (
                    self.s_start[parent] <= self.s_start[index]
                    and self.s_end[index] <= self.s_end[parent]
                ):
                    raise ValueError(f"span {layer} escapes its parent")
                root = root_of[index] = root_of[parent]
                tree = out[self.s_rid[index]][root]
                parent_layer = names[self.s_name[parent]]
                tree[LAYER_OF.get(parent_layer, parent_layer)] -= duration
            tree[layer] += duration
        return out
