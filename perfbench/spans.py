"""In-memory span tracer that wraps public functions at their module attributes.

Replacing ``module.name`` with a timing wrapper catches every call that
looks the function up through the module, including the program's own
calls between layers (``cli`` -> ``stochastic.simulate_link_*``,
``stochastic._run_pairs`` -> ``trial_uniforms``, ``analysis`` ->
``model.link_curves``). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import ModuleType

# (module, attribute, annotate) where annotate(result) -> dict of counts
Target = tuple[ModuleType, str, Callable[[object], dict] | None]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    group: str  # the pass the span belongs to, e.g. "pass3" or "probe"
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.group = ""
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, self.group, time.perf_counter_ns())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        except BaseException as exc:
            s.attrs["error"] = type(exc).__name__
            raise
        finally:
            s.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, module: ModuleType, attr: str, annotate) -> Callable[[], None]:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
            if annotate is not None:
                s.attrs.update(annotate(result))
            return result

        setattr(module, attr, traced)
        return lambda: setattr(module, attr, original)

    @contextmanager
    def installed(self, targets: Iterable[Target]):
        """Wrap every target for the duration of the block, then restore it."""
        restores = []
        try:
            for module, attr, annotate in targets:
                restores.append(self._wrap(module, attr, annotate))
            yield self
        finally:
            for restore in reversed(restores):
                restore()

    def self_ns(self) -> dict[int, int]:
        """Span id -> duration minus the time its direct children cover."""
        own = {s.id: s.ns for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.ns
        return own

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n", encoding="utf-8")
