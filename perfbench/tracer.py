"""Outside-in layer tracing: wrap public functions, charge self time once.

The benchmark never edits the program.  A traced instance patches each
layer's public function *where its caller looks it up* (for example
``repro.search.engine.certify_schedule``, not ``repro.search.certify``), so
the program runs unchanged apart from one wrapper frame per call.  A span
stack makes nested layers charge their time once: a layer's ``self_s`` is its
own duration minus the durations of traced calls made inside it.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional

#: ``on_result(layer_stats, args, kwargs, result)`` adds a layer's extras.
ResultHook = Callable[[Dict[str, float], tuple, dict, Any], None]


class Tracer:
    """Span stack plus per-layer counters; :meth:`restore` undoes every patch."""

    def __init__(self) -> None:
        self.layers: Dict[str, Dict[str, float]] = {}
        self._stack: List[List[float]] = []  # [start_ns, child_ns] per open span
        self._patches: List[tuple] = []
        self.top_level_ns = 0

    def layer(self, name: str) -> Dict[str, float]:
        """The counter row of ``name`` (created with zero calls and time)."""
        return self.layers.setdefault(name, {"calls": 0, "self_s": 0.0})

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        on_result: Optional[ResultHook] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a timing wrapper charged to ``name``."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        stats = self.layer(name)
        stack = self._stack

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [time.perf_counter_ns(), 0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                duration = time.perf_counter_ns() - frame[0]
                stats["calls"] += 1
                stats["self_s"] += (duration - frame[1]) / 1e9
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_level_ns += duration
            if on_result is not None:
                on_result(stats, args, kwargs, result)
            return result

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
