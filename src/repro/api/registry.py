"""Decorator-based registries for the pluggable pieces of the pipeline.

One mechanism replaces the stringly-typed dispatch that used to be
duplicated across ``cli.py`` (``choices=[...]``), ``baselines``
(``_REGISTRY``), ``objectives.get_objective`` (``if key == ...``), and
``distributed.backend.resolve_backend``: a named :class:`Registry` whose
entries are registered where they are implemented::

    from repro.api.registry import PARTITIONERS

    @PARTITIONERS.register("my-partitioner")
    def my_partitioner(graph, k, epsilon=0.05, seed=0, **_):
        ...

Registries are *lazy*: each one names the module whose import populates it,
so ``PARTITIONERS.names()`` works without the caller importing
``repro.baselines`` first, and this module itself stays import-light (no
numpy, no package internals) to keep it free of circular imports.

Lookup is alias- and spelling-tolerant (case, ``-``/``_`` separators), so
``get("CLIQUE_NET")`` finds the entry registered as ``"cliquenet"`` with
alias ``"clique-net"`` — matching the historical ``get_objective``
behaviour.  Entries may carry arbitrary metadata keyword arguments
(retrieved via :meth:`Registry.meta`); the spec and the runner use this to
know, e.g., which declared config a partitioner's options are checked
against, instead of hard-coding name checks.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Iterator

__all__ = [
    "Registry",
    "PARTITIONERS",
    "OBJECTIVES",
    "BACKENDS",
    "MATCHERS",
]


def _normalize(name: str) -> str:
    return name.lower().replace("-", "").replace("_", "")


class Registry:
    """An ordered name → object registry with aliases and metadata."""

    def __init__(self, kind: str, loader: str | None = None):
        self.kind = kind
        self._loader = loader
        self._loaded = loader is None
        self._loading = False
        #: canonical name → registered object, in registration order.
        self._entries: dict[str, Any] = {}
        #: canonical name → metadata dict.
        self._meta: dict[str, dict[str, Any]] = {}
        #: normalized name/alias → canonical name.
        self._lookup: dict[str, str] = {}

    # ------------------------------------------------------------------
    def register(
        self, name: str, *, aliases: tuple[str, ...] = (), **meta: Any
    ) -> Callable:
        """Decorator: register the wrapped object under ``name``.

        ``aliases`` add alternative lookup spellings; any further keyword
        arguments are stored as metadata (see :meth:`meta`).
        """

        def decorator(obj: Any) -> Any:
            if _normalize(name) in self._lookup:
                raise ValueError(f"duplicate {self.kind} name {name!r}")
            self._entries[name] = obj
            self._meta[name] = dict(meta)
            self._lookup[_normalize(name)] = name
            for alias in aliases:
                key = _normalize(alias)
                if key in self._lookup and self._lookup[key] != name:
                    raise ValueError(
                        f"{self.kind} alias {alias!r} already maps to "
                        f"{self._lookup[key]!r}"
                    )
                self._lookup[key] = name
            return obj

        return decorator

    # ------------------------------------------------------------------
    def _ensure_loaded(self) -> None:
        if self._loaded or self._loading:
            # _loading breaks re-entrancy (the loader module imports us
            # back); _loaded is only latched after a *successful* import so
            # a failed loader re-raises its real error on the next lookup
            # instead of leaving a silently empty registry.
            return
        self._loading = True
        try:
            importlib.import_module(self._loader)
        finally:
            self._loading = False
        self._loaded = True

    def canonical(self, name: str) -> str:
        """Resolve a name or alias to its canonical registered name."""
        self._ensure_loaded()
        key = _normalize(str(name))
        if key not in self._lookup:
            raise KeyError(
                f"unknown {self.kind} {name!r}; known: {', '.join(self._entries)}"
            )
        return self._lookup[key]

    def get(self, name: str) -> Any:
        """Look up a registered object by name or alias."""
        return self._entries[self.canonical(name)]

    def meta(self, name: str) -> dict[str, Any]:
        """Metadata keywords the entry was registered with."""
        return dict(self._meta[self.canonical(name)])

    def names(self) -> list[str]:
        """Canonical names, in registration order."""
        self._ensure_loaded()
        return list(self._entries)

    def __contains__(self, name: object) -> bool:
        self._ensure_loaded()
        return isinstance(name, str) and _normalize(name) in self._lookup

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind!r}, {self.names()!r})"


#: Partitioners: ``fn(graph, k, epsilon=..., seed=..., **knobs) -> PartitionResult``.
PARTITIONERS = Registry("partitioner", loader="repro.baselines")

#: Objective factories: ``fn(p=0.5) -> SeparableObjective``.
OBJECTIVES = Registry("objective", loader="repro.objectives")

#: Distributed-engine backend factories: ``fn(**connection) -> Backend``,
#: callable with no arguments.  An entry's ``takes`` metadata names the
#: ``ExecutionSpec`` fields its constructor has (``rpc``: hosts and both
#: timeouts; ``mp``: the barrier timeout); the runner passes those.
BACKENDS = Registry("backend", loader="repro.distributed.backend")

#: Swap-matcher factories: ``fn(config: SHPConfig) -> matcher``.
MATCHERS = Registry("matcher", loader="repro.core.refinement")
