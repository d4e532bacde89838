"""Deterministic fault injection at named points in the stack.

Chaos testing needs failures that are *repeatable*: the same seed must
kill the same worker at the same chunk on every run, in every process.
The injector here is therefore **stateless** — whether a fault fires at
a given point is a pure function of ``(seed, site, context)``, computed
by seeding a private :class:`random.Random` with those values.  No
shared counters, no cross-process coordination: a forked worker holding
a copy of the injector makes exactly the decisions the parent would.

Injection points are named ``site`` strings in production code.  An
injector is armed directly (:func:`install_injector` /
:class:`injecting`) or through the ``REPRO_FAULTS`` environment
variable, which reaches process-pool workers however they were started.
Resolving it (:func:`current_injector`) reads that variable, which
costs microseconds, so the sites resolve it once — per
``batch_relations`` call, per pool chunk and per ``sweep_plane`` call —
and call :meth:`FaultInjector.trigger` / :meth:`FaultInjector.corrupt`
only when one is armed.  Current sites:

========================  ===================================================
``batch.worker``          top of a parallel chunk (ctx: chunk, attempt)
``batch.row``             before a plane-kernel sweep row, serial or in a
                          worker (ctx: primary, attempt)
``batch.pair``            inside one pair computation (ctx: primary,
                          reference, attempt)
``batch.region``          region ingestion — ``corrupt`` swaps two polygon
                          vertices into a bowtie (ctx: region_id)
========================  ===================================================

Fault kinds: ``raise`` (throw :class:`~repro.errors.InjectedFault`),
``delay`` (sleep ``seconds`` — simulates a hung task), ``kill``
(``os._exit`` — simulates a crashed worker process), ``corrupt``
(damage a region's geometry).  Each firing is counted in
``repro_fault_injections_total{site=,kind=}`` and appended to the
injector's :attr:`~FaultInjector.fired` log.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, TypeVar, cast

from repro.errors import GeometryError, InjectedFault
from repro.obs.metrics import current_metrics

__all__ = [
    "FaultSpec",
    "FaultInjector",
    "InjectedFault",
    "install_injector",
    "uninstall_injector",
    "current_injector",
    "injecting",
    "corrupt_region",
    "ENV_FAULTS",
    "ENV_SEED",
]

#: Environment variable holding a JSON list of fault-spec objects.
ENV_FAULTS = "REPRO_FAULTS"
#: Environment variable overriding the injector seed (default 0).
ENV_SEED = "REPRO_FAULTS_SEED"

R = TypeVar("R")

_KINDS = ("raise", "delay", "kill", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: where it can fire, what it does, how often.

    ``site`` is the injection-point name; ``kind`` one of ``raise`` /
    ``delay`` / ``kill`` / ``corrupt``.  ``rate`` is the firing
    probability (1.0 = always), evaluated deterministically per
    ``(site, context)``.  ``only`` restricts firing to points whose
    context matches every listed key (values compared as strings, so
    ``{"chunk": 0}`` matches ``chunk=0``); a context *missing* one of
    the keys never matches.  ``seconds`` is the hang length for
    ``delay``; ``exit_code`` the status for ``kill``.
    """

    site: str
    kind: str
    rate: float = 1.0
    seconds: float = 5.0
    exit_code: int = 17
    only: Optional[Tuple[Tuple[str, str], ...]] = None
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.seconds < 0:
            raise ValueError("delay seconds must be non-negative")
        # Normalise `only` into a sorted tuple of string pairs so specs
        # stay hashable, comparable, and JSON-roundtrippable.
        if self.only is not None and not isinstance(self.only, tuple):
            object.__setattr__(self, "only", _normalise_only(self.only))

    def matches(self, site: str, context: Mapping[str, object]) -> bool:
        """Does this spec apply to the given injection point?"""
        if site != self.site:
            return False
        if self.only is None:
            return True
        for key, value in self.only:
            if key not in context or str(context[key]) != value:
                return False
        return True

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "FaultSpec":
        """Build a spec from its JSON object form (see ``REPRO_FAULTS``)."""
        known = {"site", "kind", "rate", "seconds", "exit_code", "only", "message"}
        unknown = set(record) - known
        if unknown:
            raise ValueError(
                f"unknown fault spec keys: {sorted(unknown)}; expected {sorted(known)}"
            )
        if "site" not in record or "kind" not in record:
            raise ValueError("fault spec requires 'site' and 'kind'")
        only = record.get("only")
        return cls(
            site=str(record["site"]),
            kind=str(record["kind"]),
            rate=float(record.get("rate", 1.0)),  # type: ignore[arg-type]
            seconds=float(record.get("seconds", 5.0)),  # type: ignore[arg-type]
            exit_code=int(record.get("exit_code", 17)),  # type: ignore[arg-type]
            only=_normalise_only(only) if only is not None else None,
            message=str(record.get("message", "")),
        )


def _normalise_only(only: object) -> Tuple[Tuple[str, str], ...]:
    if isinstance(only, Mapping):
        items = only.items()
    elif isinstance(only, Sequence) and not isinstance(only, (str, bytes)):
        items = [(pair[0], pair[1]) for pair in only]
    else:
        raise ValueError(f"fault spec 'only' must be a mapping, got {only!r}")
    return tuple(sorted((str(key), str(value)) for key, value in items))


class FaultInjector:
    """Evaluates armed :class:`FaultSpec`\\ s at injection points.

    Decisions are stateless and deterministic: whether a spec with
    ``rate < 1`` fires at ``(site, context)`` is drawn from a
    :class:`random.Random` seeded with the injector seed, the site, and
    the sorted context items — identical in the parent and in any
    worker process holding a copy.  Fired faults are appended to
    :attr:`fired` as ``(site, kind, context)`` triples (per process; a
    killed worker's log dies with it, which is the honest account).
    """

    def __init__(self, specs: Sequence[FaultSpec], *, seed: int = 0) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        self.fired: List[Tuple[str, str, Dict[str, object]]] = []

    def _decides_to_fire(
        self, spec: FaultSpec, site: str, context: Mapping[str, object]
    ) -> bool:
        if spec.rate >= 1.0:
            return True
        if spec.rate <= 0.0:
            return False
        stamp = ",".join(
            f"{key}={context[key]}" for key in sorted(context)
        )
        rng = random.Random(f"{self.seed}:{site}:{stamp}")
        return rng.random() < spec.rate

    def trigger(self, site: str, **context: object) -> None:
        """Fire any matching raise/delay/kill spec at this point."""
        for spec in self.specs:
            if spec.kind == "corrupt" or not spec.matches(site, context):
                continue
            if not self._decides_to_fire(spec, site, context):
                continue
            self._record(site, spec.kind, context)
            if spec.kind == "delay":
                time.sleep(spec.seconds)
            elif spec.kind == "kill":
                os._exit(spec.exit_code)
            else:
                message = spec.message or (
                    f"injected fault at {site} ({_context_text(context)})"
                )
                raise InjectedFault(message, site=site)

    def corrupt(self, site: str, region: R, **context: object) -> R:
        """Apply any matching ``corrupt`` spec to ``region``."""
        for spec in self.specs:
            if spec.kind != "corrupt" or not spec.matches(site, context):
                continue
            if not self._decides_to_fire(spec, site, context):
                continue
            damaged = corrupt_region(region)
            if damaged is not region:
                self._record(site, spec.kind, context)
                return damaged
        return region

    def _record(
        self, site: str, kind: str, context: Mapping[str, object]
    ) -> None:
        self.fired.append((site, kind, dict(context)))
        registry = current_metrics()
        if registry is not None:
            registry.counter(
                "repro_fault_injections_total",
                "Faults fired by the deterministic injector.",
            ).inc(site=site, kind=kind)


def _context_text(context: Mapping[str, object]) -> str:
    return ", ".join(f"{key}={context[key]}" for key in sorted(context))


def corrupt_region(region: R) -> R:
    """Damage a region's geometry while keeping it constructible.

    Replaces the region's first polygon with a self-intersecting
    "bowtie" spanning that polygon's bounding box: the ring
    ``(min, min) → (min + 2w, max) → (min, max) → (max, min)`` always
    crosses itself (its first and third edges meet at one third / two
    thirds of their lengths) yet has non-zero signed area, so the
    Polygon constructor — which defers self-intersection checking to
    ``is_simple()`` — accepts it.  The damaged region flows into the
    batch pipeline and must be caught by validation / repair, exactly
    the failure mode of corrupt upstream data.  Non-regions pass
    through unchanged.
    """
    from repro.geometry.point import Point
    from repro.geometry.polygon import Polygon
    from repro.geometry.region import Region

    if not isinstance(region, Region):
        return region
    polygons = list(region.polygons)
    box = polygons[0].bounding_box()
    width = box.max_x - box.min_x
    try:
        polygons[0] = Polygon(
            (
                Point(box.min_x, box.min_y),
                Point(box.min_x + 2 * width, box.max_y),
                Point(box.min_x, box.max_y),
                Point(box.max_x, box.min_y),
            ),
            ensure_clockwise=True,
        )
    except GeometryError:  # pragma: no cover - bbox is never degenerate
        return region
    return cast(R, Region(polygons))


# ---------------------------------------------------------------------------
# The installed (global) injector
# ---------------------------------------------------------------------------

_ACTIVE: Optional[FaultInjector] = None
#: Cache of the last parsed ``REPRO_FAULTS`` value: (raw string, injector).
_ENV_CACHE: Tuple[Optional[str], Optional[FaultInjector]] = (None, None)


def install_injector(injector: FaultInjector) -> FaultInjector:
    """Install ``injector`` as the process-wide fault injector."""
    global _ACTIVE
    _ACTIVE = injector
    return injector


def uninstall_injector() -> Optional[FaultInjector]:
    """Remove the installed injector (back to no-op); returns it."""
    global _ACTIVE
    injector, _ACTIVE = _ACTIVE, None
    return injector


def current_injector() -> Optional[FaultInjector]:
    """The installed injector, or one parsed from ``REPRO_FAULTS``.

    The environment variable is re-read on every call but re-parsed
    only when its raw value changes.  Even so, the no-fault path costs
    an ``os.environ`` lookup, which encodes the key and decodes the
    value on every call — many times the cost of a dict get — so
    callers that fire per pair or per row resolve the injector once per
    sweep and keep it.  A directly-installed injector always wins over
    the environment.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    return _injector_from_env()


def _injector_from_env() -> Optional[FaultInjector]:
    global _ENV_CACHE
    raw = os.environ.get(ENV_FAULTS)
    if raw is None or not raw.strip():
        return None
    cached_raw, cached_injector = _ENV_CACHE
    if raw == cached_raw:
        return cached_injector
    try:
        records = json.loads(raw)
        if not isinstance(records, list):
            raise ValueError(f"{ENV_FAULTS} must hold a JSON list of objects")
        specs = [FaultSpec.from_dict(record) for record in records]
        seed = int(os.environ.get(ENV_SEED, "0"))
    except (ValueError, TypeError, KeyError) as error:
        raise ValueError(
            f"cannot parse {ENV_FAULTS}={raw!r}: {error}"
        ) from error
    injector = FaultInjector(specs, seed=seed)
    _ENV_CACHE = (raw, injector)
    return injector


@contextmanager
def injecting(
    *specs: FaultSpec, seed: int = 0
) -> Iterator[FaultInjector]:
    """``with injecting(FaultSpec(...)) as injector:`` — scoped install.

    Restores whatever injector (or none) was installed before, so
    scopes nest safely in tests.
    """
    global _ACTIVE
    previous = _ACTIVE
    injector = FaultInjector(specs, seed=seed)
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous

