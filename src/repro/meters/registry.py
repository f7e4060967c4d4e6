"""The capability-based meter registry: one lifecycle for every meter.

Every password strength meter the package ships — and any meter a
deployment plugs in — registers here under a stable *kind* string and
a set of declared :class:`Capability` flags::

    from repro.meters.base import Meter
    from repro.meters.registry import Capability, register_meter

    @register_meter(
        "toy",
        capabilities=(
            Capability.TRAINABLE,
            Capability.UPDATABLE,
            Capability.PERSISTABLE,
        ),
    )
    class ToyMeter(Meter):
        ...

Registration is the single integration point: a registered meter
automatically appears in ``repro meters``, in the CLI ``--kind``
choices (when trainable and persistable), in
:func:`repro.persistence.save_meter`/``load_meter`` dispatch (when
persistable), and in the experiment runner's
:func:`~repro.experiments.runner.build_meters` (by kind or display
name).  Capabilities are *declared and verified*: registering a class
that lacks a declared capability's methods is an error, so the flags
in the registry never drift from what the class can actually do.

The capability protocols name the unified lifecycle verbs
(paper Sec. IV-C: train → ship → load → **update online** → score):

* :class:`Trainable` — ``train(...)`` builds a meter from a corpus;
* :class:`Updatable` — ``update(password, count)`` folds an accepted
  password into the model;
* :class:`Persistable` — ``to_dict``/``from_dict`` snapshots.

Bulk scoring is no capability: every :class:`~repro.meters.base.Meter`
answers ``probability_many``/``entropy_many`` through the base-class
loop, and trained meters override it with vectorised paths.

Dispatching on concrete meter classes or kind string literals outside
this module is forbidden by lint rule FPM010; capability checks
(``isinstance(meter, Updatable)`` or :meth:`MeterSpec.has`) are the
blessed mechanism.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

try:  # Protocol is typing-native from 3.8; keep the import explicit.
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - py3.7 fallback, never hit
    from typing_extensions import Protocol, runtime_checkable  # type: ignore

from repro.meters.base import Meter

M = TypeVar("M", bound=Type[Meter])


class Capability(enum.Enum):
    """The lifecycle verbs a meter can opt into."""

    #: ``cls.train(...)`` builds the meter from training material.
    TRAINABLE = "trainable"
    #: ``update(password, count)`` — the online update phase.
    UPDATABLE = "updatable"
    #: ``to_dict``/``from_dict`` snapshot round-trips.
    PERSISTABLE = "persistable"
    #: ``to_buffers``/``from_buffers`` flat-column snapshots — the
    #: array-backed binary model format (``save_meter(..., fmt=
    #: "binary")``), loadable via mmap without JSON parsing.
    BINARY_PERSISTABLE = "binary-persistable"
    #: ``cls.train_streaming(...)`` builds the meter from an
    #: out-of-core chunk stream (``repro train --stream-chunk``).
    STREAM_TRAINABLE = "stream-trainable"


@runtime_checkable
class Trainable(Protocol):
    """A meter buildable from training material via ``cls.train``."""

    def train(self, *args: Any, **kwargs: Any) -> Any:
        ...


@runtime_checkable
class Updatable(Protocol):
    """A meter with the online update phase (paper Sec. IV-C)."""

    def update(self, password: str, count: int = 1) -> None:
        ...


@runtime_checkable
class Persistable(Protocol):
    """A meter with JSON-ready snapshot/restore methods."""

    def to_dict(self) -> Dict[str, Any]:
        ...

    def from_dict(self, data: Dict[str, Any]) -> Any:
        ...


@runtime_checkable
class BinaryPersistable(Protocol):
    """A meter with flat-column snapshot/restore for the binary format.

    ``to_buffers`` returns ``(meta, sections)``: a JSON-safe metadata
    dict plus an ordered mapping of named flat columns (``array('q')``
    integer columns and ``str`` blobs).  ``from_buffers`` rebuilds the
    meter from exactly those two values.  The contract mirrors
    :class:`Persistable` — a binary round trip must reproduce the same
    model ``to_dict`` as a JSON round trip.
    """

    def to_buffers(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        ...

    def from_buffers(
        self, meta: Dict[str, Any], sections: Dict[str, Any]
    ) -> Any:
        ...


@runtime_checkable
class StreamTrainable(Protocol):
    """A meter buildable from an out-of-core stream of entry chunks."""

    def train_streaming(self, *args: Any, **kwargs: Any) -> Any:
        ...


#: Methods each declared capability promises on the class.
_CAPABILITY_METHODS: Dict[Capability, Tuple[str, ...]] = {
    Capability.TRAINABLE: ("train",),
    Capability.UPDATABLE: ("update",),
    Capability.PERSISTABLE: ("to_dict", "from_dict"),
    Capability.BINARY_PERSISTABLE: ("to_buffers", "from_buffers"),
    Capability.STREAM_TRAINABLE: ("train_streaming",),
}

@dataclass(frozen=True)
class TrainContext:
    """Everything a registry builder may need to construct a meter.

    One neutral bag of inputs, so the same context can build all
    registered meters side by side (the experiment runner does exactly
    that).  Builders take what they need and ignore the rest:

    Attributes:
        training: weighted ``(password, count)`` training material.
        base_dictionary: the less-sensitive-service dictionary
            (fuzzyPSM's trie source; empty for meters without one).
        dictionary: the stock provisioning word list handed to
            rule-based meters (ranked most-common-first).
        options: meter-family tunables (``markov_order``,
            ``markov_smoothing``, ``fuzzy_config``).
    """

    training: Sequence[Tuple[str, int]] = ()
    base_dictionary: Sequence[str] = ()
    dictionary: Sequence[str] = ()
    options: Mapping[str, Any] = field(default_factory=dict)


#: A builder constructs one meter from a :class:`TrainContext`.
Builder = Callable[[Type[Meter], TrainContext], Meter]


def default_builder(cls: Type[Meter], context: TrainContext) -> Meter:
    """Build via ``cls.train(training)`` when trainable, else ``cls()``."""
    train = getattr(cls, "train", None)
    if callable(train):
        return train(list(context.training))
    return cls()  # type: ignore[call-arg]


@dataclass(frozen=True)
class MeterSpec:
    """One registry entry: the class plus its declared lifecycle."""

    kind: str
    cls: Type[Meter]
    display_name: str
    capabilities: FrozenSet[Capability]
    summary: str
    builder: Builder
    #: The builder needs a non-empty ``TrainContext.base_dictionary``
    #: (fuzzyPSM's trie source); drives the CLI ``--base`` check.
    requires_base_dictionary: bool = False

    def has(self, capability: Capability) -> bool:
        return capability in self.capabilities

    def capability_names(self) -> List[str]:
        """Sorted capability value strings (the JSON/CLI spelling)."""
        return sorted(capability.value for capability in self.capabilities)


_SPECS: Dict[str, MeterSpec] = {}
_BY_CLASS: Dict[Type[Meter], MeterSpec] = {}


def register_meter(
    kind: str,
    *,
    capabilities: Iterable[Capability] = (),
    display_name: Optional[str] = None,
    summary: str = "",
    builder: Optional[Builder] = None,
    requires_base_dictionary: bool = False,
) -> Callable[[M], M]:
    """Class decorator: add a meter class to the registry.

    Args:
        kind: stable lowercase identifier (the persistence ``kind``
            tag and CLI ``--kind`` value).
        capabilities: declared :class:`Capability` flags; each one is
            verified against the class at registration time.
        display_name: human-facing name (defaults to ``cls.name``).
        summary: one-line description for ``repro meters``.
        builder: how to construct the meter from a
            :class:`TrainContext` (defaults to :func:`default_builder`).
        requires_base_dictionary: the builder refuses an empty
            ``base_dictionary``.

    Raises:
        ValueError: empty/duplicate kind, or a declared capability
            whose methods the class does not define.
    """
    if not kind or kind != kind.lower():
        raise ValueError(
            f"meter kind must be a non-empty lowercase string, got {kind!r}"
        )
    capability_set = frozenset(capabilities)

    def decorate(cls: M) -> M:
        existing = _SPECS.get(kind)
        if existing is not None and existing.cls is not cls:
            raise ValueError(
                f"duplicate meter kind {kind!r} "
                f"(already registered to {existing.cls.__name__})"
            )
        for capability in sorted(capability_set, key=lambda c: c.value):
            for method in _CAPABILITY_METHODS[capability]:
                attribute = getattr(cls, method, None)
                if not callable(attribute):
                    raise ValueError(
                        f"{cls.__name__} declares capability "
                        f"{capability.value!r} but does not define "
                        f"{method}()"
                    )
        doc = (cls.__doc__ or "").strip().splitlines()
        spec = MeterSpec(
            kind=kind,
            cls=cls,
            display_name=display_name or getattr(cls, "name", cls.__name__),
            capabilities=capability_set,
            summary=summary or (doc[0] if doc else ""),
            builder=builder or default_builder,
            requires_base_dictionary=requires_base_dictionary,
        )
        _SPECS[kind] = spec
        _BY_CLASS[cls] = spec
        return cls

    return decorate


def unregister(kind: str) -> None:
    """Remove a registry entry (for tests and plugin teardown)."""
    spec = _SPECS.pop(kind, None)
    if spec is not None:
        _BY_CLASS.pop(spec.cls, None)


def all_specs() -> Dict[str, MeterSpec]:
    """Every registered spec, keyed and ordered by kind."""
    _ensure_loaded()
    return dict(sorted(_SPECS.items()))


def meter_kinds() -> List[str]:
    """The registered kind strings, sorted."""
    return list(all_specs())


def kinds_with(*capabilities: Capability) -> List[str]:
    """Kinds whose spec declares every given capability, sorted."""
    return [
        kind
        for kind, spec in all_specs().items()
        if all(spec.has(capability) for capability in capabilities)
    ]


def resolve_kind(name: str) -> str:
    """Map a kind or display name (case-insensitive) to its kind.

    >>> resolve_kind("fuzzyPSM")
    'fuzzypsm'

    Raises:
        ValueError: when nothing registered matches.
    """
    specs = all_specs()
    lowered = name.lower()
    if lowered in specs:
        return lowered
    for kind, spec in specs.items():
        if spec.display_name.lower() == lowered:
            return kind
    raise ValueError(
        f"unknown meter {name!r}; registered: {', '.join(specs)}"
    )


def get_spec(name: str) -> MeterSpec:
    """The spec for a kind or display name.

    Raises:
        ValueError: when nothing registered matches.
    """
    return all_specs()[resolve_kind(name)]


def spec_for(meter_or_class: Any) -> Optional[MeterSpec]:
    """The spec a meter instance or class registered under, if any.

    Subclasses resolve to their nearest registered ancestor, so a
    locally-extended meter still persists under its family kind.
    """
    cls = (
        meter_or_class
        if isinstance(meter_or_class, type)
        else type(meter_or_class)
    )
    _ensure_loaded()
    for ancestor in cls.__mro__:
        spec = _BY_CLASS.get(ancestor)
        if spec is not None:
            return spec
    return None


def build_meter(name: str, context: Optional[TrainContext] = None) -> Meter:
    """Construct a registered meter from a :class:`TrainContext`.

    Raises:
        ValueError: unknown meter, or a missing required base
            dictionary.
    """
    spec = get_spec(name)
    context = context or TrainContext()
    if spec.requires_base_dictionary and not context.base_dictionary:
        raise ValueError(
            f"meter {spec.kind!r} requires a base dictionary "
            "(TrainContext.base_dictionary / --base on the CLI)"
        )
    return spec.builder(spec.cls, context)


def _ensure_loaded() -> None:
    """Import the built-in meter modules (idempotent) so they register."""
    from repro.core import meter  # noqa: F401  (import-for-effect)
    from repro.meters import (  # noqa: F401  (import-for-effect)
        ideal,
        keepsm,
        markov,
        nist,
        pcfg,
        zxcvbn,
    )
