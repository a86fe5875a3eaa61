"""The estimator registry: ``kind`` name -> :class:`EstimatorSpec` class.

Estimator families self-register by decorating their spec dataclass::

    from repro.api import EstimatorSpec, register_estimator

    @register_estimator("my_estimator")
    @dataclass(frozen=True)
    class MySpec(EstimatorSpec):
        shots: int = 1024

        def build(self, workload, backend, engine=None, **overrides):
            return MyEstimator(...)

The built-in kinds live next to their estimator classes (in
:mod:`repro.vqe`, :mod:`repro.core`, and :mod:`repro.mitigation`);
:func:`_ensure_builtin` imports those modules on first lookup so the
registry is complete however :mod:`repro.api` is reached.  Out-of-tree
estimators register the same way — importing the defining module is
enough to make the kind addressable by name everywhere (CLI, sweep
Points, :class:`~repro.api.Session`).
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Mapping
from typing import Any

from .spec import EstimatorSpec

__all__ = [
    "estimator_kinds",
    "make_spec",
    "register_estimator",
    "resolve_spec",
    "spec_class",
    "spec_from_dict",
]

#: kind name -> registered spec class (insertion-ordered).
_REGISTRY: dict[str, type[EstimatorSpec]] = {}

#: Canonical listing order for the built-in kinds — the six legacy
#: string kinds first (so CLI help and docs read as they always did),
#: then the families the registry newly exposes.  Out-of-tree kinds
#: list after these, in registration order.
_BUILTIN_ORDER = (
    "ideal",
    "baseline",
    "jigsaw",
    "varsaw",
    "varsaw_no_sparsity",
    "varsaw_max_sparsity",
    "gc",
    "selective",
    "calibration_gated",
    "drift_adaptive",
)

#: Modules whose import registers the built-in estimator families.
_BUILTIN_MODULES = (
    "repro.vqe.estimator",
    "repro.vqe.gc_estimator",
    "repro.mitigation.jigsaw",
    "repro.core.varsaw",
    "repro.core.selective",
    "repro.core.recalibrate",
)


def register_estimator(
    kind: str,
) -> Callable[[type[EstimatorSpec]], type[EstimatorSpec]]:
    """Class decorator registering an :class:`EstimatorSpec` subclass.

    Sets ``cls.kind = kind`` and makes the kind addressable by name
    through :func:`make_spec`, :class:`~repro.api.Session`, sweep
    Points, and the CLI.  Re-registering a kind to a *different* class
    raises (re-decorating the same class, e.g. on module reload, is a
    no-op).
    """
    if not kind or not isinstance(kind, str):
        raise ValueError("estimator kind must be a non-empty string")

    def wrap(cls: type[EstimatorSpec]) -> type[EstimatorSpec]:
        if not (isinstance(cls, type) and issubclass(cls, EstimatorSpec)):
            raise TypeError(
                f"@register_estimator({kind!r}) needs an EstimatorSpec "
                f"subclass; got {cls!r}"
            )
        existing = _REGISTRY.get(kind)
        if existing is not None and existing is not cls:
            raise ValueError(
                f"estimator kind {kind!r} is already registered to "
                f"{existing.__qualname__}"
            )
        cls.kind = kind
        _REGISTRY[kind] = cls
        return cls

    return wrap


def _ensure_builtin() -> None:
    """Import the modules hosting the built-in registrations (idempotent)."""
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def estimator_kinds() -> tuple[str, ...]:
    """Every registered kind name, built-ins first in canonical order."""
    _ensure_builtin()
    builtin_rank = {kind: i for i, kind in enumerate(_BUILTIN_ORDER)}
    registered = list(_REGISTRY)
    return tuple(
        sorted(
            registered,
            key=lambda kind: (
                builtin_rank.get(kind, len(builtin_rank)),
                registered.index(kind),
            ),
        )
    )


def spec_class(kind: str) -> type[EstimatorSpec]:
    """The spec class registered under ``kind`` (``ValueError`` if none)."""
    _ensure_builtin()
    if kind not in _REGISTRY:
        raise ValueError(
            f"unknown estimator kind {kind!r}; "
            f"choose from {', '.join(estimator_kinds())}"
        )
    return _REGISTRY[kind]


def make_spec(kind: str, **params: Any) -> EstimatorSpec:
    """Build ``kind``'s validated spec from keyword parameters.

    Unknown or misspelled parameters raise a ``ValueError`` naming the
    offending key and the kind's accepted fields; out-of-range values
    raise from the spec's eager :meth:`~EstimatorSpec.validate`.
    """
    cls = spec_class(kind)
    return cls(**cls.check_params(params))


def spec_from_dict(data: Mapping[str, Any]) -> EstimatorSpec:
    """Rebuild a spec from a plain-dict payload carrying a ``kind``."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    if not isinstance(kind, str) or not kind:
        raise ValueError(
            f"estimator payload needs a 'kind' naming a registered "
            f"estimator; got {dict(data)!r}"
        )
    return make_spec(kind, **payload)


def resolve_spec(
    spec: EstimatorSpec | str | Mapping[str, Any],
    *,
    soft: Mapping[str, Any] | None = None,
    **params: Any,
) -> EstimatorSpec:
    """Coerce any spec spelling into a validated :class:`EstimatorSpec`.

    ``spec`` may be a ready spec (optionally updated with ``params``),
    a kind name (``params`` become the spec's fields), or a plain-dict
    payload with a ``'kind'`` key (``params`` layered on top).

    ``soft`` maps field names to *default* values: each is applied
    only when the kind accepts the field, the value is not ``None``,
    and neither the payload nor ``params`` pin it.  A ready
    :class:`EstimatorSpec` is a complete description — soft defaults
    never alter it.
    """
    if isinstance(spec, EstimatorSpec):
        changes = spec.check_params(params)
        return spec.replace(**changes) if changes else spec
    if isinstance(spec, str):
        kind, payload = spec, dict(params)
    elif isinstance(spec, Mapping):
        payload = dict(spec)
        kind = payload.pop("kind", None)
        if not isinstance(kind, str) or not kind:
            raise ValueError(
                f"estimator payload needs a 'kind' naming a registered "
                f"estimator; got {dict(spec)!r}"
            )
        payload.update(params)
    else:
        raise TypeError(
            f"spec must be an EstimatorSpec, a kind name, or a payload "
            f"dict; got {type(spec).__name__}"
        )
    cls = spec_class(kind)
    for name, value in (soft or {}).items():
        if value is not None and name in cls.field_names():
            payload.setdefault(name, value)
    return cls(**cls.check_params(payload))
