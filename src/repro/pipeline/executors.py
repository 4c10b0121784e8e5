"""The executor registry: one spec grammar for CLI, env and constructor.

Executor configuration arrives from an ``executor=`` constructor kwarg,
``--executor`` / ``--batch-size`` / ``--workers`` / ``--queue-depth`` CLI
flags and the ``$REPRO_EXECUTOR`` variable.  This module collapses all of
it into one :class:`ExecutorSpec` with a single string grammar accepted
everywhere::

    serial
    process:workers=4
    process:workers=4,batch=64,queue=128

Grammar: ``name[:key=value,...]`` where ``name`` is ``serial`` or
``process`` and the keys (all positive integers) are

* ``workers`` — parallel lanes for the process executor;
* ``batch`` — documents per stream batch;
* ``queue`` — bound of the ingest queue between the fetch front-end and
  the executor (backpressure);
* ``watchdog`` — seconds before a hung worker future times the sweep
  out (degrading the batch to the serial path); process executor only.

Precedence, everywhere a spec can meet another source of the same
setting (most specific wins):

1. an explicit individual override — a CLI flag (``--workers``,
   ``--batch-size``, ``--queue-depth``) or constructor kwarg
   (``batch_size=``, ``queue_bound=``);
2. the field parsed from the spec string;
3. the ``$REPRO_EXECUTOR`` spec (consulted only when no spec was given);
4. the built-in default (serial, batch 32, queue 2×batch).

:func:`create` turns a spec (string, :class:`ExecutorSpec`, instance or
``None``) into a ready :class:`~repro.pipeline.executor.BatchExecutor`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, Optional, Tuple, Union

from ..errors import PipelineError
from .executor import (
    BatchExecutor,
    EXECUTOR_ENV,
    ProcessExecutor,
    SerialExecutor,
)

__all__ = [
    "ExecutorSpec",
    "available",
    "create",
    "resolve",
]


@dataclass(frozen=True)
class ExecutorSpec:
    """One parsed executor configuration (see the module docstring)."""

    name: str = SerialExecutor.name
    workers: Optional[int] = None
    batch: Optional[int] = None
    queue: Optional[int] = None
    watchdog: Optional[int] = None

    @classmethod
    def parse(cls, text: str) -> "ExecutorSpec":
        """Parse ``name[:key=value,...]`` into a spec."""
        text = text.strip()
        name, _, options = text.partition(":")
        name = name.strip().lower()
        if not name:
            raise PipelineError(f"empty executor name in spec {text!r}")
        values: Dict[str, int] = {}
        if options.strip():
            for item in options.split(","):
                key, sep, value = item.partition("=")
                key = key.strip().lower()
                value = value.strip()
                if not sep or not value:
                    raise PipelineError(
                        f"malformed option {item.strip()!r} in executor spec"
                        f" {text!r} (expected key=value)"
                    )
                if key not in _KEYS:
                    raise PipelineError(
                        f"unknown executor spec option {key!r}"
                        f" (choose from {', '.join(sorted(_KEYS))})"
                    )
                try:
                    number = int(value)
                except ValueError:
                    raise PipelineError(
                        f"executor spec option {key!r} needs an integer,"
                        f" got {value!r}"
                    ) from None
                if number < 1:
                    raise PipelineError(
                        f"executor spec option {key!r} must be >= 1,"
                        f" got {number}"
                    )
                values[key] = number
        return cls(name=name, **values)

    def merged(self, **overrides) -> "ExecutorSpec":
        """A copy with every non-``None`` override applied (overrides win
        over spec fields — precedence rule 1)."""
        changes = {
            key: value for key, value in overrides.items() if value is not None
        }
        return replace(self, **changes) if changes else self

    def render(self) -> str:
        """The canonical spec string (parse/render round-trips)."""
        options = [
            f"{key}={getattr(self, key)}"
            for key in _KEYS
            if getattr(self, key) is not None
        ]
        if not options:
            return self.name
        return f"{self.name}:{','.join(options)}"


#: The spec keys, in render order: every field but the name.
_KEYS: Tuple[str, ...] = tuple(
    spec_field.name
    for spec_field in fields(ExecutorSpec)
    if spec_field.name != "name"
)


def _build_serial(spec: ExecutorSpec) -> BatchExecutor:
    for key in ("workers", "watchdog"):
        if getattr(spec, key) is not None:
            raise PipelineError(
                f"executor {spec.name!r} takes no {key}= option"
            )
    return SerialExecutor()


def _build_process(spec: ExecutorSpec) -> BatchExecutor:
    return ProcessExecutor(workers=spec.workers, watchdog=spec.watchdog)


_FACTORIES: Dict[str, Callable[[ExecutorSpec], BatchExecutor]] = {
    SerialExecutor.name: _build_serial,
    ProcessExecutor.name: _build_process,
}


def available() -> Tuple[str, ...]:
    """The executor names, sorted."""
    return tuple(sorted(_FACTORIES))


def resolve(
    spec: Union[str, ExecutorSpec, None] = None,
) -> ExecutorSpec:
    """Normalise any spec input into an :class:`ExecutorSpec`.

    ``None`` falls back to ``$REPRO_EXECUTOR`` (itself a full spec
    string) and then to the serial default — precedence rules 3 and 4.
    """
    if isinstance(spec, ExecutorSpec):
        return spec
    if spec is None:
        spec = os.environ.get(EXECUTOR_ENV) or SerialExecutor.name
    return ExecutorSpec.parse(str(spec))


def create(
    spec: Union[str, ExecutorSpec, BatchExecutor, None] = None,
    **overrides,
) -> BatchExecutor:
    """Build a :class:`BatchExecutor` from any accepted spec form.

    An instance passes through untouched; anything else goes through
    :func:`resolve` + :meth:`ExecutorSpec.merged` (keyword overrides win
    over spec fields) and the factory for the name.
    """
    if isinstance(spec, BatchExecutor):
        return spec
    resolved = resolve(spec).merged(**overrides)
    factory = _FACTORIES.get(resolved.name)
    if factory is None:
        known = ", ".join(available())
        raise PipelineError(
            f"unknown executor {resolved.name!r} (choose from {known})"
        )
    return factory(resolved)
