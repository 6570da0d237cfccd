"""Configuration parameters and configuration spaces.

This module defines the vocabulary every tuner and every system simulator
share: typed parameters (numeric, categorical, boolean), immutable
configurations, cross-parameter constraints, and the
:class:`ConfigurationSpace` that ties them together.

The numeric encoding contract is central: every parameter can map its
values into the unit interval ``[0, 1]`` (``to_unit``) and back
(``from_unit``).  Search algorithms operate on unit-scaled vectors and
remain agnostic of units, log scales, and integrality; the space handles
rounding and snapping.  :class:`~repro.core.pool.PoolLayout` decodes and
encodes whole ``(n, d)`` blocks of unit vectors with the same
per-element operations, bit-identically; see :mod:`repro.core.pool`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, Mapping,
    Optional, Sequence,
)

import numpy as np

from repro.exceptions import ConstraintViolation, ParameterError, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pool import CandidatePool, PoolLayout

__all__ = [
    "Parameter",
    "NumericParameter",
    "CategoricalParameter",
    "BooleanParameter",
    "Constraint",
    "Configuration",
    "ConfigurationSpace",
]


class Parameter(ABC):
    """A single tunable knob.

    Attributes:
        name: unique identifier within a configuration space.
        default: the vendor-default value (what an untuned system uses).
        description: human-readable documentation of the knob.
        unit: optional physical unit label (e.g., ``"MiB"``).
    """

    def __init__(self, name: str, default: Any, description: str = "", unit: str = ""):
        if not name or not isinstance(name, str):
            raise ParameterError("parameter name must be a non-empty string")
        self.name = name
        self.description = description
        self.unit = unit
        self.default = default

    @abstractmethod
    def validate(self, value: Any) -> Any:
        """Return a normalized copy of ``value`` or raise ValidationError."""

    @abstractmethod
    def to_unit(self, value: Any) -> float:
        """Encode ``value`` into the unit interval [0, 1]."""

    @abstractmethod
    def from_unit(self, u: float) -> Any:
        """Decode a unit-interval coordinate into a domain value."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> Any:
        """Draw a uniform random value from the domain."""

    @abstractmethod
    def grid(self, k: int) -> List[Any]:
        """Return up to ``k`` representative values spanning the domain."""

    @property
    def is_numeric(self) -> bool:
        return isinstance(self, NumericParameter)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, default={self.default!r})"


class NumericParameter(Parameter):
    """An integer- or real-valued knob on a bounded interval.

    Args:
        low, high: inclusive bounds of the domain.
        integer: round values to integers when True.
        log_scale: interpolate geometrically in unit space (requires
            ``low > 0``); appropriate for sizes spanning decades, e.g.,
            buffer sizes from 1 MiB to 64 GiB.
    """

    def __init__(
        self,
        name: str,
        default: float,
        low: float,
        high: float,
        integer: bool = False,
        log_scale: bool = False,
        description: str = "",
        unit: str = "",
    ):
        if not (low < high):
            raise ParameterError(f"{name}: low ({low}) must be < high ({high})")
        if log_scale and low <= 0:
            raise ParameterError(f"{name}: log scale requires low > 0, got {low}")
        if integer and math.floor(high) < math.ceil(low):
            raise ParameterError(
                f"{name}: no integer lies in [{low}, {high}]"
            )
        self.low = float(low)
        self.high = float(high)
        self.integer = integer
        self.log_scale = log_scale
        super().__init__(name, default, description, unit)
        self.default = self.validate(default)

    def validate(self, value: Any) -> Any:
        try:
            v = float(value)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{self.name}: {value!r} is not numeric") from exc
        if math.isnan(v):
            raise ValidationError(f"{self.name}: NaN is not a valid value")
        if not (self.low <= v <= self.high):
            raise ValidationError(
                f"{self.name}: {v} outside [{self.low}, {self.high}]"
            )
        if self.integer:
            # Rounding may leave fractional bounds; snap back inside.
            v = int(
                min(math.floor(self.high), max(math.ceil(self.low), round(v)))
            )
        return v

    def clip(self, value: float) -> Any:
        """Clamp into bounds, then validate (rounding if integer)."""
        return self.validate(min(self.high, max(self.low, float(value))))

    def to_unit(self, value: Any) -> float:
        v = float(self.validate(value))
        if self.log_scale:
            return (math.log(v) - math.log(self.low)) / (
                math.log(self.high) - math.log(self.low)
            )
        return (v - self.low) / (self.high - self.low)

    def from_unit(self, u: float) -> Any:
        u = min(1.0, max(0.0, float(u)))
        if self.log_scale:
            v = math.exp(
                math.log(self.low) + u * (math.log(self.high) - math.log(self.low))
            )
        else:
            v = self.low + u * (self.high - self.low)
        return self.validate(min(self.high, max(self.low, v)))

    def sample(self, rng: np.random.Generator) -> Any:
        return self.from_unit(float(rng.random()))

    def grid(self, k: int) -> List[Any]:
        if k < 1:
            return []
        if k == 1:
            return [self.from_unit(0.5)]
        values = [self.from_unit(i / (k - 1)) for i in range(k)]
        # Integer rounding can collapse adjacent grid points; deduplicate
        # while preserving order.
        seen: List[Any] = []
        for v in values:
            if v not in seen:
                seen.append(v)
        return seen


class CategoricalParameter(Parameter):
    """A knob with an explicit finite set of unordered choices."""

    def __init__(
        self,
        name: str,
        default: Any,
        choices: Sequence[Any],
        description: str = "",
    ):
        choices = list(choices)
        if len(choices) < 2:
            raise ParameterError(f"{name}: need at least 2 choices")
        if len(set(map(repr, choices))) != len(choices):
            raise ParameterError(f"{name}: duplicate choices")
        self.choices = choices
        super().__init__(name, default, description)
        self.default = self.validate(default)

    def validate(self, value: Any) -> Any:
        if value in self.choices:
            return value
        raise ValidationError(f"{self.name}: {value!r} not in {self.choices!r}")

    def to_unit(self, value: Any) -> float:
        idx = self.choices.index(self.validate(value))
        return idx / (len(self.choices) - 1)

    def from_unit(self, u: float) -> Any:
        u = min(1.0, max(0.0, float(u)))
        idx = int(round(u * (len(self.choices) - 1)))
        return self.choices[idx]

    def sample(self, rng: np.random.Generator) -> Any:
        return self.choices[int(rng.integers(len(self.choices)))]

    def grid(self, k: int) -> List[Any]:
        return list(self.choices[: max(k, 0)]) if k < len(self.choices) else list(self.choices)


class BooleanParameter(CategoricalParameter):
    """An on/off knob, modeled as the categorical domain {False, True}."""

    def __init__(self, name: str, default: bool, description: str = ""):
        super().__init__(name, bool(default), [False, True], description)

    def validate(self, value: Any) -> Any:
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        if value in (0, 1):
            return bool(value)
        raise ValidationError(f"{self.name}: {value!r} is not boolean")


class Constraint:
    """A named cross-parameter predicate a configuration must satisfy.

    Args:
        name: identifier used in error messages.
        predicate: callable taking a value mapping, returning truthiness.
        description: human-readable statement of the rule.
    """

    def __init__(
        self,
        name: str,
        predicate: Callable[[Mapping[str, Any]], bool],
        description: str = "",
    ):
        self.name = name
        self.predicate = predicate
        self.description = description

    def holds(self, values: Mapping[str, Any]) -> bool:
        return bool(self.predicate(values))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Constraint({self.name!r})"


def _value_hash(values: Mapping[str, Any]) -> int:
    return hash(tuple(sorted((k, repr(v)) for k, v in values.items())))


class Configuration(Mapping[str, Any]):
    """An immutable assignment of values to every parameter of a space.

    Behaves as a read-only mapping; hashable, so configurations can key
    caches of measurements.
    """

    __slots__ = ("_values", "_space", "_hash", "_x")

    def __init__(self, space: "ConfigurationSpace", values: Mapping[str, Any]):
        normalized: Dict[str, Any] = {}
        for param in space.parameters():
            if param.name not in values:
                raise ValidationError(f"missing value for parameter {param.name!r}")
            normalized[param.name] = param.validate(values[param.name])
        extra = set(values) - set(normalized)
        if extra:
            raise ValidationError(f"unknown parameters: {sorted(extra)}")
        space.check_constraints(normalized)
        self._values = normalized
        self._space = space
        self._hash = _value_hash(normalized)
        self._x: Optional[np.ndarray] = None

    @classmethod
    def from_checked_row(
        cls,
        space: "ConfigurationSpace",
        values: Dict[str, Any],
        x: np.ndarray,
        value_hash: Optional[int] = None,
    ) -> "Configuration":
        """A configuration whose values were checked as part of a block.

        For :mod:`repro.core.pool`, which validates every value and
        checks every constraint once per ``(n, d)`` block instead of per
        element.  ``values`` must hold exactly what the validating
        constructor would store: one normalized value per parameter, in
        space order, satisfying every constraint.  ``x`` is its unit
        encoding, equal bitwise to ``space.to_array(values)``; it is
        kept (not copied) and :meth:`to_array` returns copies of it.
        ``value_hash``, if given, must be the hash of the
        ``(name, repr(value))`` pairs sorted by name, as computed here
        otherwise.
        """
        config = cls.__new__(cls)
        config._values = values
        config._space = space
        config._hash = _value_hash(values) if value_hash is None else value_hash
        config._x = x
        return config

    @property
    def space(self) -> "ConfigurationSpace":
        return self._space

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._values == other._values

    def replace(self, **updates: Any) -> "Configuration":
        """Return a new configuration with some values replaced."""
        merged = dict(self._values)
        merged.update(updates)
        return Configuration(self._space, merged)

    def to_dict(self) -> Dict[str, Any]:
        return dict(self._values)

    def to_array(self) -> np.ndarray:
        """Unit-scaled vector in the space's parameter order."""
        if self._x is not None:
            return self._x.copy()
        return self._space.to_array(self)

    def __repr__(self) -> str:  # pragma: no cover
        body = ", ".join(f"{k}={v!r}" for k, v in sorted(self._values.items()))
        return f"Configuration({body})"


class ConfigurationSpace:
    """An ordered collection of parameters plus validity constraints.

    The order of parameters is the order of vector encodings used by all
    numeric search code.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter] = (),
        constraints: Iterable[Constraint] = (),
        name: str = "space",
    ):
        self.name = name
        self._params: Dict[str, Parameter] = {}
        self._constraints: List[Constraint] = []
        self._pool_layout = None  # built on the first sample_pool call
        for p in parameters:
            self.add(p)
        for c in constraints:
            self.add_constraint(c)

    # -- construction ---------------------------------------------------
    def add(self, parameter: Parameter) -> "ConfigurationSpace":
        if parameter.name in self._params:
            raise ParameterError(f"duplicate parameter {parameter.name!r}")
        self._params[parameter.name] = parameter
        self._pool_layout = None
        return self

    def add_constraint(self, constraint: Constraint) -> "ConfigurationSpace":
        self._constraints.append(constraint)
        return self

    # -- introspection ---------------------------------------------------
    def parameters(self) -> List[Parameter]:
        return list(self._params.values())

    def names(self) -> List[str]:
        return list(self._params)

    def constraints(self) -> List[Constraint]:
        return list(self._constraints)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def __getitem__(self, name: str) -> Parameter:
        try:
            return self._params[name]
        except KeyError:
            raise ParameterError(f"no parameter named {name!r}") from None

    @property
    def dimension(self) -> int:
        return len(self._params)

    def numeric_names(self) -> List[str]:
        return [p.name for p in self.parameters() if p.is_numeric]

    # -- configurations ---------------------------------------------------
    def configuration(self, values: Mapping[str, Any]) -> Configuration:
        """Build a validated configuration from a full value mapping."""
        return Configuration(self, values)

    def default_configuration(self) -> Configuration:
        return Configuration(self, {p.name: p.default for p in self.parameters()})

    def partial(self, overrides: Mapping[str, Any]) -> Configuration:
        """Default configuration with some values overridden."""
        values = {p.name: p.default for p in self.parameters()}
        values.update(overrides)
        return Configuration(self, values)

    def check_constraints(self, values: Mapping[str, Any]) -> None:
        for c in self._constraints:
            if not c.holds(values):
                raise ConstraintViolation(c.name, c.description or c.name)

    def is_feasible(self, values: Mapping[str, Any]) -> bool:
        try:
            self.check_constraints(values)
        except ConstraintViolation:
            return False
        return True

    # -- vector encoding ---------------------------------------------------
    def to_array(self, config: Mapping[str, Any]) -> np.ndarray:
        return np.array(
            [p.to_unit(config[p.name]) for p in self.parameters()], dtype=float
        )

    def from_array(self, x: Sequence[float]) -> Configuration:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValidationError(
                f"expected vector of length {self.dimension}, got shape {x.shape}"
            )
        values = {
            p.name: p.from_unit(float(u)) for p, u in zip(self.parameters(), x)
        }
        return Configuration(self, values)

    def from_array_feasible(
        self, x: Sequence[float], rng: Optional[np.random.Generator] = None, max_tries: int = 64
    ) -> Configuration:
        """Decode a vector, repairing constraint violations by resampling.

        Falls back to the default configuration if no feasible neighbor
        is found — the default is required to be feasible by contract.
        """
        rng = rng or np.random.default_rng(0)
        x = np.asarray(x, dtype=float)
        for attempt in range(max_tries):
            try:
                return self.from_array(x)
            except ConstraintViolation:
                jitter = rng.normal(scale=0.05 * (attempt + 1), size=self.dimension)
                x = np.clip(np.asarray(x, dtype=float) + jitter, 0.0, 1.0)
        return self.default_configuration()

    # -- sampling ---------------------------------------------------------
    def sample_configuration(
        self, rng: np.random.Generator, max_tries: int = 256
    ) -> Configuration:
        """Uniformly sample a feasible configuration (rejection sampling)."""
        for _ in range(max_tries):
            values = {p.name: p.sample(rng) for p in self.parameters()}
            if self.is_feasible(values):
                return Configuration(self, values)
        raise ValidationError(
            f"could not sample a feasible configuration in {max_tries} tries"
        )

    def sample_configurations(
        self, n: int, rng: np.random.Generator
    ) -> List[Configuration]:
        """``n`` :meth:`sample_configuration` calls, sampled as a block.

        Configurations, errors and ``rng``'s state afterwards are those
        of the scalar loop; see :func:`repro.core.pool.sample_configurations`.
        """
        from repro.core import pool

        return pool.sample_configurations(self, n, rng)

    def sample_pool(
        self, n: int, rng: np.random.Generator, max_tries: int = 256
    ) -> "CandidatePool":
        """The feasible results of ``n`` :meth:`sample_configuration` calls.

        Calls that exhaust ``max_tries`` are skipped.  The result is a
        :class:`~repro.core.pool.CandidatePool`: the candidates' unit
        matrix ``X``, with each :class:`Configuration` built only when
        indexed.  Configurations, their order and ``rng``'s state
        afterwards are exactly those of the scalar loop; see
        :mod:`repro.core.pool` for how.
        """
        from repro.core import pool

        return pool.sample_pool(self, self.pool_layout(), n, rng, max_tries)

    def pool_layout(self) -> "PoolLayout":
        """Per-space data for :mod:`repro.core.pool`, built on first use."""
        if self._pool_layout is None:
            from repro.core.pool import PoolLayout

            self._pool_layout = PoolLayout(self.parameters())
        return self._pool_layout

    # -- derived spaces -----------------------------------------------------
    def subspace(self, names: Sequence[str], name: str = "") -> "ConfigurationSpace":
        """A space over a subset of parameters (constraints that mention
        dropped parameters are omitted — they cannot be evaluated)."""
        missing = [n for n in names if n not in self._params]
        if missing:
            raise ParameterError(f"unknown parameters: {missing}")
        sub = ConfigurationSpace(name=name or f"{self.name}.sub")
        for n in names:
            sub.add(self._params[n])
        kept = set(names)
        for c in self._constraints:
            # Keep constraints that evaluate successfully on the default
            # restricted mapping; heuristic but safe for our catalogs,
            # which register touched-parameter names explicitly.
            touched = getattr(c, "touches", None)
            if touched is not None and set(touched) <= kept:
                sub.add_constraint(c)
        return sub

    def __repr__(self) -> str:  # pragma: no cover
        return f"ConfigurationSpace({self.name!r}, {len(self)} parameters)"


def make_constraint(
    name: str, touches: Sequence[str], predicate: Callable[[Mapping[str, Any]], bool], description: str = ""
) -> Constraint:
    """Build a constraint annotated with the parameter names it touches.

    The annotation lets :meth:`ConfigurationSpace.subspace` carry the
    constraint over when all touched parameters survive the projection.
    """
    c = Constraint(name, predicate, description)
    c.touches = tuple(touches)  # type: ignore[attr-defined]
    return c
