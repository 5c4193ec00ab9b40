"""Relation schemas.

A schema names a relation and its attributes.  Attributes are positional
(rows are plain tuples) but addressable by name; the CMS's cache model and
the remote DBMS's catalog both store schemas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import SchemaError


@dataclass(frozen=True)
class Schema:
    """An ordered list of named attributes for relation ``name``.

    ``key`` optionally lists the attribute names of the primary key; it is
    informational (used by statistics and functional-dependency reasoning),
    not enforced on insert.
    """

    name: str
    attributes: tuple[str, ...]
    key: tuple[str, ...] = ()
    _positions: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not isinstance(self.attributes, tuple):
            object.__setattr__(self, "attributes", tuple(self.attributes))
        if not isinstance(self.key, tuple):
            object.__setattr__(self, "key", tuple(self.key))
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(f"duplicate attribute names in schema {self.name!r}: {self.attributes}")
        if not self.attributes:
            raise SchemaError(f"schema {self.name!r} must have at least one attribute")
        for k in self.key:
            if k not in self.attributes:
                raise SchemaError(f"key attribute {k!r} not in schema {self.name!r}")
        object.__setattr__(
            self, "_positions", {attr: i for i, attr in enumerate(self.attributes)}
        )

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.attributes)

    def position(self, attribute: str) -> int:
        """Zero-based position of ``attribute``; raises on unknown names."""
        try:
            return self._positions[attribute]
        except KeyError:
            raise SchemaError(
                f"schema {self.name!r} has no attribute {attribute!r} "
                f"(has: {', '.join(self.attributes)})"
            ) from None

    def positions(self, attributes: tuple[str, ...] | list[str]) -> tuple[int, ...]:
        """Positions for several attributes at once."""
        return tuple(self.position(a) for a in attributes)

    def project(self, attributes: tuple[str, ...] | list[str], name: str | None = None) -> "Schema":
        """A schema containing only the given attributes, in the given order."""
        for a in attributes:
            self.position(a)  # validates
        return Schema(name or self.name, tuple(attributes))

    def concat(self, other: "Schema", name: str) -> "Schema":
        """Schema of the cross product / join of two relations.

        Name clashes are disambiguated with the source relation name as a
        prefix (``left.x``-style, using ``_`` to stay identifier-safe).
        """
        attrs = list(self.attributes)
        for attr in other.attributes:
            if attr in self._positions:
                attrs.append(f"{other.name}_{attr}")
            else:
                attrs.append(attr)
        if len(set(attrs)) != len(attrs):
            # Prefix both sides when even prefixing one side clashes.
            attrs = [f"{self.name}_{a}" for a in self.attributes] + [
                f"{other.name}_{a}" for a in other.attributes
            ]
        return Schema(name, tuple(attrs))

    def __str__(self) -> str:
        inner = ", ".join(self.attributes)
        return f"{self.name}({inner})"
