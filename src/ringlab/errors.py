"""Exception types shared across the package."""

from __future__ import annotations

from typing import Optional


class RinglabError(Exception):
    """Base class for all ringlab errors."""


class RingConstructionError(RinglabError):
    """A constructor received tables or parameters that do not form a ring."""


class BimoduleError(RingConstructionError):
    """Module action tables violate a compatibility law.

    The ``witness`` attribute names the violated law and the elements
    exhibiting it.
    """

    def __init__(self, law: str, witness: tuple):
        self.law = law
        self.witness = witness
        super().__init__(f"bimodule law {law!r} violated at {witness!r}")


class EndomorphismError(RingConstructionError):
    """The supplied element map is not a unital ring endomorphism."""

    def __init__(self, law: str, witness: tuple):
        self.law = law
        self.witness = witness
        super().__init__(f"endomorphism law {law!r} violated at {witness!r}")


class SizeOverflowError(RinglabError):
    """A construction or search would exceed its order limit.

    A refused construction also carries ``table_bytes``, what its add
    and mul tables would take.
    """

    def __init__(self, required_order: int, cap: int, table_bytes: Optional[int] = None):
        self.required_order = required_order
        self.cap = cap
        self.table_bytes = table_bytes
        message = f"construction requires order {required_order}, above the cap {cap}"
        if table_bytes is not None:
            message += f"; its add and mul tables would take {table_bytes} bytes"
        super().__init__(message)


class IdealError(RinglabError):
    """An element set expected to be a two-sided ideal is not one."""


class LatticeLimitError(RinglabError):
    """One-sided ideal enumeration exceeded its configured bound."""

    def __init__(self, count_limit: int):
        self.count_limit = count_limit
        super().__init__(f"ideal lattice exceeds {count_limit} members")


class SpecError(RinglabError):
    """A ring-spec document is malformed; ``path`` locates the offence."""

    def __init__(self, message: str, path: str = "$"):
        self.path = path
        super().__init__(f"{message} (at {path})")


class UnknownElementError(RinglabError):
    """An element label did not resolve in the target ring."""
