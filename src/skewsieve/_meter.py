"""The work meter: ``cli.run`` sets ``left`` to ``LIMIT`` and ``command``
to its command's name, then resets both to None, where nothing is
charged.  Each site charges before it works and names what it charges,
so the charge that runs the meter out names what ran out.  Sites call it
through the module, so one monkeypatch covers every route.
"""

from math import isqrt

# The work a command may do, in units of one bit-by-bit step of CPython's
# schoolbook long division (about 2 ps on CPython 3.11, 2 CPUs): about 2 s.
LIMIT = 10**12
# The price of one bead of one configuration visited by a strip walk: 1 to
# 2 us on CPython 3.11 (staircases, 2 CPUs).
VISIT = 10**6

left: int | None = None
command: str | None = None


def charge(units: int, what: str) -> None:
    """Take ``units`` of ``what`` off the meter while it runs, and refuse
    ``what`` once the meter falls below 0."""
    global left
    if left is not None:
        left -= units
        if left < 0:
            raise ValueError(f"the {what} cost is above the limit of 10^12 units for {command}")


def product_cost(p: int, q: int) -> int:
    """The price of a p-bit by q-bit product: 50 max(p, q) sqrt(min(p, q))
    units, 50 p^1.5 for two factors of p bits."""
    return 50 * max(p, q) * isqrt(min(p, q))
