"""Search cap for enumeration-based searches, scoped to the caller.

Library default is uncapped (every search in this package terminates
mathematically).  The CLI installs a cap from AFFLAT_MAX_DEN so adversarial
inputs fail fast with a resource error instead of grinding.  The cap is a
context variable: it belongs to the thread (or asyncio task) that set it,
so callers with different caps do not see each other's, and a new thread
starts uncapped.
"""

from contextlib import contextmanager
from contextvars import ContextVar

from .errors import SearchBudgetExceeded

_MAX_DEN = ContextVar("afflat_max_den", default=None)


def set_max_den(value):
    """Set the search cap of the current context (None disables it).
    Returns the old value."""
    old = _MAX_DEN.get()
    _MAX_DEN.set(value)
    return old


@contextmanager
def capped(value):
    """Run the block under the search cap value (None: uncapped); the
    context's previous cap comes back on exit, however the block ends."""
    token = _MAX_DEN.set(value)
    try:
        yield
    finally:
        _MAX_DEN.reset(token)


def check(value, what="denominator search"):
    """Raise SearchBudgetExceeded if value passed the configured cap."""
    cap = _MAX_DEN.get()
    if cap is not None and value > cap:
        raise SearchBudgetExceeded(
            "%s passed the cap %d (AFFLAT_MAX_DEN)" % (what, cap))
