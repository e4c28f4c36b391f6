"""Evaluator backends: strength scorer, policy bank, and value evaluator.

A backend is reachable either in-process (the synthetic backend) or as a
subprocess speaking newline-delimited JSON.  All callers go through the
`Backend` interface; batch methods are the primary surface so pipelined
protocols and vectorized synthetic evaluation stay fast.
"""

from .base import (
    PRIOR_FLOOR,
    Backend,
    BackendBank,
    BackendDescriptor,
    logit,
)
from .cache import CachedBackend, ResponseCache, default_cache_path
from .client import SubprocessBackend
from .synthetic import SyntheticBackend

__all__ = [
    "PRIOR_FLOOR",
    "Backend",
    "BackendBank",
    "BackendDescriptor",
    "CachedBackend",
    "default_cache_path",
    "ResponseCache",
    "SubprocessBackend",
    "SyntheticBackend",
    "logit",
]
