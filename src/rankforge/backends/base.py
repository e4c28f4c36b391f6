"""Backend interface, descriptors, and shared value transforms."""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

# Clamp bound for win rates before the logit transform.  Keeps transformed
# values finite (|v| <= ~13.8) when an engine reports 0 or 1.
WINRATE_EPS = 1e-6

# Floor applied to policy priors before any log-space aggregation; a single
# zero would otherwise annihilate a whole geometric mean.
PRIOR_FLOOR = 1e-10

KINDS = ("strength", "policy", "value")
GAMES = ("go", "chess", "synthetic")

BUILTIN_SYNTHETIC = "builtin:synthetic"


def logit(wr: float) -> float:
    """log(wr / (1 - wr)) with wr clamped into [WINRATE_EPS, 1 - WINRATE_EPS]."""
    wr = min(max(wr, WINRATE_EPS), 1.0 - WINRATE_EPS)
    return math.log(wr) - math.log1p(-wr)


def floor_priors(values: np.ndarray) -> np.ndarray:
    return np.maximum(values, PRIOR_FLOOR)


@dataclass(frozen=True)
class BackendDescriptor:
    kind: str
    game: str
    launch: str = BUILTIN_SYNTHETIC
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        if self.game not in GAMES:
            raise ConfigError(f"unknown game {self.game!r}")
        if self.kind == "policy" and len(self.levels) < 1:
            raise ConfigError("policy backends must declare at least one level")
        if len(set(self.levels)) != len(self.levels):
            raise ConfigError("policy levels must be distinct")

    def identity(self) -> str:
        blob = "|".join([self.kind, self.game, self.launch, *self.levels])
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Backend:
    """One engine role's batch methods, which subclasses provide: each takes
    parallel sequences of states and moves and answers one float per state."""

    descriptor: BackendDescriptor

    def score_strength_many(self, states, moves) -> np.ndarray:
        raise NotImplementedError

    def policy_prior_many(self, states, moves, level: str) -> np.ndarray:
        raise NotImplementedError

    def evaluate_state_many(self, states, moves=None) -> np.ndarray:
        """Evaluate states from the player to move.  When ``moves`` is given,
        evaluate the state reached after playing each move instead (the new
        mover's perspective)."""
        raise NotImplementedError

    def score_strength(self, state: str, move: str) -> float:
        """The one-request probe: a single strength score, e.g. to start an
        engine before timed work."""
        return float(self.score_strength_many([state], [move])[0])

    def close(self) -> None:
        pass


@dataclass
class BackendBank:
    """The backends one extraction run needs, keyed by role."""

    strength: Backend | None = None
    policy: Backend | None = None
    value: Backend | None = None

    def require(self, *, need_strength: bool, need_policy: bool, need_value: bool):
        if need_strength and self.strength is None:
            raise ConfigError("feature config enables strength but no strength backend given")
        if need_policy and self.policy is None:
            raise ConfigError("feature config enables priors but no policy backend given")
        if need_value and self.value is None:
            raise ConfigError("feature config enables losses but no value backend given")

    def close(self) -> None:
        for backend in {id(b): b for b in (self.strength, self.policy, self.value) if b}.values():
            backend.close()
