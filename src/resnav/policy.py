"""Deployment-time action selection.

Five interchangeable controllers over the same step interface:

- prior: the potential-field command, untouched.
- residual: prior plus the dropout-averaged network correction.
- gated: like residual, but each step estimates the correction's epistemic
  uncertainty from the spread of stochastic forward passes and, with
  probability equal to that uncertainty, falls back to the bare prior.
- end_to_end: the network command alone; it reads no prior slot of the observation.
- random: uniform commands, a floor for the metrics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .env import E2E_OBS_DIM
from .errors import ConfigurationError, UsageError
from .nn import Mlp, mc_statistics
from .prior import Action, compose_hybrid


class PolicyMode(Enum):
    PRIOR = "prior"
    RESIDUAL = "residual"
    GATED = "gated"
    END_TO_END = "end_to_end"
    RANDOM = "random"


#: policy modes that read a trained network, mapped to the checkpoint kind they need
CHECKPOINT_KIND = {
    PolicyMode.RESIDUAL: "residual",
    PolicyMode.GATED: "residual",
    PolicyMode.END_TO_END: "end_to_end",
}


@dataclass(frozen=True)
class PolicyOutput:
    """One step's decision with everything the trajectory log records."""

    action: Action
    residual_mean: np.ndarray | None = None
    residual_variance: np.ndarray | None = None
    epsilon: float | None = None
    used_prior_only: bool | None = None
    uniform_draw: float | None = None


def epsilon_from_variance(variance: np.ndarray) -> float:
    """Switch probability: the larger per-dimension variance, clamped to [0, 1]."""
    eps = float(np.max(np.asarray(variance, dtype=np.float64)))
    return min(max(eps, 0.0), 1.0)


class PriorPolicy:
    mode = PolicyMode.PRIOR

    def act(self, observation, prior_action: Action, rng: np.random.Generator) -> PolicyOutput:
        return PolicyOutput(action=prior_action, used_prior_only=True)


class ResidualPolicy:
    """Prior plus the network correction, averaged over stochastic passes.

    single_pass=True skips the averaging and runs the network once with
    dropout off; with dropout-free networks the two are identical anyway.
    """

    mode = PolicyMode.RESIDUAL

    def __init__(self, actor: Mlp, n_passes: int = 100, single_pass: bool = False) -> None:
        if n_passes < 2:
            raise ConfigurationError(f"n_passes must be >= 2, got {n_passes}")
        self.actor = actor
        self.n_passes = n_passes
        self.single_pass = single_pass

    def act(self, observation, prior_action: Action, rng: np.random.Generator) -> PolicyOutput:
        if self.single_pass:
            mean = self.actor.forward(np.asarray(observation, dtype=np.float64))
            variance = np.zeros_like(mean)
        else:
            mean, variance = mc_statistics(self.actor, observation, self.n_passes, rng)
        return PolicyOutput(
            action=compose_hybrid(prior_action, mean),
            residual_mean=mean,
            residual_variance=variance,
            used_prior_only=False,
        )


class GatedResidualPolicy:
    """Residual hybrid with an uncertainty-triggered retreat to the prior.

    Each step runs n_passes stochastic forwards; the executed command is
    the bare prior with probability max(var) (clamped to [0, 1]), and the
    prior-plus-mean hybrid otherwise.
    """

    mode = PolicyMode.GATED

    def __init__(self, actor: Mlp, n_passes: int = 100, epsilon_override: float | None = None) -> None:
        if n_passes < 2:
            raise ConfigurationError(f"n_passes must be >= 2, got {n_passes}")
        if epsilon_override is not None and not 0.0 <= epsilon_override <= 1.0:
            raise ConfigurationError(f"epsilon_override must be in [0, 1], got {epsilon_override}")
        if actor.dropout_p == 0.0 and epsilon_override is None:
            warnings.warn(
                "gated policy on a dropout-free network: variance is always zero, "
                "so the gate never fires and the policy reduces to the residual hybrid",
                stacklevel=2,
            )
        self.actor = actor
        self.n_passes = n_passes
        self.epsilon_override = epsilon_override

    def act(self, observation, prior_action: Action, rng: np.random.Generator) -> PolicyOutput:
        mean, variance = mc_statistics(self.actor, observation, self.n_passes, rng)
        epsilon = (
            self.epsilon_override
            if self.epsilon_override is not None
            else epsilon_from_variance(variance)
        )
        draw = float(rng.uniform())
        use_prior = draw < epsilon
        action = prior_action if use_prior else compose_hybrid(prior_action, mean)
        return PolicyOutput(
            action=action,
            residual_mean=mean,
            residual_variance=variance,
            epsilon=epsilon,
            used_prior_only=use_prior,
            uniform_draw=draw,
        )


class EndToEndPolicy:
    mode = PolicyMode.END_TO_END

    def __init__(self, actor: Mlp) -> None:
        self.actor = actor

    def act(self, observation, prior_action: Action | None, rng: np.random.Generator) -> PolicyOutput:
        out = self.actor.forward(np.asarray(observation, dtype=np.float64)[:E2E_OBS_DIM])
        return PolicyOutput(action=Action(float(out[0]), float(out[1])))


class RandomPolicy:
    mode = PolicyMode.RANDOM

    def act(self, observation, prior_action: Action | None, rng: np.random.Generator) -> PolicyOutput:
        v, omega = rng.uniform(-1.0, 1.0, 2)
        return PolicyOutput(action=Action(float(v), float(omega)))


def make_policy(
    mode: PolicyMode | str,
    actor: Mlp | None = None,
    actor_kind: str | None = None,
    n_passes: int = 100,
    single_pass: bool = False,
):
    """Build a policy, checking the network kind against what the mode needs.

    actor_kind is the training-mode string stored in the checkpoint.
    """
    mode = PolicyMode(mode)
    if mode is PolicyMode.PRIOR:
        return PriorPolicy()
    if mode is PolicyMode.RANDOM:
        return RandomPolicy()
    if actor is None:
        raise UsageError(f"{mode.value} policy needs a trained network")
    needed = CHECKPOINT_KIND[mode]
    if actor_kind is not None and actor_kind != needed:
        raise UsageError(
            f"{mode.value} policy needs a {needed!r} checkpoint, got {actor_kind!r}"
        )
    if mode is PolicyMode.RESIDUAL:
        return ResidualPolicy(actor, n_passes=n_passes, single_pass=single_pass)
    if mode is PolicyMode.GATED:
        return GatedResidualPolicy(actor, n_passes=n_passes)
    return EndToEndPolicy(actor)
