"""Deployment-time action selection.

Five interchangeable controllers over one interface, act(observation, rng):

- prior: the potential-field command, read from the observation, untouched.
- residual: prior plus the dropout-averaged network correction.
- gated: like residual, but each step estimates the correction's epistemic
  uncertainty from the spread of stochastic forward passes and, with
  probability equal to that uncertainty, falls back to the bare prior.
- end_to_end: the network command alone; it reads no prior slot of the observation.
- random: uniform commands, a floor for the metrics.

TRAINING_MODES and CONTROLLERS describe each training mode and each
controller once; every caller that names one reads them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .env import E2E_OBS_DIM, RESIDUAL_OBS_DIM, prior_of
from .errors import ConfigurationError, UsageError
from .nn import Mlp, mc_statistics
from .prior import Action, compose_hybrid


@dataclass(frozen=True)
class TrainingMode:
    """An actor of this mode reads the first obs_dim observation entries; its output
    corrects the prior's command (corrects_prior) or is the command itself."""

    name: str
    obs_dim: int
    corrects_prior: bool

    def command(self, observation, output) -> Action:
        """The command executed for the actor's output on observation."""
        if self.corrects_prior:
            return compose_hybrid(prior_of(observation), output)
        return Action(float(output[0]), float(output[1]))


RESIDUAL = TrainingMode("residual", RESIDUAL_OBS_DIM, corrects_prior=True)
END_TO_END = TrainingMode("end_to_end", E2E_OBS_DIM, corrects_prior=False)
#: training mode name (a checkpoint's kind tag) -> TrainingMode
TRAINING_MODES = {mode.name: mode for mode in (RESIDUAL, END_TO_END)}


@dataclass(frozen=True)
class PolicyOutput:
    """One step's decision with everything the trajectory log records."""

    action: Action
    residual_mean: np.ndarray | None = None
    residual_variance: np.ndarray | None = None
    epsilon: float | None = None
    used_prior_only: bool | None = None


def epsilon_from_variance(variance: np.ndarray) -> float:
    """Switch probability: the larger per-dimension variance, clamped to [0, 1]."""
    eps = float(np.max(np.asarray(variance, dtype=np.float64)))
    return min(max(eps, 0.0), 1.0)


class PriorPolicy:
    def act(self, observation, rng: np.random.Generator) -> PolicyOutput:
        return PolicyOutput(action=prior_of(observation), used_prior_only=True)


class ResidualPolicy:
    """Prior plus the network correction, averaged over stochastic passes.

    single_pass=True skips the averaging and runs the network once with
    dropout off; with dropout-free networks the two are identical anyway.
    """

    def __init__(self, actor: Mlp, n_passes: int = 100, single_pass: bool = False) -> None:
        if n_passes < 2:
            raise ConfigurationError(f"n_passes must be >= 2, got {n_passes}")
        self.actor = actor
        self.n_passes = n_passes
        self.single_pass = single_pass

    def act(self, observation, rng: np.random.Generator) -> PolicyOutput:
        if self.single_pass:
            mean = self.actor.forward(np.asarray(observation, dtype=np.float64))
            variance = np.zeros_like(mean)
        else:
            mean, variance = mc_statistics(self.actor, observation, self.n_passes, rng)
        return PolicyOutput(action=RESIDUAL.command(observation, mean), residual_mean=mean,
                            residual_variance=variance, used_prior_only=False)


class GatedResidualPolicy(ResidualPolicy):
    """Residual hybrid with an uncertainty-triggered retreat to the prior.

    Each step runs n_passes stochastic forwards; the executed command is
    the bare prior with probability max(var) (clamped to [0, 1]), and the
    prior-plus-mean hybrid otherwise.
    """

    def __init__(self, actor: Mlp, n_passes: int = 100, epsilon_override: float | None = None) -> None:
        super().__init__(actor, n_passes)
        if epsilon_override is not None and not 0.0 <= epsilon_override <= 1.0:
            raise ConfigurationError(f"epsilon_override must be in [0, 1], got {epsilon_override}")
        if actor.dropout_p == 0.0 and epsilon_override is None:
            warnings.warn(
                "gated policy on a dropout-free network: variance is always zero, "
                "so the gate never fires and the policy reduces to the residual hybrid",
                stacklevel=2,
            )
        self.epsilon_override = epsilon_override

    def act(self, observation, rng: np.random.Generator) -> PolicyOutput:
        mean, variance = mc_statistics(self.actor, observation, self.n_passes, rng)
        epsilon = epsilon_from_variance(variance) if self.epsilon_override is None else self.epsilon_override
        use_prior = float(rng.uniform()) < epsilon
        prior = prior_of(observation)
        action = prior if use_prior else compose_hybrid(prior, mean)
        return PolicyOutput(action=action, residual_mean=mean, residual_variance=variance,
                            epsilon=epsilon, used_prior_only=use_prior)


class EndToEndPolicy:
    def __init__(self, actor: Mlp) -> None:
        self.actor = actor

    def act(self, observation, rng: np.random.Generator) -> PolicyOutput:
        out = self.actor.forward(np.asarray(observation, dtype=np.float64)[:END_TO_END.obs_dim])
        return PolicyOutput(action=END_TO_END.command(observation, out))


class RandomPolicy:
    def act(self, observation, rng: np.random.Generator) -> PolicyOutput:
        v, omega = rng.uniform(-1.0, 1.0, 2)
        return PolicyOutput(action=Action(float(v), float(omega)))


@dataclass(frozen=True)
class Controller:
    """A policy class, the training mode of the checkpoint it loads (None for no network),
    and the make_policy options that the class takes."""

    policy: type
    checkpoint: TrainingMode | None = None
    options: tuple[str, ...] = ()

    @property
    def records_prior(self) -> bool:
        """Whether trajectory rows record the prior's command: not when an actor replaces it."""
        return self.checkpoint is None or self.checkpoint.corrects_prior


#: controller name -> Controller
CONTROLLERS = {
    "prior": Controller(PriorPolicy),
    "residual": Controller(ResidualPolicy, RESIDUAL, ("n_passes", "single_pass")),
    "gated": Controller(GatedResidualPolicy, RESIDUAL, ("n_passes",)),
    "end_to_end": Controller(EndToEndPolicy, END_TO_END),
    "random": Controller(RandomPolicy),
}
_BY_CLASS = {controller.policy: (name, controller) for name, controller in CONTROLLERS.items()}


def controller_of(policy) -> tuple[str, Controller]:
    """The name and table entry of a policy's controller, found by its class."""
    return _BY_CLASS[type(policy)]


def make_policy(name: str, actor: Mlp | None = None, actor_kind: str | None = None,
                n_passes: int = 100, single_pass: bool = False):
    """Build the named controller (a CONTROLLERS key), checking the network's kind and input width
    against its checkpoint's training mode.

    actor_kind is the training-mode string stored in the checkpoint.
    n_passes and single_pass reach the classes whose options name them.
    """
    controller = CONTROLLERS[name]
    if controller.checkpoint is None:
        return controller.policy()
    if actor is None:
        raise UsageError(f"{name} policy needs a trained network")
    needed = controller.checkpoint
    if actor_kind is not None and actor_kind != needed.name:
        raise UsageError(f"{name} policy needs a {needed.name!r} checkpoint, got {actor_kind!r}")
    if actor.layer_sizes[0] != needed.obs_dim:
        raise UsageError(f"{name} policy needs a network with {needed.obs_dim} inputs, got {actor.layer_sizes[0]}")
    options = {"n_passes": n_passes, "single_pass": single_pass}
    return controller.policy(actor, **{key: options[key] for key in controller.options})
