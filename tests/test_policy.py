"""Tests for deployment policies, focused on the uncertainty gate."""

import numpy as np
import pytest

from resnav.env import E2E_OBS_DIM, IDX_PRIOR_OMEGA, IDX_PRIOR_V, RESIDUAL_OBS_DIM
from resnav.errors import ConfigurationError, UsageError
from resnav.nn import Mlp, mc_statistics
from resnav.policy import (
    EndToEndPolicy,
    GatedResidualPolicy,
    PolicyMode,
    PriorPolicy,
    RandomPolicy,
    ResidualPolicy,
    epsilon_from_variance,
    make_policy,
)
from resnav.prior import Action
from resnav.td3 import compose_hybrid

OBS_DIM = RESIDUAL_OBS_DIM


def make_actor(dropout: float = 0.2, seed: int = 0, weight_scale: float = 1.0) -> Mlp:
    net = Mlp([OBS_DIM, 16, 16, 2], "tanh", dropout, rng=np.random.default_rng(seed))
    if weight_scale != 1.0:
        for w in net.weights:
            w *= weight_scale
    return net


def with_prior(obs: np.ndarray, prior: Action) -> np.ndarray:
    """obs with the prior command written into its two prior slots."""
    obs = np.array(obs, dtype=np.float64)
    obs[IDX_PRIOR_V], obs[IDX_PRIOR_OMEGA] = prior.v, prior.omega
    return obs


def random_obs(rng, prior: Action = Action(0.0, 0.0)) -> np.ndarray:
    return with_prior(rng.uniform(-1.0, 1.0, OBS_DIM), prior)


class TestEpsilonFromVariance:
    def test_takes_the_larger_dimension(self):
        assert epsilon_from_variance(np.array([0.04, 0.09])) == pytest.approx(0.09)
        assert epsilon_from_variance(np.array([0.5, 0.1])) == pytest.approx(0.5)

    def test_clamped_to_unit_interval(self):
        assert epsilon_from_variance(np.array([2.0, 0.5])) == 1.0
        assert epsilon_from_variance(np.array([-0.1, -0.2])) == 0.0


class TestPriorPolicy:
    def test_passes_the_prior_through(self):
        out = PriorPolicy().act(with_prior(np.zeros(OBS_DIM), Action(0.7, -0.3)), np.random.default_rng(0))
        assert out.action == Action(0.7, -0.3)
        assert out.used_prior_only is True


class TestResidualPolicy:
    def test_zero_network_reduces_to_the_prior(self):
        actor = Mlp([OBS_DIM, 8, 2], "tanh", 0.0, rng=None)
        pol = ResidualPolicy(actor)
        prior = Action(0.6, -0.4)
        out = pol.act(with_prior(np.ones(OBS_DIM), prior), np.random.default_rng(1))
        assert out.action == prior

    def test_action_is_clipped_prior_plus_mean(self):
        rng = np.random.default_rng(4)
        actor = make_actor(dropout=0.3, seed=2)
        pol = ResidualPolicy(actor, n_passes=50)
        for _ in range(10):
            obs = random_obs(rng)
            prior = Action(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            out = pol.act(with_prior(obs, prior), np.random.default_rng(9))
            want = compose_hybrid(prior, out.residual_mean)
            assert out.action == want

    def test_mean_matches_mc_statistics_with_same_stream(self):
        actor = make_actor(dropout=0.3, seed=5)
        obs = random_obs(np.random.default_rng(6))
        out = ResidualPolicy(actor, n_passes=40).act(obs, np.random.default_rng(77))
        mean, var = mc_statistics(actor, obs, 40, np.random.default_rng(77))
        assert np.array_equal(out.residual_mean, mean)
        assert np.array_equal(out.residual_variance, var)

    def test_single_pass_uses_the_deterministic_forward(self):
        actor = make_actor(dropout=0.4, seed=3)
        obs = random_obs(np.random.default_rng(8))
        out = ResidualPolicy(actor, single_pass=True).act(obs, np.random.default_rng(0))
        assert np.array_equal(out.residual_mean, actor.forward(obs))
        assert np.all(out.residual_variance == 0.0)

    def test_rejects_too_few_passes(self):
        with pytest.raises(ConfigurationError):
            ResidualPolicy(make_actor(), n_passes=1)


class TestGatedResidualPolicy:
    def test_draw_below_epsilon_means_prior(self):
        actor = make_actor(dropout=0.3, seed=1, weight_scale=12.0)
        pol = GatedResidualPolicy(actor, n_passes=30)
        rng = np.random.default_rng(12)
        prior = Action(0.5, -0.5)
        seen = set()
        for i in range(60):
            obs = random_obs(rng, prior)
            out = pol.act(obs, np.random.default_rng(i))
            replay = np.random.default_rng(i)  # the gate's stream: its passes, then one uniform draw
            mc_statistics(actor, obs, 30, replay)
            assert out.used_prior_only == (float(replay.uniform()) < out.epsilon)
            if out.used_prior_only:
                assert out.action == prior
            else:
                assert out.action == compose_hybrid(prior, out.residual_mean)
            seen.add(out.used_prior_only)
        assert seen == {True, False}

    def test_forced_epsilon_one_always_prior(self):
        actor = make_actor(dropout=0.2, seed=7)
        pol = GatedResidualPolicy(actor, epsilon_override=1.0)
        rng = np.random.default_rng(3)
        prior = Action(0.25, 0.75)
        for _ in range(20):
            out = pol.act(random_obs(rng, prior), rng)
            assert out.used_prior_only is True
            assert out.action == prior

    def test_forced_epsilon_zero_matches_residual_policy(self):
        actor = make_actor(dropout=0.2, seed=7)
        gated = GatedResidualPolicy(actor, n_passes=25, epsilon_override=0.0)
        plain = ResidualPolicy(actor, n_passes=25)
        rng = np.random.default_rng(5)
        prior = Action(0.3, -0.2)
        for i in range(10):
            obs = random_obs(rng, prior)
            a = gated.act(obs, np.random.default_rng(1000 + i))
            b = plain.act(obs, np.random.default_rng(1000 + i))
            assert a.action == b.action
            assert np.array_equal(a.residual_mean, b.residual_mean)

    def test_override_frequency_is_binomial(self):
        actor = make_actor(dropout=0.2, seed=9)
        pol = GatedResidualPolicy(actor, n_passes=2, epsilon_override=0.3)
        rng = np.random.default_rng(42)
        obs = random_obs(rng)
        fired = sum(pol.act(obs, rng).used_prior_only for _ in range(2000))
        assert fired / 2000 == pytest.approx(0.3, abs=0.04)

    def test_variance_drives_the_gate(self):
        """A wildly uncertain network should retreat to the prior far more
        often than a near-deterministic one."""
        noisy = make_actor(dropout=0.5, seed=11, weight_scale=30.0)
        quiet = make_actor(dropout=0.5, seed=11, weight_scale=1e-3)
        rng = np.random.default_rng(0)
        obs = random_obs(rng)
        count = {}
        for name, actor in (("noisy", noisy), ("quiet", quiet)):
            pol = GatedResidualPolicy(actor, n_passes=30)
            r = np.random.default_rng(123)
            count[name] = sum(pol.act(obs, r).used_prior_only for _ in range(300))
        assert count["noisy"] > 180
        assert count["quiet"] < 3

    def test_dropout_free_network_warns_and_never_gates(self):
        actor = make_actor(dropout=0.0, seed=2)
        with pytest.warns(UserWarning, match="never fires"):
            gated = GatedResidualPolicy(actor, n_passes=10)
        plain = ResidualPolicy(actor, n_passes=10)
        rng = np.random.default_rng(6)
        prior = Action(0.4, 0.1)
        for i in range(10):
            obs = random_obs(rng, prior)
            a = gated.act(obs, np.random.default_rng(i))
            b = plain.act(obs, np.random.default_rng(i))
            assert a.used_prior_only is False
            assert a.epsilon == 0.0
            assert a.action == b.action

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigurationError):
            GatedResidualPolicy(make_actor(), epsilon_override=1.5)


def blind_to_the_prior_slots(actor: Mlp) -> Mlp:
    """actor with zero input weights on the prior slots, so its output cannot depend on them."""
    actor.weights[0][[IDX_PRIOR_V, IDX_PRIOR_OMEGA]] = 0.0
    return actor


class TestPriorComesFromTheObservation:
    @pytest.mark.parametrize("make", [
        lambda actor: PriorPolicy(),
        lambda actor: ResidualPolicy(actor, n_passes=20),
        lambda actor: ResidualPolicy(actor, single_pass=True),
        lambda actor: GatedResidualPolicy(actor, n_passes=20),
        lambda actor: GatedResidualPolicy(actor, n_passes=20, epsilon_override=1.0),
    ], ids=["prior", "residual", "residual_single_pass", "gated", "gated_always_prior"])
    def test_prior_slots_move_the_action_as_the_prior(self, make):
        pol = make(blind_to_the_prior_slots(make_actor(dropout=0.3, seed=21, weight_scale=6.0)))
        obs = random_obs(np.random.default_rng(30), Action(0.2, -0.1))
        base = pol.act(obs, np.random.default_rng(4))
        for prior in (Action(0.9, 0.4), Action(-0.3, -0.95), Action(0.0, 1.0)):
            out = pol.act(with_prior(obs, prior), np.random.default_rng(4))
            assert out.used_prior_only == base.used_prior_only
            if base.residual_mean is not None:
                assert np.array_equal(out.residual_mean, base.residual_mean)
            assert out.action == (prior if out.used_prior_only else compose_hybrid(prior, base.residual_mean))
            assert out.action != base.action


class TestEndToEndAndRandom:
    def test_end_to_end_is_the_bare_network_output(self):
        actor = Mlp([E2E_OBS_DIM, 16, 16, 2], "tanh", 0.0, rng=np.random.default_rng(4))
        obs = random_obs(np.random.default_rng(2))
        out = EndToEndPolicy(actor).act(obs, np.random.default_rng(0))
        want = actor.forward(obs[:E2E_OBS_DIM])
        assert out.action.v == want[0]
        assert out.action.omega == want[1]

    def test_end_to_end_reads_no_prior_slot(self):
        actor = Mlp([E2E_OBS_DIM, 16, 2], "tanh", 0.0, rng=np.random.default_rng(5))
        obs = np.random.default_rng(3).uniform(-1.0, 1.0, RESIDUAL_OBS_DIM)
        out = EndToEndPolicy(actor).act(obs, np.random.default_rng(0))
        other = with_prior(obs, Action(0.9, -0.9))  # a different prior command
        assert EndToEndPolicy(actor).act(other, np.random.default_rng(0)) == out
        want = actor.forward(obs[:E2E_OBS_DIM])
        assert (out.action.v, out.action.omega) == (want[0], want[1])

    def test_random_policy_is_centered_and_bounded(self):
        pol = RandomPolicy()
        rng = np.random.default_rng(10)
        acts = [pol.act(None, rng).action for _ in range(4000)]
        vs = np.array([a.v for a in acts])
        ws = np.array([a.omega for a in acts])
        assert np.all(np.abs(vs) <= 1.0) and np.all(np.abs(ws) <= 1.0)
        assert abs(vs.mean()) < 0.03 and abs(ws.mean()) < 0.03


class TestMakePolicy:
    def test_prior_and_random_need_no_network(self):
        assert isinstance(make_policy("prior"), PriorPolicy)
        assert isinstance(make_policy(PolicyMode.RANDOM), RandomPolicy)

    def test_learned_modes_require_a_network(self):
        with pytest.raises(UsageError, match="trained network"):
            make_policy("residual")

    def test_checkpoint_kind_must_match(self):
        actor = make_actor()
        with pytest.raises(UsageError, match="checkpoint"):
            make_policy("gated", actor=actor, actor_kind="end_to_end")
        with pytest.raises(UsageError, match="checkpoint"):
            make_policy("end_to_end", actor=actor, actor_kind="residual")

    def test_builds_each_kind(self):
        actor = make_actor(dropout=0.2)
        assert isinstance(make_policy("residual", actor=actor, actor_kind="residual"), ResidualPolicy)
        assert isinstance(make_policy("gated", actor=actor, actor_kind="residual"), GatedResidualPolicy)
        e2e = make_policy("end_to_end", actor=make_actor(dropout=0.0), actor_kind="end_to_end")
        assert isinstance(e2e, EndToEndPolicy)
