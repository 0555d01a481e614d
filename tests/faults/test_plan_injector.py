"""FaultPlan validation and deterministic FaultInjector decisions."""

import pytest

from repro.comm import RetransmitExhausted, RetransmitPolicy
from repro.faults import FaultInjector, FaultPlan


class TestFaultPlan:
    def test_defaults_are_fault_free(self):
        plan = FaultPlan()
        assert not plan.lossy
        assert not plan.any_faults

    @pytest.mark.parametrize("kwargs", [
        dict(drop_prob=-0.1),
        dict(drop_prob=1.0),
        dict(delay_prob=1.5),
        dict(corrupt_prob=-1e-9),
        dict(delay_seconds=-1.0),
        dict(stragglers={0: 0.5}),   # speedups are not faults
        dict(kills={-1: 3}),
        dict(kills={0: -3}),
    ])
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_lossy_and_any_faults_flags(self):
        assert FaultPlan(drop_prob=0.1).lossy
        assert FaultPlan(corrupt_prob=0.1).lossy
        assert FaultPlan(delay_prob=0.1, delay_seconds=1.0).lossy
        assert not FaultPlan(kills={0: 1}).lossy
        assert FaultPlan(kills={0: 1}).any_faults
        assert FaultPlan(stragglers={1: 2.0}).any_faults

    def test_without_rank_renumbers_survivors(self):
        plan = FaultPlan(stragglers={0: 2.0, 2: 3.0}, kills={1: 5, 3: 9})
        shrunk = plan.without_rank({1}, world=4)
        # survivors [0, 2, 3] -> new ids [0, 1, 2]
        assert shrunk.stragglers == {0: 2.0, 1: 3.0}
        assert shrunk.kills == {2: 9}  # rank 1's fired kill is gone

    def test_without_rank_preserves_link_faults(self):
        plan = FaultPlan(seed=3, drop_prob=0.05, corrupt_prob=0.01)
        shrunk = plan.without_rank({0}, world=3)
        assert shrunk.drop_prob == plan.drop_prob
        assert shrunk.corrupt_prob == plan.corrupt_prob
        assert shrunk.seed == plan.seed


class TestRetransmitPolicy:
    def test_backoff_schedule_is_exponential(self):
        policy = RetransmitPolicy(ack_timeout=1.0, backoff=2.0)
        assert policy.delay_before_retry(0) == 1.0
        assert policy.delay_before_retry(3) == 8.0
        assert policy.total_delay(3) == 1.0 + 2.0 + 4.0

    @pytest.mark.parametrize("kwargs", [
        dict(ack_timeout=0.0),
        dict(backoff=0.5),
        dict(max_retries=-1),
    ])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetransmitPolicy(**kwargs)


class TestFaultInjector:
    def test_decisions_are_deterministic_per_channel(self):
        delays_a = [FaultInjector(FaultPlan(seed=7, drop_prob=0.3))
                    .decide_send(0, 1, 0) for _ in range(1)]
        # replay the same channel sequence on a fresh injector
        inj1 = FaultInjector(FaultPlan(seed=7, drop_prob=0.3))
        inj2 = FaultInjector(FaultPlan(seed=7, drop_prob=0.3))
        seq1 = [inj1.decide_send(0, 1, 0) for _ in range(200)]
        seq2 = [inj2.decide_send(0, 1, 0) for _ in range(200)]
        assert seq1 == seq2
        assert inj1.stats.messages_dropped == inj2.stats.messages_dropped
        assert delays_a[0] == seq1[0]

    def test_channels_are_independent(self):
        inj = FaultInjector(FaultPlan(seed=7, drop_prob=0.3))
        a = [inj.decide_send(0, 1, 0) for _ in range(50)]
        inj_b = FaultInjector(FaultPlan(seed=7, drop_prob=0.3))
        # interleaving traffic on another channel must not perturb (0, 1)
        b = []
        for _ in range(50):
            inj_b.decide_send(2, 3, 0)
            b.append(inj_b.decide_send(0, 1, 0))
        assert a == b

    def test_seed_changes_the_sequence(self):
        s1 = [FaultInjector(FaultPlan(seed=1, drop_prob=0.3)).decide_send(0, 1, 0)
              for _ in range(1)]
        inj1 = FaultInjector(FaultPlan(seed=1, drop_prob=0.3))
        inj2 = FaultInjector(FaultPlan(seed=2, drop_prob=0.3))
        seq1 = [inj1.decide_send(0, 1, 0) for _ in range(300)]
        seq2 = [inj2.decide_send(0, 1, 0) for _ in range(300)]
        assert seq1 != seq2
        assert s1[0] == seq1[0]

    def test_loss_rate_roughly_matches_probability(self):
        inj = FaultInjector(FaultPlan(seed=0, drop_prob=0.1))
        for _ in range(4000):
            inj.decide_send(0, 1, 0)
        observed = inj.stats.messages_dropped / 4000
        assert 0.06 < observed < 0.14

    def test_lost_frames_price_backoff_delay(self):
        policy = RetransmitPolicy(ack_timeout=0.5, backoff=2.0, max_retries=10)
        inj = FaultInjector(FaultPlan(seed=0, drop_prob=0.4, retransmit=policy))
        total = sum(inj.decide_send(0, 1, 0) for _ in range(500))
        assert total == pytest.approx(inj.stats.retransmit_seconds)
        assert inj.stats.retransmits == inj.stats.messages_dropped
        assert total > 0

    def test_corruption_counts_separately_from_drops(self):
        inj = FaultInjector(FaultPlan(seed=0, corrupt_prob=0.2))
        for _ in range(1000):
            inj.decide_send(0, 1, 0)
        assert inj.stats.messages_corrupted > 0
        assert inj.stats.messages_dropped == 0

    def test_retransmit_exhaustion_raises(self):
        policy = RetransmitPolicy(max_retries=0)
        inj = FaultInjector(
            FaultPlan(seed=0, drop_prob=0.9, retransmit=policy)
        )
        with pytest.raises(RetransmitExhausted):
            for _ in range(100):
                inj.decide_send(0, 1, 0)

    def test_exhaustion_counts_every_lost_frame(self):
        """The link gives up once the original frame and its max_retries
        retransmits are all lost, after counting each of those frames."""
        policy = RetransmitPolicy(max_retries=1)
        inj = FaultInjector(FaultPlan(seed=0, drop_prob=0.999999,
                                      retransmit=policy))
        with pytest.raises(RetransmitExhausted) as info:
            inj.decide_send(0, 1, tag=1 << 20)
        exc = info.value
        assert (exc.src, exc.dst, exc.tag, exc.retries) == (0, 1, 1 << 20, 1)
        assert "(tag=1048576) lost after 1 retransmits" in str(exc)
        stats = inj.stats
        assert stats.messages_dropped == 2  # the original and one retransmit
        assert stats.retransmits == 1
        assert stats.timeouts_fired == 2
        assert stats.retransmit_seconds == pytest.approx(policy.total_delay(2))

    @pytest.mark.parametrize("max_retries", [0, 1, 3])
    def test_exhaustion_exactly_when_budget_is_spent(self, max_retries):
        """Each message draws from its own stream, so a roomy budget replays
        the same frames: a send is delivered with the same delay as under
        the roomy budget iff it lost at most max_retries frames."""
        plan = FaultPlan(seed=4, drop_prob=0.5,
                         retransmit=RetransmitPolicy(max_retries=max_retries))
        tight = FaultInjector(plan)
        roomy = FaultInjector(FaultPlan(seed=4, drop_prob=0.5,
                                        retransmit=RetransmitPolicy(max_retries=60)))
        exhausted = dropped = 0
        for _ in range(300):
            before = roomy.stats.messages_dropped
            reference = roomy.decide_send(0, 1, 0)
            lost = roomy.stats.messages_dropped - before
            dropped += min(lost, max_retries + 1)
            try:
                assert tight.decide_send(0, 1, 0) == reference
                assert lost <= max_retries
            except RetransmitExhausted:
                exhausted += 1
                assert lost > max_retries
        assert exhausted > 0
        assert tight.stats.messages_dropped == dropped
        assert tight.stats.retransmits == dropped - exhausted

    def test_delay_fault_applies_fixed_latency(self):
        inj = FaultInjector(
            FaultPlan(seed=0, delay_prob=0.5, delay_seconds=3.0)
        )
        delays = [inj.decide_send(0, 1, 0) for _ in range(200)]
        assert set(delays) == {0.0, 3.0}
        assert inj.stats.messages_delayed == sum(d > 0 for d in delays)

    def test_straggler_multiplier(self):
        inj = FaultInjector(FaultPlan(stragglers={1: 2.5}))
        assert inj.compute_multiplier(1) == 2.5
        assert inj.compute_multiplier(0) == 1.0

    def test_kill_fires_exactly_once_at_or_after_target(self):
        inj = FaultInjector(FaultPlan(kills={1: 5}))
        assert not inj.should_kill(1, 4)
        assert not inj.should_kill(0, 5)
        assert inj.should_kill(1, 5)
        assert not inj.should_kill(1, 6)  # already fired
        assert inj.stats.ranks_killed == 1

    def test_kill_fires_late_if_target_was_skipped(self):
        inj = FaultInjector(FaultPlan(kills={0: 3}))
        assert inj.should_kill(0, 7)

    def test_stats_merge_accumulates(self):
        from repro.faults import FaultStats

        a = FaultStats(messages_dropped=2, retransmit_seconds=1.5, recoveries=1)
        b = FaultStats(messages_dropped=3, lost_seconds=2.0)
        a.merge(b)
        assert a.messages_dropped == 5
        assert a.retransmit_seconds == 1.5
        assert a.lost_seconds == 2.0
        assert a.recoveries == 1
        assert "dropped=5" in a.summary()
