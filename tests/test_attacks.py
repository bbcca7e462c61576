"""The coalition interpolation attack and the rushing-neighbour demo."""

import random

import pytest

from pda_kit import attacks, netsim, pda
from pda_kit.errors import SingularSystem
from pda_kit.rng import Rng


# ---------------------------------------------------------------------------
# collusion attack
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def attack_system():
    return netsim.build_pda_system(kappa=16, n=7, theta_min=3, seed=606, m_max=4)[0]


def test_collusion_exact_recovery(attack_system):
    nt = attack_system.params.N_tilde
    keys = attack_system.enc_keys
    for d, coalition_ids in [(2, [1, 3]), (3, [2, 4, 6]), (2, [5, 6, 7])]:
        victim = next(i for i in sorted(keys) if i not in coalition_ids)
        coalition = {i: keys[i].evaluations[d] for i in coalition_ids}
        out = attacks.collusion_attack(nt, coalition, d, victim)
        assert out.status == "recovered"
        assert out.recovered == keys[victim].evaluations[d]


def test_collusion_undetermined_with_witnesses(attack_system):
    nt = attack_system.params.N_tilde
    keys = attack_system.enc_keys
    d, coalition_ids, victim = 3, [2, 5], 4
    coalition = {i: keys[i].evaluations[d] for i in coalition_ids}
    out = attacks.collusion_attack(nt, coalition, d, victim)
    assert out.status == "undetermined"
    w1, w2 = out.witnesses
    assert len(w1) == len(w2) == d
    assert w1 != w2

    def ev(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc + c) * x % nt
        return acc

    for i in coalition_ids:
        assert ev(w1, i) == coalition[i] % nt
        assert ev(w2, i) == coalition[i] % nt
    # the two witnesses disagree at the victim: the key is genuinely ambiguous
    assert ev(w1, victim) != ev(w2, victim)


def test_collusion_threshold_boundary(attack_system):
    # success iff coalition size >= degree
    nt = attack_system.params.N_tilde
    keys = attack_system.enc_keys
    rnd = random.Random(42)
    ids = sorted(keys)
    for d in (2, 3, 4):
        for s in (0, 1, 2, 3, 4, 5):
            victim = ids[-1]
            members = rnd.sample(ids[:-1], s)
            coalition = {i: keys[i].evaluations[d] for i in members}
            out = attacks.collusion_attack(nt, coalition, d, victim)
            if s >= d:
                assert out.status == "recovered"
                assert out.recovered == keys[victim].evaluations[d]
            else:
                assert out.status == "undetermined"


def test_collusion_refuses_an_inconsistent_extra_point(attack_system):
    # points past the first d check the solved polynomial; one off by one is named
    nt = attack_system.params.N_tilde
    keys = attack_system.enc_keys
    d = 2
    coalition = {i: keys[i].evaluations[d] for i in (1, 3, 5, 6)}
    coalition[5] += 1
    with pytest.raises(SingularSystem, match="^coalition point of 5 is inconsistent$"):
        attacks.collusion_attack(nt, coalition, d, 7)


def test_collusion_rejects_victim_in_coalition(attack_system):
    nt = attack_system.params.N_tilde
    keys = attack_system.enc_keys
    with pytest.raises(SingularSystem):
        attacks.collusion_attack(nt, {1: keys[1].evaluations[2], 2: keys[2].evaluations[2]}, 2, 1)


# ---------------------------------------------------------------------------
# rushing attack
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rushing_params():
    return pda.setup(16, 5, 3, Rng("rush"))


def test_rushing_succeeds_on_base_ring(rushing_params):
    for seed in range(10):
        out = attacks.rushing_attack_demo(rushing_params, victim=3, seed=seed)
        assert out.matched


def test_rushing_fails_on_hardened_ring(rushing_params):
    for seed in range(10):
        out = attacks.rushing_attack_demo(
            rushing_params, victim=3, seed=seed, hardened_k=1
        )
        assert not out.matched


def test_rushing_prediction_comes_from_the_transcript(rushing_params):
    # the attacker's broadcast and its prediction are y_4 and y_3 from the
    # first round, raised with the attack's own exponent: public data alone
    nt, g = rushing_params.N_tilde, rushing_params.g_tilde
    for seed in range(3):
        out = attacks.rushing_attack_demo(rushing_params, victim=3, seed=seed)
        first, late = out.result.bus.rounds[:2]
        y = {m.sender: m.body[0] for m in first}
        a = Rng(seed).fork("attack:a").unit(nt)
        assert sorted(y) == [1, 3, 4, 5]
        assert [(m.sender, m.body[0] * pow(g, a, nt) % nt) for m in late] == [(2, y[4])]
        assert out.predicted == pow(y[3], a, nt)
