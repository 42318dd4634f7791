import pytest

from tai_welfare import DomainError, TaxonomyProbs, leaf_distribution, p_doom


def test_certain_doom_branch():
    assert p_doom(TaxonomyProbs(1, 1, 1, 0.42)) == 1.0


def test_no_tai_no_risk():
    assert p_doom(TaxonomyProbs(0, 0.7, 0.3, 0.9)) == 0.0


def test_hand_computed_cell():
    probs = TaxonomyProbs(0.9, 0.8, 0.3, 0.3)
    assert p_doom(probs) == pytest.approx(0.3672, abs=1e-12)
    leaves = leaf_distribution(probs)
    assert leaves.doom_immediate == pytest.approx(0.216, abs=1e-12)
    assert leaves.doom_delayed == pytest.approx(0.1512, abs=1e-12)
    assert leaves.cornucopia == pytest.approx(0.3528, abs=1e-12)
    assert leaves.tai_no_takeover == pytest.approx(0.18, abs=1e-12)
    assert leaves.no_tai == pytest.approx(0.1, abs=1e-12)


def test_all_benign_branch():
    leaves = leaf_distribution(TaxonomyProbs(1, 1, 0, 0))
    assert leaves.cornucopia == 1.0
    assert leaves.doom_immediate == leaves.doom_delayed == 0.0


def test_leaves_sum_to_one_randomized(rng):
    for _ in range(1000):
        p1, p2, p3, p4 = rng.random(4)
        leaves = leaf_distribution(TaxonomyProbs(p1, p2, p3, p4))
        total = (
            leaves.no_tai
            + leaves.tai_no_takeover
            + leaves.cornucopia
            + leaves.doom_immediate
            + leaves.doom_delayed
        )
        assert abs(total - 1.0) <= 1e-12


def test_p_doom_equals_doom_leaves_exactly(rng):
    for _ in range(200):
        p1, p2, p3, p4 = rng.random(4)
        probs = TaxonomyProbs(p1, p2, p3, p4)
        leaves = leaf_distribution(probs)
        assert p_doom(probs) == leaves.doom_immediate + leaves.doom_delayed


def test_p_doom_monotone_in_each_branch(rng):
    for _ in range(200):
        p1, p2, p3, p4 = rng.random(4)
        base = p_doom(TaxonomyProbs(p1, p2, p3, p4))
        for bumped in (
            TaxonomyProbs(min(p1 + 0.05, 1), p2, p3, p4),
            TaxonomyProbs(p1, min(p2 + 0.05, 1), p3, p4),
            TaxonomyProbs(p1, p2, min(p3 + 0.05, 1), p4),
            TaxonomyProbs(p1, p2, p3, min(p4 + 0.05, 1)),
        ):
            assert p_doom(bumped) >= base - 1e-15


def test_validation_names_offending_field():
    with pytest.raises(DomainError, match="p3"):
        TaxonomyProbs(0.5, 0.5, 1.2, 0.5)
    with pytest.raises(DomainError, match="p1"):
        TaxonomyProbs(-0.1, 0.5, 0.5, 0.5)


def test_survival_complements_doom():
    probs = TaxonomyProbs(0.5, 0.5, 0.5, 0.5)
    leaves = leaf_distribution(probs)
    assert leaves.survival + p_doom(probs) == pytest.approx(1.0, abs=1e-15)
