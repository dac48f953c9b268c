"""Score aggregation and report rounding."""

import random

import pytest

from evoloop.corpus import ResourceLevel
from evoloop.errors import EmptyInput, UnknownLanguage
from evoloop.metrics import (
    DirectionScore,
    aggregate_by_resource,
    average_directions,
    round1,
)


def row(src, tgt, spbleu, comet, n=100):
    return DirectionScore(direction=(src, tgt), spbleu=spbleu, comet=comet, n_samples=n)


class TestDirectionScore:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            row("eng", "deu", 30.0, 85.0, n=0)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            row("eng", "deu", 101.0, 85.0)
        with pytest.raises(ValueError):
            row("eng", "deu", 30.0, -1.0)


class TestAverageDirections:
    def test_singleton_is_identity(self):
        assert average_directions([row("eng", "deu", 40.0, 89.0)]) == (40.0, 89.0)

    def test_identical_rows_average_to_themselves(self):
        rows = [row("eng", "khm", 23.7, 86.2)] * 5
        assert average_directions(rows) == (23.7, 86.2)

    def test_plain_mean(self):
        rows = [row("eng", "deu", 30.0, 80.0), row("deu", "eng", 40.0, 90.0)]
        assert average_directions(rows) == (35.0, 85.0)

    def test_rounding_is_half_up_at_one_decimal(self):
        rows = [row("eng", "deu", 30.0, 80.0), row("deu", "eng", 30.1, 80.1)]
        # means are 30.05 / 80.05: report shows halves rounded up
        assert average_directions(rows) == (30.1, 80.1)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            average_directions([])

    def test_matches_brute_force_on_random_rows(self):
        rng = random.Random(1009)
        for _ in range(50):
            rows = [row("eng", "deu", rng.uniform(0, 100), rng.uniform(0, 100))
                    for _ in range(rng.randint(1, 30))]
            got = average_directions(rows)
            want = (round1(sum(r.spbleu for r in rows) / len(rows)),
                    round1(sum(r.comet for r in rows) / len(rows)))
            assert got == want


class TestRound1:
    def test_half_goes_up(self):
        assert round1(31.05) == 31.1
        assert round1(0.25) == 0.3
        assert round1(33.4090909) == 33.4

    def test_already_one_decimal(self):
        assert round1(87.7) == 87.7


class TestAggregateByResource:
    def test_low_only_rows_make_one_group(self):
        rows = [row("eng", "khm", 20.0, 80.0), row("eng", "lao", 22.0, 82.0),
                row("eng", "mya", 24.0, 84.0)]
        got = aggregate_by_resource(rows)
        assert set(got) == {ResourceLevel.LOW}
        assert got[ResourceLevel.LOW] == (22.0, 82.0)

    def test_empty_rows_empty_map(self):
        assert aggregate_by_resource([]) == {}

    def test_groups_match_independent_recomputation(self):
        rng = random.Random(2027)
        langs = ["khm", "lao", "mya", "tha", "ben", "deu", "fra", "cmn"]
        rows = [row("eng", rng.choice(langs), rng.uniform(0, 100), rng.uniform(0, 100))
                for _ in range(60)]
        got = aggregate_by_resource(rows)
        from evoloop.corpus import resource_level
        buckets = {}
        for r in rows:
            buckets.setdefault(resource_level(r.direction[1]), []).append(r)
        assert set(got) == set(buckets)
        for level, members in buckets.items():
            want = (round1(sum(m.spbleu for m in members) / len(members)),
                    round1(sum(m.comet for m in members) / len(members)))
            assert got[level] == want

    def test_unknown_target_rejected(self):
        with pytest.raises(UnknownLanguage):
            aggregate_by_resource([DirectionScore(("eng", "xxx"), 1.0, 1.0, 1)])
