"""The synthetic datasets the other tests and the parity sweep draw from."""

import pytest

from _synth import CONFLICT_SEGMENTS, MIN_CONFLICT_TEST, make_conflict_dataset


def test_conflict_dataset_at_its_minimum_size_draws_every_segment():
    for seed in range(20):
        _, test = make_conflict_dataset(t_train=10, t_test=MIN_CONFLICT_TEST, n_metrics=3, seed=seed)
        starts = (test.labels[1:] > test.labels[:-1]).sum() + test.labels[0]
        assert test.values.shape == (MIN_CONFLICT_TEST, 3) and starts == CONFLICT_SEGMENTS, seed


@pytest.mark.parametrize("t_test, n_metrics", [(MIN_CONFLICT_TEST - 1, 3), (300, 6), (420, 2), (420, 1)])
def test_conflict_dataset_below_its_minimum_names_it(t_test, n_metrics):
    with pytest.raises(ValueError, match=f"needs t_test >= {MIN_CONFLICT_TEST} and n_metrics >= 3"
                                         f" .*, got {t_test} and {n_metrics}$"):
        make_conflict_dataset(t_train=100, t_test=t_test, n_metrics=n_metrics, seed=0)
