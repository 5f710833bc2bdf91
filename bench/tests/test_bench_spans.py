"""Self-time arithmetic and refinement-level inference of the span tracer."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Tracer, refinement_levels, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("cli.rate", 0.0, 10.0, None),
        ("decay.ordered_map", 1.0, 7.0, 0),
        ("decay.ordered_map.task", 1.0, 5.0, 1),   # two pool threads overlap
        ("decay.ordered_map.task", 3.0, 6.5, 1),
        ("quadrature.zone_norm_sq", 1.5, 4.5, 2),
        ("spectral.solve_exact_batch", 2.0, 3.0, 4),
        ("decay.fit", 8.0, 8.5, 0),
    ]
    assert self_times(spans) == pytest.approx([
        10.0 - (6.0 + 0.5),   # map and fit do not overlap
        6.0 - 5.5,            # tasks cover [1, 6.5], counted once
        4.0 - 3.0,
        3.5,
        3.0 - 1.0,
        1.0,
        0.5,
    ])


def test_self_times_sum_to_root_duration_on_one_thread():
    spans = [("root", 0.0, 4.0, None), ("a", 0.5, 1.5, 0), ("b", 1.0, 1.25, 1),
             ("c", 2.0, 3.5, 0)]
    assert sum(self_times(spans)) == pytest.approx(4.0)


def test_child_outside_parent_is_clipped():
    spans = [("root", 1.0, 2.0, None), ("late", 1.5, 3.0, 0)]
    assert self_times(spans)[0] == pytest.approx(0.5)


def test_refinement_levels_from_integrand_call_sizes():
    chunk = 8
    # 6 symmetry spot checks, probe, edge, level 0 (5), level 1 (10 = 8 + 2)
    sizes = [1] * 6 + [6, 2, 5, 8, 2]
    assert refinement_levels(sizes, chunk) == (1, 10)
    # level 0 accepted outright: the last evaluation does not double
    assert refinement_levels([1, 1, 6, 5], chunk) == (0, 5)
    assert refinement_levels([], chunk) == (0, 0)


def test_tracer_counts_integrand_points_and_levels():
    tracer = Tracer()

    def fake_zone_norm_sq(f, params, t, zone, spec=None):
        for size in (1, 1, 97, 40, 80):
            f(_Batch(size))
        return 1.0

    wrapped = tracer._wrapper("quadrature.zone_norm_sq", fake_zone_norm_sq)
    assert wrapped(lambda xi: xi, None, 1.0, "low") == 1.0
    m = tracer.metrics(import_s=0.0)
    assert m["quadrature.zone_norm_sq.calls"] == 1
    assert m["quadrature.zone_norm_sq.points"] == 219
    assert m["quadrature.zone_norm_sq.levels_mean"] == 1
    assert m["quadrature.useful_ratio"] == pytest.approx(80 / 219)


class _Batch:
    def __init__(self, rows):
        self.shape = (rows, 2)
