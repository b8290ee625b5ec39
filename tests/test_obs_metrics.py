"""Per-rank metrics registry: histogram buckets and in-place counters."""

import math

from repro.obs.metrics import _EXP_HI, _EXP_LO, Histogram, MetricsRegistry


def _float_bucket(value: float) -> int:
    """The bucket rule as written for floats: ``ceil(log2(v))``, clamped."""
    if value <= 0:
        return _EXP_LO
    return min(max(math.ceil(math.log2(value)), _EXP_LO), _EXP_HI)


class TestHistogramBuckets:
    def test_int_sizes_land_in_the_float_rules_bucket(self):
        """Message sizes are ints and take ``(v - 1).bit_length()``; at
        and around every power of two up to the clamp that must be the
        bucket the float rule gives."""
        values = {0, 1, 2, 3}
        for k in range(2, 42):
            values.update((2**k - 1, 2**k, 2**k + 1))
        for v in sorted(values):
            h = Histogram()
            h.observe(v)
            assert h.buckets == {_float_bucket(v): 1}, v
            if v > 0:
                assert h.buckets == {_float_bucket(float(v)): 1}, v

    def test_floats_and_bools_keep_the_float_rule(self):
        for v in (1e-9, 0.3, 1.0, 2.5, True, 3e13):
            h = Histogram()
            h.observe(v)
            assert h.buckets == {_float_bucket(v): 1}, v

    def test_exact_moments(self):
        h = Histogram()
        for v in (5, 3, 64):
            h.observe(v)
        assert h.snapshot() == {
            "count": 3, "sum": 72.0, "min": 3, "max": 64,
            "buckets": {"2^2": 1, "2^3": 1, "2^6": 1},
        }


class TestCountersInPlace:
    def test_direct_update_is_what_inc_does(self):
        """Per-message code adds to ``counters[rank]`` itself; the
        snapshot must not be able to tell."""
        by_call, in_place = MetricsRegistry(2), MetricsRegistry(2)
        for size in (40, 24, 8):
            by_call.inc(1, "msgs_sent")
            by_call.inc(1, "bytes_sent", size)
            c = in_place.counters[1]
            c["msgs_sent"] = c.get("msgs_sent", 0.0) + 1.0
            c["bytes_sent"] = c.get("bytes_sent", 0.0) + size
        by_call.inc(None, "global.thing", 0.25)
        g = in_place.counters[in_place.nranks]
        g["global.thing"] = g.get("global.thing", 0.0) + 0.25
        assert by_call.snapshot() == in_place.snapshot()
        assert in_place.counter(1, "bytes_sent") == 72.0
        assert in_place.counter_total("msgs_sent") == 3.0
