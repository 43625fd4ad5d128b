"""Scaling to the reference machine speed."""

import pytest

import speed


def _at(began, reference, cost=0.0):
    return speed.Sample(began, reference, cost)


def test_speed_is_the_mean_of_the_probes_speeds():
    slow, fast = 2 * speed.REFERENCE_S, speed.REFERENCE_S / 2
    assert speed.speed([_at(0, slow), _at(1, fast)]) == pytest.approx((0.5 + 2.0) / 2)
    assert speed.speed([]) == 1.0


def test_a_stretch_drops_the_probes_cost_and_is_scaled_by_the_probes_inside():
    samples = [
        _at(0.0, speed.REFERENCE_S * 4, 0.5),  # before the stretch
        _at(1.5, speed.REFERENCE_S * 2, 0.1),
        _at(2.5, speed.REFERENCE_S * 2, 0.1),
        _at(9.0, speed.REFERENCE_S / 4, 0.5),  # after it
    ]
    assert speed.scaled(3.2, samples, 1.0, 4.2) == pytest.approx((3.2 - 0.2) * 0.5)


def test_a_stretch_without_probes_takes_the_nearest():
    samples = [_at(0.0, speed.REFERENCE_S), _at(5.0, speed.REFERENCE_S * 2, 0.1)]
    assert speed.window(samples, 3.0, 4.0) == [samples[1]]
    assert speed.scaled(1.0, samples, 3.0, 4.0) == pytest.approx(0.5)


def test_the_probe_writes_one_line_per_sample_and_load_skips_torn_lines(tmp_path):
    path = tmp_path / "samples"
    probe = speed.Probe(str(path))
    probe.sample()
    probe.sample()
    with path.open("a") as handle:
        handle.write("12.5 0.0003")  # a line the probe is still writing
    samples = speed.load(path)
    assert len(samples) == 2
    assert samples[0].began <= samples[1].began
    assert all(0 < s.reference <= s.cost for s in samples)
    assert speed.load(tmp_path / "missing") == []


def test_a_probe_that_fires_inside_another_is_skipped(tmp_path, monkeypatch):
    path = tmp_path / "samples"
    probe = speed.Probe(str(path))
    work = speed._reference_work

    def interrupted():
        probe.sample()  # the alarm fires while the pass runs
        return work()

    monkeypatch.setattr(speed, "_reference_work", interrupted)
    probe.sample()
    assert len(speed.load(path)) == 1


def test_serve_reads_are_scaled_block_by_block():
    from workloads import REFERENCE_READ_S, _block_factors

    references = [
        (10.2, 2 * REFERENCE_READ_S), (10.7, 2 * REFERENCE_READ_S), (12.5, REFERENCE_READ_S)
    ]
    factors = _block_factors(
        references, 10.0, 4, lambda seconds: REFERENCE_READ_S / sorted(seconds)[0]
    )
    # block 1 has no reference reads and takes the factor of them all
    assert factors == [0.5, 1.0, 1.0, 1.0]
