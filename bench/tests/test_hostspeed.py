"""CPU-time metrics are reported at reference speed."""

from bench.measure import HostSpeed, setup_seconds


def test_factor_is_reference_over_mean_shot():
    speed = HostSpeed()
    assert speed.factor == 1.0                  # nothing timed yet
    speed.shots = [HostSpeed.REFERENCE_S * 2] * 3 + [HostSpeed.REFERENCE_S * 6]
    # Mean shot is 3x the reference: this host runs at a third of it,
    # so CPU seconds measured here count for a third.
    assert abs(speed.factor - 1 / 3) < 1e-12
    assert abs(speed.cpu_s - HostSpeed.REFERENCE_S * 12) < 1e-12


def test_a_shot_takes_time_and_is_recorded():
    speed = HostSpeed()
    speed.shot()
    speed.shot()
    assert len(speed.shots) == 2 and all(s > 0 for s in speed.shots)
    assert speed.factor > 0


def test_setup_rescales_only_the_busy_part():
    # 1.0 s of waiting + 0.2 s of CPU on a host at half speed: the wait
    # is real time, the busy part would have taken 0.1 s.
    assert abs(setup_seconds([(1.2, 0.2)], 0.5) - 1.1) < 1e-12
    # The median of the repeats; CPU time over wall time never goes
    # negative.
    assert abs(setup_seconds([(0.10, 0.10), (0.30, 0.30), (0.20, 0.21)],
                             1.0) - 0.21) < 1e-12
