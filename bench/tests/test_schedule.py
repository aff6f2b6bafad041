"""The open-loop schedule: same seed same inputs, and the drain rule."""

from bench import workloads as w


def test_names_and_sizes_are_the_documented_ones():
    assert [x.name for x in w.WORKLOADS] == [
        "sim-n1-floor", "sim-n3-steady", "sim-n25-fanout",
        "sim-n5-crash-recovery", "live-n3-loaded", "live-n3-kill-restart"]
    assert all(len(x.why) <= 200 and "\n" not in x.why for x in w.WORKLOADS)


def test_same_seed_same_schedule_other_seed_another():
    spec = w.by_name("sim-n3-steady")
    first = w.make_schedule(spec, 7, 2.0)
    assert first == w.make_schedule(spec, 7, 2.0)
    other = w.make_schedule(spec, 8, 2.0)
    assert len(other.plan) == len(first.plan)      # same number attempted
    assert [t for t, _, _ in other.plan] != [t for t, _, _ in first.plan]


def test_payloads_are_unique_128_byte_ascii():
    plan = w.make_schedule(w.by_name("sim-n1-floor"), 3, 1.0).plan
    payloads = [payload for _, _, payload in plan]
    assert len(set(payloads)) == len(payloads) > 100
    assert all(len(p.encode("ascii")) == 128 for p in payloads)


def test_requests_are_due_in_order_within_the_window():
    spec = w.by_name("live-n3-loaded")
    schedule = w.make_schedule(spec, 1, 2.0)
    times = [t for t, _, _ in schedule.plan]
    assert times == sorted(times)
    assert spec.start <= times[0] and times[-1] < schedule.end
    assert len(times) == round(spec.rate * 2.0)


def test_drain_rule_never_routes_to_a_node_about_to_crash_or_down():
    for name in ("sim-n5-crash-recovery", "live-n3-kill-restart"):
        spec = w.by_name(name)
        schedule = w.make_schedule(spec, 5, w.FULL_SECONDS)
        assert schedule.outages
        for due, node, _ in schedule.plan:
            for outage in schedule.outages:
                if outage.node == node:
                    assert not (outage.down_at - w.DRAIN_S <= due
                                < outage.up_at), (name, due, outage)


def test_requests_stay_due_through_every_outage():
    spec = w.by_name("sim-n5-crash-recovery")
    schedule = w.make_schedule(spec, 5, w.FULL_SECONDS)
    assert len(schedule.outages) == 8
    assert max(o.up_at - o.down_at for o in schedule.outages) == 30.0
    for outage in schedule.outages:
        during = [node for due, node, _ in schedule.plan
                  if outage.down_at <= due < outage.up_at]
        assert during and outage.node not in during
        # …and the survivors share the load evenly (round-robin).
        counts = [during.count(node) for node in set(during)]
        assert max(counts) - min(counts) <= 2


def test_round_robin_spreads_requests_evenly():
    plan = w.make_schedule(w.by_name("sim-n25-fanout"), 2, 3.0).plan
    counts = [sum(1 for _, node, _ in plan if node == i) for i in range(25)]
    assert max(counts) - min(counts) <= 1


def test_short_runs_keep_only_outages_that_fit():
    spec = w.by_name("sim-n5-crash-recovery")
    smoke = w.make_schedule(spec, 1, 2.0)
    assert 1 <= len(smoke.outages) < 8
    assert all(o.up_at + 4.0 <= smoke.duration for o in smoke.outages)
    kills = w.make_schedule(w.by_name("live-n3-kill-restart"), 1, 2.0)
    assert [o.node for o in kills.outages] == [1, 0, 2]
    assert all(o.up_at < kills.duration for o in kills.outages)
