"""Span self-time arithmetic, re-entrancy, generators, and patch hygiene."""

import pytest

from bench.trace import Tracer


class FakeClock:
    """A clock the wrapped functions advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def totals(tracer):
    return {name: (calls, pytest.approx(self_s)) for name, (calls, self_s) in tracer.totals().items()}


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    tracer = Tracer(ops=("outer", "middle", "leaf"), clock=clock)

    def leaf():
        clock.spend(1.0)

    leaf = tracer.wrap(2, leaf)

    def middle():
        clock.spend(2.0)
        leaf()
        leaf()

    middle = tracer.wrap(1, middle)

    def outer():
        clock.spend(4.0)
        middle()
        leaf()

    tracer.wrap(0, outer)()

    assert totals(tracer) == {"outer": (1, 4.0), "middle": (1, 2.0), "leaf": (3, 3.0)}
    assert tracer.root_s == pytest.approx(9.0)  # only the outermost span is a root
    # Every span knows its parent; the root has none.
    parents = {span_id: parent for span_id, parent, *_ in tracer.spans}
    ops = {span_id: tracer.ops[op] for span_id, _, _, op, _, _ in tracer.spans}
    assert sorted(ops.values()) == ["leaf", "leaf", "leaf", "middle", "outer"]
    root = next(i for i, name in ops.items() if name == "outer")
    middle_id = next(i for i, name in ops.items() if name == "middle")
    assert parents[root] == -1
    assert parents[middle_id] == root
    assert sorted(parents[i] for i, name in ops.items() if name == "leaf") == sorted(
        [middle_id, middle_id, root]
    )


def test_recursive_span_of_the_same_op_is_merged_into_the_outer_one():
    clock = FakeClock()
    tracer = Tracer(ops=("verify", "hash"), clock=clock)

    def hash_():
        clock.spend(0.5)

    hash_ = tracer.wrap(1, hash_)

    def verify(depth):
        clock.spend(1.0)
        hash_()
        if depth:
            traced_verify(depth - 1)

    traced_verify = tracer.wrap(0, verify)
    traced_verify(2)

    # Three nested verify frames are one logical call owning all 3 s of its
    # own work; the hash under each is still a separate child span.
    assert totals(tracer) == {"verify": (1, 3.0), "hash": (3, 1.5)}
    assert tracer.root_s == pytest.approx(4.5)


def test_same_op_is_not_merged_across_a_different_op():
    clock = FakeClock()
    tracer = Tracer(ops=("a", "b"), clock=clock)

    def inner_a():
        clock.spend(1.0)

    inner_a = tracer.wrap(0, inner_a)

    def b():
        clock.spend(2.0)
        inner_a()

    b = tracer.wrap(1, b)

    def outer_a():
        clock.spend(4.0)
        b()

    tracer.wrap(0, outer_a)()
    assert totals(tracer) == {"a": (2, 5.0), "b": (1, 2.0)}


def test_exception_still_closes_the_span():
    clock = FakeClock()
    tracer = Tracer(ops=("op",), clock=clock)

    def boom():
        clock.spend(1.0)
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(0, boom)()
    assert totals(tracer) == {"op": (1, 1.0)}
    assert tracer._stack == []


def test_generator_is_timed_per_resumption_not_while_suspended():
    clock = FakeClock()
    tracer = Tracer(ops=("stream",), clock=clock)

    def batches():
        for _ in range(3):
            clock.spend(1.0)  # producing a batch
            yield "batch"

    consumed = []
    for item in tracer.wrap(0, batches)():
        clock.spend(10.0)  # the consumer's time must not be booked
        consumed.append(item)
    assert consumed == ["batch"] * 3
    calls, self_s = tracer.totals()["stream"]
    assert self_s == pytest.approx(3.0)
    assert calls == 4  # three batches and the final empty resumption


def test_span_buffer_is_capped_but_totals_keep_counting():
    clock = FakeClock()
    tracer = Tracer(ops=("op",), clock=clock, span_cap=2)
    traced = tracer.wrap(0, lambda: clock.spend(1.0))
    for _ in range(5):
        traced()
    assert len(tracer.spans) == 2
    assert totals(tracer) == {"op": (5, 5.0)}


def test_install_rebinds_import_aliases_and_uninstall_restores_them(tmp_path):
    import repro.ritm
    import repro.ritm.messages as messages
    from repro.ritm.agent import RevocationAgent

    original_function = messages.encode_status
    original_method = vars(RevocationAgent)["build_status"]
    assert repro.ritm.encode_status is original_function  # a ``from … import`` alias

    tracer = Tracer()
    tracer.install()
    try:
        assert messages.encode_status.__wrapped__ is original_function
        assert repro.ritm.encode_status is messages.encode_status
        assert vars(RevocationAgent)["build_status"].__wrapped__ is original_method
    finally:
        tracer.uninstall()
    assert messages.encode_status is original_function
    assert repro.ritm.encode_status is original_function
    assert vars(RevocationAgent)["build_status"] is original_method

    tracer.write_spans(tmp_path / "empty.jsonl")
    assert (tmp_path / "empty.jsonl").read_text().count("\n") == 1  # header only
