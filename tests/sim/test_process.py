"""Unit tests for generator-coroutine processes."""

import pytest

from repro.sim import Environment, Interrupt, Store, start_inline


def test_process_runs_and_returns_value():
    env = Environment()

    def body():
        yield env.timeout(1.0)
        yield env.timeout(2.0)
        return "finished"

    proc = env.process(body())
    assert env.run(until=proc) == "finished"
    assert env.now == 3.0


def test_process_receives_timeout_value():
    env = Environment()
    seen = []

    def body():
        value = yield env.timeout(1.0, value="payload")
        seen.append(value)

    env.process(body())
    env.run()
    assert seen == ["payload"]


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_yield_non_event_fails_process():
    env = Environment()

    def body():
        yield 42  # type: ignore[misc]

    proc = env.process(body())
    with pytest.raises(TypeError, match="must yield Event"):
        env.run(until=proc)


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def failing():
        yield env.timeout(1.0)
        raise ValueError("inner")

    def waiter():
        try:
            yield env.process(failing())
        except ValueError as exc:
            return f"caught {exc}"

    proc = env.process(waiter())
    assert env.run(until=proc) == "caught inner"


def test_unwaited_process_exception_surfaces():
    env = Environment()

    def failing():
        yield env.timeout(1.0)
        raise ValueError("uncaught")

    env.process(failing())
    with pytest.raises(ValueError, match="uncaught"):
        env.run()


def test_process_waits_on_another_process():
    env = Environment()
    log = []

    def child():
        yield env.timeout(2.0)
        log.append(("child", env.now))
        return 99

    def parent():
        result = yield env.process(child())
        log.append(("parent", env.now, result))

    env.process(parent())
    env.run()
    assert log == [("child", 2.0), ("parent", 2.0, 99)]


def test_process_yield_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed("pre")
    env.run()

    def body():
        value = yield ev
        return value

    proc = env.process(body())
    assert env.run(until=proc) == "pre"


def test_two_processes_interleave_deterministically():
    env = Environment()
    log = []

    def worker(name, delay):
        for _ in range(3):
            yield env.timeout(delay)
            log.append((name, env.now))

    env.process(worker("a", 1.0))
    env.process(worker("b", 1.5))
    env.run()
    # At t=3.0 both are due; b's timeout was scheduled earlier (at t=1.5)
    # than a's (at t=2.0), so FIFO tie-breaking runs b first.
    assert log == [("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0),
                   ("a", 3.0), ("b", 4.5)]


def test_interrupt_wakes_sleeping_process():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100.0)
            log.append("overslept")
        except Interrupt as intr:
            log.append(("interrupted", env.now, intr.cause))

    proc = env.process(sleeper())

    def interrupter():
        yield env.timeout(1.0)
        proc.interrupt(cause="wakeup")

    env.process(interrupter())
    env.run()
    assert log == [("interrupted", 1.0, "wakeup")]


def test_interrupt_finished_process_is_error():
    env = Environment()

    def body():
        yield env.timeout(1.0)

    proc = env.process(body())
    env.run()
    with pytest.raises(RuntimeError):
        proc.interrupt()


def test_process_is_alive_lifecycle():
    env = Environment()

    def body():
        yield env.timeout(1.0)

    proc = env.process(body())
    assert proc.is_alive
    env.run()
    assert not proc.is_alive


def test_interrupted_process_can_continue_and_finish():
    env = Environment()

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass
        yield env.timeout(5.0)
        return "done late"

    proc = env.process(sleeper())

    def interrupter():
        yield env.timeout(2.0)
        proc.interrupt()

    env.process(interrupter())
    assert env.run(until=proc) == "done late"
    assert env.now == 7.0


class TestStartInline:
    """``start_inline``: a process body without boot or completion events."""

    def test_runs_synchronously_up_to_first_pending_yield(self):
        env = Environment()
        log = []

        def body():
            log.append(("start", env.now))
            yield env.timeout(1.0)
            log.append(("woke", env.now))

        proc = start_inline(env, body())
        assert log == [("start", 0.0)]  # ran inside the call
        assert proc.is_alive
        env.run()
        assert log == [("start", 0.0), ("woke", 1.0)]
        assert not proc.is_alive

    def test_consumes_inline_settled_events(self):
        env = Environment(fastlane=True)
        store = Store(env)
        store.put("a")
        store.put("b")
        seen = []

        def body():
            seen.append((yield store.get()))
            seen.append((yield store.get()))
            yield env.timeout(1.0)

        before = env.fast_resumes
        start_inline(env, body())
        # both buffered items were handed over before the call returned
        assert seen == ["a", "b"]
        assert env.fast_resumes - before == 2

    @pytest.mark.parametrize("fastlane", [False, True])
    def test_relays_processed_event_through_urgent_like_process(self, fastlane):
        def order(start):
            env = Environment(fastlane=fastlane)
            ev = env.event()
            ev.succeed("pre")
            env.run()
            log = []

            def other():
                log.append("other")
                yield env.timeout(0.0)

            def body():
                log.append(("body", (yield ev)))

            def kick():
                normal = env.timeout(0.0)  # NORMAL, queued first
                normal.callbacks.append(lambda _ev: log.append("normal"))
                env.process(other())  # URGENT boot, queued next
                start(env, body())
                yield normal

            env.process(kick())
            env.run()
            return log

        plain = order(lambda env, gen: env.process(gen))
        inline = order(start_inline)
        # the body's first yield is processed already, so its value comes
        # back through an URGENT relay: after the URGENT boot queued ahead
        # of it, before the NORMAL event queued earlier still
        assert plain == inline == ["other", ("body", "pre"), "normal"]

    def test_adds_no_boot_or_completion_entry(self):
        env = Environment()

        def body():
            yield env.timeout(1.0)
            return "ignored"

        def scheduled(start):
            before = env.kernel_stats()["events_scheduled"]
            start(body())
            env.run()
            return env.kernel_stats()["events_scheduled"] - before

        assert scheduled(lambda gen: start_inline(env, gen)) == 1  # timeout
        assert scheduled(env.process) == 3  # boot + timeout + completion

    def test_waiter_still_gets_the_return_value(self):
        env = Environment()

        def body():
            yield env.timeout(1.0)
            return 7

        proc = start_inline(env, body())
        assert env.run(until=proc) == 7

    @pytest.mark.parametrize("fails_inline", [False, True])
    def test_exception_surfaces_from_run(self, fails_inline):
        env = Environment()

        def body():
            if not fails_inline:
                yield env.timeout(1.0)
            raise ValueError("boom")
            yield  # pragma: no cover - makes this a generator

        start_inline(env, body())  # never raises into its caller
        with pytest.raises(ValueError, match="boom"):
            env.run()
