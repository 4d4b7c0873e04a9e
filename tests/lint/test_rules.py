"""Fixture corpus for the determinism rules (TNG001–TNG006).

Every positive fixture asserts the exact code *and* line; every rule also
gets negatives proving the seeded/ordered/deliberate variants stay clean.
"""

import textwrap

from repro.lint import LintEngine, default_rules


def lint(source: str) -> list:
    return LintEngine(default_rules()).check_source(
        textwrap.dedent(source), path="fixture.py"
    )


def codes_and_lines(source: str) -> list[tuple[str, int]]:
    return [(f.code, f.line) for f in lint(source)]


class TestWallclock:
    def test_time_module_calls_flagged(self):
        src = """\
        import time
        a = time.time()
        b = time.monotonic()
        c = time.perf_counter_ns()
        """
        assert codes_and_lines(src) == [
            ("TNG001", 2),
            ("TNG001", 3),
            ("TNG001", 4),
        ]

    def test_datetime_now_flagged_through_alias(self):
        src = """\
        import datetime as dt
        stamp = dt.datetime.now()
        today = dt.date.today()
        """
        assert codes_and_lines(src) == [("TNG001", 2), ("TNG001", 3)]

    def test_from_import_flagged(self):
        src = """\
        from time import perf_counter
        x = perf_counter()
        """
        assert codes_and_lines(src) == [("TNG001", 2)]

    def test_reference_without_call_flagged(self):
        # A clock held as a value is a read deferred to its caller.
        src = """\
        import time
        from time import monotonic
        def f(clock=time.perf_counter):
            return clock()
        tick = monotonic
        """
        assert codes_and_lines(src) == [("TNG001", 3), ("TNG001", 5)]

    def test_function_local_import_flagged(self):
        src = """\
        def stamp():
            import time
            return time.time()
        class Clock:
            def now(self):
                from time import monotonic
                return monotonic()
        """
        assert codes_and_lines(src) == [("TNG001", 3), ("TNG001", 7)]

    def test_time_sleep_is_not_a_clock_read(self):
        src = """\
        import time
        time.sleep(0.1)
        """
        assert codes_and_lines(src) == []


class TestUnseededRng:
    def test_unseeded_constructors_flagged(self):
        src = """\
        import random
        import numpy as np
        a = random.Random()
        b = np.random.default_rng()
        c = np.random.RandomState()
        """
        assert codes_and_lines(src) == [
            ("TNG002", 3),
            ("TNG002", 4),
            ("TNG002", 5),
        ]

    def test_seeded_constructors_clean(self):
        src = """\
        import random
        import numpy as np
        a = random.Random(42)
        b = np.random.default_rng(7)
        c = np.random.default_rng(seed=7)
        d = np.random.RandomState(seed=3)
        """
        assert codes_and_lines(src) == []

    def test_explicit_none_seed_flagged(self):
        src = """\
        import numpy as np
        rng = np.random.default_rng(None)
        """
        assert codes_and_lines(src) == [("TNG002", 2)]


class TestGlobalRng:
    def test_module_level_random_calls_flagged(self):
        src = """\
        import random
        import numpy as np
        a = random.random()
        b = random.choice([1, 2])
        np.random.shuffle([1, 2])
        """
        assert codes_and_lines(src) == [
            ("TNG003", 3),
            ("TNG003", 4),
            ("TNG003", 5),
        ]

    def test_instance_methods_clean(self):
        src = """\
        import random
        rng = random.Random(7)
        x = rng.random()
        y = rng.choice([1, 2])
        """
        assert codes_and_lines(src) == []


class TestOsEntropy:
    def test_entropy_sources_flagged(self):
        src = """\
        import os
        import uuid
        import secrets
        a = os.urandom(16)
        b = uuid.uuid4()
        c = secrets.token_hex(8)
        """
        assert codes_and_lines(src) == [
            ("TNG004", 4),
            ("TNG004", 5),
            ("TNG004", 6),
        ]

    def test_environment_reads_flagged(self):
        src = """\
        import os
        from os import environ
        a = os.environ["SEED"]
        b = os.environ.get("SEED", "7")
        c = os.getenv("SEED")
        d = environ.get("SEED")
        """
        assert codes_and_lines(src) == [
            ("TNG004", 3),
            ("TNG004", 4),
            ("TNG004", 5),
            ("TNG004", 6),
        ]

    def test_uuid5_is_deterministic_and_clean(self):
        src = """\
        import uuid
        a = uuid.uuid5(uuid.NAMESPACE_DNS, "tango")
        """
        assert codes_and_lines(src) == []


class TestSetIteration:
    def test_for_over_set_display_flagged(self):
        src = """\
        def f(xs):
            for item in {1, 2, 3}:
                print(item)
        """
        assert codes_and_lines(src) == [("TNG005", 2)]

    def test_for_over_set_call_flagged(self):
        src = """\
        def f(xs):
            for item in set(xs):
                print(item)
        """
        assert codes_and_lines(src) == [("TNG005", 2)]

    def test_dataflow_through_assignment(self):
        src = """\
        def f(xs, ys):
            pending = set(xs)
            extra = pending | set(ys)
            for item in extra:
                print(item)
        """
        assert codes_and_lines(src) == [("TNG005", 4)]

    def test_listcomp_over_set_flagged(self):
        src = """\
        def f(xs):
            return [x + 1 for x in set(xs)]
        """
        assert codes_and_lines(src) == [("TNG005", 2)]

    def test_sorted_set_is_clean(self):
        src = """\
        def f(xs):
            for item in sorted(set(xs)):
                print(item)
        """
        assert codes_and_lines(src) == []

    def test_generator_into_order_insensitive_sink_is_clean(self):
        # Generator expressions are deliberately exempt: sorted()/min()/
        # sum() over a set do not leak iteration order.
        src = """\
        def f(xs):
            return sorted(x for x in set(xs))
        """
        assert codes_and_lines(src) == []

    def test_list_call_on_set_flagged(self):
        src = """\
        def f(xs):
            return list(set(xs))
        """
        assert codes_and_lines(src) == [("TNG005", 2)]


class TestMutableDefault:
    def test_mutable_defaults_flagged_as_warning(self):
        src = """\
        def f(items=[]):
            return items

        def g(mapping={}):
            return mapping
        """
        findings = lint(src)
        assert [(f.code, f.line) for f in findings] == [
            ("TNG006", 1),
            ("TNG006", 4),
        ]
        assert all(f.severity.label == "warning" for f in findings)

    def test_none_default_clean(self):
        src = """\
        def f(items=None):
            return items or []
        """
        assert codes_and_lines(src) == []


class TestSuppression:
    def test_targeted_noqa_suppresses_one_code(self):
        src = """\
        import time
        a = time.time()  # tango: noqa[TNG001]
        b = time.time()
        """
        assert codes_and_lines(src) == [("TNG001", 3)]

    def test_bare_tango_noqa_suppresses_everything(self):
        src = """\
        import time
        a = time.time()  # tango: noqa
        """
        assert codes_and_lines(src) == []

    def test_noqa_for_other_code_does_not_suppress(self):
        src = """\
        import time
        a = time.time()  # tango: noqa[TNG005]
        """
        assert codes_and_lines(src) == [("TNG001", 2)]

    def test_plain_flake8_noqa_is_ignored(self):
        src = """\
        import time
        a = time.time()  # noqa
        """
        assert codes_and_lines(src) == [("TNG001", 2)]

    def test_multiple_codes_comma_separated(self):
        src = """\
        import time, random
        a = time.time() + random.random()  # tango: noqa[TNG001, TNG003]
        """
        assert codes_and_lines(src) == []
