"""FaultPlan / MessageSelector construction, validation, and loading."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.faults import (
    CrashFault,
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultPlan,
    MessageSelector,
    SlowLinkFault,
)
from repro.faults.plan import ANY


class TestSelector:
    def test_wildcards_match_everything(self):
        sel = MessageSelector()
        assert sel.matches(0, 1, 0, 8)
        assert sel.matches(7, 3, 99, 0)

    def test_src_dst_tag_filters(self):
        sel = MessageSelector(src=2, dst=0, tag=7)
        assert sel.matches(2, 0, 7, 1)
        assert not sel.matches(1, 0, 7, 1)
        assert not sel.matches(2, 1, 7, 1)
        assert not sel.matches(2, 0, 8, 1)

    def test_min_bytes_restricts_to_large_messages(self):
        sel = MessageSelector(min_bytes=1024)
        assert not sel.matches(0, 1, 0, 1023)
        assert sel.matches(0, 1, 0, 1024)

    def test_probability_out_of_range(self):
        with pytest.raises(ValidationError):
            MessageSelector(probability=1.5)
        with pytest.raises(ValidationError):
            MessageSelector(probability=-0.1)

    def test_bad_counters(self):
        with pytest.raises(ValidationError):
            MessageSelector(after_n=-1)
        with pytest.raises(ValidationError):
            MessageSelector(count=0)
        with pytest.raises(ValidationError):
            MessageSelector(min_bytes=-1)

    def test_describe(self):
        assert MessageSelector().describe() == "every message"
        text = MessageSelector(src=2, dst=0, probability=0.5).describe()
        assert "src=2" in text and "dst=0" in text and "p=0.5" in text


class TestFaultValidation:
    def test_duplicate_needs_positive_copies(self):
        with pytest.raises(ValidationError):
            DuplicateFault("d", MessageSelector(), copies=0)

    def test_delay_needs_nonnegative_seconds(self):
        with pytest.raises(ValidationError):
            DelayFault("d", MessageSelector(), seconds=-1.0)

    def test_slow_link_factor_at_least_one(self):
        with pytest.raises(ValidationError):
            SlowLinkFault("s", MessageSelector(), factor=0.5)
        with pytest.raises(ValidationError):
            SlowLinkFault("s", MessageSelector(), per_byte=-1e-9)

    def test_crash_needs_exactly_one_trigger(self):
        with pytest.raises(ValidationError):
            CrashFault("c", rank=1)  # neither
        with pytest.raises(ValidationError):
            CrashFault("c", rank=1, at_time=0.0, on_nth_send=1)  # both
        with pytest.raises(ValidationError):
            CrashFault("c", rank=1, on_nth_send=0)  # 1-based
        with pytest.raises(ValidationError):
            CrashFault("c", rank=1, at_time=-1.0)


class TestBuilders:
    def test_builders_return_new_plans(self):
        base = FaultPlan(seed=1)
        grown = base.drop(src=1).crash(rank=2, at_time=0.0)
        assert base.empty
        assert not grown.empty
        assert len(grown.all_faults) == 2

    def test_auto_keys_are_stable(self):
        plan = FaultPlan().drop().drop(src=1).delay(1e-3)
        assert [f.key for f in plan.drops] == ["drop0", "drop1"]
        assert plan.delays[0].key == "delay0"

    def test_one_crash_per_rank(self):
        plan = FaultPlan().crash(rank=1, at_time=0.0)
        with pytest.raises(ValidationError):
            plan.crash(rank=1, on_nth_send=3)

    def test_describe_lists_every_fault(self):
        plan = (
            FaultPlan(seed=9)
            .drop(src=2)
            .duplicate(copies=2)
            .delay(5e-4, tag=7)
            .slow_link(factor=4.0, per_byte=1e-9, min_bytes=4096)
            .crash(rank=3, on_nth_send=2)
        )
        text = plan.describe()
        assert "seed=9" in text
        for key in ("drop0", "duplicate0", "delay0", "slow_link0", "crash0"):
            assert key in text
        assert "empty" in FaultPlan().describe()


class TestFromSpec:
    def test_round_trip(self):
        spec = {
            "seed": 42,
            "drop": [{"src": 2, "dst": 0, "probability": 0.25}],
            "duplicate": [{"tag": 7, "copies": 3}],
            "delay": [{"seconds": 1e-3, "min_bytes": 100}],
            "slow_link": [{"factor": 8.0, "per_byte": 2e-9}],
            "crash": [{"rank": 1, "on_nth_send": 5}],
        }
        plan = FaultPlan.from_spec(spec)
        assert plan.seed == 42
        assert plan.drops[0].selector == MessageSelector(src=2, dst=0, probability=0.25)
        assert plan.duplicates[0].copies == 3
        assert plan.delays[0].seconds == 1e-3
        assert plan.slow_links[0].factor == 8.0
        assert plan.crashes[0].on_nth_send == 5

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="unknown key"):
            FaultPlan.from_spec({"drops": []})  # must be "drop"

    def test_unknown_selector_key(self):
        with pytest.raises(ValidationError, match="unknown key"):
            FaultPlan.from_spec({"drop": [{"rank": 1}]})

    def test_delay_requires_seconds(self):
        with pytest.raises(ValidationError, match="seconds"):
            FaultPlan.from_spec({"delay": [{"src": 0}]})

    def test_crash_requires_rank(self):
        with pytest.raises(ValidationError, match="rank"):
            FaultPlan.from_spec({"crash": [{"at_time": 0.0}]})
        with pytest.raises(ValidationError, match="unknown key"):
            FaultPlan.from_spec({"crash": [{"rank": 1, "at": 0.0}]})

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"seed": "abc"}, "'seed'"),
            ({"seed": 1.5}, "'seed'"),
            ({"seed": True}, "'seed'"),
            ({"drop": [1]}, "'drop'"),
            ({"drop": {"src": 1}}, "'drop'"),
            ({"drop": [{"src": "x"}]}, "'src'"),
            ({"drop": [{"probability": "x"}]}, "'probability'"),
            ({"drop": [{"count": "x"}]}, "'count'"),
            ({"drop": [{"count": 1.5}]}, "'count'"),
            ({"duplicate": [{"copies": "x"}]}, "'copies'"),
            ({"delay": [{"seconds": "x"}]}, "'seconds'"),
            ({"delay": [{"seconds": float("inf")}]}, "'seconds'"),
            ({"slow_link": [{"factor": "x"}]}, "'factor'"),
            ({"slow_link": [{"factor": float("nan")}]}, "'factor'"),
            ({"crash": [1]}, "'crash'"),
            ({"crash": [{"rank": "x", "at_time": 0.0}]}, "'rank'"),
            ({"crash": [{"rank": True, "at_time": 0.0}]}, "'rank'"),
            ({"crash": [{"rank": 1, "at_time": "x"}]}, "'at_time'"),
        ],
    )
    def test_wrong_types_are_rejected_naming_the_key(self, spec, key):
        with pytest.raises(ValidationError, match=key):
            FaultPlan.from_spec(spec)


_KNOWN_KEYS = (
    "seed", "drop", "duplicate", "delay", "slow_link", "crash",
    "src", "dst", "tag", "min_bytes", "after_n", "count", "probability",
    "copies", "seconds", "factor", "per_byte", "rank", "at_time", "on_nth_send",
)
_SCALARS = (
    st.integers(-5, 5) | st.integers() | st.floats() | st.booleans() | st.text(max_size=3)
)
_TOML_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KNOWN_KEYS), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(spec=st.dictionaries(st.sampled_from(_KNOWN_KEYS), _TOML_VALUES, max_size=4))
def test_from_spec_returns_a_plan_or_raises_validation_error(spec):
    """Whatever TOML-shaped dict comes in, nothing but ValidationError
    comes out."""
    try:
        plan = FaultPlan.from_spec(spec)
    except ValidationError:
        return
    assert isinstance(plan, FaultPlan)


class TestFromToml:
    def test_load(self, tmp_path):
        path = tmp_path / "plan.toml"
        path.write_text(
            """
            seed = 7

            [[drop]]
            src = 2
            dst = 0

            [[crash]]
            rank = 3
            at_time = 0.0
            """
        )
        plan = FaultPlan.from_toml(str(path))
        assert plan.seed == 7
        assert plan.drops[0].selector.src == 2
        assert plan.crashes[0].rank == 3

    def test_unreadable_file_raises_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read fault plan"):
            FaultPlan.from_toml(str(tmp_path / "nosuch.toml"))
        with pytest.raises(ValidationError, match="cannot read fault plan"):
            FaultPlan.from_toml(str(tmp_path))  # a directory
        binary = tmp_path / "binary.toml"
        binary.write_bytes(b"\xff\xfe")
        with pytest.raises(ValidationError, match="bad fault-plan TOML"):
            FaultPlan.from_toml(str(binary))

    def test_bad_toml_raises_validation_error(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("[[drop\nsrc = ")
        with pytest.raises(ValidationError, match="bad fault-plan TOML"):
            FaultPlan.from_toml(str(path))

    def test_selector_any_is_wildcard(self):
        assert ANY == -1
        assert isinstance(DropFault("k", MessageSelector()), DropFault)
