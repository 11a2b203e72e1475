"""Tests for campaign specs (grid expansion), the content-addressed cache and worker memos."""

from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.campaign.cache import ResultCache
from repro.campaign.spec import CampaignSpec, RunSpec, canonical_json, content_key
from repro.errors import ConfigurationError
from repro.memo import LRUMemo


class TestCanonicalJson:
    def test_sets_and_tuples_normalize(self):
        assert canonical_json(frozenset({3, 1, 2})) == "[1,2,3]"
        assert canonical_json((1, 2)) == "[1,2]"
        assert canonical_json({"b": 1, "a": frozenset({2})}) == '{"a":[2],"b":1}'

    def test_identical_configs_share_a_key(self):
        a = content_key("detector", {"n": 4, "crashes": frozenset({2, 1})})
        b = content_key("detector", {"crashes": [1, 2], "n": 4})
        assert a == b

    def test_different_configs_differ(self):
        a = content_key("detector", {"n": 4})
        b = content_key("detector", {"n": 5})
        c = content_key("agreement", {"n": 4})
        assert len({a, b, c}) == 3

    def test_non_serializable_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_json({"fn": canonical_json})

    def test_non_dict_mappings_normalize(self):
        proxy = MappingProxyType({2: frozenset({3, 1}), "a": (None, True)})
        assert canonical_json(proxy) == '{"2":[1,3],"a":[null,true]}'
        assert canonical_json({"p": proxy}) == canonical_json({"p": dict(proxy)})

    def test_content_key_and_error_text_are_stable(self):
        # Recorded before the scalar fast path: cached results stay addressable.
        params = {
            "n": 4, "seed": None, "flag": True, "rate": 0.25, "name": "x",
            "crashes": frozenset({2, 1}), "grid": (1, [2, 3]),
            "nested": MappingProxyType({1: {"a": (True,)}}),
        }
        assert content_key("detector", params) == (
            "7e85643b1d619cb93bdb6f69e41b2b170a2ecd86d7164ba3b77a0184b42fce1a"
        )
        with pytest.raises(ConfigurationError) as excinfo:
            canonical_json({"fn": object})
        assert str(excinfo.value) == (
            "campaign parameter value <class 'object'> is not JSON-serializable; "
            "use scalars, lists/tuples, sets or mappings of those"
        )


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=4)
)
_VALUES = st.recursive(
    _SCALARS
    | st.frozensets(st.integers(), max_size=4)
    | st.sets(st.text(max_size=3), max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(st.one_of(st.integers(), st.text(max_size=3)), inner, max_size=3),
    max_leaves=12,
)
#: Run parameters: top-level names (some ints) that stay distinct as strings.
_PARAMS = st.dictionaries(
    st.one_of(st.text(max_size=5), st.integers()), _VALUES, max_size=5
).filter(lambda params: len({str(key) for key in params}) == len(params))


class TestGridExpansion:
    def test_explicit_runs_in_order(self):
        spec = CampaignSpec(name="x", kind="k", runs=[{"a": 1}, {"a": 2}])
        params = [s.param_dict() for s in spec.expand()]
        assert params == [{"a": 1}, {"a": 2}]

    def test_axes_cross_product_is_deterministic(self):
        spec = CampaignSpec(
            name="x",
            kind="k",
            base={"c": 0},
            runs=[{"a": 1}, {"a": 2}],
            axes={"s": [10, 20], "p": ["u", "v"]},
        )
        first = [s.param_dict() for s in spec.expand()]
        second = [s.param_dict() for s in spec.expand()]
        assert first == second
        # run-major, then axes in declaration order, values in given order
        assert first[0] == {"c": 0, "a": 1, "s": 10, "p": "u"}
        assert first[1] == {"c": 0, "a": 1, "s": 10, "p": "v"}
        assert first[2] == {"c": 0, "a": 1, "s": 20, "p": "u"}
        assert first[4] == {"c": 0, "a": 2, "s": 10, "p": "u"}
        assert len(first) == 2 * 2 * 2

    def test_axis_overrides_run_overrides_base(self):
        spec = CampaignSpec(
            name="x", kind="k", base={"a": 0, "b": 0}, runs=[{"a": 1}], axes={"b": [7]}
        )
        assert spec.expand()[0].param_dict() == {"a": 1, "b": 7}

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="x", kind="k", axes={"s": []}).expand()

    def test_empty_run_list_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(name="x", kind="k", runs=[]).expand()

    def test_runspec_key_stable(self):
        spec = RunSpec.create("k", {"n": 3, "xs": (2, 1)})
        assert spec.key() == RunSpec.create("k", {"xs": [2, 1], "n": 3}).key()

    @given(kind=st.text(max_size=6), params=_PARAMS)
    def test_runspec_key_is_the_content_key(self, kind, params):
        # RunSpec.create normalizes once; key() serializes that as it is.
        assert RunSpec.create(kind, params).key() == content_key(kind, params)


class TestResultCache:
    def test_memory_roundtrip(self):
        cache = ResultCache()
        assert cache.get("deadbeef") is None
        cache.put("deadbeef", {"x": 1})
        assert cache.get("deadbeef") == {"x": 1}
        assert cache.hits == 1 and cache.misses == 1

    def test_directory_roundtrip_survives_new_instance(self, tmp_path):
        first = ResultCache(tmp_path / "cache")
        key = content_key("k", {"n": 1})
        first.put(key, {"result": [1, 2]})
        second = ResultCache(tmp_path / "cache")
        assert second.get(key) == {"result": [1, 2]}
        assert second.hits == 1

    def test_contains_and_len(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = content_key("k", {"n": 2})
        assert not cache.contains(key)
        cache.put(key, {})
        assert cache.contains(key)
        assert len(cache) == 1

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = content_key("k", {"n": 3})
        cache.put(key, {"x": 1})
        path = cache._path_for(key)
        path.write_text("{not json", encoding="utf-8")
        fresh = ResultCache(tmp_path / "cache")
        assert fresh.get(key) is None
        assert fresh.misses == 1

    def test_get_quarantines_corrupt_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = content_key("k", {"n": 5})
        cache.put(key, {"x": 1})
        path = cache._path_for(key)
        path.write_text('{"truncated": tru', encoding="utf-8")
        fresh = ResultCache(tmp_path / "cache")
        assert fresh.get(key) is None
        assert fresh.quarantined == 1
        assert not path.exists(), "corrupt entry must be deleted, not retried"

    def test_contains_validates_exactly_like_get(self, tmp_path):
        # The satellite alignment: contains() must never promise a payload
        # that get() would quarantine.
        cache = ResultCache(tmp_path / "cache")
        key = content_key("k", {"n": 6})
        cache.put(key, {"x": 1})
        cache._path_for(key).write_text("[1, 2, 3]", encoding="utf-8")  # non-dict
        fresh = ResultCache(tmp_path / "cache")
        assert not fresh.contains(key)
        assert fresh.quarantined == 1
        assert not cache._path_for(key).exists()
        assert fresh.get(key) is None

    def test_contains_loads_valid_disk_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = content_key("k", {"n": 7})
        cache.put(key, {"x": 1})
        fresh = ResultCache(tmp_path / "cache")
        assert fresh.contains(key)
        assert fresh.quarantined == 0
        assert fresh.get(key) == {"x": 1}


class TestLRUMemo:
    def test_evicts_the_least_recently_used_entry(self):
        memo = LRUMemo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # "b" is now the oldest
        memo.put("c", 3)
        assert (memo.get("a"), memo.get("b"), memo.get("c")) == (1, None, 3)
        assert len(memo) == 2

    def test_storing_again_refreshes_the_entry(self):
        memo = LRUMemo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.put("a", 10)
        memo.put("c", 3)
        assert (memo.get("a"), memo.get("b")) == (10, None)
