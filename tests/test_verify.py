"""Tests for the closed-form verification harness."""

import dataclasses
import json
from collections import Counter
from typing import Sequence

import pytest

from symbreak import corpus, graphs, kernels, limits, perms, verify
from symbreak.errors import InvalidInputError

from test_anchor import ANCHOR


class TestParseGrid:
    def test_key_value_and_ranges(self):
        grid = verify.parse_grid("t=2..4, n=5, family=path, cap=20")
        assert grid == {"t": [2, 3, 4], "n": 5, "family": "path", "cap": 20}

    def test_bare_word_is_family(self):
        assert verify.parse_grid("K3,t=2..5") == {"family": "K3", "t": [2, 3, 4, 5]}

    def test_later_family_key_overrides_bare_word(self):
        grid = verify.parse_grid("K3, family=path")
        assert grid["family"] == "path"

    def test_word_values_pass_through(self):
        assert verify.parse_grid("mode=exact")["mode"] == "exact"

    def test_empty_spec(self):
        assert verify.parse_grid("") == {}
        assert verify.parse_grid(None) == {}

    def test_one_value_range(self):
        assert verify.parse_grid("t=3..3")["t"] == [3]

    def test_signed_range(self):
        assert verify.parse_grid("t=-1..2")["t"] == [-1, 0, 1, 2]

    @pytest.mark.parametrize("bad", ["t=a..b", "k=1..2..3", "n=..4",
                                     "t=5..2", "t=1_0..1_1", "t=²..3"])
    def test_malformed_range_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="bad range"):
            verify.parse_grid(bad)


class TestRuleRegistry:
    def test_eighteen_rules(self):
        ids = verify.rule_ids()
        assert len(ids) == 18
        assert len(set(ids)) == 18
        assert set(ids) == set(verify.RULES)

    def test_every_rule_has_summary(self):
        for rule in verify.RULES.values():
            assert rule.summary and isinstance(rule.summary, str)

    def test_unknown_rule_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown rule"):
            verify.run_rules(["nope"])


class _ReadLog(dict):
    """A grid that records every key a runner looks up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestGridKeys:
    @pytest.mark.parametrize("rule", verify.rule_ids())
    def test_rule_declares_the_keys_it_reads(self, rule):
        # max=1 keeps the product grids empty; every other key takes its
        # default, so every lookup a runner makes is logged
        grid = _ReadLog({"max": 1})
        verify.RULES[rule].runner(grid)
        assert grid.read == set(verify.RULES[rule].keys)

    @pytest.mark.parametrize("ids,spec,message", [
        (["thm3.7"], "tt=2..5",
         "no selected rule reads grid key 'tt' (they read: family, t)"),
        (["eq2"], "k=0..1",
         "no selected rule reads grid key 'k' (they read: max)"),
        (["thm2.1", "thm3.10"], "K3,n=2",
         "no selected rule reads grid key 'family', 'n' (they read: none)")])
    def test_key_no_selected_rule_reads_is_rejected(self, monkeypatch, ids,
                                                    spec, message):
        ran = []
        for rule_id in ids:
            monkeypatch.setitem(verify.RULES, rule_id, dataclasses.replace(
                verify.RULES[rule_id], runner=ran.append))
        with pytest.raises(InvalidInputError) as exc:
            verify.run_rules(ids, grid=verify.parse_grid(spec))
        assert str(exc.value) == message
        assert ran == []  # rejected before any rule runs

    def test_key_some_rule_reads_reaches_every_rule(self, monkeypatch):
        grids = []
        monkeypatch.setattr(verify, "_RULES", tuple(
            dataclasses.replace(rule, runner=lambda grid: grids.append(grid)
                                or [])
            for rule in verify._RULES))
        assert verify.run_rules(grid=verify.parse_grid("max=16")) == []
        assert grids == [{"max": 16}] * 18


class TestVerdictShape:
    def test_frozen(self):
        (v,) = verify.run_rules(["thm3.13"], grid=verify.parse_grid("n=3,t=2"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.status = "agree"

    def test_instances_unique_within_rule(self):
        for rid in ("eq1", "thm2.1", "thm3.13", "cor3.9"):
            vs = verify.run_rules([rid])
            names = [v.instance for v in vs]
            assert len(names) == len(set(names)), rid

    def test_agreeing_row_fields(self):
        (v,) = verify.run_rules(["thm3.13"], grid=verify.parse_grid("n=3,t=2"))
        assert v.theorem_id == "thm3.13"
        assert v.preconditions_met is True
        assert v.agree is True
        assert v.status == "agree"
        assert v.predicted == v.brute_force
        assert v.notes == ()


class TestAgreementRuns:
    def test_partition_identity_small_grid(self):
        vs = verify.run_rules(["eq1"], grid=verify.parse_grid("n=2..4,k=1..3"))
        assert len(vs) == 9
        assert all(v.status == "agree" for v in vs)
        assert vs[0].instance == "path:2,k=1"

    def test_complete_sum_family_grid(self):
        vs = verify.run_rules(["thm3.7"], grid=verify.parse_grid("K3,t=2..5"))
        assert [v.instance for v in vs] == [
            "K3@0,t=2",
            "K3@0,t=3",
            "K3@0,t=4",
            "K3@0,t=5",
        ]
        assert all(v.status == "agree" for v in vs)

    def test_union_rule_covers_all_cases(self):
        vs = verify.run_rules(["thm2.1"])
        assert len(vs) >= 10
        assert all(v.status == "agree" for v in vs)
        tags = {v.instance[v.instance.index("[") + 1 : v.instance.index("]")] for v in vs}
        assert tags == {"a", "b", "c"}


class TestInconclusiveRows:
    def test_unsteady_root_is_flagged_not_failed(self):
        (v,) = verify.run_rules(["thm3.7"], grid=verify.parse_grid("K4-e,t=2"))
        assert v.preconditions_met is False
        assert v.status == "inconclusive"
        assert v.predicted == 4
        assert v.brute_force == 2
        assert v.agree is False
        assert any("steady" in note for note in v.notes)


class TestRadicalRows:
    def test_rearranged_form_disagrees_and_is_annotated(self):
        vs = verify.run_rules(["cor3.8"], grid=verify.parse_grid("family=K4,t=2..4"))
        minimum = [v for v in vs if v.instance.endswith("min-form")]
        radical = [v for v in vs if v.instance.endswith("radical")]
        assert len(minimum) == 3 and len(radical) == 3
        assert all(v.status == "agree" for v in minimum)
        assert all(v.status == "disagree" for v in radical)
        assert all(
            any("canonical" in note for note in v.notes) for v in radical
        )
        off_by_one = [(v.predicted, v.brute_force) for v in radical]
        assert off_by_one == [(3, 4), (3, 4), (3, 4)]


class TestBudgetSkips:
    def test_budget_hit_becomes_skip_verdict(self):
        with limits.scoped(max_aut=5):
            vs = verify.run_rules(["thm3.13"])
        assert vs and all(v.status == "skipped" for v in vs)
        assert all(v.predicted is None and v.brute_force is None for v in vs)
        assert all(any("budget" in note for note in v.notes) for v in vs)


class TestOracleHelpers:
    def test_set_partition_counts_match_bell_numbers(self):
        counts = [sum(1 for _ in verify._set_partitions(n)) for n in range(1, 6)]
        assert counts == [1, 2, 5, 15, 52]

    def test_partition_labels_are_restricted_growth_strings(self):
        for labels in verify._set_partitions(4):
            assert len(labels) == 4
            assert labels[0] == 0
            for i in range(1, 4):
                assert 0 <= labels[i] <= max(labels[:i]) + 1

    @pytest.mark.parametrize(
        ("g", "u", "expect"),
        [
            (graphs.path(3), 1, True),
            (graphs.path(3), 0, False),
            (graphs.path(4), 0, False),
            (graphs.path(4), 1, False),
            (graphs.star(3), 0, True),
            (graphs.star(3), 1, True),
            (graphs.cycle(4), 0, True),
        ],
    )
    def test_partition_restriction_oracle(self, g, u, expect):
        assert verify._restriction_property(g, u) is expect

    def test_restriction_oracle_matches_the_per_partition_scan(self):
        seen = Counter()
        for g in corpus.connected_graphs(6):
            for u in range(g.n):
                got = verify._restriction_property(g, u)
                assert got is _old_restriction_property(g, u), (g, u)
                seen[got] += 1
        assert seen[True] > 100 and seen[False] > 100


# the thm3.5 oracle as it read before it listed each graph's distinguishing
# partitions once: one scan of every set partition per (graph, vertex)
def _preserves(labels: Sequence[int], image: Sequence[int]) -> bool:
    return all(labels[image[v]] == labels[v] for v in range(len(labels)))


def _old_restriction_property(g, u) -> bool:
    nonid = perms.automorphism_group(g).nonidentity_images()
    dnonid = perms.automorphism_group(
        graphs.delete_vertex(g, u)).nonidentity_images()
    for part in verify._set_partitions(g.n):
        if any(_preserves(part, img) for img in nonid):
            continue
        rest = tuple(part[v] for v in range(g.n) if v != u)
        if any(_preserves(rest, img) for img in dnonid):
            return False
    return True


def test_thm43_pins_each_rooted_copy_once(monkeypatch, run_cli):
    perms.colored_group.cache_clear()
    pinned = Counter()
    search, probe = kernels.search_automorphisms, kernels._probe
    probing = []

    def spy(n, adj, order_cap, colors=None):
        # a probe's certificate searches no pinned group
        if colors is not None and not probing:
            pinned[n, tuple(adj), colors] += 1
        return search(n, adj, order_cap, colors)

    def probe_spy(*args):
        probing.append(True)
        try:
            return probe(*args)
        finally:
            probing.pop()

    monkeypatch.setattr(kernels, "search_automorphisms", spy)
    monkeypatch.setattr(kernels, "_probe", probe_spy)
    code, _, _ = run_cli("verify", "thm4.3", "--grid", "max=10")
    assert code == 0
    assert pinned and max(pinned.values()) == 1


@pytest.mark.parametrize("rule", ["thm4.2", "eq3"])
def test_group_order_rules_build_no_elements(monkeypatch, run_cli, rule):
    """The brute side of the |Aut| rules is the chain's order; no element
    list is built, and the verdicts keep their anchor."""
    def refuse(group):
        raise AssertionError("element list built")

    monkeypatch.setattr(perms.AutGroup, "elements", property(refuse))
    code, out, err = run_cli("verify", rule)
    assert (code, err) == (0, "")
    grid, digest, count = ANCHOR[rule]
    assert grid is None
    report = json.loads(out)
    assert report["summary"]["verdicts"] == count
    assert report["digest"] == digest
