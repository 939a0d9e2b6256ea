from math import comb

from pwdp.partition import (
    count_fragment_states, count_partitions, crosses, fragment_states,
    is_canonical, normalize_partition, restricted_growth_strings,
)


def test_normalize_basic():
    assert normalize_partition((3, 2, 3, 1)) == (1, 2, 1, 3)


def test_normalize_with_frozen_values():
    assert normalize_partition((-1, 5, 0, 5), frozen={-1, 0}) == (-1, 1, 0, 1)


def test_normalize_idempotent():
    for seq in restricted_growth_strings(5):
        assert normalize_partition(seq) == seq
        assert is_canonical(seq)


def test_normalize_identifies_equal_partitions():
    # {1,3}{2} under two labelings
    assert normalize_partition((7, 4, 7)) == normalize_partition((2, 9, 2))


def test_rgs_counts_are_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    for n in range(8):
        assert len(list(restricted_growth_strings(n))) == bell[n]
        assert count_partitions(n) == bell[n]


def test_rgs_max_classes():
    # partitions of 4 into at most 2 classes: S(4,1)+S(4,2) = 1+7
    got = list(restricted_growth_strings(4, max_classes=2))
    assert len(got) == 8
    assert count_partitions(4, 2) == 8
    assert all(max(s) <= 2 for s in got)


def test_rgs_all_canonical_and_distinct():
    got = list(restricted_growth_strings(6))
    assert len(set(got)) == len(got)
    assert all(is_canonical(s) for s in got)


def test_count_partitions_capped():
    # 9 elements, at most 7 classes: Bell(9) - S(9,8) - S(9,9)
    s98 = comb(9, 2)  # S(n, n-1) = C(n, 2)
    assert count_partitions(9, 7) == 21147 - s98 - 1
    assert count_partitions(9, 7) == 21110


def test_count_edge_cases():
    assert count_partitions(0) == 1
    assert count_partitions(3, 0) == 0
    assert count_partitions(1) == 1


def test_fragment_state_counts_match_enumeration():
    for frozen in ((), (0,), (-1, 0)):
        for pair_only in (False, True):
            for nv in range(8):
                states = list(fragment_states(nv, frozen, pair_only))
                assert count_fragment_states(nv, frozen, pair_only) \
                    == len(states)
                assert count_fragment_states(nv, frozen, pair_only,
                                             noncrossing=True) \
                    == sum(not crosses(s) for s in states)
