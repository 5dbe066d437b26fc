import numpy as np

from hdts.rng import RngContract


def test_derivation_is_pure():
    a = RngContract(42).derive("panel", 3)
    b = RngContract(42).derive("panel", 3)
    assert a == b
    assert a.derive("x", 1) == b.derive("x", 1)


def test_streams_reproduce_bit_exactly():
    g1 = RngContract(7).derive("innovations").generator()
    g2 = RngContract(7).derive("innovations").generator()
    assert np.array_equal(g1.standard_normal(100), g2.standard_normal(100))


def test_distinct_tags_and_indices_give_distinct_streams():
    base = RngContract(7)
    draws = {}
    for tag, idx in [("a", 0), ("a", 1), ("b", 0), ("b", 1)]:
        draws[(tag, idx)] = base.derive(tag, idx).generator().standard_normal(50)
    keys = list(draws)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            assert not np.array_equal(draws[keys[i]], draws[keys[j]])


def test_streams_look_independent():
    # correlation between two derived streams should be ~ N(0, 1/sqrt(n))
    n = 200_000
    x = RngContract(1).derive("s", 0).generator().standard_normal(n)
    y = RngContract(1).derive("s", 1).generator().standard_normal(n)
    corr = float(np.corrcoef(x, y)[0, 1])
    assert abs(corr) < 4.0 / np.sqrt(n)


def test_order_of_derivation_does_not_matter():
    base = RngContract(11)
    first_then_second = [base.derive("rep", i).generator().standard_normal(8)
                         for i in (0, 1)]
    second_then_first = [base.derive("rep", i).generator().standard_normal(8)
                         for i in (1, 0)]
    assert np.array_equal(first_then_second[0], second_then_first[1])
    assert np.array_equal(first_then_second[1], second_then_first[0])


def test_generator_is_sfc64_seeded_by_seed_sequence():
    rc = RngContract(7).derive("innovations", 3)
    direct = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence([7, rc.stream_id])))
    assert isinstance(rc.generator().bit_generator, np.random.SFC64)
    assert np.array_equal(rc.generator().standard_normal(64), direct.standard_normal(64))


def test_seed_and_stream_id_are_taken_mod_2_64():
    def draws(rc):
        return rc.generator().integers(0, 2 ** 63, size=16)

    assert np.array_equal(draws(RngContract(-1)), draws(RngContract(2 ** 64 - 1)))
    assert np.array_equal(draws(RngContract(2 ** 64 + 5)), draws(RngContract(5)))
    assert np.array_equal(draws(RngContract(3, -2)), draws(RngContract(3, 2 ** 64 - 2)))
    assert not np.array_equal(draws(RngContract(-1)), draws(RngContract(1)))
    # derivation masks the parent's stream id the same way
    assert RngContract(3, -2).derive("x") == RngContract(3, 2 ** 64 - 2).derive("x")
