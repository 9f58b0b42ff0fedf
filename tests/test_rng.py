import importlib.util
import pathlib
import warnings

import numpy as np
import pytest

from mfhier import SplitMix64, harness


def test_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert a.next_block(20).tolist() == b.next_block(20).tolist()


def test_known_first_outputs():
    # published reference values of the SplitMix64 stream, seeds 0 and
    # 1234567
    assert SplitMix64(0).next_block(3).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert SplitMix64(1234567).next_block(1).tolist() == [6457827717110365317]


def test_uniform_range_and_mean():
    draws = SplitMix64(7).uniform_array(2.0, 3.0, (4000,))
    assert np.all((draws >= 2.0) & (draws < 3.0))
    assert abs(draws.mean() - 2.5) < 0.02


def test_uniform_vector_component_order():
    # drawing a vector equals drawing the components one by one
    a, b = SplitMix64(99), SplitMix64(99)
    vec = a.uniform_array([0.0, 10.0], [1.0, 20.0], (2,))
    assert vec.tolist() == [b.uniform_array(0.0, 1.0, (1,))[0],
                            b.uniform_array(10.0, 20.0, (1,))[0]]


def test_seeds_differ():
    assert SplitMix64(1).next_block(1) != SplitMix64(2).next_block(1)


@pytest.mark.parametrize("seed", [0, 42, 1234567, 2**64 - 1])
def test_block_draw_is_the_scalar_draw(seed):
    # a block of n outputs is n blocks of one, and the stream goes on
    # where the block ended; the mix wraps without an overflow warning
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outputs = block.next_block(37)
        assert outputs.dtype == np.uint64
        assert outputs.tolist() == [int(scalar.next_block(1)[0])
                                    for _ in range(37)]
        assert block.next_block(5).tolist() == scalar.next_block(5).tolist()


def test_uniform_array_matches_the_reference_stream():
    # the query stream bench/reference.py draws with its own SplitMix64
    spec = importlib.util.spec_from_file_location(
        "bench_reference",
        pathlib.Path(__file__).resolve().parents[1] / "bench" / "reference.py")
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    lows, highs = [0.1, -5.0, 2.0], [10.0, 5.0, 2.5]
    drawn = SplitMix64(42).uniform_array(lows, highs, (500, 3))
    assert np.array_equal(
        drawn, reference.splitmix64_stream(42, 500, lows, highs))
    rng = SplitMix64(42)
    assert np.array_equal(drawn[:2], [rng.uniform_array(lows, highs, (3,)),
                                      rng.uniform_array(lows, highs, (3,))])


def test_draw_parameters_is_one_block():
    config = harness.default_config("parabolic", n_queries=300, seed=7)
    rng = SplitMix64(7)
    one_by_one = [config.box.sample(rng) for _ in range(300)]
    assert np.array_equal(harness.draw_parameters(config), one_by_one)
    assert harness.draw_parameters(
        harness.default_config("parabolic", n_queries=0)).shape == (0, 2)
