"""Tests for bench environment capture."""

from repro.bench.harness import environment_info


def test_environment_info_fields():
    env = environment_info()
    for key in ("python", "numpy", "repro", "platform", "bench_div"):
        assert key in env
    assert env["repro"]
    assert isinstance(env["bench_div"], int)


def test_environment_info_records_the_divisor_used():
    assert environment_info(100)["bench_div"] == 100
