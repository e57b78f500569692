import dataclasses
import json
import re

import numpy as np
import pytest
from oracles import array_run_protocol, bernstein_halfwidth, column_stack_cells

from dqkd.attack import AttackParams, forward_fidelities, named_attack
from dqkd.protosim import (
    InsufficientDataError,
    ProtocolConfig,
    ProtocolStats,
    _cell_probabilities,
    estimate_with_se,
    run_protocol,
)
from dqkd.rates import clears_boundary
from dqkd.verify import sample_valid

def at_slack_attack() -> AttackParams:
    """Overlaps at the validation slack 1 + 5e-13, which lift fplus to 1 + 2.5e-13."""
    ov = complex(1.0 + 5e-13)
    return AttackParams(c00=1.0, c01=0.0, c11=1.0, c10=0.0, s=ov, u=ov, p=ov, r=ov, v=ov, q=ov)


def config_cloud(seed: int = 19, count: int = 2000) -> list[ProtocolConfig]:
    """Seeded configs over every field's domain, for the bit-identity checks.

    Attacks are drawn from a pool of sampled attacks, symmetric and not,
    the named attacks and the at-slack attack. n is log-uniform in
    [1, 2**63 - 1], with both ends pinned; small n leaves some estimator
    without trials.
    """
    rng = np.random.default_rng(seed)
    pool = [sample_valid(seed=k, symmetric=k % 2 == 1) for k in range(120)]
    pool += [named_attack(name) for name in ("identity", "measure_z", "measure_x")]
    pool += [named_attack("symmetric", e=e) for e in (0.0, 0.05, 0.11, 0.3, 0.5)]
    pool.append(at_slack_attack())
    configs = []
    for k in range(count):
        n = 1 if k == 0 else 2**63 - 1 if k == 1 else int(2.0 ** (62.9 * rng.random()))
        configs.append(ProtocolConfig(
            attack=pool[k % len(pool)],
            n=n,
            check_fraction=float(rng.uniform(1e-6, 1.0 - 1e-6)),
            announce_fraction=float(rng.uniform(1e-6, 1.0 - 1e-6)),
            backward_noise=(0.0, 0.5, float(rng.uniform(0.0, 0.5)))[k % 3],
            seed=int(rng.integers(0, 2**63)),
            abort_slack_z=0.0 if k % 4 == 0 else float(rng.uniform(0.0, 5.0)),
        ))
    return configs


def run_document(run) -> str:
    """A run's stats and report as JSON, or its InsufficientDataError's message."""
    try:
        stats, report = run()
    except InsufficientDataError as exc:
        return f"InsufficientDataError: {exc}"
    return json.dumps({"stats": stats.to_dict(), "report": report.to_dict()}, sort_keys=True)


def test_estimate_with_se():
    assert estimate_with_se(50, 100) == (0.5, 0.05)
    assert estimate_with_se(100, 100) == (1.0, 0.0)
    assert estimate_with_se(0, 10) == (0.0, 0.0)
    with pytest.raises(InsufficientDataError):
        estimate_with_se(0, 0)
    # zero trials is reported first, whatever the successes
    with pytest.raises(InsufficientDataError):
        estimate_with_se(5, 0)
    for successes in (5, -1):
        with pytest.raises(ValueError, match=re.escape(f"successes={successes} outside [0, trials=3]")) as info:
            estimate_with_se(successes, 3)
        assert not isinstance(info.value, InsufficientDataError)


def test_config_validation():
    attack = named_attack("identity")
    for n in (0, 2**63):  # 2**63 overflows the int64 count draw
        with pytest.raises(ValueError):
            ProtocolConfig(attack=attack, n=n)
    with pytest.raises(ValueError):
        ProtocolConfig(attack=attack, n=100, check_fraction=1.5)
    with pytest.raises(ValueError):
        ProtocolConfig(attack=attack, n=100, announce_fraction=-0.1)
    with pytest.raises(ValueError):
        ProtocolConfig(attack=attack, n=100, backward_noise=0.6)
    # a NaN slack would make the abort comparison False and never abort
    for z in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ProtocolConfig(attack=attack, n=100, abort_slack_z=z)


def test_config_integer_contract():
    attack = named_attack("identity")
    for kwargs, name in (
        ({"n": 5000.5}, "n"),
        ({"n": True}, "n"),
        ({"n": 100, "seed": 2.5}, "seed"),
        ({"n": 100, "seed": False}, "seed"),
    ):
        with pytest.raises(TypeError, match=name):
            ProtocolConfig(attack=attack, **kwargs)
    with pytest.raises(ValueError, match="seed=-1"):
        ProtocolConfig(attack=attack, n=100, seed=-1)
    # numpy integers are accepted and stored as plain ints, which JSON takes
    config = ProtocolConfig(attack=attack, n=np.int64(100), seed=np.uint32(3))
    assert config == ProtocolConfig(attack=attack, n=100, seed=3)
    assert type(config.n) is int and type(config.seed) is int


def test_config_real_number_contract():
    attack = named_attack("identity")
    for kwargs, name in (
        ({"backward_noise": False}, "backward_noise"),
        ({"abort_slack_z": True}, "abort_slack_z"),
        ({"check_fraction": "0.5"}, "check_fraction"),
        ({"announce_fraction": None}, "announce_fraction"),
        ({"backward_noise": 0.1 + 0j}, "backward_noise"),
        ({"abort_slack_z": np.bool_(True)}, "abort_slack_z"),
    ):
        with pytest.raises(TypeError, match=name):
            ProtocolConfig(attack=attack, n=100, **kwargs)
    # integers and numpy reals are numbers
    ProtocolConfig(attack=attack, n=100, abort_slack_z=3, backward_noise=np.float32(0.25))
    for name in ("backward_noise", "abort_slack_z"):
        with pytest.raises(ValueError, match=name):
            ProtocolConfig(attack=attack, n=100, **{name: 10**400})


def test_config_rejects_a_non_attack():
    for attack in ("identity", None, named_attack("identity").to_dict()):
        with pytest.raises(TypeError, match="attack"):
            ProtocolConfig(attack=attack, n=10)


def test_config_stores_python_floats():
    # a float32 is stored as its float value: the config serializes, and it
    # runs exactly as the config built from those floats
    values = {"check_fraction": 0.3, "announce_fraction": 0.7, "backward_noise": 0.1,
              "abort_slack_z": 1.5}
    attack = named_attack("symmetric", e=0.05)
    narrow = ProtocolConfig(attack=attack, n=10**5, seed=4,
                            **{name: np.float32(v) for name, v in values.items()})
    twin = ProtocolConfig(attack=attack, n=10**5, seed=4,
                          **{name: float(np.float32(v)) for name, v in values.items()})
    for name in values:
        assert type(getattr(narrow, name)) is float
    assert narrow == twin
    assert json.dumps(narrow.to_dict()) == json.dumps(twin.to_dict())
    assert run_protocol(narrow) == run_protocol(twin)
    # an integer is stored as a float too
    assert type(ProtocolConfig(attack=attack, n=10, abort_slack_z=3).abort_slack_z) is float


def test_untouched_channel_is_perfect():
    # validation admits overlaps up to 1 + 1e-12, which lifts fplus to
    # 1 + 2.5e-13 here; the sampler must clip it, not reject the attack
    for attack in (named_attack("identity"), at_slack_attack()):
        stats, report = run_protocol(ProtocolConfig(attack=attack, n=10**5))
        # every check matches and every announced bit agrees, exactly
        for est in (stats.est_f0, stats.est_f1, stats.est_fplus, stats.est_fminus):
            assert est == 1.0
        assert stats.est_e == 0.0
        assert stats.est_xi == 1.0
        assert not stats.aborted
        assert report.r_final == 1.0
        assert stats.k_est == stats.m


def test_round_categories_partition_n():
    # counts are drawn directly, so n far beyond memory still partitions
    for n in (20000, 10**12):
        for seed in (0, 1, 2):
            for cf, af in ((0.5, 0.5), (0.2, 0.8), (0.7, 0.1)):
                config = ProtocolConfig(
                    attack=named_attack("symmetric", e=0.05),
                    n=n, check_fraction=cf, announce_fraction=af, seed=seed,
                )
                stats, _ = run_protocol(config)
                total = (
                    stats.n_check_consistent
                    + stats.n_check_discarded
                    + stats.n_announced
                    + stats.m
                )
                assert total == config.n
                assert sum(stats.counts.values()) == stats.n_check_consistent


def test_runs_are_deterministic():
    config = ProtocolConfig(attack=named_attack("symmetric", e=0.1), n=5000, seed=9)
    a_stats, a_report = run_protocol(config)
    b_stats, b_report = run_protocol(config)
    assert a_stats == b_stats
    assert a_report == b_report


def test_encoding_survives_clean_channel():
    # no attack and no backward noise: decoding is error free, so the
    # announced error estimate is exactly zero for any seed
    for seed in range(10):
        stats, _ = run_protocol(
            ProtocolConfig(attack=named_attack("identity"), n=2000, seed=seed)
        )
        assert stats.est_e == 0.0


def test_measurement_attack_statistics():
    # measuring in Z preserves computational probes and coin-flips diagonal ones
    stats, _ = run_protocol(ProtocolConfig(attack=named_attack("measure_z"), n=2 * 10**5))
    assert stats.est_f0 == 1.0 and stats.est_f1 == 1.0
    assert abs(stats.est_fplus - 0.5) <= 3.0 * stats.se_fplus
    assert abs(stats.est_fminus - 0.5) <= 3.0 * stats.se_fminus
    assert abs(stats.est_xi - 0.5) <= 3.0 * stats.se_xi


def test_backward_noise_estimator_consistency():
    # 100 independent runs: the pooled error estimate lands on the injected
    # backward flip probability well within the pooled standard error
    noise = 0.1
    total_err = 0
    total_ann = 0
    for seed in range(100):
        stats, _ = run_protocol(
            ProtocolConfig(
                attack=named_attack("identity"), n=10**4,
                backward_noise=noise, seed=seed,
            )
        )
        total_ann += stats.n_announced
        total_err += round(stats.est_e * stats.n_announced)
    pooled = total_err / total_ann
    pooled_se = np.sqrt(noise * (1.0 - noise) / total_ann)
    assert abs(pooled - noise) <= 3.0 * pooled_se


def test_permutation_does_not_bias_estimates():
    # the estimators converge to the true margin over independent seeds
    vals = []
    for seed in range(100):
        stats, _ = run_protocol(
            ProtocolConfig(
                attack=named_attack("symmetric", e=0.1), n=2 * 10**4, seed=seed,
            )
        )
        vals.append(stats.est_xi)
    # the mean uses ~1e6 check rounds; 3 pooled standard errors
    assert abs(float(np.mean(vals)) - 0.8) <= 3e-3


def test_abort_decisions():
    # a full measurement drives xi to 1/2: the point estimate hovers at the
    # boundary, and any slack in units of the standard error forces abort
    config = ProtocolConfig(
        attack=named_attack("measure_z"), n=2 * 10**5, abort_slack_z=3.0
    )
    stats, _ = run_protocol(config)
    assert stats.aborted
    assert stats.k_est == 0
    # deep in the abort region both the run and the report abort
    stats, report = run_protocol(
        ProtocolConfig(attack=named_attack("symmetric", e=0.3), n=10**5)
    )
    assert stats.aborted and report.aborted


def test_slack_abort_reaches_the_report():
    # the point estimate xi = 0.5196 clears the boundary and xi - 3 se = 0.4834
    # does not: the slack alone aborts the run, and the report says so too
    config = ProtocolConfig(attack=named_attack("symmetric", e=0.24), n=20000, seed=0,
                            abort_slack_z=3.0)
    stats, report = run_protocol(config)
    assert clears_boundary(stats.est_xi)
    assert not clears_boundary(stats.est_xi - 3.0 * stats.se_xi)
    assert stats.aborted and report.aborted and not report.boundary_ok
    assert report.r_pa == report.r_final == 0.0
    assert stats.k_est == 0


def test_report_carries_the_run_abort_decision():
    slack_only = 0
    for config in config_cloud():
        try:
            stats, report = run_protocol(config)
        except InsufficientDataError:
            continue
        assert report.aborted == stats.aborted, config
        if stats.aborted:
            assert stats.k_est == 0 and report.r_pa == report.r_final == 0.0, config
            slack_only += clears_boundary(stats.est_xi)
    # the cloud reaches runs the slack alone aborts
    assert slack_only > 0


def test_insufficient_data():
    with pytest.raises(InsufficientDataError):
        run_protocol(ProtocolConfig(attack=named_attack("identity"), n=1))


def test_stats_serialization_round_trip_shape():
    stats, _ = run_protocol(ProtocolConfig(attack=named_attack("identity"), n=10**4))
    doc = stats.to_dict()
    assert doc["m"] == stats.m
    assert doc["aborted"] is False
    assert set(doc) == {f.name for f in ProtocolStats.__dataclass_fields__.values()}


def test_float_cells_match_the_array_oracle_bit_for_bit():
    configs = config_cloud()
    assert len(configs) >= 2000
    insufficient = 0
    for config in configs:
        fids = forward_fidelities(config.attack)
        cells = _cell_probabilities(config, fids)
        assert all(type(p) is float for p in cells)
        expected = column_stack_cells(config, fids).tolist()
        assert [p.hex() for p in cells] == [p.hex() for p in expected], config
        doc = run_document(lambda: run_protocol(config))
        assert doc == run_document(lambda: array_run_protocol(config)), config
        insufficient += doc.startswith("InsufficientDataError")
    # the cloud reaches both outcomes
    assert 0 < insufficient < len(configs) // 2


def test_tallies_match_the_cell_model_at_the_largest_n():
    # at n = 2**63 - 1 every count a run reports is Binomial(n, p) for a sum
    # p of the model's cells, so a tally read into the wrong field or state
    # lands ~1e17 off against intervals of ~1e10. Bernstein intervals at
    # L = 30 fail by chance with probability at most 2 exp(-30) = 1.9e-13
    # each; 11 comparisons on each of 2000 configs make 22,000, so the whole
    # test fails by chance with probability at most 4.1e-9
    level = 30.0
    keys = (("0|Z|0", "0|Z|1"), ("1|Z|1", "1|Z|0"), ("+|X|+", "+|X|-"), ("-|X|-", "-|X|+"))
    compared = 0
    for config in config_cloud():
        config = dataclasses.replace(config, n=2**63 - 1)
        cells = _cell_probabilities(config, forward_fidelities(config.attack))
        stats, _ = run_protocol(config)
        pairs = [(stats.n_announced, sum(cells[3::6]) + sum(cells[4::6])),
                 (round(stats.est_e * stats.n_announced), sum(cells[3::6])),
                 (stats.m, sum(cells[5::6]))]
        for row, (hit, miss) in enumerate(keys):
            pairs += [(stats.counts.get(hit, 0), cells[6 * row]),
                      (stats.counts.get(miss, 0), cells[6 * row + 1])]
        for count, p in pairs:
            bound = bernstein_halfwidth(config.n, p, level)
            assert abs(count - config.n * p) <= bound, (config, count, p)
        compared += len(pairs)
    assert compared == 22_000
