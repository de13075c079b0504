import math
import tracemalloc
from dataclasses import astuple, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from didbounds import (
    MONO_NEGATIVE,
    MONO_POSITIVE,
    WITHOUT_MONOTONICITY,
    BootstrapSpec,
    DgpConfig,
    PanelDataset,
    bounds_tau_ooo,
    generate_panel,
    monte_carlo_csv,
    naive_did,
    oracle_true_values,
    run_monte_carlo,
)
from didbounds.errors import EmptyCell, EstimationError, NonFiniteEstimate, ValidationError
from didbounds import core, simulation
from didbounds.simulation import _usual_did

import reference_oracle
import reference_panel
from conftest import assert_no_children, make_panel, panel_rows

_rho = st.floats(-0.9, 0.9, exclude_min=True, exclude_max=True)


def _bits(res) -> list:
    """Every field of an ``OracleResult``, each float as its exact hex."""
    return [v.hex() if isinstance(v, float) else v for v in astuple(res)]


class TestConfig:
    def test_defaults(self):
        cfg = DgpConfig()
        assert cfg.att == 4.0
        assert cfg.selection_shift == 1.5
        assert 0.0 < cfg.rho_uv < 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            DgpConfig(n=1)
        with pytest.raises(ValidationError):
            DgpConfig(rho_uv=1.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["att", "outcome_intercept", "selection_shift"])
    def test_non_finite_parameters(self, name, value):
        # an infinite att made generate_panel raise MissingOutcome ("y1 is NaN
        # but selected") after a RuntimeWarning, and a NaN shift drew a panel
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            DgpConfig(n=50, seed=1, **{name: value})

    def test_non_integer_size_and_seed(self):
        # n = 10.0 raised numpy's bare TypeError in generate_panel, and a
        # float seed built and then failed in SeedSequence
        with pytest.raises(ValidationError, match="n must be an integer, got 10.0"):
            DgpConfig(n=10.0, seed=1)
        for seed in (1.5, [1, 2.5], "3", None):
            with pytest.raises(ValidationError, match="seed must be an integer or a list"):
                DgpConfig(n=10, seed=seed)
            with pytest.raises(ValidationError, match="seed must be an integer or a list"):
                BootstrapSpec(seed=seed)
        cfg = DgpConfig(n=np.int64(10), seed=[np.int32(1), 2])
        assert generate_panel(cfg).n == 10

    @pytest.mark.parametrize("seed", [-1, [4, -2], (-1, 0), np.int64(-3)])
    def test_negative_seed(self, seed):
        with pytest.raises(ValidationError, match="seed must be non-negative"):
            DgpConfig(seed=seed)
        with pytest.raises(ValidationError, match="seed must be non-negative"):
            oracle_true_values(DgpConfig(n=2), 100_000, seed=seed)


class TestGenerator:
    def test_deterministic_given_seed(self):
        a = generate_panel(DgpConfig(n=500, seed=9))
        b = generate_panel(DgpConfig(n=500, seed=9))
        assert tuple(a.ids) == tuple(b.ids)
        for field in ("d", "s0", "s1"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        np.testing.assert_array_equal(a.y0, b.y0)
        np.testing.assert_array_equal(a.y1, b.y1)

    def test_panels_of_one_size_share_their_ids(self):
        a = generate_panel(DgpConfig(n=500, seed=9))
        b = generate_panel(DgpConfig(n=500, seed=10))
        # packed once for the size, and built by neither panel until read
        assert vars(a)["_packed_ids"] is vars(b)["_packed_ids"]
        assert "ids" not in vars(a) and "ids" not in vars(b)
        assert not a.ids.flags.writeable and a.ids.dtype == object
        assert a.ids.tolist() == b.ids.tolist() == [str(i) for i in range(1, 501)]
        assert a.ids is vars(a)["ids"] and "_packed_ids" not in vars(a)  # built once, kept
        assert generate_panel(DgpConfig(n=3, seed=9)).ids.tolist() == ["1", "2", "3"]

    def test_seed_matters(self):
        a = generate_panel(DgpConfig(n=500, seed=9))
        b = generate_panel(DgpConfig(n=500, seed=10))
        assert not np.array_equal(a.y0, b.y0)

    def test_outcomes_defined_iff_selected(self):
        data = generate_panel(DgpConfig(n=2000, seed=1))
        assert np.all(np.isnan(data.y0[data.s0 == 0]))
        assert np.all(~np.isnan(data.y0[data.s0 == 1]))
        assert np.all(np.isnan(data.y1[data.s1 == 0]))
        assert np.all(~np.isnan(data.y1[data.s1 == 1]))

    @staticmethod
    def _potential_s1(cfg):
        """Post-period selection without and with treatment, from the latents
        ``generate_panel`` draws at ``cfg``."""
        lat = simulation._latents(np.random.default_rng(cfg.seed), cfg.n, cfg)
        return (lat["b"] + lat["v1"] > 0,
                cfg.selection_shift + lat["b"] + lat["v1"] > 0)

    def test_positive_monotonicity_exact_per_unit(self):
        cfg = DgpConfig(n=5000, seed=2)
        s1_0, s1_1 = self._potential_s1(cfg)
        assert np.all(s1_1 >= s1_0)
        data = generate_panel(cfg)
        np.testing.assert_array_equal(data.s1, np.where(data.d == 1, s1_1, s1_0))

    def test_large_selection_shift_saturates_treated_selection(self):
        cfg = DgpConfig(n=2000, seed=3, selection_shift=50.0)
        _, s1_1 = self._potential_s1(cfg)
        assert np.all(s1_1)
        data = generate_panel(cfg)
        assert np.all(data.s1[data.d == 1] == 1)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 3000), rho_ca=_rho, rho_uv=_rho,
           shift=st.one_of(st.sampled_from([0.0, -0.0, 50.0, -50.0]), st.floats(-4, 4),
                           st.integers(-300, 300)),
           att=st.one_of(st.floats(-10, 10), st.integers(-300, 300)),
           intercept=st.one_of(st.floats(-10, 10), st.integers(-300, 300)),
           seed=st.one_of(st.integers(0, 2**32), st.lists(st.integers(0, 2**32), max_size=3)))
    @example(n=2000, rho_ca=0.7, rho_uv=0.6, shift=1.5, att=4.0, intercept=5.0, seed=[7, 0])
    @example(n=20, rho_ca=0.7, rho_uv=0.6, shift=0.0, att=-0.0, intercept=0.0, seed=1)
    @example(n=300, rho_ca=-0.5, rho_uv=0.3, shift=-1.0, att=-2.0, intercept=-0.0, seed=3)
    @example(n=300, rho_ca=0.7, rho_uv=0.6, shift=50.0, att=4.0, intercept=5.0, seed=3)
    # int parameters, whose sums and products leave the range of an int8 column
    @example(n=300, rho_ca=0.7, rho_uv=0.6, shift=200, att=100, intercept=50, seed=3)
    @example(n=300, rho_ca=0.7, rho_uv=0.6, shift=-200, att=-100, intercept=-50, seed=3)
    def test_matches_reference_bit_for_bit(self, n, rho_ca, rho_uv, shift, att, intercept,
                                           seed):
        cfg = DgpConfig(n=n, rho_ca=rho_ca, rho_uv=rho_uv, selection_shift=shift, att=att,
                        outcome_intercept=intercept, seed=seed)
        got, want = generate_panel(cfg), reference_panel.generate_panel(cfg)
        for name in ("d", "s0", "s1", "y0", "y1"):
            column = getattr(got, name)
            assert column.dtype == getattr(want, name).dtype, name
            assert column.tobytes() == getattr(want, name).tobytes(), name
        assert got.ids.tolist() == want.ids.tolist()

    def test_att_enters_treated_post_outcomes(self):
        small = generate_panel(DgpConfig(n=50000, seed=4, att=0.0))
        big = generate_panel(DgpConfig(n=50000, seed=4, att=10.0))
        gap = naive_did(big) - naive_did(small)
        assert gap == pytest.approx(10.0, abs=0.2)


class TestOracle:
    def test_min_draws(self):
        with pytest.raises(ValidationError):
            oracle_true_values(DgpConfig(n=2), 10)

    def test_deterministic(self):
        a = oracle_true_values(DgpConfig(n=2), 200_000, seed=5)
        b = oracle_true_values(DgpConfig(n=2), 200_000, seed=5)
        assert a.p_true == b.p_true and a.lb_true == b.lb_true

    def test_internal_consistency(self):
        res = oracle_true_values(DgpConfig(n=2), 400_000)
        # the two equivalent expressions for the mixing proportion agree
        assert res.p_true == pytest.approx(res.p_true_alt, abs=0.01)
        assert res.lb_true < res.ub_true
        # control-group contamination term is zero by symmetry
        assert res.mu3 == pytest.approx(0.0, abs=0.02)
        assert res.se_mc < 0.01

    def test_bounds_straddle_att_when_att_inside(self):
        res = oracle_true_values(DgpConfig(n=2), 400_000)
        assert res.lb_true < 4.0 < res.ub_true

    def test_memory_does_not_grow_with_draws(self):
        # blocks of 4,096 pairs peak at about 0.65 MiB and blocks of 8,192 at
        # about 1.30; blocks of 62,500 drawn as one statistics matrix per sign
        # took about 23 MiB, and the 1,000,000 pairs of this call drawn at
        # once would take about 300 MB. A first call pays for imports, once
        # per process, so the traced call is not the first
        oracle_true_values(DgpConfig(n=2), 100_000)
        tracemalloc.start()
        try:
            oracle_true_values(DgpConfig(n=2), 2_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_no_treated_draw_observed_in_both_periods_is_an_empty_cell(self, recwarn):
        # at shift -8 a treated draw is observed in period 1 only if
        # b + v1 > 8, which none of these 100,000 draws is: p_true, mu1 and
        # mu2 would be 0/0, and the Monte Carlo would compare against NaN
        cfg = DgpConfig(n=50, seed=1, selection_shift=-8.0)
        with pytest.raises(EmptyCell) as exc:
            oracle_true_values(cfg, 100_000, seed=1)
        assert exc.value.context == {"d": 1, "s0": 1, "s1": 1}
        with pytest.raises(EmptyCell):
            run_monte_carlo(cfg, 3, ["mono-pos"], coverage="interval", oracle_draws=100_000)
        assert not recwarn.list

    def test_no_control_draw_observed_in_both_periods_is_an_empty_cell(self, monkeypatch):
        # every folded z2 = b + v1 set to -0.5: the treated are observed in
        # both periods (z2 > -1.5) and the control (z2 > 0) never are
        drawn = simulation._latents

        def latents(rng, n, config):
            lat = drawn(rng, n, config)
            lat["v1"] = -lat["b"] - 0.5 * np.sign(lat["b"] + lat["v0"])
            return lat

        monkeypatch.setattr(simulation, "_latents", latents)
        with pytest.raises(EmptyCell) as exc:
            oracle_true_values(DgpConfig(n=2), 100_000, seed=1)
        assert exc.value.context == {"d": 0, "s0": 1, "s1": 1}

    def test_results_do_not_depend_on_block_size(self, monkeypatch):
        # 1,250,001 pairs: a full 1,000,000-pair reduction block and a partial
        # one; 30,001, 8,192 and 777 do not divide the reduction block
        def bits(block):
            monkeypatch.setattr(simulation, "_ORACLE_BLOCK", block)
            return _bits(oracle_true_values(DgpConfig(n=2), 2_500_001, seed=11))

        assert (bits(1_000_000) == bits(62_500) == bits(30_001) == bits(8_192)
                == bits(777))

    @settings(max_examples=20, deadline=None)
    @given(rho_ca=_rho, rho_uv=_rho, att=st.floats(-2, 3), shift=st.floats(-2, 3),
           draws=st.integers(100_000, 2_100_000), block=st.sampled_from([1_000, 8_192, 62_500]),
           seed=st.integers(0, 2**32))
    @example(rho_ca=0.7, rho_uv=0.6, att=4.0, shift=0.0, draws=300_001, block=8_192, seed=1)
    @example(rho_ca=0.7, rho_uv=0.6, att=4.0, shift=50.0, draws=100_000, block=8_192, seed=1)
    @example(rho_ca=0.7, rho_uv=0.6, att=4.0, shift=1.5, draws=2_000_001, block=8_192, seed=1)
    @example(rho_ca=-0.5, rho_uv=0.3, att=0.0, shift=-1.0, draws=300_001, block=1_000, seed=7)
    def test_matches_reference_bit_for_bit(self, rho_ca, rho_uv, att, shift, draws, block,
                                           seed):
        # 2,000,001 draws: a full 1,000,000-pair reduction block and one pair;
        # shift 0 makes p_true exactly 1.0
        cfg = DgpConfig(n=2, rho_ca=rho_ca, rho_uv=rho_uv, att=att, selection_shift=shift)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "_ORACLE_BLOCK", block)
            got = oracle_true_values(cfg, draws, seed=seed)
        want = reference_oracle.oracle_true_values(cfg, draws, seed=seed)
        if shift == 0.0:
            assert got.p_true == 1.0
        assert _bits(got) == _bits(want)


def _usual_did_closed_form(config: DgpConfig) -> float:
    """Population usual DiD of the DGP: att + (rho_uv/sqrt2) *
    [lambda(-shift/sqrt2) - lambda(0)], lambda the inverse Mills ratio."""

    def mills(x):
        pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        return pdf / (0.5 * math.erfc(x / math.sqrt(2.0)))

    r2 = math.sqrt(2.0)
    return config.att + config.rho_uv / r2 * (
        mills(-config.selection_shift / r2) - mills(0.0)
    )


def _usual_did_four_masks(panel: PanelDataset) -> float:
    """The usual DiD with a mask over d and s_t per mean: the reference
    ``_usual_did``, which reads its rows from the cell code, is checked against."""

    def cell_mean(d: int, period: int) -> float:
        s, y = (panel.s0, panel.y0) if period == 0 else (panel.s1, panel.y1)
        mask = (panel.d == d) & (s == 1)
        if not mask.any():
            raise EmptyCell(
                f"no observed outcomes with d={d}, t={period}", d=d, t=period
            )
        return float(np.mean(y[mask]))

    return cell_mean(1, 1) - cell_mean(1, 0) - cell_mean(0, 1) + cell_mean(0, 0)


_CELL_KEYS = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))


class TestUsualDid:
    @given(rows=panel_rows, empty=st.sets(_CELL_KEYS))
    def test_matches_four_masks(self, rows, empty):
        panel = make_panel([row for row in rows if row[:3] not in empty])
        try:
            want = _usual_did_four_masks(panel)
        except EmptyCell as exc:
            with pytest.raises(EmptyCell) as got:
                _usual_did(panel)
            assert str(got.value) == str(exc) and got.value.context == exc.context
            return
        assert _usual_did(panel).hex() == want.hex()

    def test_hand_value(self, mixed_panel):
        # observed means: treated post 131/8, treated pre 59/6,
        # control post 27/2, control pre 9
        assert _usual_did(mixed_panel) == pytest.approx(49 / 24)

    def test_equals_naive_under_full_observation(self):
        # integer outcomes and arms of 32 keep every mean exact in floats
        rng = np.random.default_rng(11)
        n = 64
        data = PanelDataset.from_records(
            [str(i) for i in range(n)],
            [1] * 32 + [0] * 32,
            np.ones(n), np.ones(n),
            rng.integers(-50, 50, n).astype(float),
            rng.integers(-50, 50, n).astype(float),
        )
        assert _usual_did(data) == naive_did(data)

    def test_empty_cell(self):
        data = make_panel([(1, 1, 1, 0.0, 1.0), (0, 0, 1, None, 1.0)])
        with pytest.raises(EmptyCell):
            _usual_did(data)

    def test_large_draw_matches_closed_form(self):
        cfg = DgpConfig(n=1_000_000, seed=1)
        target = _usual_did_closed_form(cfg)
        assert target == pytest.approx(3.7742, abs=1e-4)
        assert abs(_usual_did(generate_panel(cfg)) - target) <= 0.01


class TestMonteCarlo:
    def test_an_overflowing_usual_did_fails_the_replicate_in_every_row(self):
        # the usual DiD of att = 1e308 overflows to inf; it was averaged into
        # mean_naive while every bound of the replicate failed
        cfg = DgpConfig(n=200, seed=0, att=1e308)
        with np.errstate(over="ignore"):  # the treated outcomes' sum overflows
            with pytest.raises(NonFiniteEstimate, match="usual_did is not finite"):
                _usual_did(generate_panel(replace(cfg, seed=[0, 0])))
            rows = run_monte_carlo(cfg, 3, ["mono-pos", "nomono"])
        for row in rows:
            assert row.failed_reps == 3
            assert math.isnan(row.mean_naive)

    def test_means_of_replicates_whose_sum_overflows_are_finite(self):
        # 1,000 replicates of att = 1e306 (most fail at n = 20): each estimate
        # is finite, and the means of all three columns were inf
        cfg = DgpConfig(n=20, seed=0, att=1e306)
        with np.errstate(over="ignore"):
            rows = run_monte_carlo(cfg, 1000, ["mono-pos", "nomono"])
        for row in rows:
            assert row.failed_reps < 1000
            for value, values in ((row.mean_lb, row.lbs), (row.mean_ub, row.ubs)):
                assert math.isinf(sum(values))
                assert value == pytest.approx(float(sum(map(Fraction, values)) / len(values)),
                                              rel=1e-12)
            assert 1e305 < row.mean_naive < 1e307

    def test_mean_naive_is_usual_did(self):
        cfg = DgpConfig(n=300, seed=7)
        row = run_monte_carlo(cfg, 5, ["mono-pos"])[0]
        draws = [
            _usual_did(generate_panel(replace(cfg, seed=[7, rep])))
            for rep in range(5)
        ]
        assert row.mean_naive == float(np.mean(draws))

    def test_replicates_build_no_ids(self, monkeypatch):
        monkeypatch.setattr(core, "_worker_count", lambda: 1)  # panels drawn in-process
        panels = []
        draw = lambda config: panels.append(generate_panel(config)) or panels[-1]
        monkeypatch.setattr(simulation, "generate_panel", draw)
        run_monte_carlo(DgpConfig(n=300, seed=7), 5, ["mono-pos", "nomono"])
        assert len(panels) == 5 and all("ids" not in vars(p) for p in panels)

    def test_deterministic(self):
        cfg = DgpConfig(n=300, seed=7)
        a = run_monte_carlo(cfg, 20, ["mono-pos"])
        b = run_monte_carlo(cfg, 20, ["mono-pos"])
        assert a[0].mean_lb == b[0].mean_lb
        assert a[0].coverage == b[0].coverage

    def test_row_per_assumption_set(self):
        rows = run_monte_carlo(DgpConfig(n=300, seed=7), 10, ["mono-pos", "nomono"])
        assert [r.assumption_set for r in rows] == ["mono-pos", "nomono"]
        for row in rows:
            assert row.reps == 10 and len(row.lbs) + row.failed_reps == 10

    def test_nomono_wider_on_average(self):
        rows = run_monte_carlo(DgpConfig(n=500, seed=8), 30, ["mono-pos", "nomono"])
        mono, nomono = rows
        assert nomono.mean_lb <= mono.mean_lb
        assert nomono.mean_ub >= mono.mean_ub

    def test_interval_coverage_definition_is_stricter(self):
        cfg = DgpConfig(n=500, seed=9)
        att = run_monte_carlo(cfg, 40, ["mono-pos"], coverage="att")
        strict = run_monte_carlo(cfg, 40, ["mono-pos"], coverage="interval",
                                 oracle_draws=400_000)
        assert strict[0].coverage <= att[0].coverage

    def test_interval_coverage_runs_a_wrapped_oracle(self, monkeypatch):
        # a profiler may wrap oracle_true_values in a local closure, which cannot
        # be pickled: the workers inherit their tasks, so none is pickled. This
        # wrapper makes the true interval the point att, so the rows must be those
        # of coverage="att", which also shows that the workers ran the wrapper
        oracle = simulation.oracle_true_values

        def traced(config, *args, **kwargs):
            return replace(oracle(config, *args, **kwargs),
                           lb_true=config.att, ub_true=config.att)

        monkeypatch.setattr(simulation, "oracle_true_values", traced)
        cfg = DgpConfig(n=300, seed=7)
        rows = run_monte_carlo(cfg, 30, ["mono-pos", "nomono"], coverage="interval",
                               oracle_draws=100_000)
        assert _row_bits(rows) == _row_bits(run_monte_carlo(cfg, 30, ["mono-pos", "nomono"]))

    def test_unknown_inputs(self):
        for aset in ("mystery", MONO_NEGATIVE):
            with pytest.raises(ValidationError, match="unknown assumption set"):
                run_monte_carlo(DgpConfig(n=300), 10, [aset])
        with pytest.raises(ValidationError):
            run_monte_carlo(DgpConfig(n=300), 10, ["mono-pos"], coverage="sideways")
        with pytest.raises(ValidationError):
            run_monte_carlo(DgpConfig(n=300), 0, ["mono-pos"])

    def test_empty_assumption_list_runs_nothing(self, monkeypatch):
        # it used to run every replicate and return no rows
        monkeypatch.setattr(simulation, "_replicates", None)
        with pytest.raises(ValidationError, match="no assumption set"):
            run_monte_carlo(DgpConfig(n=300), 10, [])

    def test_seed_list_prefixes_replicate_seeds(self):
        # replicate r of seed [1, 2] draws from [1, 2, r], so [1, 2] and [1, 3]
        # give different rows, and [7] the rows of 7
        rows = [run_monte_carlo(DgpConfig(n=300, seed=seed), 5, ["mono-pos"])
                for seed in ([1, 2], [1, 3], [7], 7)]
        assert rows[0][0].lbs == [
            bounds_tau_ooo(generate_panel(DgpConfig(n=300, seed=[1, 2, r])), MONO_POSITIVE).lb
            for r in range(5)
        ]
        assert _row_bits(rows[0]) != _row_bits(rows[1])
        assert _row_bits(rows[2]) == _row_bits(rows[3])

    def test_each_name_keeps_its_own_sums(self):
        cfg = DgpConfig(n=300, seed=7)
        one = run_monte_carlo(cfg, 5, ["mono-pos"])
        two = run_monte_carlo(cfg, 5, ["mono-pos", "mono-pos"])
        assert _row_bits(two) == _row_bits(one) * 2

    def test_csv_shape(self):
        rows = run_monte_carlo(DgpConfig(n=300, seed=7), 5, ["mono-pos"])
        text = monte_carlo_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "n,reps,assumption_set,mean_lb,mean_ub,mean_naive,mean_p_ooo1,coverage"
        assert len(lines) == 2
        assert lines[1].startswith("300,5,mono-pos,")


def _row_bits(rows) -> list:
    """Every field of every row, floats as hex so that NaN compares equal."""
    bits = lambda v: v.hex() if isinstance(v, float) else v
    return [[bits(v) if not isinstance(v, list) else [bits(x) for x in v]
             for v in astuple(row)] for row in rows]


class TestWorkerLayout:
    """``run_monte_carlo`` gives the same rows, and raises the same error,
    whatever the number of workers and the replicates per task."""

    # n = 20 at seed 1: 3 of 23 replicates fail mono-pos and 4 fail nomono
    CFG = DgpConfig(n=20, seed=1)

    @pytest.fixture(params=[(1, 1), (2, 7), (3, 1), (2, 100), (3, 7), (1, 100)],
                    ids=lambda p: f"workers{p[0]}-block{p[1]}")
    def layout(self, request, monkeypatch):
        workers, block = request.param
        monkeypatch.setattr(core, "_worker_count", lambda: workers)
        monkeypatch.setattr(simulation, "_MC_BLOCK", block)
        yield
        assert_no_children()

    @pytest.fixture(scope="class")
    def reference(self):
        return _row_bits(run_monte_carlo(self.CFG, 23, ["mono-pos", "nomono"],
                                         coverage="interval", oracle_draws=100_000))

    def test_rows_do_not_depend_on_layout(self, layout, reference):
        rows = run_monte_carlo(self.CFG, 23, ["mono-pos", "nomono"],
                               coverage="interval", oracle_draws=100_000)
        assert [row.failed_reps for row in rows] == [3, 4]
        assert _row_bits(rows) == reference

    # n = 2,000 at seed 3: no replicate fails; each replicate's two sets share
    # one memo of its cells' samples
    @pytest.mark.parametrize("cfg, reps", [(CFG, 23), (DgpConfig(n=2000, seed=3), 6)],
                             ids=["n20", "n2000"])
    def test_rows_match_serial_calls(self, layout, cfg, reps):
        rows = run_monte_carlo(cfg, reps, ["mono-pos", "nomono"])
        for row, aset in zip(rows, (MONO_POSITIVE, WITHOUT_MONOTONICITY)):
            lbs, ubs, ps = [], [], []
            for rep in range(reps):
                try:
                    res = bounds_tau_ooo(generate_panel(replace(cfg, seed=[cfg.seed, rep])), aset)
                except EstimationError:
                    continue
                lbs.append(res.lb)
                ubs.append(res.ub)
                ps.append(res.proportions.p_ooo1)
            assert [v.hex() for v in row.lbs] == [v.hex() for v in lbs]
            assert [v.hex() for v in row.ubs] == [v.hex() for v in ubs]
            assert row.mean_p_ooo1.hex() == float(np.mean(ps)).hex()
            assert row.failed_reps == reps - len(lbs)

    @staticmethod
    def _empty_cells(monkeypatch, cells: dict):
        """Make replicate ``rep`` lose every observed outcome of arm ``d`` in
        period ``t``, for each ``rep: (d, t)`` of ``cells``."""
        draw = simulation.generate_panel

        def generate(config):
            panel = draw(config)
            if config.seed[1] not in cells:
                return panel
            d, t = cells[config.seed[1]]
            s = [panel.s0.copy(), panel.s1.copy()]
            s[t][panel.d == d] = 0
            y = [np.where(s[k] == 1, (panel.y0, panel.y1)[k], np.nan) for k in (0, 1)]
            return PanelDataset.from_records(panel.ids, panel.d, *s, *y)

        monkeypatch.setattr(simulation, "generate_panel", generate)
        return generate

    def test_first_failing_replicate_raises(self, layout, monkeypatch):
        # an error that is not an estimation error still ends the study, with
        # the first failing replicate's error whatever the layout
        draw = simulation.generate_panel

        def generate(config):
            if config.seed[1] in (17, 9):
                raise RuntimeError(f"replicate {config.seed[1]}")
            return draw(config)

        monkeypatch.setattr(simulation, "generate_panel", generate)
        with pytest.raises(RuntimeError, match="replicate 9"):
            run_monte_carlo(self.CFG, 23, ["mono-pos"])

    def test_empty_usual_did_cell_fails_the_replicate(self, layout, monkeypatch):
        # each of the four cells of the usual DiD, emptied in one replicate
        cells = {17: (1, 1), 9: (0, 0), 4: (0, 1), 20: (1, 0)}
        generate = self._empty_cells(monkeypatch, cells)
        naive, lbs = [], {MONO_POSITIVE: [], WITHOUT_MONOTONICITY: []}
        for rep in range(23):
            panel = generate(replace(self.CFG, seed=[1, rep]))
            if rep in cells:
                with pytest.raises(EmptyCell):
                    _usual_did(panel)
            else:
                naive.append(_usual_did(panel))
            for aset, got in lbs.items():
                try:
                    got.append(bounds_tau_ooo(panel, aset).lb)
                except EstimationError:
                    # tau_OOO fails wherever the usual DiD does
                    continue
                assert rep not in cells
        rows = run_monte_carlo(self.CFG, 23, ["mono-pos", "nomono"])
        for row, aset in zip(rows, lbs):
            assert row.lbs == lbs[aset]
            assert row.failed_reps == 23 - len(lbs[aset])
            assert row.mean_naive == float(np.mean(naive))
        # replicate 17 failed both sets already, and 3, 18 (and 6 for nomono) still do
        assert [row.failed_reps for row in rows] == [6, 7]

        # no replicate with a usual DiD: the rows are NaN, not an error
        self._empty_cells(monkeypatch, {rep: (0, 1) for rep in range(23)})
        rows = run_monte_carlo(self.CFG, 23, ["mono-pos"])
        assert rows[0].failed_reps == 23
        assert math.isnan(rows[0].mean_naive) and math.isnan(rows[0].mean_lb)

    def test_oracle_error_raises_first(self, layout, monkeypatch):
        self._empty_cells(monkeypatch, {0: (1, 1)})
        with pytest.raises(ValidationError, match="mc_draws must be >= 1e5"):
            run_monte_carlo(self.CFG, 23, ["mono-pos"], coverage="interval",
                            oracle_draws=99_999)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
@example([1.5e308, 1.5e308])
@example([1.7976931348623157e308] * 3)
@example([-1.7976931348623157e308] * 9)
def test_mean_of_finite_replicates(values):
    # np.mean's bits where it is finite; where the sum overflows, a finite
    # mean within the values' range and near the exact one
    with np.errstate(over="ignore"):
        plain = float(np.mean(values)) if values else math.nan
    got = simulation._mean(values)
    if not values:
        assert math.isnan(got)
    elif math.isfinite(plain):
        assert np.float64(got).view(np.uint64) == np.float64(plain).view(np.uint64)
    else:
        exact = float(sum(map(Fraction, values)) / len(values))
        assert min(values) <= got <= max(values)
        assert abs(got - exact) <= 1e-12 * max(map(abs, values))
