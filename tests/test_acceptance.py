"""Acceptance suite: one test per release criterion, each printing a verdict
line. Run with ``pytest -s tests/test_acceptance.py`` to see every line.

The heavyweight synthetic backtest (criteria 9 and 10) is built once per
session and shared.
"""

import itertools
import math
import time
import zlib

import numpy as np
import pytest

from duotrader import regime_hmm, trend_net
from duotrader.alpha_fusion import FusionConfig, fuse
from duotrader.directions import DOWN, FLAT, UP
from duotrader.engine import EngineConfig, run_backtest
from duotrader.marketdata import InstrumentMeta, synth_regime_series
from duotrader.metrics import cagr, compute_report, profit_loss_ratio, total_return
from duotrader.portfolio_bl import (
    BlConfig,
    equilibrium_returns,
    optimize_weights,
    posterior_returns,
)
from duotrader.regime_hmm import HmmConfig
from duotrader.risk_controls import (
    LIQUIDATE,
    PositionRiskState,
    RiskConfig,
    update_and_check,
)
from duotrader.runconfig import RunConfig
from duotrader.trend_net import MlpConfig
from duotrader.universe import UniverseConfig

from conftest import fifo_accounting_gap, log_returns, take_rows


def verdict(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number:2d} ({name}): {status} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


# --- shared full-scale synthetic backtest -----------------------------------

N_SYMBOLS = 20
WARMUP = 756
TEST_BARS = 504
REGIMES = [(0.0008, 0.009), (-0.0009, 0.016)]
TRANSITION = [[0.97, 0.03], [0.04, 0.96]]


def build_market(n_bars: int):
    bars_by_symbol, meta = {}, {}
    for i in range(N_SYMBOLS):
        symbol = f"SYN{i:02d}"
        sub_seed = (7 ^ zlib.crc32(f"synth:{symbol}".encode())) % 2**31
        bars, _ = synth_regime_series(
            sub_seed, n_bars, REGIMES, TRANSITION, start_price=50.0 + 7.0 * i,
        )
        bars_by_symbol[symbol] = bars
        meta[symbol] = InstrumentMeta(
            symbol, "Energy", 1_000_000 + (sub_seed % 1_000) * 250_000
        )
    benchmark, _ = synth_regime_series(99, n_bars, REGIMES, TRANSITION)
    return bars_by_symbol, meta, benchmark


def run_engine(bars_by_symbol, meta, benchmark):
    return run_backtest(
        bars_by_symbol,
        meta,
        RunConfig(
            seed=7,
            universe=UniverseConfig(),
            hmm=HmmConfig(),       # 5 states, <= 10 EM iterations
            mlp=MlpConfig(),       # 5 -> 10 -> 10 -> 10 -> 5 -> 1, lr 0.001, 5 epochs
            fusion=FusionConfig(),
            bl=BlConfig(),
            risk=RiskConfig(),
            engine=EngineConfig(warmup_bars=WARMUP),
        ),
        benchmark=benchmark,
    )


@pytest.fixture(scope="session")
def full_backtest():
    bars_by_symbol, meta, benchmark = build_market(WARMUP + TEST_BARS)
    start = time.perf_counter()
    result = run_engine(bars_by_symbol, meta, benchmark)
    elapsed = time.perf_counter() - start
    return bars_by_symbol, meta, benchmark, result, elapsed


# --- criteria ---------------------------------------------------------------

def test_criterion_01_metrics_formula_oracle():
    start = time.perf_counter()
    tot = total_return(100_000.0, 182_761.12)
    growth = cagr(100_000.0, 182_761.12, 1096)
    plr = profit_loss_ratio(0.0770, -0.0329)
    ok = (
        abs(tot - 0.828) <= 0.001
        and abs(growth - 0.222) <= 0.001
        and abs(plr - 2.34) <= 0.005
        and time.perf_counter() - start < 1.0
    )
    verdict(
        1, "metrics formula oracle", ok,
        f"total_return={tot:.4%} cagr={growth:.4%} plr={plr:.4f}",
    )


def test_criterion_02_hmm_regime_recovery():
    start = time.perf_counter()
    bars, labels = synth_regime_series(
        7, 2001, [(0.002, 0.005), (-0.002, 0.005)],
        [[0.995, 0.005], [0.005, 0.995]],
    )
    returns = log_returns(bars.close)
    true_labels = labels[1:]
    models, _ = regime_hmm.fit_batch(returns[None], HmmConfig(n_states=2, max_iterations=40), [7])

    means = models.mean_returns[0]
    high, low = int(np.argmax(means)), int(np.argmin(means))
    rel_errors = (
        abs(means[high] - 0.002) / 0.002,
        abs(means[low] + 0.002) / 0.002,
    )
    alphas, _ = regime_hmm._filter(models, returns[None])
    states = np.argmax(alphas[0], axis=1)
    mapped = np.where(states == high, 0, 1)
    accuracy = max((mapped == true_labels).mean(), (mapped != true_labels).mean())
    elapsed = time.perf_counter() - start
    ok = max(rel_errors) < 0.20 and accuracy >= 0.85 and elapsed < 5.0
    verdict(
        2, "hmm regime recovery", ok,
        f"mean rel err={max(rel_errors):.2%} accuracy={accuracy:.2%} ({elapsed:.1f}s)",
    )


def test_criterion_03_em_monotonicity():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_drop = 0.0
    fits = 0
    for trial in range(50):
        n_states = int(rng.integers(1, 6))
        length = int(rng.integers(max(60, 10 * n_states + 5), 400))
        kind = trial % 3
        if kind == 0:
            series = rng.normal(0.0005, 0.01, length)
        elif kind == 1:
            half = length // 2
            series = np.concatenate(
                [rng.normal(0.003, 0.004, half), rng.normal(-0.003, 0.012, length - half)]
            )
        else:
            series = rng.standard_t(3, length) * 0.008
        _, (record,) = regime_hmm.fit_batch(
            series[None], HmmConfig(n_states=n_states), [int(rng.integers(1_000_000))]
        )
        path = record["log_likelihood_path"]
        worst_drop = max(
            worst_drop, max((a - b for a, b in zip(path, path[1:])), default=0.0)
        )
        fits += 1
    elapsed = time.perf_counter() - start
    ok = fits >= 50 and worst_drop <= 1e-8 and elapsed < 30.0
    verdict(
        3, "em monotonicity", ok,
        f"{fits} fits, worst drop={worst_drop:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_04_gradient_check():
    start = time.perf_counter()
    worst = 0.0
    for draw in range(10):
        assert trend_net.LAYER_SIZES == (5, 10, 10, 10, 5, 1)
        theta = trend_net.init_params([100 + draw])[0]
        rng = np.random.default_rng(200 + draw)
        inputs = rng.normal(0.0, 1.0, size=(8, 5))[None]
        targets = rng.normal(0.0, 1.0, size=8)[None]

        # The network's parameters and gradient as (1, P) rows, read and
        # written through the layer views and the pass that train_batch uses.
        row, grad_row, losses = theta[None].copy(), np.empty((1, theta.size)), np.empty(1)
        views = trend_net._unflatten(row, trend_net.SHAPES)
        grads = trend_net._unflatten(grad_row, trend_net.SHAPES)
        step_pass = trend_net._Pass(views[: len(views) // 2], inputs.shape[1])

        def loss():
            step_pass.gradients(views, inputs, targets, grads, losses)
            return losses[0]

        loss()
        analytic = grad_row[0].copy()

        numeric = np.empty_like(theta)
        step = 1e-5
        for i in range(theta.size):
            row[0, i] += step
            up = loss()
            row[0, i] -= 2 * step
            down = loss()
            numeric[i] = (up - down) / (2 * step)
            row[0, i] = theta[i]

        rel = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
        )
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 5.0
    verdict(4, "network gradient check", ok, f"worst rel err={worst:.2e} ({elapsed:.1f}s)")


def test_criterion_05_network_learnability():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    inputs = rng.normal(0.0, 1.0, size=(2000, 5))
    data = trend_net.TrainingSet(inputs, inputs.mean(axis=1))
    config = MlpConfig()  # lr 0.001, 5 epochs
    _, (history,) = trend_net.train_batch(trend_net.init_params([3]), [data], config, [3])
    ratio = history[-1] / history[0]
    elapsed = time.perf_counter() - start
    ok = ratio < 0.10 and elapsed < 10.0
    verdict(
        5, "network learnability", ok,
        f"epoch-0 mse={history[0]:.4f} final={history[-1]:.4f} ratio={ratio:.2%} ({elapsed:.1f}s)",
    )


def test_criterion_06_fusion_truth_table():
    from datetime import date

    day = date(2021, 1, 4)
    non_flat = 0
    ok = True
    for hmm_dir, nn_dir in itertools.product((UP, DOWN, FLAT), repeat=2):
        expected_return = {UP: 0.01, DOWN: -0.01, FLAT: 0.0}[hmm_dir]
        insight = fuse((hmm_dir, expected_return), (nn_dir, 1.0), "X", day, 21)
        if hmm_dir == nn_dir and hmm_dir in (UP, DOWN):
            ok = ok and insight.direction == hmm_dir
            non_flat += 1
        else:
            ok = ok and insight.direction == FLAT
    ok = ok and non_flat == 2
    verdict(6, "fusion truth table", ok, f"{non_flat} non-flat cells of 9")


def test_criterion_07_black_litterman_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(5)

    # empty-view posterior is the prior, bit for bit
    factor = rng.normal(0, 0.1, (4, 4))
    sigma4 = factor @ factor.T + 0.01 * np.eye(4)
    prior4 = rng.normal(0, 0.05, 4)
    identity_ok = (
        posterior_returns(prior4, sigma4, np.zeros(4), np.zeros(4)).tobytes()
        == prior4.tobytes()
    )

    # equilibrium round trip recovers the market weights
    weights = rng.uniform(0.1, 0.4, 4)
    weights /= weights.sum()
    config = BlConfig(max_weight=1.0)
    prior = equilibrium_returns(sigma4, weights, config.risk_aversion)
    recovered = np.array(list(optimize_weights(prior, sigma4, config, list("ABCD")).values()))
    round_trip_err = float(np.max(np.abs(recovered - weights)))

    # two-asset posterior vs an independent inverse-based dense solve
    sigma = np.array([[0.0400, 0.0120], [0.0120, 0.0625]])
    tau, q, omega = 0.05, 0.08, 0.02
    prior2 = np.array([0.040, 0.055])
    pick = np.array([[1.0, 0.0]])
    produced = posterior_returns(prior2, sigma, pick[0] * q, pick[0] * (tau / omega))
    inv_ts = np.linalg.inv(tau * sigma)
    dense = np.linalg.inv(inv_ts + pick.T @ pick / omega) @ (
        inv_ts @ prior2 + pick.T @ np.array([q]) / omega
    )
    posterior_err = float(np.max(np.abs(produced - dense)))

    elapsed = time.perf_counter() - start
    ok = (
        identity_ok
        and round_trip_err < 1e-9
        and posterior_err < 1e-10
        and elapsed < 1.0
    )
    verdict(
        7, "black-litterman identities", ok,
        f"round-trip err={round_trip_err:.1e} posterior err={posterior_err:.1e}",
    )


def test_criterion_08_risk_overlays():
    start = time.perf_counter()
    config = RiskConfig(max_drawdown_per_security=0.05, trailing_fraction=0.08)
    rng = np.random.default_rng(15)
    paths = 0
    ok = True
    for _ in range(1000):
        entry = float(rng.uniform(10, 200))
        state = PositionRiskState.open_position("S", entry, config)
        closes = entry * np.exp(np.cumsum(rng.normal(0.0, 0.025, 50)))
        peak = entry
        stop = entry * (1 - config.trailing_fraction)
        last_stop = state.trailing_stop
        for close in map(float, closes):
            peak = max(peak, close)
            stop = max(stop, peak * (1 - config.trailing_fraction))
            breach = (
                (peak - close) / peak > config.max_drawdown_per_security
                or close <= stop
            )
            state, decision = update_and_check(state, close, config)
            ok = ok and state.trailing_stop >= last_stop          # monotone stop
            ok = ok and (decision.action == LIQUIDATE) == breach  # exact first bar
            last_stop = state.trailing_stop
            if breach:
                break
        paths += 1
    elapsed = time.perf_counter() - start
    ok = ok and paths >= 1000 and elapsed < 10.0
    verdict(8, "risk overlays", ok, f"{paths} paths ({elapsed:.1f}s)")


def test_criterion_09_engine_determinism_and_no_look_ahead(full_backtest):
    bars_by_symbol, meta, benchmark, result, elapsed = full_backtest

    curve = result.equity_curve
    runtime_ok = elapsed < 180.0
    warmup_end = curve[WARMUP - 1].timestamp
    warmup_ok = all(f.timestamp > warmup_end for f in result.fills)
    traded_ok = len(result.fills) > 0

    rerun = run_engine(bars_by_symbol, meta, benchmark)
    determinism_ok = [f.to_dict() for f in rerun.fills] == [
        f.to_dict() for f in result.fills
    ]

    cutoff = curve[WARMUP + 250].timestamp
    truncated_data = {
        s: take_rows(bars, bars.days <= cutoff.toordinal())
        for s, bars in bars_by_symbol.items()
    }
    truncated_bench = take_rows(benchmark, benchmark.days <= cutoff.toordinal())
    truncated = run_engine(truncated_data, meta, truncated_bench)
    expected = [f.to_dict() for f in result.fills if f.timestamp <= cutoff]
    look_ahead_ok = [f.to_dict() for f in truncated.fills] == expected

    accounting_gap = fifo_accounting_gap(result, bars_by_symbol)
    accounting_ok = accounting_gap < 1e-6

    ok = (
        runtime_ok and warmup_ok and traded_ok and determinism_ok
        and look_ahead_ok and accounting_ok
    )
    verdict(
        9, "engine determinism and no-look-ahead", ok,
        f"run={elapsed:.1f}s fills={len(result.fills)} "
        f"accounting gap={accounting_gap:.1e} "
        f"determinism={determinism_ok} truncation={look_ahead_ok}",
    )


def test_criterion_10_end_to_end_report_validity(full_backtest):
    _, _, _, result, _ = full_backtest
    report = result.report

    variance_ok = math.isclose(
        report.annual_variance, report.annual_stdev**2, rel_tol=0, abs_tol=1e-12
    )
    rates_ok = (
        math.isclose(report.win_rate + report.loss_rate, 1.0, abs_tol=1e-12)
        if report.total_orders and "no-closed-trades" not in report.flags
        else report.win_rate == report.loss_rate == 0.0
    )
    mdd_ok = 0.0 <= report.max_drawdown <= 1.0

    equity = np.array([p.equity for p in result.equity_curve])
    own_returns = equity[1:] / equity[:-1] - 1.0
    self_report = compute_report(
        [p.timestamp for p in result.equity_curve], equity, result.fills, own_returns
    )
    beta_ok = abs(self_report.beta - 1.0) < 1e-12
    alpha_ok = abs(self_report.alpha) < 1e-9

    plr_ok = True
    if report.average_loss != 0.0:
        plr_ok = math.isclose(
            report.profit_loss_ratio,
            report.average_win / abs(report.average_loss),
            rel_tol=1e-12,
        )

    ok = variance_ok and rates_ok and mdd_ok and beta_ok and alpha_ok and plr_ok
    verdict(
        10, "end-to-end report validity", ok,
        f"mdd={report.max_drawdown:.2%} win+loss={report.win_rate + report.loss_rate:.3f} "
        f"self-beta={self_report.beta:.12f}",
    )
