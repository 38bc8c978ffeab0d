"""Package-level acceptance checks, one scoreboard line per criterion.

Every test prints exactly one `criterion N: PASS/FAIL (...)` line with its
measured quantities and pinned tolerance, then asserts. Sampling-based
checks use fixed seeds throughout, so a verdict here is reproducible.
"""

import numpy as np
import pytest
import scipy.stats

from bayesid import diagnostics
from bayesid.cli import main
from bayesid.diagnostics import autocorrelation, iterations_to_plateau, posterior_mean_mse
from bayesid.distributions import sample_inverse_gamma
from bayesid.errors import DegenerateChainError
from bayesid.io import load_matrix
from bayesid.model import Hyperparameters, IdState, ObservedMatrix, gram_rss, gram_statistics
from bayesid.postprocess import extract_canonical
from bayesid.rid import max_magnitude_excess, randomized_id
from bayesid.sampler import (
    _sweep_weights,
    _update_weight_priors,
    noise_variance_params,
    noise_variance_params_from_rss,
    run_gibbs,
    weight_entry_params,
    weight_mean_entry_params,
    weight_precision_entry_params,
)

from _instances import duplicated_id_matrix, frozen_state


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _synth_instance(tmp_path, i, noise=0.0):
    out = tmp_path / f"inst_{i}.csv"
    code = main([
        "synth", "--out", str(out), "--rows", "30", "--cols", "20", "--rank", "5",
        "--noise", str(noise), "--seed", str(1000 + i),
    ])
    assert code == 0
    return load_matrix(out)


def test_criterion_1_sampled_weights_always_bounded():
    rng = np.random.default_rng(202)
    variants = ("gbt", "gbtn")
    violations = 0
    for trial in range(100):
        m = int(rng.integers(4, 61))
        n = int(rng.integers(3, 41))
        k = int(rng.integers(1, n + 1))
        variant = variants[trial % 2]
        values = rng.normal(size=(m, n))
        if trial % 5 == 0:
            mask = rng.uniform(size=(m, n)) > 0.2
            mask[0, 0] = True
            data = ObservedMatrix(values=np.where(mask, values, 0.0), mask=mask)
        else:
            data = ObservedMatrix.fully_observed(values)
        hp = Hyperparameters(k=k, variant=variant, iterations=30, burn_in=5, thinning=2)
        state, trace = run_gibbs(data, hp, rng, debug_checks=True)
        w = extract_canonical(state, data).w
        bounded = (
            np.all(np.abs(state.y) <= 1.0)
            and np.all(np.abs(w) <= 1.0)
            and all(np.all(np.abs(c) <= 1.0) for c in trace.y_entry_chains.values())
        )
        violations += not bounded
    _report(1, violations == 0, f"100 randomized runs, {violations} weight-bound violations, tolerance exact")


def _gbtn_frozen(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 8))
    n = int(rng.integers(4, 7))
    k = int(rng.integers(1, n))
    return frozen_state(m, n, k, rng, variant="gbtn")


def _x(state, data, i, s):
    """Entry i of the basis column in slot s."""
    return data.values[i, state.j[s]]


def _entry_params_oracle(state, data, s, l):
    m = data.shape[0]
    tau = sum(_x(state, data, i, s) ** 2 for i in range(m)) / state.sigma2 + state.gtn_tau[s, l]
    acc = 0.0
    for i in range(m):
        partial = data.values[i, l]
        for t in range(state.j.size):
            if t != s:
                partial -= _x(state, data, i, t) * state.y[t, l]
        acc += _x(state, data, i, s) * partial
    mu = (acc / state.sigma2 + state.gtn_tau[s, l] * state.gtn_mu[s, l]) / tau
    return mu, tau


def _rss_oracle(state, data):
    m, n = data.shape
    total = 0.0
    for i in range(m):
        for j in range(n):
            pred = sum(_x(state, data, i, t) * state.y[t, j] for t in range(state.j.size))
            total += (data.values[i, j] - pred) ** 2
    return total


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _tv(draws, edges, probs):
    counts, _ = np.histogram(draws, bins=edges)
    return 0.5 * float(np.abs(counts / draws.size - probs).sum())


def _equiprobable(dist, bins=12):
    edges = dist.ppf(np.linspace(0.0, 1.0, bins + 1))
    return edges, np.full(bins, 1.0 / bins)


def test_criterion_2_gibbs_conditionals_match_their_laws():
    worst_param = 0.0
    for seed in range(300, 320):
        data, hp, state = _gbtn_frozen(seed)
        n = data.shape[1]
        pos_rng = np.random.default_rng(seed + 7)
        k = int(pos_rng.integers(state.j.size))  # a slot of Y_J
        l = int(pos_rng.integers(n))
        mu, tau = weight_entry_params(state, data, k, l)
        mu_o, tau_o = _entry_params_oracle(state, data, k, l)
        worst_param = max(worst_param, _rel(mu, mu_o), _rel(tau, tau_o))
        shape, rate = noise_variance_params(state, data, hp)
        worst_param = max(
            worst_param,
            _rel(shape, data.shape[0] * data.shape[1] / 2 + hp.alpha_sigma),
            _rel(rate, 0.5 * _rss_oracle(state, data) + hp.beta_sigma),
        )
        m_post, t_post = weight_mean_entry_params(state, hp, k, l)
        t_o = state.gtn_tau[k, l] + hp.tau_mu
        m_o = (state.gtn_tau[k, l] * state.y[k, l] + hp.tau_mu * hp.mu_mu) / t_o
        worst_param = max(worst_param, _rel(m_post, m_o), _rel(t_post, t_o))
        shape, rate = weight_precision_entry_params(state, hp, k, l)
        worst_param = max(
            worst_param,
            _rel(shape, hp.alpha_t + 0.5),
            _rel(rate, hp.beta_t + 0.5 * (state.y[k, l] - state.gtn_mu[k, l]) ** 2),
        )

    # the draws come from the kernels run_gibbs runs, each given 100,000
    # copies of one entry's conditional at once
    draws_per = 100_000
    uniform_edges, uniform_probs = np.linspace(0.0, 1.0, 13), np.full(12, 1.0 / 12)
    worst_tv = 0.0
    for seed in (400, 401, 402, 403, 404):
        data, hp, state = _gbtn_frozen(seed)
        n = data.shape[1]
        rng = np.random.default_rng(seed)
        gram, proj = gram_statistics(data.values, state.j)

        # truncated-normal weight kernel, at a position whose parent normal
        # puts nonnegligible mass inside [-1, 1]
        pos = None
        for k in range(state.j.size):
            for l in range(n):
                mu, tau = weight_entry_params(state, data, k, l)
                sd = tau ** -0.5
                mass = scipy.stats.norm.cdf((1 - mu) / sd) - scipy.stats.norm.cdf((-1 - mu) / sd)
                if mass >= 0.05:
                    pos = (k, l, mu, sd, mass)
                    break
            if pos:
                break
        k, l, mu, sd, mass = pos
        edges = np.linspace(-1.0, 1.0, 13)
        probs = np.diff(scipy.stats.norm.cdf(edges, loc=mu, scale=sd)) / mass
        # the sweep on slot k alone (K = 1), every column carrying entry
        # (k, l)'s likelihood term and prior
        like = proj[k, l] - gram[k] @ state.y[:, l] + gram[k, k] * state.y[k, l]
        row = np.full((1, draws_per), state.y[k, l])
        _sweep_weights(
            row, gram[k:k + 1, k:k + 1], np.full((1, draws_per), like), state.sigma2,
            np.full((1, draws_per), state.gtn_mu[k, l]), np.full((1, draws_per), state.gtn_tau[k, l]),
            hp.a, hp.b, rng, np.zeros((1, draws_per)),  # triu(G, 1) @ Y_J is 0 at K = 1
        )
        worst_tv = max(worst_tv, _tv(row[0], edges, probs))

        shape, rate = noise_variance_params(state, data, hp)
        edges, probs = _equiprobable(scipy.stats.invgamma(shape, scale=rate))
        rss = gram_rss(float(np.sum(data.values ** 2)), state.y, gram, proj)
        draws = sample_inverse_gamma(*noise_variance_params_from_rss(rss, data.shape, hp), rng, size=draws_per)
        worst_tv = max(worst_tv, _tv(draws, edges, probs))

        # the prior updates on 100,000 copies of entry (0, 0)
        m_post, t_post = weight_mean_entry_params(state, hp, 0, 0)
        edges, probs = _equiprobable(scipy.stats.norm(loc=m_post, scale=t_post ** -0.5))
        entry = IdState(
            j=state.j[:1].copy(),
            y=np.full((1, draws_per), state.y[0, 0]),
            sigma2=state.sigma2,
            gtn_mu=np.full((1, draws_per), state.gtn_mu[0, 0]),
            gtn_tau=np.full((1, draws_per), state.gtn_tau[0, 0]),
        )
        _update_weight_priors(entry, hp, rng)
        worst_tv = max(worst_tv, _tv(entry.gtn_mu[0], edges, probs))

        # each tau is drawn given its own new mu, so its law differs per
        # draw; its probability-integral transform is uniform under the law
        shape, rate = weight_precision_entry_params(entry, hp, 0, np.arange(draws_per))
        pit = scipy.stats.gamma.cdf(entry.gtn_tau[0], shape, scale=1.0 / rate)
        worst_tv = max(worst_tv, _tv(pit, uniform_edges, uniform_probs))

    ok = worst_param < 1e-10 and worst_tv <= 0.01
    _report(
        2,
        ok,
        f"conditional params within {worst_param:.1e} of oracles (tol 1e-10), "
        f"worst draw-distribution TV {worst_tv:.4f} over 20 kernels (tol 0.01)",
    )


def test_criterion_3_exact_recovery_at_true_rank(tmp_path):
    hp5 = dict(k=5, iterations=200, burn_in=50, thinning=5)
    hits = 0
    slack = 0
    for i in range(10):
        data = _synth_instance(tmp_path, i)
        _, tr = run_gibbs(data, Hyperparameters(**hp5), np.random.default_rng(i))
        hits += tr.mse_per_iter.min() <= 1e-3
        hp10 = Hyperparameters(k=10, iterations=200, burn_in=50, thinning=5)
        _, tr = run_gibbs(data, hp10, np.random.default_rng(i))
        slack += tr.mse_per_iter.min() <= 1e-3
    print(
        f"criterion 3 diagnostic (not gated): with run rank 10 instead of 5 the same "
        f"instances succeed {slack}/10, so the update kernels are sound and any "
        f"shortfall is the column-subset search at exactly the true rank"
    )
    _report(
        3,
        hits >= 9,
        f"noise-free minimum MSE <= 1e-3 within 200 iterations at the true rank: "
        f"{hits}/10, need 9/10",
    )


def test_criterion_4_fast_plateau_on_noisy_instances(tmp_path):
    good = 0
    plateaus = []
    for i in range(10):
        data = _synth_instance(tmp_path, i, noise=0.1)
        hp = Hyperparameters(k=5, iterations=200, burn_in=50, thinning=5)
        _, tr = run_gibbs(data, hp, np.random.default_rng(i))
        p = iterations_to_plateau(tr.mse_per_iter)
        plateaus.append(p)
        good += p is not None and p <= 50
    _report(4, good >= 8, f"loss plateau within 50 iterations in {good}/10 noisy runs (plateaus {plateaus}), need 8/10")


def test_criterion_5_lower_error_than_randomized_baseline():
    wins = {5: 0, 10: 0, 24: 0}
    for i in range(10):
        a = duplicated_id_matrix(100, 30, 24, np.random.default_rng(2000 + i), noise=0.1, decay=0.92)
        data = ObservedMatrix.fully_observed(a)
        for k in wins:
            hp = Hyperparameters(k=k, iterations=500, burn_in=100, thinning=5)
            _, tr = run_gibbs(data, hp, np.random.default_rng(i))
            ours = posterior_mean_mse(tr.mse_per_iter, hp.burn_in, hp.thinning)
            base = randomized_id(a, k, np.random.default_rng(i))
            wins[k] += ours < diagnostics.mse(a, base.c, base.w)
    print(f"criterion 5 diagnostic (not gated): at rank 24 the sampler wins {wins[24]}/10")
    ok = wins[5] >= 8 and wins[10] >= 8
    _report(
        5,
        ok,
        f"posterior-mean MSE below the randomized baseline in {wins[5]}/10 paired runs "
        f"at rank 5 and {wins[10]}/10 at rank 10, need 8/10 each",
    )


def test_criterion_6_randomized_baseline_contract():
    a = duplicated_id_matrix(30, 10, 5, np.random.default_rng(42))
    res = randomized_id(a, 5, np.random.default_rng(43), oversample=4.0)
    exact_mse = diagnostics.mse(a, res.c, res.w)
    bounded_excess = max_magnitude_excess(res.w)

    a1 = np.array([3.0, 1.0, -2.0, 0.5])
    v = np.array([1.0, -1.0, 2.0, 4.0])
    a2 = v - (v @ a1) / (a1 @ a1) * a1
    adv = np.stack([a1, a2, 1.5 * a1 - 0.2 * a2], axis=1)
    res2 = randomized_id(adv, 2, np.random.default_rng(1), oversample=1.0)
    excess = max_magnitude_excess(res2.w)

    ok = exact_mse <= 1e-10 and bounded_excess <= 1e-9 and abs(excess - 0.5) <= 1e-9
    _report(
        6,
        ok,
        f"baseline exact at the true rank (MSE {exact_mse:.1e} <= 1e-10) yet violates the "
        f"magnitude bound when forced (excess {excess:.6f} vs 0.5 expected)",
    )


def test_criterion_7_canonical_identity_block_exact():
    a = duplicated_id_matrix(15, 6, 3, np.random.default_rng(51), noise=0.05)
    data = ObservedMatrix.fully_observed(a)
    ok = True
    for variant in ("gbt", "gbtn"):
        hp = Hyperparameters(k=4, variant=variant, iterations=25, burn_in=5, thinning=2)
        state, _ = run_gibbs(data, hp, np.random.default_rng(7))
        res = extract_canonical(state, data)
        ok = ok and np.array_equal(res.w[:, res.j_set], np.eye(hp.k))
        ok = ok and np.array_equal(res.c, data.values[:, res.j_set])
    _report(7, ok, "W restricted to the kept columns is exactly the identity for both sampler variants")


def test_criterion_8_probe_chains_mix(tmp_path):
    good_runs = 0
    for i in range(10):
        data = _synth_instance(tmp_path, i)
        hp = Hyperparameters(k=5, iterations=500, burn_in=100, thinning=5)
        _, tr = run_gibbs(data, hp, np.random.default_rng(i))
        good_probes = 0
        for chain in tr.y_entry_chains.values():
            try:
                rho = autocorrelation(chain[hp.burn_in:], 20)
            except DegenerateChainError:
                continue
            good_probes += np.max(np.abs(rho[11:])) < 0.15
        good_runs += good_probes >= 4
    _report(
        8,
        good_runs >= 9,
        f"{good_runs}/10 runs keep tail autocorrelation below 0.15 beyond lag 10 "
        f"for at least 4 of 5 probes, need 9/10",
    )


def test_criterion_9_artifacts_byte_identical_across_reruns(tmp_path):
    def run_all(root):
        root.mkdir()
        src = root / "m.csv"
        assert main([
            "synth", "--out", str(src), "--rows", "20", "--cols", "8", "--rank", "3",
            "--noise", "0.05", "--seed", "5",
        ]) == 0
        assert main([
            "decompose", str(src), str(root / "gbt"), "--k", "3", "--iterations", "40",
            "--burn-in", "10", "--thinning", "2", "--seed", "9",
        ]) == 0
        assert main([
            "decompose", str(src), str(root / "rid"), "--method", "rid", "--k", "3",
            "--seed", "9",
        ]) == 0
        assert main([
            "benchmark", str(src), str(root / "bench"), "--k", "2", "--k", "3",
            "--iterations", "15", "--burn-in", "3", "--thinning", "2", "--seed", "9",
        ]) == 0
        assert main([
            "diagnose", str(root / "gbt" / "trace.csv"), "--out", str(root / "diag"),
            "--burn-in", "10",
        ]) == 0

    run_all(tmp_path / "r1")
    run_all(tmp_path / "r2")
    checked = 0
    diffs = []
    for p in sorted(q for q in (tmp_path / "r1").rglob("*") if q.is_file()):
        rel = p.relative_to(tmp_path / "r1")
        if p.name == "timings.csv":
            continue
        other = tmp_path / "r2" / rel
        checked += 1
        if not other.exists() or p.read_bytes() != other.read_bytes():
            diffs.append(str(rel))
    detail = (
        f"all {checked} artifacts except wall-clock timings byte-identical across re-runs"
        if not diffs
        else f"artifacts differing across re-runs: {diffs}"
    )
    _report(9, not diffs, detail)
