"""Acceptance suite: one test per shipping criterion.

Each test prints its measured values, so a verbose run doubles as a results
summary. Long-running artifacts (trained cells, uncertainty CSVs) come from
session fixtures in conftest.py and are shared with the unit tests.
"""
import itertools
from pathlib import Path

import numpy as np
from gradcheck import run_all as run_gradchecks
from helpers import (brute_force_labels, lemma2_gradient_check,
                     make_trajectory)

from apil_lab.envs import EnvState, GridPos
from apil_lab.harness import make_table1
from apil_lab.query import ApilConfig, QueryNet, StepRecord, apil_labels
from apil_lab.training import (RunConfig, final_query_rate, final_success_rate,
                               read_csv, run_training)


def _grid_state(env, row, col):
    pos = GridPos(row, col)
    return env.encode(EnvState(agent=pos, goal=GridPos(4, 4), step_count=0,
                               terminal=pos == GridPos(4, 4)))


def test_acceptance_01_grid_query_rate_collapse(apil_runs):
    for teacher, (result, seconds) in apil_runs.items():
        qr = final_query_rate(result.rows)
        sr = final_success_rate(result.rows)
        print(f"criterion 1: apil/{teacher}: final query rate {qr:.4f}, "
              f"success rate {sr:.3f}, {seconds:.1f} s")
        assert qr < 0.05, teacher
        assert sr == 1.0, teacher
        assert seconds < 60.0, teacher


def test_acceptance_02_intrinsic_threshold_baseline_fails(
        apil_runs, intrun_runs, tau_star):
    print(f"criterion 2: tau tuned on detm = {tau_star}")
    for teacher, (result, _) in intrun_runs.items():
        intrun_qr = final_query_rate(result.rows)
        apil_qr = final_query_rate(apil_runs[teacher][0].rows)
        print(f"criterion 2: {teacher}: intrun {intrun_qr:.3f} "
              f"vs apil {apil_qr:.3f}")
        assert intrun_qr - apil_qr >= 0.25, teacher


def test_acceptance_03_uncertainty_table_ranges(uncertainty_report_files):
    table = make_table1(sorted(uncertainty_report_files.values()))
    rows = {r["teacher"]: r for r in table}
    for r in table:
        print(f"criterion 3: {r['teacher']}: intrinsic {r['intrinsic']:.4f} "
              f"(ref {r['ref_intrinsic']:.2f}), extrinsic {r['extrinsic']:.4f} "
              f"(ref {r['ref_extrinsic']:.2f})")
    assert rows["detm"]["intrinsic"] <= 0.15
    assert 0.40 <= rows["rand"]["intrinsic"] <= 0.75
    assert 0.40 <= rows["tworand"]["intrinsic"] <= 0.75
    for teacher in ("detm", "rand", "tworand"):
        assert rows[teacher]["extrinsic"] <= 0.05, teacher
    assert rows["twodifdetm"]["extrinsic"] >= 0.30
    assert rows["twodifdetm"]["intrinsic"] <= 0.15


def test_acceptance_04_sampling_inflation_series(dagger_runs):
    result, seconds = dagger_runs[("twodifdetm", 0)]
    assert seconds < 300.0
    series = {}
    for row in result.inflation_rows:
        series.setdefault(int(row["n1"]), []).append(float(row["model"]))
    first = {}
    final = {}
    for n1, values in series.items():
        third = len(values) // 3
        first[n1], final[n1] = np.mean(values[:third]), np.mean(values[-third:])
        print(f"criterion 4: N1={n1}: first-third mean {first[n1]:.4f}, "
              f"final-third mean {final[n1]:.4f}")
    assert final[5] > first[5]
    # with generous sampling the estimate should instead fall as training
    # sharpens the policies
    assert final[50] < first[50]


def test_acceptance_05_decomposition_identities(
        apil_runs, dagger_runs, uncertainty_report_files):
    worst = 0.0
    count = 0

    def check(intrinsic, extrinsic, behavioral, total, model):
        nonlocal worst, count
        count += 1
        worst = max(worst, abs(behavioral - (intrinsic + extrinsic)),
                    abs(total - (model + behavioral)))

    for path in uncertainty_report_files.values():
        for row in read_csv(path):
            check(*(float(row[k]) for k in ("intrinsic", "extrinsic",
                                            "behavioral", "total", "model")))
    for runs in (apil_runs, dagger_runs):
        for result, _ in runs.values():
            for row in result.rows:
                if "intrinsic" in row:
                    check(row["intrinsic"], row["extrinsic"],
                          row["behavioral"], row["total"], row["model"])
    print(f"criterion 5: {count} reports, worst identity residual {worst:.3e}")
    assert count > 0
    assert worst <= 1e-12


def test_acceptance_06_gradient_oracle():
    results = run_gradchecks(seed=0, cases=100)
    worst = max(err for _, err, _ in results)
    print(f"criterion 6: {len(results)} suites x 100 cases, "
          f"worst rel err {worst:.3e}")
    for name, err, passed in results:
        assert passed, f"{name}: rel err {err:.3e}"
    assert worst < 1e-4


def test_acceptance_07_hindsight_label_oracle():
    def agree(T, queried, distances, cfg):
        traj = make_trajectory(T, queried, distances)
        return apil_labels(traj, cfg) == brute_force_labels(
            T, queried, distances, cfg)

    cases = 0
    # exhaustive sweep over short trajectories
    for T in range(1, 5):
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(T), k) for k in range(T + 1))
        for queried in subsets:
            observed = sorted(set(queried) | {T})
            for values in itertools.product(range(4), repeat=len(observed)):
                distances = dict(zip(observed, map(float, values)))
                for sigma in (1.5, 2.0):
                    for epsilon in (0.0, 1.0):
                        cases += 1
                        assert agree(T, set(queried), distances,
                                     ApilConfig(sigma=sigma, epsilon=epsilon))
    exhaustive = cases

    # random long trajectories, checked under every query subset
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        T = int(rng.integers(1, 9))
        d = [float(rng.integers(0, 17)) / 2.0 for _ in range(T + 1)]
        cfg = ApilConfig(sigma=float(rng.choice((1.5, 2.0, 3.0))),
                         epsilon=float(rng.choice((0.0, 0.5, 1.0))))
        for bits in range(2 ** T):
            queried = {t for t in range(T) if bits >> t & 1}
            distances = {t: d[t] for t in sorted(queried | {T})}
            cases += 1
            assert agree(T, queried, distances, cfg)

    print(f"criterion 7: {exhaustive} exhaustive + "
          f"{cases - exhaustive} randomized cases agree")


def test_acceptance_08_ignore_gradient_equivalence():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        net = QueryNet(4, 2, horizon=5, rng=rng, hidden=12)
        step = StepRecord(features=rng.normal(size=4),
                          exe_action=0,
                          ask_action=int(rng.integers(0, 2)),
                          mean_policy=rng.dirichlet(np.ones(2)),
                          remaining=int(rng.integers(0, 6)))
        worst = max(worst, lemma2_gradient_check(net, step))
    print(f"criterion 8: worst gradient route difference {worst:.3e}")
    assert worst < 1e-10


def test_acceptance_09_persona_capture(dagger_runs):
    split, _ = dagger_runs[("twodifdetm", 0)]
    env = split.env
    captured = 0
    for row in range(4):
        for col in range(4):
            features = _grid_state(env, row, col)
            right = int(np.argmax(split.agent.policy_probs(features, 0)))
            down = int(np.argmax(split.agent.policy_probs(features, 1)))
            captured += (right, down) == (env.RIGHT, env.DOWN)
    print(f"criterion 9: twodifdetm personas capture {captured}/16 inner cells")
    assert captured == 16

    twin, _ = dagger_runs[("tworand", 0)]
    worst_tv = 0.0
    for row in range(5):
        for col in range(5):
            features = _grid_state(twin.env, row, col)
            p0 = twin.agent.policy_probs(features, 0)
            p1 = twin.agent.policy_probs(features, 1)
            worst_tv = max(worst_tv, 0.5 * float(np.abs(p0 - p1).sum()))
    print(f"criterion 9: tworand persona total variation <= {worst_tv:.4f}")
    assert worst_tv < 0.05


def test_acceptance_10_maze_competence(maze_runs):
    dagger, dagger_s = maze_runs["dagger"]
    apil, apil_s = maze_runs["apil"]
    dagger_sr = final_success_rate(dagger.rows)
    apil_sr = final_success_rate(apil.rows)
    apil_qr = final_query_rate(apil.rows)
    print(f"criterion 10: maze dagger success {dagger_sr:.3f} ({dagger_s:.1f} s), "
          f"apil success {apil_sr:.3f} at query rate {apil_qr:.3f} "
          f"({apil_s:.1f} s)")
    assert dagger_sr >= 0.9
    assert apil_sr >= dagger_sr - 0.1
    assert apil_qr <= 0.5
    assert dagger_s < 180.0 and apil_s < 180.0


def test_acceptance_11_determinism(tmp_path):
    configs = [
        RunConfig(method="apil", teacher="twodifdetm", episodes=300, seed=3,
                  inflation_n1s=(5,), eval_every=100, probe_every=25),
        RunConfig(method="dagger", teacher="detm", env="maze", episodes=150,
                  seed=1),
    ]
    for i, cfg in enumerate(configs):
        first = tmp_path / f"run{i}_a" / "metrics.csv"
        second = tmp_path / f"run{i}_b" / "metrics.csv"
        run_training(cfg, out_path=first)
        run_training(cfg, out_path=second)
        for suffix in ("", ".inflation.csv", ".eval.csv"):
            a = Path(str(first) + suffix)
            b = Path(str(second) + suffix)
            assert a.exists() == b.exists(), suffix
            if a.exists():
                assert a.read_bytes() == b.read_bytes(), suffix
        print(f"criterion 11: {cfg.method}/{cfg.teacher}/{cfg.env} seed "
              f"{cfg.seed}: byte-identical CSVs")
