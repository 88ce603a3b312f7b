"""Unit tests for the episode loop, training runs, and CSV logging."""
import hashlib
import math
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import (OPEN_ROOM, ReferenceHindsightPolicy, UnmemoizedAgent,
                     exact_alone_success, state_at, tune_tau)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apil_lab import teachers, training
from apil_lab.agent import PersonaAgent
from apil_lab.envs import GridWorld, make_env
from apil_lab.query import (ASK_CONTINUE, AlwaysQueryPolicy, ApilConfig,
                            DaggerPolicy, ErrPredQueryPolicy,
                            HindsightQueryPolicy, NeverQueryPolicy, QueryNet,
                            ThresholdQueryPolicy)
from apil_lab.teachers import TEACHER_MODELS, make_committee
from apil_lab.training import (METHODS, METRICS_COLUMNS, RunConfig, evaluate,
                               final_query_rate, final_success_rate,
                               make_query_policy, read_csv, rollout,
                               run_episode, run_training, write_csv)


def _fresh_setup(teacher="detm", seed=0):
    env = make_env("grid", None)
    committee = make_committee(teacher)
    rng = np.random.default_rng(seed)
    agent = PersonaAgent(env.state_dim, env.n_actions, committee.size, rng)
    return env, committee, agent, rng


def _arrays(agent):
    return {k: v.copy() for k, v in agent.param_arrays().items()}


def test_never_query_run_leaves_the_agent_at_init():
    cfg = RunConfig(method="never", episodes=40, seed=0, probe_every=0)
    result = run_training(cfg)
    init_rng = np.random.default_rng(cfg.seed).spawn(4)[0]
    replica = PersonaAgent(result.env.state_dim, result.env.n_actions,
                           result.committee.size, init_rng, lr=cfg.lr)
    trained = result.agent.param_arrays()
    for name, value in replica.param_arrays().items():
        assert np.array_equal(trained[name], value)


def test_bc_episode_follows_the_teacher():
    env, committee, agent, rng = _fresh_setup()
    traj, metrics = run_episode(agent, committee, env, AlwaysQueryPolicy(), rng)
    actions = [s.exe_action for s in traj.steps]
    assert actions == [GridWorld.RIGHT] * 4 + [GridWorld.DOWN] * 4
    assert [s.response.dist for s in traj.steps] == [float(8 - t)
                                                   for t in range(8)]
    assert traj.final_dist == 0.0
    assert metrics.query_rate == 1.0
    assert metrics.success
    assert metrics.exe_loss is not None


def test_same_seed_runs_are_identical():
    cfg = RunConfig(method="apil", episodes=30, seed=5)
    assert run_training(cfg).rows == run_training(cfg).rows


def _assert_same_checkpoint_arrays(got, want):
    got, want = [{**result.agent.param_arrays(),
                  **result.policy.param_arrays()} for result in (got, want)]
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


# (method, env, teacher, episodes, tau): the maze asks at every step under
# the default tau, so extrun's tau is low enough to leave steps that act
_TABLE_CELLS = [("apil", "grid", "twodifdetm", 200, 0.5),
                ("errpred", "maze", "tworand", 60, 0.5),
                ("dagger", "maze", "tworand", 60, 0.5),
                ("intrun", "grid", "tworand", 200, 0.5),
                ("extrun", "maze", "tworand", 40, 0.001)]


@pytest.mark.parametrize("method,env,teacher,episodes,tau", _TABLE_CELLS,
                         ids=["-".join(map(str, c[:4])) for c in _TABLE_CELLS])
def test_forward_table_changes_no_output(method, env, teacher, episodes, tau,
                                         tmp_path, monkeypatch):
    """A run with the agent's forward table writes the bytes and trains the
    arrays of a run that builds every table entry afresh, and each of its
    steps reads the same mean policy and mean-policy cdf."""
    cfg = RunConfig(method=method, env=env, teacher=teacher,
                    episodes=episodes, tau=tau, seed=3, probe_every=20)
    original = training.rollout

    def recording(seen):
        def rollout(agent, *args, **kwargs):
            traj = original(agent, *args, **kwargs)
            seen.extend((step.mean_policy.copy(),
                         agent.mean_policy_cdf(step.mean_policy).copy())
                        for step in traj.steps
                        if step.mean_policy is not None)
            return traj
        return rollout

    memo_steps, fresh_steps = [], []
    monkeypatch.setattr(training, "rollout", recording(memo_steps))
    memo = run_training(cfg, out_path=tmp_path / "memo.csv")
    # episodes without a query keep the weights, so the table is reused;
    # the others change the weights every episode, so the table is dropped
    # and the next version's first miss of rho or the posterior fills it
    assert (any(row["query_rate"] == 0.0 for row in memo.rows)
            == (method in ("apil", "errpred")))
    monkeypatch.setattr(training, "PersonaAgent", UnmemoizedAgent)
    monkeypatch.setattr(training, "rollout", recording(fresh_steps))
    fresh = run_training(cfg, out_path=tmp_path / "fresh.csv")
    assert type(fresh.agent) is UnmemoizedAgent
    assert ((tmp_path / "memo.csv").read_bytes()
            == (tmp_path / "fresh.csv").read_bytes())
    assert memo_steps and len(memo_steps) == len(fresh_steps)
    for (mean, cdf), (want_mean, want_cdf) in zip(memo_steps, fresh_steps):
        assert mean.tobytes() == want_mean.tobytes()
        assert cdf.tobytes() == want_cdf.tobytes()
    _assert_same_checkpoint_arrays(memo, fresh)


@pytest.mark.parametrize("method,env,teacher", [
    ("apil", "grid", "twodifdetm"), ("phil-ignore", "maze", "tworand")])
def test_ask_decision_changes_no_output(method, env, teacher, tmp_path,
                                        monkeypatch):
    """A hindsight run, with periodic evals so that frozen decisions run
    too, writes the metrics and eval CSV bytes and trains the arrays of a
    run whose ask decisions take the vector path."""
    cfg = RunConfig(method=method, env=env, teacher=teacher, episodes=300,
                    seed=3, eval_every=100)
    fast = run_training(cfg, out_path=tmp_path / "fast.csv")
    monkeypatch.setattr(training, "HindsightQueryPolicy",
                        ReferenceHindsightPolicy)
    reference = run_training(cfg, out_path=tmp_path / "reference.csv")
    assert type(reference.policy) is ReferenceHindsightPolicy
    for suffix in ("", ".eval.csv"):
        assert ((tmp_path / f"fast.csv{suffix}").read_bytes()
                == (tmp_path / f"reference.csv{suffix}").read_bytes()), suffix
    _assert_same_checkpoint_arrays(fast, reference)


@pytest.mark.parametrize("method,env,teacher,cells", [
    ("dagger", "maze", "tworand", 22), ("apil", "grid", "twodifdetm", 24)])
def test_known_states_are_the_non_goal_cells(method, env, teacher, cells):
    """The agent's known-state set, which the stacked fill walks and which
    has no cap, holds only encodings of the env's non-goal cells (22 on the
    maze, 24 on the grid) after a 300-episode cell."""
    result = run_training(RunConfig(method=method, env=env, teacher=teacher,
                                    episodes=300, seed=0))
    env = result.env
    non_goal = {env.encode(state).tobytes()
                for state in (state_at(env, *pos) for pos in env.cells)
                if not state.terminal}  # a cell's state is terminal at the goal
    assert len(non_goal) == cells
    assert set(result.agent._known) <= non_goal


@pytest.mark.parametrize("env", ["grid", "maze"])
@pytest.mark.parametrize("method",
                         ["dagger", "bc", "phil-ignore", "errpred", "intrun"])
def test_a_one_teacher_cell_never_runs_its_identity_net(method, env,
                                                        monkeypatch):
    """With one teacher rho is exactly 1 and the identity loss and gradient
    exactly 0, so a cell trains, probes and evaluates without an id-net
    forward or backward; the id net takes no Adam step and keeps its
    initial draw, while the policy net trains."""
    def refuse(*args, **kwargs):
        raise AssertionError("a one-teacher cell ran its identity net")

    original = training.build_cell

    def build_cell(cfg, init_rng):
        cell = original(cfg, init_rng)
        for name in ("forward", "hidden_forward", "backward"):
            setattr(cell[2].id_net, name, refuse)
        return cell

    monkeypatch.setattr(training, "build_cell", build_cell)
    cfg = RunConfig(method=method, env=env, teacher="detm", episodes=60,
                    seed=1, probe_every=20, eval_every=30)
    result = run_training(cfg)
    assert any(row["query_rate"] > 0.0 for row in result.rows)
    assert result.agent.id_net.params.version == 0
    initial = original(cfg, np.random.default_rng(cfg.seed).spawn(1)[0])[2]
    trained = result.agent.param_arrays()
    for name, value in initial.param_arrays().items():
        assert (np.array_equal(trained[name], value)
                == name.startswith("id.")), name


def test_run_training_never_rolls_d_star_out(monkeypatch, tmp_path):
    """Every reference action lowers the goal distance by one and no env has
    a horizon shorter than its start's distance, so d* is 0 everywhere and
    no cell rolls it out: not a hindsight cell on the maze, nor one on a
    map of its own."""
    def refuse(*args):
        raise AssertionError("d* rolled out")

    for module in (teachers, training):  # wherever the function is bound
        monkeypatch.setattr(module, "estimate_teacher_final_distance", refuse,
                            raising=False)
    map_path = tmp_path / "map.txt"
    map_path.write_text("S...#\n.##..\n....G\n")
    for method, map_file in (("apil", None), ("phil-ignore", map_path)):
        run_training(RunConfig(method=method, env="maze", map_path=map_file,
                               teacher="tworand", episodes=2, probe_every=0))


def test_untrained_apil_queries_about_half_the_time():
    rates = []
    for seed in range(20):
        cfg = RunConfig(method="apil", episodes=1, seed=seed, probe_every=0)
        rates.append(run_training(cfg).rows[0]["query_rate"])
    assert 0.3 <= np.mean(rates) <= 0.7


def test_apil_query_rate_trends_down(apil_runs):
    for teacher, (result, _) in apil_runs.items():
        episodes = [r["episode"] for r in result.rows]
        rates = [r["query_rate"] for r in result.rows]
        slope = np.polyfit(episodes, rates, 1)[0]
        assert slope < 0.0, f"{teacher}: slope {slope}"


def test_evaluate_fresh_bc_agent():
    env, committee, agent, rng = _fresh_setup()
    summary = evaluate(agent, AlwaysQueryPolicy(), env, committee, 20, rng)
    assert summary["query_rate"] == 1.0
    assert summary["success_rate"] == 1.0  # any grid rollout reaches the goal
    assert summary["mean_final_dist"] == 0.0


def test_evaluate_asks_greedily_and_training_samples():
    env, committee, agent, rng = _fresh_setup()
    net = QueryNet(env.state_dim, env.n_actions, env.horizon, rng)
    for p in net.mlp.params:
        p.value[...] = 0.0
    net.mlp.out.b.value[...] = [0.0, np.log(1.5)]  # asks with probability 0.6
    policy = HindsightQueryPolicy(net, ApilConfig())
    summary = evaluate(agent, policy, env, committee, 5, rng)
    assert summary["query_rate"] == 1.0
    asks = [step.ask_action for _ in range(5)
            for step in rollout(agent, committee, env, policy, rng,
                                train=True).steps]
    assert ASK_CONTINUE in asks


def test_evaluate_supports_greedy_exe():
    env, committee, agent, rng = _fresh_setup()
    net = QueryNet(env.state_dim, env.n_actions, env.horizon, rng)
    policy = HindsightQueryPolicy(net, ApilConfig())
    summary = evaluate(agent, policy, env, committee, 3, rng, greedy_exe=True)
    assert set(summary) == {"query_rate", "success_rate", "mean_final_dist"}
    assert summary["success_rate"] == 1.0


@pytest.mark.parametrize("map_path", [None, str(OPEN_ROOM)],
                         ids=["maze", "open-room"])
@pytest.mark.parametrize("teacher", ["tworand", "twodifdetm"])
def test_never_query_eval_matches_the_exact_alone_success(map_path, teacher):
    """A never-query ``evaluate`` estimates the frozen agent's exact
    chance of reaching the goal alone (``helpers.exact_alone_success``).
    After 150 dagger episodes (seed 1), the success rate of 4,000 eval
    episodes lies within |z| < 4 of it, z = (measured - exact) /
    sqrt(exact (1 - exact) / 4000)."""
    result = run_training(RunConfig(method="dagger", teacher=teacher,
                                    env="maze", map_path=map_path,
                                    episodes=150, seed=1))
    n = 4000
    measured = evaluate(result.agent, NeverQueryPolicy(), result.env,
                        result.committee, n,
                        np.random.default_rng(0))["success_rate"]
    exact = exact_alone_success(result.agent, result.env)
    z = (measured - exact) / math.sqrt(exact * (1.0 - exact) / n)
    print(f"never-query success: exact {exact:.4f}, measured {measured:.4f}, "
          f"z {z:.2f}")
    assert 0.0 < exact < 1.0
    assert abs(z) < 4.0


def test_csv_round_trip_preserves_values(tmp_path):
    path = tmp_path / "metrics.csv"
    columns = ("episode", "query_rate", "success", "final_dist", "exe_loss")
    rows = [{"episode": 0, "query_rate": 1 / 3, "success": True,
             "final_dist": np.float64(0.25), "exe_loss": None}]
    write_csv(path, columns, rows)
    back = read_csv(path)
    assert len(back) == 1
    assert float(back[0]["query_rate"]) == 1 / 3  # repr round-trips exactly
    assert back[0]["success"] == "1"
    assert back[0]["final_dist"] == "0.25"
    assert back[0]["exe_loss"] == ""


def test_write_csv_creates_parent_dirs(tmp_path):
    path = tmp_path / "a" / "b" / "c.csv"
    write_csv(path, ("x",), [{"x": 1}])
    assert path.exists()


def test_probe_cadence():
    cfg = RunConfig(method="never", episodes=60, seed=0, probe_every=25)
    result = run_training(cfg)
    probed = [r["episode"] for r in result.rows if "intrinsic" in r]
    assert probed == [0, 25, 50]
    for r in result.rows:
        assert set(r) <= set(METRICS_COLUMNS)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        RunConfig(method="bogus")
    with pytest.raises(ValueError, match="unknown teacher"):
        RunConfig(teacher="bogus")
    with pytest.raises(ValueError, match="episodes"):
        RunConfig(episodes=0)


@pytest.mark.parametrize("field,value", [
    ("n1", 0), ("n2", 0), ("lr", math.nan), ("lr", 0.0), ("sigma", 0.5),
    ("sigma", math.nan), ("epsilon", -1.0), ("tau", math.nan), ("episodes", 0),
    ("inflation_n1s", (5, 0)), ("seed", -1), ("map_path", "map.txt"),
    ("env", "bogus"), ("n1", 2.5), ("n2", 4.0), ("episodes", 2.0),
    ("seed", 1.5), ("probe_every", 5.0), ("eval_every", math.nan),
    ("inflation_n1s", (5.0, 50.0)),
    # a value of another type: each is refused by its field's rule
    ("map_path", 0), ("map_path", 5), ("lr", "0.01"), ("tau", None),
    ("seed", True), ("episodes", True), ("lr", True), ("epsilon", True),
    ("episodes", "5"), ("inflation_n1s", "5,50"), ("inflation_n1s", 5),
])
def test_config_rejects_each_bad_value(field, value):
    with pytest.raises(ValueError, match=field.split("_")[0]):
        RunConfig(**{field: value})


def test_config_takes_numpy_integer_counts():
    cfg = RunConfig(episodes=np.int64(3), n1=np.int32(4),
                    inflation_n1s=(np.int64(5),))
    assert (cfg.episodes, cfg.uncertainty.n1, cfg.inflation[0].n1) == (3, 4, 5)


def test_config_builds_its_policy_and_estimate_configs():
    cfg = RunConfig(sigma=3.0, epsilon=0.5, n1=7, n2=4, inflation_n1s=(5, 50))
    assert cfg.apil == ApilConfig(sigma=3.0, epsilon=0.5)
    assert (cfg.uncertainty.n1, cfg.uncertainty.n2) == (7, 4)
    assert [(u.n1, u.n2) for u in cfg.inflation] == [(5, 4), (50, 4)]


ODD_NUMBERS = st.one_of(st.integers(-2, 3), st.floats(-2.0, 3.0),
                        st.sampled_from([math.nan, math.inf, -math.inf,
                                         True, False, None, "1", "0.5"]))
DEFAULTS = asdict(RunConfig())
ODD_VALUES = {
    **{name: ODD_NUMBERS for name in DEFAULTS},
    "env": st.sampled_from(["grid", "maze", "bogus"]),
    "map_path": st.sampled_from([None, "map.txt", Path("map.txt"), 0, 5]),
    "teacher": st.sampled_from([*TEACHER_MODELS, "bogus"]),
    "method": st.sampled_from([*METHODS, "bogus"]),
    "inflation_n1s": st.one_of(st.lists(ODD_NUMBERS, max_size=3),
                               st.lists(ODD_NUMBERS, max_size=3).map(tuple),
                               st.sampled_from(["5,50", 5])),
}


@st.composite
def run_values(draw):
    """The default run with up to three fields set to odd values."""
    values = dict(DEFAULTS)
    for name in draw(st.sets(st.sampled_from(sorted(DEFAULTS)), max_size=3)):
        values[name] = draw(ODD_VALUES[name])
    return values


def _breaks_a_rule(v) -> bool:
    """The run rules, stated apart from RunConfig; nan fails each. Every
    count is an integer (a float such as 2.0 is not) and has a lower bound;
    every float field is a number; a bool is neither; the map is None or a
    path; the N1 list is a list or a tuple."""
    at_least = {"episodes": 1, "n1": 1, "n2": 1, "probe_rollouts": 1,
                "seed": 0, "probe_every": 0, "eval_every": 0}
    integer = lambda x: (isinstance(x, (int, np.integer))
                         and not isinstance(x, bool))
    number = lambda x: integer(x) or isinstance(x, float)
    if not all(number(v[name]) for name in
               ("lr", "sigma", "epsilon", "tau", "err_threshold")):
        return True
    return (v["env"] not in ("grid", "maze")
            or v["teacher"] not in TEACHER_MODELS
            or v["method"] not in METHODS
            or not isinstance(v["map_path"], (type(None), str, Path))
            or (v["map_path"] is not None and v["env"] != "maze")
            or not all(integer(v[name]) and v[name] >= low
                       for name, low in at_least.items())
            or not isinstance(v["inflation_n1s"], (list, tuple))
            or not all(integer(n1) and n1 >= 1 for n1 in v["inflation_n1s"])
            or (bool(v["inflation_n1s"]) and v["probe_every"] == 0)
            or not 0.0 < v["lr"] < math.inf
            or not 1.0 < v["sigma"] < math.inf
            or not 0.0 <= v["epsilon"] < math.inf
            or not math.isfinite(v["tau"])
            or not math.isfinite(v["err_threshold"]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(DEFAULTS)
@example({**DEFAULTS, "inflation_n1s": (5,), "probe_every": 0})
@example({**DEFAULTS, "env": "maze", "map_path": 0})  # fd 0 is no map path
@example({**DEFAULTS, "env": "maze", "map_path": Path("map.txt")})
@given(run_values())
def test_config_raises_exactly_when_a_rule_fails(values):
    if _breaks_a_rule(values):
        with pytest.raises(ValueError):
            RunConfig(**values)
    else:
        RunConfig(**values)


def test_make_query_policy_dispatch():
    env = make_env("grid", None)
    rng = np.random.default_rng(0)

    def build(method, **kw):
        return make_query_policy(RunConfig(method=method, **kw), env, rng)

    apil = build("apil")
    assert type(apil) is HindsightQueryPolicy and not apil.use_ignore
    phil = build("phil-ignore")
    assert type(phil) is HindsightQueryPolicy and phil.use_ignore
    assert type(build("bc")) is AlwaysQueryPolicy
    assert type(build("dagger")) is DaggerPolicy
    intrun = build("intrun", tau=0.4)
    assert type(intrun) is ThresholdQueryPolicy
    assert (intrun.kind, intrun.tau) == ("intrun", 0.4)
    assert type(build("extrun")) is ThresholdQueryPolicy
    assert type(build("behvun")) is ThresholdQueryPolicy
    assert type(build("errpred")) is ErrPredQueryPolicy
    assert type(build("never")) is NeverQueryPolicy


def test_final_window_statistics():
    rows = [{"query_rate": float(i), "success": i % 2} for i in range(150)]
    assert final_query_rate(rows) == 99.5  # mean of 50..149
    assert final_success_rate(rows) == 0.5


def test_tune_tau_scans_ascending(monkeypatch):
    calls = []

    def fake_run(cfg):
        calls.append(cfg.tau)
        qr = round(max(0.0, 1.0 - cfg.tau), 2)
        return SimpleNamespace(rows=[{"query_rate": qr}] * 100)

    monkeypatch.setattr("apil_lab.training.run_training", fake_run)
    base = RunConfig(method="intrun")
    assert tune_tau(base, 0.33) == 0.65  # first grid point within tolerance
    assert len(calls) == 13
    calls.clear()
    assert tune_tau(base, 2.0) == 0.05  # no match: closest candidate wins
    assert len(calls) == 20


def test_run_episode_without_training_is_read_only():
    env, committee, agent, rng = _fresh_setup()
    before = _arrays(agent)
    run_episode(agent, committee, env, AlwaysQueryPolicy(), rng, train=False)
    after = agent.param_arrays()
    for name, value in before.items():
        assert np.array_equal(value, after[name])


def test_periodic_eval_leaves_the_other_outputs_unchanged(tmp_path):
    cfg = RunConfig(method="dagger", episodes=40, seed=0, probe_every=5,
                    inflation_n1s=(5, 50))
    plain = tmp_path / "plain" / "m.csv"
    evaluated = tmp_path / "eval" / "m.csv"
    run_training(cfg, out_path=plain)
    run_training(replace(cfg, eval_every=10), out_path=evaluated)
    assert Path(str(evaluated) + ".eval.csv").exists()
    for suffix in ("", ".inflation.csv"):
        assert Path(str(plain) + suffix).read_bytes() \
            == Path(str(evaluated) + suffix).read_bytes(), suffix


def test_inflation_series_leaves_the_metrics_unchanged(tmp_path):
    cfg = RunConfig(method="dagger", episodes=30, seed=0, probe_every=5)
    plain = tmp_path / "plain" / "m.csv"
    inflated = tmp_path / "inflated" / "m.csv"
    run_training(cfg, out_path=plain)
    run_training(replace(cfg, inflation_n1s=(5, 50)), out_path=inflated)
    assert Path(str(inflated) + ".inflation.csv").exists()
    assert not Path(str(plain) + ".inflation.csv").exists()
    assert plain.read_bytes() == inflated.read_bytes()


def _pinned_sha256(name: str) -> dict[str, str]:
    """``sha256sum``-style lines of a file beside this one, by path."""
    lines = (Path(__file__).parent / name).read_text().splitlines()
    return {path: digest for digest, path in
            (line.split("  ") for line in lines if not line.startswith("#"))}


def test_two_teacher_cells_keep_their_bytes(tmp_path):
    """Every method's two-teacher cells, with probes, eval and inflation on,
    write the CSVs pinned beside this file: the one-teacher paths that draw
    no identity leave every K >= 2 draw, and its order, as it was."""
    pinned = _pinned_sha256("two_teacher_sha256.txt")
    assert len(pinned) == 2 * 2 * len(METHODS) * 3
    for env in ("grid", "maze"):
        for teacher in ("tworand", "twodifdetm"):
            for method in METHODS:
                name = f"{env}_{teacher}_{method}.csv"
                run_training(RunConfig(env=env, teacher=teacher, method=method,
                                       episodes=30, probe_every=5,
                                       inflation_n1s=(2, 8), eval_every=10),
                             out_path=tmp_path / name)
                for suffix in ("", ".eval.csv", ".inflation.csv"):
                    data = (tmp_path / (name + suffix)).read_bytes()
                    assert (hashlib.sha256(data).hexdigest()
                            == pinned[name + suffix]), name + suffix
