"""Tests for declarative scenarios and the top-level CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro.runtime.scenario import (
    APP_TYPES,
    POLICY_TYPES,
    build_scenario,
    load_scenario_file,
    run_scenario,
)
from repro.util.errors import ConfigurationError
from repro.util.tracing import events_to_jsonl


def minimal_scenario(**overrides):
    scenario = {
        "cluster": {"n_nodes": 2, "seed": 1},
        "workloads": [
            {"app": "stream", "src": "n0", "dst": "n1", "size": 256, "count": 20}
        ],
    }
    scenario.update(overrides)
    return scenario


class TestBuildScenario:
    def test_minimal(self):
        cluster, apps = build_scenario(minimal_scenario())
        assert cluster.node_names == ["n0", "n1"]
        assert len(apps) == 1

    def test_all_registered_apps_buildable(self):
        pair_params = {
            "pingpong": {"count": 2},
            "stream": {"count": 2},
            "rpc": {"calls": 2},
            "dsm": {"faults": 2},
            "global_arrays": {"operations": 2},
            "control": {"count": 2},
        }
        group_params = {
            "broadcast": {"rounds": 1},
            "barrier": {"rounds": 1},
            "allreduce": {"rounds": 1},
            "halo": {"iterations": 1},
        }
        workloads = [
            {"app": name, "src": "n0", "dst": "n1", **params}
            for name, params in pair_params.items()
        ] + [
            {"app": name, "nodes": ["n0", "n1"], **params}
            for name, params in group_params.items()
        ]
        assert {w["app"] for w in workloads} == set(APP_TYPES)
        cluster, apps = build_scenario(
            {"cluster": {"n_nodes": 2}, "workloads": workloads}
        )
        assert len(apps) == len(APP_TYPES)

    def test_policies_resolvable(self):
        for name in POLICY_TYPES:
            cluster, _ = build_scenario(
                minimal_scenario(cluster={"n_nodes": 2, "policy": name})
            )
            assert cluster is not None

    def test_engine_config_parsed(self):
        cluster, _ = build_scenario(
            minimal_scenario(
                cluster={"n_nodes": 2, "config": {"lookahead_window": 5}}
            )
        )
        assert cluster.engine("n0").config.lookahead_window == 5

    def test_traffic_class_parsed(self):
        from repro.network.virtual import TrafficClass

        scenario = minimal_scenario()
        scenario["workloads"][0]["traffic_class"] = "bulk"
        _, apps = build_scenario(scenario)
        assert apps[0].traffic_class is TrafficClass.BULK

    def test_networks_parsed(self):
        cluster, _ = build_scenario(
            minimal_scenario(cluster={"n_nodes": 2, "networks": [["mx", 2]]})
        )
        assert len(cluster.fabric.node("n0").nics) == 2


class TestValidation:
    def test_unknown_app(self):
        with pytest.raises(ConfigurationError, match="unknown app"):
            build_scenario(minimal_scenario(workloads=[{"app": "nope"}]))

    def test_missing_app_key(self):
        with pytest.raises(ConfigurationError, match="missing 'app'"):
            build_scenario(minimal_scenario(workloads=[{"src": "n0"}]))

    def test_missing_endpoints(self):
        with pytest.raises(ConfigurationError, match="endpoint"):
            build_scenario(minimal_scenario(workloads=[{"app": "pingpong"}]))

    def test_bad_param(self):
        with pytest.raises(ConfigurationError):
            build_scenario(
                minimal_scenario(
                    workloads=[
                        {"app": "stream", "src": "n0", "dst": "n1", "bogus": 1}
                    ]
                )
            )

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            build_scenario(minimal_scenario(cluster={"policy": "nope"}))

    def test_unknown_traffic_class(self):
        scenario = minimal_scenario()
        scenario["workloads"][0]["traffic_class"] = "vip"
        with pytest.raises(ConfigurationError, match="traffic class"):
            build_scenario(scenario)

    def test_no_workloads(self):
        with pytest.raises(ConfigurationError, match="no workloads"):
            build_scenario({"cluster": {"n_nodes": 2}, "workloads": []})

    def test_bad_config_key(self):
        with pytest.raises(ConfigurationError, match="engine config"):
            build_scenario(
                minimal_scenario(cluster={"config": {"warp_speed": 9}})
            )

    def test_unknown_scenario_key_named_in_error(self):
        with pytest.raises(ConfigurationError, match="workload"):
            build_scenario(minimal_scenario(workload=[{"app": "stream"}]))

    def test_unknown_cluster_key_named_in_error(self):
        with pytest.raises(ConfigurationError, match="node_count"):
            build_scenario(minimal_scenario(cluster={"node_count": 2}))

    def test_unknown_run_key_named_in_error(self):
        with pytest.raises(ConfigurationError, match="stop_at"):
            run_scenario(minimal_scenario(run={"stop_at": 1.0}))

    def test_unknown_faults_key_named_in_error(self):
        from repro.util.errors import FaultInjectionError

        with pytest.raises(FaultInjectionError, match="drp"):
            build_scenario(minimal_scenario(faults={"drp": 0.1}))


class TestFaultsBlock:
    def test_faults_block_installs_plane(self):
        cluster, _ = build_scenario(
            minimal_scenario(faults={"drop": 0.02, "seed": 4})
        )
        assert cluster.fault_plane is not None
        assert cluster.fault_plane.default.drop == 0.02
        assert cluster.fault_plane.seed == 4
        assert cluster.transport is not None

    def test_faults_seed_defaults_to_cluster_seed(self):
        cluster, _ = build_scenario(minimal_scenario(faults={"drop": 0.02}))
        assert cluster.fault_plane.seed == 1  # from cluster.seed

    def test_reliability_subblock_parsed(self):
        cluster, _ = build_scenario(
            minimal_scenario(faults={"drop": 0.02, "reliability": {"max_retries": 3}})
        )
        assert cluster.transport.config.max_retries == 3

    def test_lossy_scenario_runs_to_completion(self):
        scenario = minimal_scenario(faults={"drop": 0.3, "seed": 5})
        report, cluster, apps = run_scenario(scenario)
        assert report.messages == 20
        assert all(a.done.done for a in apps)
        assert report.packets_dropped > 0
        assert report.retransmits > 0

    def test_cli_faults_override(self, capsys, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_scenario()))
        assert main(["run", str(path), "--faults", "drop=0.05,seed=11"]) == 0
        out = capsys.readouterr().out
        assert "retransmits" in out

    def test_cli_faults_off_disables_scenario_block(self, capsys, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_scenario(faults={"drop": 0.5})))
        assert main(["run", str(path), "--faults", "off"]) == 0
        out = capsys.readouterr().out
        assert "retransmits" not in out

    def test_cli_faults_malformed_rejected(self, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_scenario()))
        with pytest.raises(ConfigurationError, match="--faults"):
            main(["run", str(path), "--faults", "drop"])


class TestRunScenario:
    def test_runs_to_completion(self):
        report, cluster, apps = run_scenario(minimal_scenario())
        assert report.messages == 20
        assert all(app.done.done for app in apps)

    def test_until_window(self):
        scenario = minimal_scenario(run={"until": 1e-5})
        report, cluster, _ = run_scenario(scenario)
        assert cluster.sim.now == 1e-5


#: Seven flows wrapped onto TCP's four channels by ``flow_id % 4``: the
#: one place a flow *id* (not just its identity) reaches a decision.
_WRAPPED_STREAMS = {
    "cluster": {
        "n_nodes": 2, "networks": [["tcp", 1]], "policy": "one-to-one", "seed": 7,
    },
    "workloads": [
        {"app": "stream", "src": "n0", "dst": "n1", "count": 40, "interval": 2e-6}
    ] * 7,
}


def _repeatable_scenario(name, traced):
    if name == "wrapped-streams":
        scenario = json.loads(json.dumps(_WRAPPED_STREAMS))
    else:
        scenario = load_scenario_file(f"examples/scenario_{name}.json")
    if traced:
        scenario["observability"] = {**scenario.get("observability", {}), "trace": True}
    return scenario


def run_outcome(scenario):
    """Everything a run produced, as text: the report, and — when traced —
    the full event log, which names every id of every layer."""
    report, cluster, _apps = run_scenario(scenario)
    trace = ""
    if cluster.obs is not None and cluster.obs.sink is not None:
        trace = events_to_jsonl(cluster.obs.sink.events)
    return [json.dumps(report.to_dict(), sort_keys=True), trace]


class TestRepeatable:
    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("name", ["mixed", "faulty", "tuner", "wrapped-streams"])
    def test_run_is_a_function_of_scenario_and_seed(self, name, traced):
        """Ids come from the run and from structure, so the fourth run in
        a process is byte-equal to the first run of a fresh interpreter."""
        scenario = _repeatable_scenario(name, traced)
        outcomes = [run_outcome(json.loads(json.dumps(scenario))) for _ in range(4)]
        assert outcomes[1:] == outcomes[:1] * 3
        assert outcomes[0][1] or not traced
        fresh = subprocess.run(
            [
                sys.executable,
                "-c",
                "import json, sys\n"
                "from tests.runtime.test_scenario import run_outcome\n"
                "json.dump(run_outcome(json.load(sys.stdin)), sys.stdout)",
            ],
            input=json.dumps(scenario),
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(["src", "."])},
        )
        assert json.loads(fresh.stdout) == outcomes[0]

    def test_unnamed_workloads_named_by_position(self):
        for _ in range(2):
            _cluster, apps = build_scenario(
                minimal_scenario(
                    workloads=[
                        {"app": "stream", "src": "n0", "dst": "n1", "count": 1},
                        {"app": "stream", "src": "n0", "dst": "n1", "count": 1,
                         "name": "mine"},
                        {"app": "pingpong", "src": "n0", "dst": "n1", "count": 1},
                    ]
                )
            )
            assert [app.name for app in apps] == ["StreamApp0", "mine", "PingPongApp2"]


class TestScenarioFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_scenario()))
        report, _, _ = run_scenario(load_scenario_file(path))
        assert report.messages == 20

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigurationError):
            load_scenario_file(path)


class TestTopLevelCli:
    def test_info(self, capsys):
        from repro.__main__ import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "strategies" in out and "E10" in out

    def test_run(self, capsys, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_scenario()))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "messages completed   : 20" in out

    def test_run_histogram_flag(self, capsys, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_scenario()))
        assert main(["run", str(path), "--histogram"]) == 0
        out = capsys.readouterr().out
        assert "latency histogram" in out
        assert "#" in out

    def test_run_json_tail_columns(self, capsys, tmp_path):
        from repro.__main__ import main

        # Traced run: the sketch-fed tail columns are real numbers.
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_scenario(observability={})))
        assert main(["run", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["latency_p999_us"] >= report["latency_p99_us"] > 0
        # Untraced run: the columns are present but null.
        path.write_text(json.dumps(minimal_scenario()))
        assert main(["run", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["latency_p99_us"] is None
        assert report["latency_p999_us"] is None

    def test_run_incomplete_warns(self, capsys, tmp_path):
        from repro.__main__ import main

        # A closed-loop app cannot finish inside a 0.1 us window.
        scenario = minimal_scenario(
            workloads=[{"app": "pingpong", "src": "n0", "dst": "n1", "count": 50}],
            run={"until": 1e-7},
        )
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        assert main(["run", str(path)]) == 1
        assert "WARNING" in capsys.readouterr().out
