//! The outside-in replay reproduces `MixRun::run` exactly, and each layer
//! replayed alone over its recording ends where the recording loop did.

use tla::io::{IoAgentSpec, IoMixConfig};
use tla::sim::{MixRun, PolicySpec, SimConfig};
use tla::workloads::SpecApp;
use tla_benchmark::checks::{invariant_problems, run_digest};
use tla_benchmark::replay::{
    access_hierarchy, generate, hierarchy_config, layer_problems, replay, step_cores,
};
use tla_benchmark::workload::Workload;

fn small(seed: u64) -> SimConfig {
    Workload::Thrash8c.config_with(seed, 20_000, 20_000)
}

/// Replays one run and returns every problem found: a stats mismatch
/// against `MixRun::run`, isolated layers that disagree with the loop, or
/// a broken inclusion/exclusion invariant.
fn replay_problems(
    cfg: &SimConfig,
    apps: &[SpecApp],
    spec: &PolicySpec,
    io: &IoMixConfig,
) -> Vec<String> {
    let mut run = MixRun::new(cfg, apps).spec(spec);
    if !io.is_trivial() {
        run = run.io(io.clone());
    }
    let plain = run.run();
    let rp = replay(cfg, apps, spec, io);
    let mut problems = Vec::new();
    if run_digest(&plain) != run_digest(&rp.result) {
        problems.push(format!(
            "{}: replay stats differ from MixRun::run",
            spec.name
        ));
    }
    assert!(generate(cfg, apps, io, &rp.recording) != 0);
    let cores = step_cores(cfg, &rp.recording);
    let hier = access_hierarchy(
        &hierarchy_config(cfg, apps, spec, io),
        &rp.recording.accesses,
    );
    problems.extend(layer_problems(&rp, &hier, &cores));
    problems.extend(invariant_problems(&hier));
    problems
}

#[test]
fn replay_matches_every_compare_policy_and_the_victim_cache() {
    let cfg = small(3);
    let apps = [
        SpecApp::Mcf,
        SpecApp::Libquantum,
        SpecApp::Sjeng,
        SpecApp::Mcf,
    ];
    let mut specs: Vec<PolicySpec> = Workload::CcfWarm2c
        .run_configs()
        .into_iter()
        .map(|c| c.spec)
        .collect();
    assert_eq!(specs.len(), 7);
    specs.push(PolicySpec::victim_cache_32());
    for spec in &specs {
        let problems = replay_problems(&cfg, &apps, spec, &IoMixConfig::none());
        assert!(problems.is_empty(), "{problems:?}");
    }
}

#[test]
fn replay_matches_a_partitioned_two_agent_io_mix() {
    let cfg = small(5);
    let apps = [SpecApp::Sjeng, SpecApp::Libquantum];
    let io = IoMixConfig::none()
        .agent(IoAgentSpec::nic().period(3).lines(512))
        .agent(IoAgentSpec::dma().period(2))
        .inject_ways(2)
        .partition(true);
    for spec in [PolicySpec::baseline(), PolicySpec::qbs()] {
        let problems = replay_problems(&cfg, &apps, &spec, &io);
        assert!(problems.is_empty(), "{problems:?}");
    }
    let rp = replay(&cfg, &apps, &PolicySpec::baseline(), &io);
    assert!(rp.recording.agent_instr.iter().all(|&n| n > 0));
    assert!(rp.result.io.is_some_and(|(s, _)| s.injections > 0));
}
