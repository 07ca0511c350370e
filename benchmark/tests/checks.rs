//! Every output check fires on a perturbed input.

use tla::core::CacheHierarchy;
use tla::io::IoMixConfig;
use tla::sim::{PolicySpec, SimConfig};
use tla::workloads::SpecApp;
use tla_benchmark::checks::{digest_mismatch, invariant_problems, run_digest, Checks};
use tla_benchmark::measure::check_job;
use tla_benchmark::replay::{
    access_hierarchy, hierarchy_config, layer_problems, replay, step_cores,
};
use tla_benchmark::spans::Spans;
use tla_benchmark::workload::Workload;
use tla_snapshot::{Snapshot, SnapshotReader, SnapshotWriter};

const APPS: [SpecApp; 4] = [
    SpecApp::Mcf,
    SpecApp::Libquantum,
    SpecApp::Mcf,
    SpecApp::Libquantum,
];

fn small() -> SimConfig {
    Workload::Thrash8c.config_with(11, 20_000, 20_000)
}

#[test]
fn a_dropped_access_or_step_breaks_the_layer_replay() {
    let cfg = small();
    let spec = PolicySpec::qbs();
    let io = IoMixConfig::none();
    let rp = replay(&cfg, &APPS, &spec, &io);
    let hcfg = hierarchy_config(&cfg, &APPS, &spec, &io);
    let cores = step_cores(&cfg, &rp.recording);
    let hier = access_hierarchy(&hcfg, &rp.recording.accesses);
    assert!(layer_problems(&rp, &hier, &cores).is_empty());

    let mut accesses = rp.recording.accesses.clone();
    accesses.remove(accesses.len() / 2);
    let dropped = access_hierarchy(&hcfg, &accesses);
    let problems = layer_problems(&rp, &dropped, &cores);
    assert!(
        problems.iter().any(|p| p.contains("hierarchy")),
        "{problems:?}"
    );

    let mut rec = rp.recording.clone();
    rec.steps[1].pop();
    let problems = layer_problems(&rp, &hier, &step_cores(&cfg, &rec));
    assert!(
        problems.iter().any(|p| p.contains("core 1")),
        "{problems:?}"
    );
}

#[test]
fn a_flipped_stats_bit_fails_the_digest_checks() {
    let cfg = small();
    let w = Workload::Thrash8c;
    let first = w.run_job(&cfg, &mut Spans::off());
    let mut checks = Checks::default();
    check_job(&mut checks, "same", &first, &first.clone());
    assert_eq!((checks.attempted(), checks.failed()), (4, 0));

    let mut flipped = first.clone();
    flipped.runs[2].1.threads[0].cycles ^= 1;
    check_job(&mut checks, "flipped", &first, &flipped);
    assert_eq!((checks.attempted(), checks.failed()), (8, 1));
    assert!(checks.problems()[0].contains("flipped"));

    let (a, b) = (run_digest(&first.runs[2].1), run_digest(&flipped.runs[2].1));
    assert_ne!(a, b);
    assert!(digest_mismatch("resume vs plain run", a, b).is_some());
    assert!(digest_mismatch("resume vs plain run", a, a).is_none());
}

/// A hierarchy configured for `spec` holding the state `donor` reached —
/// the only way to put a hierarchy in a state its own flows never make.
fn transplant(donor: &CacheHierarchy, cfg: &SimConfig, spec: &PolicySpec) -> CacheHierarchy {
    let mut w = SnapshotWriter::new();
    w.begin_section("hierarchy");
    donor.write_state(&mut w);
    w.end_section();
    let bytes = w.finish();
    let mut r = SnapshotReader::new(&bytes).expect("fresh snapshot");
    r.begin_section("hierarchy").expect("section");
    let mut hier = CacheHierarchy::new(&hierarchy_config(cfg, &APPS, spec, &IoMixConfig::none()));
    hier.read_state(&mut r).expect("same geometry");
    hier
}

#[test]
fn broken_inclusion_and_exclusion_are_reported() {
    let cfg = small();
    let io = IoMixConfig::none();
    let non_inclusive = replay(&cfg, &APPS, &PolicySpec::non_inclusive(), &io).hierarchy;
    let inclusive = replay(&cfg, &APPS, &PolicySpec::baseline(), &io).hierarchy;
    assert!(invariant_problems(&non_inclusive).is_empty());
    assert!(invariant_problems(&inclusive).is_empty());

    // Core lines the non-inclusive LLC dropped now break inclusion...
    let problems = invariant_problems(&transplant(&non_inclusive, &cfg, &PolicySpec::baseline()));
    assert!(
        problems.iter().any(|p| p.contains("inclusion")),
        "{problems:?}"
    );
    // ... and lines an inclusive LLC shares with the cores break exclusion.
    let problems = invariant_problems(&transplant(&inclusive, &cfg, &PolicySpec::exclusive()));
    assert!(
        problems.iter().any(|p| p.contains("exclusion")),
        "{problems:?}"
    );
}
