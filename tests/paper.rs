//! The figure path behind `tla-cli paper`: figures run every suite
//! straight through on one grid, print the same bytes for any job count
//! and alongside any other figure, and parse their ids strictly.

use std::collections::HashSet;
use tla::bench::paper::{self, Figure};
use tla::sim::{grid_jobs, MixRun, PolicySpec, RunKey, SimConfig};
use tla::workloads::table2_mixes;

fn cfg() -> SimConfig {
    SimConfig::scaled_down().warmup(10_000).instructions(10_000)
}

/// Each normalized value equals the ratio of two plain runs, each warmed
/// under its own spec. A figure that resumed every spec from one
/// baseline-warmed image would fail this.
#[test]
fn figure_values_match_plain_runs() {
    let cfg = cfg();
    let report = paper::run(&[Figure::QbsVariants], &cfg).remove(0);
    let mixes = table2_mixes();
    for spec in [PolicySpec::qbs(), PolicySpec::qbs_invalidating()] {
        let expected: Vec<f64> = mixes
            .iter()
            .map(|mix| {
                let base = MixRun::new(&cfg, &mix.apps)
                    .spec(&PolicySpec::baseline())
                    .run();
                let run = MixRun::new(&cfg, &mix.apps).spec(&spec).run();
                run.throughput() / base.throughput()
            })
            .collect();
        assert_eq!(
            report.series(&spec.name),
            Some(&expected[..]),
            "{}",
            spec.name
        );
    }
}

#[test]
fn output_is_identical_for_any_job_count() {
    let serial = paper::run(&[Figure::QbsVariants], &cfg().jobs(1))[0].to_string();
    let parallel = paper::run(&[Figure::QbsVariants], &cfg().jobs(3))[0].to_string();
    assert_eq!(serial, parallel);
    assert!(serial.contains("GEOMEAN"), "{serial}");
}

/// Two figures that share their baseline and QBS runs on Table II print,
/// together, exactly what each prints alone, at any job count.
#[test]
fn figures_sharing_runs_print_what_they_print_alone() {
    let figures = [Figure::QbsVariants, Figure::SnoopFilter];
    let alone: Vec<String> = figures
        .iter()
        .map(|&f| paper::run(&[f], &cfg().jobs(1))[0].to_string())
        .collect();
    for jobs in [1, 3] {
        let together: Vec<String> = paper::run(&figures, &cfg().jobs(jobs))
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(together, alone, "--jobs {jobs}");
    }
}

/// The whole `paper` grid at the configuration of record (the `tla-cli
/// paper` defaults), declared without running: how many runs the figures
/// ask for, how many are distinct, and a job list that holds each
/// distinct key exactly once.
#[test]
fn full_paper_grid_runs_each_distinct_key_once() {
    let cfg = SimConfig::scaled_down()
        .warmup(800_000)
        .instructions(300_000);
    let keys: Vec<RunKey> = paper::suites(&Figure::ALL, &cfg)
        .iter()
        .flat_map(|suite| suite.keys())
        .collect();
    assert_eq!(keys.len(), 5_919, "declared runs");
    let distinct: HashSet<&RunKey> = keys.iter().collect();
    assert_eq!(distinct.len(), 3_151, "distinct runs");

    let (jobs, slots) = grid_jobs(&keys);
    assert_eq!(jobs.len(), distinct.len());
    let scheduled: HashSet<&RunKey> = jobs.iter().map(|&i| &keys[i]).collect();
    assert_eq!(scheduled.len(), jobs.len(), "no key is scheduled twice");
    for (key, &slot) in keys.iter().zip(&slots) {
        assert_eq!(&keys[jobs[slot]], key, "every key reads its own job");
    }
    let cores: Vec<usize> = jobs.iter().map(|&i| keys[i].cores()).collect();
    assert!(cores.windows(2).all(|w| w[0] >= w[1]), "widest mixes first");
}

#[test]
fn every_figure_id_round_trips() {
    let ids: Vec<&str> = Figure::ALL.iter().map(|f| f.id()).collect();
    assert_eq!(
        ids.join(" "),
        "table1 fig2 fig5 fig6 fig7 fig8 fig9 fig10 fig11 \
         victim-cache qbs-variants replacement latency snoop-filter"
    );
    assert_eq!(Figure::QbsVariants.id(), "qbs-variants");
    for figure in Figure::ALL {
        assert_eq!(figure.id().parse::<Figure>(), Ok(figure));
    }
}

#[test]
fn unknown_figure_names_the_valid_ids() {
    let err = "nope".parse::<Figure>().unwrap_err();
    assert!(err.contains("'nope'"), "{err}");
    for figure in Figure::ALL {
        assert!(err.contains(figure.id()), "{err}");
    }
}
