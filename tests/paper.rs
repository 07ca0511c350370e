//! The figure path behind `tla-cli paper`: figures run every suite
//! straight through, print the same bytes for any job count, and parse
//! their ids strictly.

use tla::bench::paper::{self, Figure};
use tla::sim::{MixRun, PolicySpec, SimConfig};
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
    let report = paper::run(Figure::QbsVariants, &cfg);
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
    let serial = paper::run(Figure::QbsVariants, &cfg().jobs(1)).to_string();
    let parallel = paper::run(Figure::QbsVariants, &cfg().jobs(3)).to_string();
    assert_eq!(serial, parallel);
    assert!(serial.contains("GEOMEAN"), "{serial}");
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
