//! Every table and figure of the paper's evaluation as a library function.
//!
//! [`run`] takes a list of [`Figure`]s and a [`SimConfig`] and returns one
//! [`Report`] per figure: its tables, its summary lines and the numbers
//! behind them. Nothing here prints; `tla-cli paper` is the front end.
//!
//! Each figure has two halves: a declaration names the [`Suite`]s it
//! reads, and a render turns their results into the report. [`run`]
//! declares every suite of every figure ([`suites`]), runs them on one
//! grid ([`run_suites`]), so a run several figures share (the inclusive
//! baseline on the 105 pairs, say) executes once, then renders in order.
//!
//! Every run goes straight through, so each `(spec, mix)` pair warms up
//! under its own spec. Non-inclusive and exclusive hierarchies therefore
//! never start from an inclusive image. Results are bit-identical for any
//! [`SimConfig::jobs`] value.
//!
//! The mix populations follow the configuration. At `cfg.scale() == 1`
//! the cache-ratio sweeps (Figures 2 and 10) cover all 105 two-core mixes
//! instead of the 12 of Table II, and Figure 11 draws 100 random 4- and
//! 8-core mixes instead of 30.
//!
//! Because the substrate is a simulator rather than the authors' testbed,
//! the *shape* of each result (who wins, by roughly what factor, where
//! crossovers fall) is the reproduction target, not the absolute numbers.

use std::fmt;
use std::str::FromStr;
use tla_cache::Policy;
use tla_core::TlaPolicy;
use tla_cpu::{CoreModelConfig, Latencies};
use tla_sim::{run_suites, PolicySpec, SimConfig, Suite, SuiteResult, Table, ThreadResult};
use tla_types::stats;
use tla_workloads::{all_two_core_mixes, random_mixes, table2_mixes, Category, Mix, SpecApp};

/// One table or figure of the paper's evaluation, or one of its ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Table I: isolated L1/L2/LLC MPKI of the 15 apps, no prefetching.
    Table1,
    /// Figure 2: non-inclusive and exclusive LLCs across cache ratios.
    Fig2,
    /// Figure 5: Temporal Locality Hints (with Table II).
    Fig5,
    /// Figure 6: Early Core Invalidation.
    Fig6,
    /// Figure 7: Query Based Selection.
    Fig7,
    /// Figure 8: LLC miss reduction relative to inclusion.
    Fig8,
    /// Figure 9: every TLA policy on inclusive and non-inclusive bases.
    Fig9,
    /// Figure 10: the TLA policies across cache ratios.
    Fig10,
    /// Figure 11: QBS at 2, 4 and 8 cores.
    Fig11,
    /// §VI: a 32-entry victim cache against ECI and QBS.
    VictimCache,
    /// §V-E footnote 6: QBS that invalidates every queried candidate.
    QbsVariants,
    /// Footnote 4: the inclusion problem under other LLC replacements.
    Replacement,
    /// §IV-A: QBS under other memory latencies and a functional model.
    Latency,
    /// The snoop-filter benefit of inclusion that QBS keeps.
    SnoopFilter,
}

impl Figure {
    /// Every figure, in paper order: the order `tla-cli paper` runs them.
    pub const ALL: [Figure; 14] = [
        Figure::Table1,
        Figure::Fig2,
        Figure::Fig5,
        Figure::Fig6,
        Figure::Fig7,
        Figure::Fig8,
        Figure::Fig9,
        Figure::Fig10,
        Figure::Fig11,
        Figure::VictimCache,
        Figure::QbsVariants,
        Figure::Replacement,
        Figure::Latency,
        Figure::SnoopFilter,
    ];

    /// The figure's command-line id, e.g. `fig9` or `qbs-variants`.
    pub fn id(self) -> &'static str {
        FIGURES[self as usize].0
    }

    /// A one-line description of what the figure shows.
    pub fn title(self) -> &'static str {
        FIGURES[self as usize].1
    }
}

/// One figure, in two halves split by [`Pass::declare`]: the first names
/// the suites it reads, the second fills its [`Report`] from their
/// results. A declaring pass returns `None` at the split.
type FigureFn = fn(&SimConfig, &mut Pass) -> Option<()>;

/// What a call of a [`FigureFn`] is for.
enum Pass<'a> {
    /// Collecting every figure's suites into one grid.
    Declare(&'a mut Vec<Suite>),
    /// Rendering: the grid's results, in declaration order, and the
    /// figure's report.
    Render(
        &'a mut dyn Iterator<Item = Vec<SuiteResult>>,
        &'a mut Report,
    ),
}

impl Pass<'_> {
    /// Declares `suites`. A rendering pass gets back their results,
    /// indexed `[suite][spec]`, and the report to fill.
    fn declare(&mut self, suites: Vec<Suite>) -> Option<(Vec<Vec<SuiteResult>>, &mut Report)> {
        match self {
            Pass::Declare(grid) => {
                grid.extend(suites);
                None
            }
            Pass::Render(results, report) => Some((results.take(suites.len()).collect(), report)),
        }
    }
}

/// Each figure's id, title and declaration, in [`Figure`] order.
const FIGURES: [(&str, &str, FigureFn); 14] = [
    ("table1", "Table I — isolated MPKI (prefetcher off)", table1),
    (
        "fig2",
        "Figure 2 — hierarchy comparison across cache ratios",
        fig2,
    ),
    ("fig5", "Figure 5 — Temporal Locality Hints", fig5),
    ("fig6", "Figure 6 — Early Core Invalidation", fig6),
    ("fig7", "Figure 7 — Query Based Selection", fig7),
    (
        "fig8",
        "Figure 8 — LLC miss reduction relative to inclusion",
        fig8,
    ),
    ("fig9", "Figure 9 — summary of TLA policies", fig9),
    (
        "fig10",
        "Figure 10 — scalability across cache ratios",
        fig10,
    ),
    ("fig11", "Figure 11 — scalability with core count", fig11),
    (
        "victim-cache",
        "§VI — 32-entry victim cache vs ECI/QBS",
        victim_cache,
    ),
    (
        "qbs-variants",
        "§V-E fn.6 — modified QBS (invalidate-on-query)",
        qbs_variants,
    ),
    (
        "replacement",
        "Footnote 4 — LLC replacement policy independence",
        replacement,
    ),
    ("latency", "§IV-A — latency independence", latency),
    (
        "snoop-filter",
        "Extension — snoop-filter benefit of inclusion",
        snoop_filter,
    ),
];

impl FromStr for Figure {
    type Err = String;

    /// Parses a figure id; the error names every valid id.
    fn from_str(s: &str) -> Result<Self, String> {
        Figure::ALL
            .into_iter()
            .find(|f| f.id() == s)
            .ok_or_else(|| {
                let ids: Vec<&str> = Figure::ALL.iter().map(|f| f.id()).collect();
                format!("unknown figure '{s}' (valid: {})", ids.join(", "))
            })
    }
}

/// What one figure produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// The figure this report reproduces.
    pub figure: Figure,
    /// Titled tables, in print order.
    pub tables: Vec<(String, Table)>,
    /// Summary lines printed after the tables.
    pub notes: Vec<String>,
    /// The numbers behind the tables, one named vector per series. A
    /// per-mix series follows the figure's mix order; for Figures 5–7
    /// that is the 12 Table II mixes followed by all 105 pairs.
    pub series: Vec<(String, Vec<f64>)>,
}

impl Report {
    fn new(figure: Figure) -> Self {
        Report {
            figure,
            tables: Vec::new(),
            notes: Vec::new(),
            series: Vec::new(),
        }
    }

    /// The series named `label`, if the figure has one.
    pub fn series(&self, label: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| v.as_slice())
    }

    fn add_table(&mut self, title: impl Into<String>, table: Table) {
        self.tables.push((title.into(), table));
    }

    fn add_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    fn add_series(&mut self, label: impl Into<String>, values: Vec<f64>) {
        self.series.push((label.into(), values));
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {}: {} ==", self.figure.id(), self.figure.title())?;
        for (title, table) in &self.tables {
            writeln!(f, "\n{title}")?;
            write!(f, "{table}")?;
        }
        if !self.notes.is_empty() {
            writeln!(f)?;
        }
        for note in &self.notes {
            writeln!(f, "{note}")?;
        }
        writeln!(f)
    }
}

/// Every suite `figures` read under `cfg`, in order: the whole grid of a
/// [`run`], declared without running anything.
pub fn suites(figures: &[Figure], cfg: &SimConfig) -> Vec<Suite> {
    let mut suites = Vec::new();
    for &figure in figures {
        (FIGURES[figure as usize].2)(cfg, &mut Pass::Declare(&mut suites));
    }
    suites
}

/// Runs `figures` under `cfg` on one grid and returns their reports, in
/// order. A run two figures share executes once, and every report is the
/// same as the figure run alone.
pub fn run(figures: &[Figure], cfg: &SimConfig) -> Vec<Report> {
    let mut results = run_suites(&suites(figures, cfg), cfg.effective_jobs()).into_iter();
    figures
        .iter()
        .map(|&figure| {
            let mut report = Report::new(figure);
            (FIGURES[figure as usize].2)(cfg, &mut Pass::Render(&mut results, &mut report));
            report
        })
        .collect()
}

/// One suite: every spec over every mix under `cfg`.
fn suite(cfg: &SimConfig, mixes: &[Mix], specs: &[PolicySpec], llc: Option<usize>) -> Suite {
    Suite {
        cfg: cfg.clone(),
        mixes: mixes.to_vec(),
        specs: specs.to_vec(),
        llc_capacity_full_scale: llc,
    }
}

/// Full-scale LLC capacities of the cache-ratio sweeps: the paper's 1, 2,
/// 4 and 8 MB points, i.e. 2-core L2:LLC ratios 1:2, 1:4, 1:8 and 1:16.
const LLC_SIZES_MB: [usize; 4] = [1, 2, 4, 8];

/// The mix population of the cache-ratio sweeps: all 105 pairs at full
/// scale, the 12 Table II mixes otherwise.
fn ratio_mixes(cfg: &SimConfig) -> Vec<Mix> {
    if cfg.scale() == 1 {
        all_two_core_mixes()
    } else {
        table2_mixes()
    }
}

/// The 12 Table II mixes followed by all 105 pairs: Figures 5–7 print
/// per-mix bars for the first and geomeans and s-curves over the second.
fn showcase_and_all() -> (Vec<Mix>, usize) {
    let mut mixes = table2_mixes();
    let n = mixes.len();
    mixes.extend(all_two_core_mixes());
    (mixes, n)
}

fn geomean(values: &[f64]) -> Option<f64> {
    stats::geomean(values.iter().copied())
}

fn fmt_geomean(values: &[f64]) -> String {
    stats::fmt_ratio(geomean(values))
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MIN, f64::max)
}

/// Share of the geomean gap to `reference` that `values` closes, in
/// percent, or `None` when the reference shows no gap to close.
fn gap_bridged(values: &[f64], reference: &[f64]) -> Option<f64> {
    let gap = geomean(reference).unwrap_or(1.0) - 1.0;
    (gap > 0.0).then(|| (geomean(values).unwrap_or(1.0) - 1.0) / gap * 100.0)
}

fn fmt_bridged(pct: Option<f64>) -> String {
    pct.map_or_else(|| "n/a".into(), |p| format!("{p:.1}%"))
}

/// Every suite but the first normalized to the first, as
/// `(spec name, per-mix values)`.
fn normalized(suites: &[SuiteResult]) -> Vec<(String, Vec<f64>)> {
    suites[1..]
        .iter()
        .map(|s| (s.spec.name.clone(), s.normalized_throughput(&suites[0])))
        .collect()
}

/// The per-mix bar table: one row per showcase mix (the first
/// `showcase.len()` values of each series) plus an `All(n)` geomean row
/// over the remaining values.
fn bar_table(showcase: &[Mix], series: &[(String, Vec<f64>)]) -> Table {
    let n = showcase.len();
    let mut headers = vec!["mix"];
    headers.extend(series.iter().map(|(label, _)| label.as_str()));
    let mut t = Table::new(&headers);
    for (i, mix) in showcase.iter().enumerate() {
        let mut row = vec![format!("{} ({})", mix.name, mix.category_label())];
        row.extend(series.iter().map(|(_, v)| format!("{:.3}", v[i])));
        t.add_row(row);
    }
    let mut row = vec![format!("All({})", series[0].1.len() - n)];
    row.extend(series.iter().map(|(_, v)| fmt_geomean(&v[n..])));
    t.add_row(row);
    t
}

/// An s-curve (per-mix series sorted by `reference`, the paper sorts by
/// non-inclusive performance) as deciles: the textual form of the
/// paper's s-curve plots.
fn s_curve(mixes: &[Mix], reference: &[f64], series: &[(&str, &[f64])]) -> Table {
    let mut idx: Vec<usize> = (0..mixes.len()).collect();
    idx.sort_by(|&a, &b| reference[a].total_cmp(&reference[b]));
    let mut headers = vec!["percentile"];
    headers.extend(series.iter().map(|(label, _)| *label));
    let mut t = Table::new(&headers);
    for pct in (0..=100).step_by(10) {
        let k = idx[((pct as f64 / 100.0) * (mixes.len() - 1) as f64).round() as usize];
        let mut row = vec![format!("p{pct:<3} ({})", mixes[k].name)];
        row.extend(series.iter().map(|(_, v)| format!("{:.3}", v[k])));
        t.add_row(row);
    }
    t
}

fn table1(cfg: &SimConfig, pass: &mut Pass) -> Option<()> {
    let alone: Vec<Mix> = SpecApp::ALL.iter().map(|&a| Mix::new(vec![a])).collect();
    let cfg = cfg.clone().prefetch(false);
    let suites = vec![suite(&cfg, &alone, &[PolicySpec::baseline()], None)];
    let (results, report) = pass.declare(suites)?;
    let rows: Vec<&ThreadResult> = results[0][0].runs.iter().map(|r| &r.threads[0]).collect();
    let mut t = Table::new(&["app", "category", "L1 MPKI", "L2 MPKI", "LLC MPKI"]);
    for r in &rows {
        let (l1, l2, llc) = (r.l1_mpki(), r.l2_mpki(), r.llc_mpki());
        t.add_row(vec![
            r.app.short_name().to_string(),
            r.app.category().to_string(),
            format!("{l1:.2}"),
            format!("{l2:.2}"),
            format!("{llc:.2}"),
        ]);
        // §IV-B's classification criteria.
        let in_profile = match r.app.category() {
            Category::CoreCacheFitting => l2 < 2.0,
            Category::LlcFitting => l2 >= 2.0 && llc < 0.8 * l2,
            Category::LlcThrashing => llc >= 0.6 * l2 && llc > 4.0,
        };
        if !in_profile {
            report.add_note(format!(
                "note: {} ({}) off-profile: L2 {l2:.2}, LLC {llc:.2}",
                r.app.short_name(),
                r.app.category(),
            ));
        }
    }
    let verdict = if report.notes.is_empty() {
        "all apps in profile"
    } else {
        "see notes above"
    };
    report.add_note(format!("category check: {verdict}"));
    report.add_table("Table I — MPKI of representative apps (no prefetching)", t);
    report.add_series("L1 MPKI", rows.iter().map(|r| r.l1_mpki()).collect());
    report.add_series("L2 MPKI", rows.iter().map(|r| r.l2_mpki()).collect());
    report.add_series("LLC MPKI", rows.iter().map(|r| r.llc_mpki()).collect());
    Some(())
}

fn fig2(cfg: &SimConfig, pass: &mut Pass) -> Option<()> {
    let mixes = ratio_mixes(cfg);
    let specs = [
        PolicySpec::baseline(),
        PolicySpec::non_inclusive(),
        PolicySpec::exclusive(),
    ];
    let suites = LLC_SIZES_MB.map(|mb| suite(cfg, &mixes, &specs, Some(mb << 20)));
    let (results, report) = pass.declare(suites.into())?;
    let mut t = Table::new(&[
        "L2:LLC ratio",
        "LLC (full-scale)",
        "Non-Inclusive",
        "Exclusive",
        "max Non-Incl",
    ]);
    for (mb, suites) in LLC_SIZES_MB.into_iter().zip(&results) {
        let ni = suites[1].normalized_throughput(&suites[0]);
        let ex = suites[2].normalized_throughput(&suites[0]);
        t.add_row(vec![
            format!("1:{}", 2 * mb),
            format!("{mb} MB"),
            fmt_geomean(&ni),
            fmt_geomean(&ex),
            format!("{:.3}", max(&ni)),
        ]);
        report.add_series(format!("Non-Inclusive@{mb}MB"), ni);
        report.add_series(format!("Exclusive@{mb}MB"), ex);
    }
    report.add_table(
        format!(
            "Figure 2 — geomean throughput vs inclusive baseline ({} mixes)",
            mixes.len()
        ),
        t,
    );
    report.add_note(
        "expected shape: gains shrink monotonically as the LLC grows; exclusive >= non-inclusive",
    );
    Some(())
}

fn fig5(cfg: &SimConfig, pass: &mut Pass) -> Option<()> {
    let (mixes, n) = showcase_and_all();
    let specs = [
        PolicySpec::baseline(),
        PolicySpec::tlh_il1(),
        PolicySpec::tlh_dl1(),
        PolicySpec::tlh_l1(),
        PolicySpec::tlh_l2(),
        PolicySpec::tlh_l1_l2(),
        PolicySpec::non_inclusive(),
    ];
    // Hint-fraction sensitivity over the showcase mixes.
    let fractions = [0.01, 0.02, 0.10, 0.20, 1.0];
    let filtered: Vec<PolicySpec> = fractions
        .iter()
        .map(|&p| PolicySpec::tlh_l1_filtered(p))
        .collect();
    let (results, report) = pass.declare(vec![
        suite(cfg, &mixes, &specs, None),
        suite(cfg, &mixes[..n], &filtered, None),
    ])?;
    let (showcase, all) = mixes.split_at(n);
    let mut t2 = Table::new(&["mix", "apps", "category"]);
    for m in showcase {
        let apps: Vec<&str> = m.apps.iter().map(|a| a.short_name()).collect();
        t2.add_row(vec![m.name.clone(), apps.join(", "), m.category_label()]);
    }
    report.add_table("Table II — workload mixes", t2);

    let suites = &results[0];
    let series = normalized(suites);
    report.add_table(
        "Figure 5 — throughput normalized to the inclusive baseline",
        bar_table(showcase, &series),
    );

    let ni = &series[5].1[n..];
    report.add_table(
        format!(
            "Figure 5 s-curve ({} mixes, sorted by Non-Inclusive — deciles)",
            all.len()
        ),
        s_curve(
            all,
            ni,
            &[
                ("TLH-L1", &series[2].1[n..]),
                ("TLH-L2", &series[3].1[n..]),
                ("Non-Inclusive", ni),
            ],
        ),
    );

    let mut gap = Table::new(&["policy", "gap to non-inclusive bridged"]);
    for (label, values) in &series[..5] {
        gap.add_row(vec![
            label.clone(),
            fmt_bridged(gap_bridged(&values[n..], ni)),
        ]);
    }
    report.add_table(
        format!(
            "Figure 5 — share of the non-inclusive gap bridged ({} mixes)",
            all.len()
        ),
        gap,
    );

    // A showcase-only suite normalizes against the first `n` baseline runs.
    let ni_showcase = &series[5].1[..n];
    let mut hints = Table::new(&["hints sent", "TLH-L1 vs inclusive", "gap bridged"]);
    for (p, suite) in fractions.iter().zip(&results[1]) {
        let values = suite.normalized_throughput(&suites[0]);
        hints.add_row(vec![
            format!("{:.0}% of hits", p * 100.0),
            fmt_geomean(&values),
            fmt_bridged(gap_bridged(&values, ni_showcase)),
        ]);
        report.add_series(suite.spec.name.clone(), values);
    }
    report.add_table(
        format!("TLH-L1 hint-fraction sensitivity (geomean over {n} mixes)"),
        hints,
    );

    // TLH traffic: extra LLC requests per LLC demand access.
    let hints_sent =
        |s: &SuiteResult| -> u64 { s.runs[n..].iter().map(|r| r.global.tlh_hints).sum() };
    let llc_accesses: u64 = suites[0].runs[n..]
        .iter()
        .flat_map(|r| r.threads.iter())
        .map(|t| t.stats.llc_accesses)
        .sum();
    let amplification = |s: &SuiteResult| 1.0 + hints_sent(s) as f64 / llc_accesses.max(1) as f64;
    report.add_note(format!(
        "LLC request amplification: TLH-L1 {:.0}x, TLH-L2 {:.1}x (paper: ~600x and ~8x)",
        amplification(&suites[3]),
        amplification(&suites[4]),
    ));
    report.series.splice(0..0, series);
    Some(())
}

fn fig6(cfg: &SimConfig, pass: &mut Pass) -> Option<()> {
    let (mixes, n) = showcase_and_all();
    let specs = [
        PolicySpec::baseline(),
        PolicySpec::eci(),
        PolicySpec::non_inclusive(),
    ];
    let (results, report) = pass.declare(vec![suite(cfg, &mixes, &specs, None)])?;
    let (showcase, all) = mixes.split_at(n);
    let suites = &results[0];
    let series = normalized(suites);
    report.add_table(
        "Figure 6 — throughput normalized to the inclusive baseline",
        bar_table(showcase, &series),
    );
    let eci = &series[0].1[n..];
    let ni = &series[1].1[n..];
    report.add_table(
        format!(
            "Figure 6 s-curve ({} mixes, sorted by Non-Inclusive — deciles)",
            all.len()
        ),
        s_curve(all, ni, &[("ECI", eci), ("Non-Inclusive", ni)]),
    );
    let mut rank: Vec<usize> = (0..eci.len()).collect();
    rank.sort_by(|&a, &b| eci[a].total_cmp(&eci[b]));
    let (worst, best) = (rank[0], rank[rank.len() - 1]);
    report.add_note(format!(
        "ECI bridges {} of the gap (paper: ~55%); best {:+.1}% ({}), worst {:+.1}% ({}) \
         (paper: up to +30%, worst -1.6%)",
        fmt_bridged(gap_bridged(eci, ni)),
        (eci[best] - 1.0) * 100.0,
        all[best].name,
        (eci[worst] - 1.0) * 100.0,
        all[worst].name,
    ));

    // Back-invalidate traffic (§V-B: less than 50% extra on average,
    // relative to a small base).
    let base_inv: u64 = suites[0].runs[n..]
        .iter()
        .map(|r| r.global.back_invalidates)
        .sum();
    let eci_inv: u64 = suites[1].runs[n..]
        .iter()
        .map(|r| r.global.back_invalidates + r.global.eci_invalidates)
        .sum();
    let rescues: u64 = suites[1].runs[n..]
        .iter()
        .map(|r| r.global.eci_rescues)
        .sum();
    report.add_note(format!(
        "back-invalidate traffic: baseline {base_inv}, ECI {eci_inv} ({:+.0}%), \
         hot-line rescues {rescues}",
        (eci_inv as f64 / base_inv.max(1) as f64 - 1.0) * 100.0
    ));
    report.series = series;
    Some(())
}

fn fig7(cfg: &SimConfig, pass: &mut Pass) -> Option<()> {
    let (mixes, n) = showcase_and_all();
    let specs = [
        PolicySpec::baseline(),
        PolicySpec::qbs_il1(),
        PolicySpec::qbs_dl1(),
        PolicySpec::qbs_l1(),
        PolicySpec::qbs_l2(),
        PolicySpec::qbs(),
        PolicySpec::non_inclusive(),
    ];
    // Query-limit sensitivity over the showcase mixes (paper: 1/2/4/8
    // queries give 6.2/6.5/6.6/6.6%).
    let limits = [1usize, 2, 4, 8];
    let limited: Vec<PolicySpec> = limits.iter().map(|&q| PolicySpec::qbs_limited(q)).collect();
    let (results, report) = pass.declare(vec![
        suite(cfg, &mixes, &specs, None),
        suite(cfg, &mixes[..n], &limited, None),
    ])?;
    let (showcase, all) = mixes.split_at(n);
    let suites = &results[0];
    let series = normalized(suites);
    report.add_table(
        "Figure 7 — throughput normalized to the inclusive baseline",
        bar_table(showcase, &series),
    );
    let qbs = &series[4].1[n..];
    let ni = &series[5].1[n..];
    report.add_table(
        format!(
            "Figure 7 s-curve ({} mixes, sorted by Non-Inclusive — deciles)",
            all.len()
        ),
        s_curve(all, ni, &[("QBS", qbs), ("Non-Inclusive", ni)]),
    );
    report.add_note(format!(
        "geomean: QBS {}, non-inclusive {} (paper: +6.5% vs +6.1%)",
        stats::fmt_gain_pct(geomean(qbs)),
        stats::fmt_gain_pct(geomean(ni)),
    ));

    let mut t = Table::new(&["queries", "QBS vs inclusive"]);
    for (q, suite) in limits.iter().zip(&results[1]) {
        let values = suite.normalized_throughput(&suites[0]);
        t.add_row(vec![q.to_string(), stats::fmt_gain_pct(geomean(&values))]);
        report.add_series(suite.spec.name.clone(), values);
    }
    report.add_table(
        format!("QBS query-limit sensitivity (geomean over {n} mixes)"),
        t,
    );

    // Query traffic: like ECI, proportional to LLC misses.
    let qbs_runs = &suites[5].runs[n..];
    let queries: u64 = qbs_runs.iter().map(|r| r.global.qbs_queries).sum();
    let rejections: u64 = qbs_runs.iter().map(|r| r.global.qbs_rejections).sum();
    let evictions: u64 = qbs_runs.iter().map(|r| r.global.llc_evictions).sum();
    report.add_note(format!(
        "QBS traffic: {:.2} queries per LLC eviction, {:.1}% of queried candidates rejected",
        queries as f64 / evictions.max(1) as f64,
        rejections as f64 / queries.max(1) as f64 * 100.0
    ));
    report.series.splice(0..0, series);
    Some(())
}

fn fig8(cfg: &SimConfig, pass: &mut Pass) -> Option<()> {
    let all = all_two_core_mixes();
    let specs = [
        PolicySpec::baseline(),
        PolicySpec::tlh_l1(),
        PolicySpec::tlh_l2(),
        PolicySpec::eci(),
        PolicySpec::qbs(),
        PolicySpec::non_inclusive(),
        PolicySpec::exclusive(),
    ];
    let (results, report) = pass.declare(vec![suite(cfg, &all, &specs, None)])?;
    let suites = &results[0];
    let paper = ["8.2%", "4.8%", "6.5%", "9.6%", "9.3%", "18.2%"];
    let mut t = Table::new(&["policy", "avg LLC miss reduction", "paper"]);
    for (suite, paper) in suites[1..].iter().zip(paper) {
        let reduction = suite.miss_reduction_pct(&suites[0]);
        t.add_row(vec![
            suite.spec.name.clone(),
            format!(
                "{:+.1}%",
                stats::mean(reduction.iter().copied()).unwrap_or(0.0)
            ),
            paper.to_string(),
        ]);
        report.add_series(suite.spec.name.clone(), reduction);
    }
    report.add_table(
        format!(
            "Figure 8 — average LLC miss reduction over {} mixes",
            all.len()
        ),
        t,
    );
    let qbs = report.series("QBS").unwrap_or_default();
    let ni = report.series("Non-Inclusive").unwrap_or_default();
    let curve = s_curve(&all, ni, &[("QBS", qbs), ("Non-Inclusive", ni)]);
    let max_qbs = max(qbs);
    report.add_table(
        format!(
            "Figure 8 s-curve: LLC miss reduction % ({} mixes, sorted by Non-Inclusive — deciles)",
            all.len()
        ),
        curve,
    );
    report.add_note(format!(
        "max QBS miss reduction: {max_qbs:+.1}% (paper: up to ~80%)"
    ));
    Some(())
}

fn fig9(cfg: &SimConfig, pass: &mut Pass) -> Option<()> {
    let all = all_two_core_mixes();
    let mut specs_a = vec![PolicySpec::baseline()];
    specs_a.extend(PolicySpec::figure9_set());
    let specs_b = [
        PolicySpec::non_inclusive(),
        PolicySpec::on_non_inclusive(TlaPolicy::tlh_l1()),
        PolicySpec::on_non_inclusive(TlaPolicy::tlh_l2()),
        PolicySpec::on_non_inclusive(TlaPolicy::eci()),
        PolicySpec::on_non_inclusive(TlaPolicy::qbs()),
        PolicySpec::exclusive(),
    ];
    let (results, report) = pass.declare(vec![
        suite(cfg, &all, &specs_a, None),
        suite(cfg, &all, &specs_b, None),
    ])?;
    for ((part, base), suites) in [("9a", "inclusive"), ("9b", "non-inclusive")]
        .into_iter()
        .zip(&results)
    {
        let series = normalized(suites);
        let mut t = Table::new(&["policy", &format!("vs {base} (geomean)")]);
        for (label, values) in &series {
            t.add_row(vec![label.clone(), fmt_geomean(values)]);
        }
        report.add_table(
            format!(
                "Figure {part} — performance relative to the {base} baseline ({} mixes)",
                all.len()
            ),
            t,
        );
        report.series.extend(series);
    }
    report.add_note(
        "expected shape: QBS ~ non-inclusive on the inclusive base; TLA policies gain ~0-1% on \
         a non-inclusive base (paper: 0.4-1.2%); exclusive keeps a small capacity edge \
         (paper: +2.5%)",
    );
    Some(())
}

fn fig10(cfg: &SimConfig, pass: &mut Pass) -> Option<()> {
    let mixes = ratio_mixes(cfg);
    let specs = [
        PolicySpec::baseline(),
        PolicySpec::tlh_l1(),
        PolicySpec::tlh_l1_l2(),
        PolicySpec::qbs(),
        PolicySpec::non_inclusive(),
        PolicySpec::exclusive(),
    ];
    let suites = LLC_SIZES_MB.map(|mb| suite(cfg, &mixes, &specs, Some(mb << 20)));
    let (results, report) = pass.declare(suites.into())?;
    let mut headers = vec!["L2:LLC"];
    headers.extend(specs[1..].iter().map(|s| s.name.as_str()));
    let mut t = Table::new(&headers);
    for (mb, suites) in LLC_SIZES_MB.into_iter().zip(&results) {
        let mut row = vec![format!("1:{}", 2 * mb)];
        for (label, values) in normalized(suites) {
            row.push(fmt_geomean(&values));
            report.add_series(format!("{label}@{mb}MB"), values);
        }
        t.add_row(row);
    }
    report.add_table(
        format!(
            "Figure 10 — geomean throughput vs inclusive, per LLC size ({} mixes)",
            mixes.len()
        ),
        t,
    );
    report.add_note(
        "expected shape: every column's gain shrinks as the ratio grows toward 1:16; QBS ~ \
         non-inclusive at every ratio; TLH-L1-L2 >= TLH-L1 with the gap widest at 1:2",
    );
    Some(())
}

fn fig11(cfg: &SimConfig, pass: &mut Pass) -> Option<()> {
    // The 2-core population is the 105-pair sweep; 4- and 8-core
    // populations are random draws as in §V-G.
    let count = if cfg.scale() == 1 { 100 } else { 30 };
    let populations = [
        all_two_core_mixes(),
        random_mixes(4, count, cfg.seed_value()),
        random_mixes(8, count, cfg.seed_value()),
    ];
    let specs = [
        PolicySpec::baseline(),
        PolicySpec::qbs(),
        PolicySpec::non_inclusive(),
    ];
    // §V-G keeps the 1:4 hierarchy as cores scale: the LLC grows with
    // the core count (2 MB per 2 cores at full scale).
    let suites = populations
        .each_ref()
        .map(|m| suite(cfg, m, &specs, Some(m[0].cores() << 20)));
    let (results, report) = pass.declare(suites.into())?;
    let mut t = Table::new(&["CMP", "mixes", "QBS", "Non-Inclusive", "max QBS"]);
    for (mixes, suites) in populations.iter().zip(&results) {
        let cores = mixes[0].cores();
        let qbs = suites[1].normalized_throughput(&suites[0]);
        let ni = suites[2].normalized_throughput(&suites[0]);
        t.add_row(vec![
            format!("{cores} cores"),
            mixes.len().to_string(),
            fmt_geomean(&qbs),
            fmt_geomean(&ni),
            format!("{:.3}", max(&qbs)),
        ]);
        report.add_series(format!("QBS@{cores}c"), qbs);
        report.add_series(format!("Non-Inclusive@{cores}c"), ni);
    }
    report.add_table("Figure 11 — QBS vs core count (throughput vs inclusive)", t);
    report.add_note(
        "expected shape: QBS's gain grows with core count (more LLC contention) and tracks \
         non-inclusive at every width",
    );
    Some(())
}

fn victim_cache(cfg: &SimConfig, pass: &mut Pass) -> Option<()> {
    let all = all_two_core_mixes();
    let specs = [
        PolicySpec::baseline(),
        PolicySpec::victim_cache_32(),
        PolicySpec::eci(),
        PolicySpec::qbs(),
    ];
    let (results, report) = pass.declare(vec![suite(cfg, &all, &specs, None)])?;
    let suites = &results[0];
    let mut t = Table::new(&["configuration", "vs inclusive (geomean)", "paper"]);
    for ((label, values), paper) in normalized(suites)
        .into_iter()
        .zip(["+0.8%", "+4.5%", "+6.5%"])
    {
        t.add_row(vec![
            label.clone(),
            stats::fmt_gain_pct(geomean(&values)),
            paper.to_string(),
        ]);
        report.add_series(label, values);
    }
    report.add_table(
        format!(
            "§VI — victim cache vs TLA policies over {} mixes",
            all.len()
        ),
        t,
    );
    let rescues: u64 = suites[1]
        .runs
        .iter()
        .map(|r| r.global.victim_cache_rescues)
        .sum();
    report.add_note(format!("victim-cache rescues across the sweep: {rescues}"));
    report.add_note("expected shape: VC-32 << ECI < QBS");
    Some(())
}

fn qbs_variants(cfg: &SimConfig, pass: &mut Pass) -> Option<()> {
    let mixes = table2_mixes();
    let specs = [
        PolicySpec::baseline(),
        PolicySpec::qbs(),
        PolicySpec::qbs_invalidating(),
    ];
    let (results, report) = pass.declare(vec![suite(cfg, &mixes, &specs, None)])?;
    let series = normalized(&results[0]);
    let (qbs, qbsi) = (&series[0].1, &series[1].1);
    let mut t = Table::new(&["mix", "QBS", "QBS-inval"]);
    for (i, mix) in mixes.iter().enumerate() {
        t.add_row(vec![
            mix.name.clone(),
            format!("{:.3}", qbs[i]),
            format!("{:.3}", qbsi[i]),
        ]);
    }
    t.add_row(vec![
        "GEOMEAN".to_string(),
        fmt_geomean(qbs),
        fmt_geomean(qbsi),
    ]);
    report.add_table("modified QBS vs plain QBS (throughput vs inclusive)", t);
    report.add_note(
        "expected shape: the two columns match closely — QBS's benefit is avoiding memory \
         misses, not avoiding the LLC hit penalty",
    );
    report.series = series;
    Some(())
}

fn replacement(cfg: &SimConfig, pass: &mut Pass) -> Option<()> {
    let mixes = table2_mixes();
    let policies = [
        Policy::Nru,
        Policy::Lru,
        Policy::Srrip,
        Policy::Drrip,
        Policy::Dip,
    ];
    let suites = policies.map(|policy| {
        let specs = [
            PolicySpec::baseline().with_llc_replacement(policy),
            PolicySpec::qbs().with_llc_replacement(policy),
            PolicySpec::non_inclusive().with_llc_replacement(policy),
        ];
        suite(cfg, &mixes, &specs, None)
    });
    let (results, report) = pass.declare(suites.into())?;
    let mut t = Table::new(&["LLC replacement", "QBS", "Non-Inclusive"]);
    for (policy, suites) in policies.iter().zip(&results) {
        let series = normalized(suites);
        t.add_row(vec![
            policy.to_string(),
            stats::fmt_gain_pct(geomean(&series[0].1)),
            stats::fmt_gain_pct(geomean(&series[1].1)),
        ]);
        report.series.extend(series);
    }
    report.add_table(
        format!(
            "inclusion victims under different LLC replacement policies \
             (geomean gain vs the inclusive baseline with the same policy, {} mixes)",
            mixes.len()
        ),
        t,
    );
    report.add_note(
        "expected shape: a positive QBS and non-inclusive gain under every policy — the \
         inclusion problem is not an artifact of NRU",
    );
    Some(())
}

fn latency(cfg: &SimConfig, pass: &mut Pass) -> Option<()> {
    let mixes = table2_mixes();
    let memory = |memory| Latencies {
        memory,
        ..Default::default()
    };
    let points = [
        ("memory 75", memory(75)),
        ("memory 150 (paper)", Latencies::default()),
        ("memory 300", memory(300)),
        (
            "functional (all 1)",
            Latencies {
                l1: 1,
                l2: 1,
                llc: 1,
                memory: 1,
            },
        ),
    ];
    let specs = [PolicySpec::baseline(), PolicySpec::qbs()];
    let suites = points.map(|(_, latencies)| {
        let cfg = cfg.clone().core_model(CoreModelConfig {
            latencies,
            ..*cfg.core_config()
        });
        suite(&cfg, &mixes, &specs, None)
    });
    let (results, report) = pass.declare(suites.into())?;
    let mut t = Table::new(&["latency model", "QBS vs inclusive", "miss reduction"]);
    for ((label, _), suites) in points.into_iter().zip(&results) {
        let values = suites[1].normalized_throughput(&suites[0]);
        let reduction = stats::mean(suites[1].miss_reduction_pct(&suites[0])).unwrap_or(0.0);
        t.add_row(vec![
            label.to_string(),
            stats::fmt_gain_pct(geomean(&values)),
            format!("{reduction:+.1}%"),
        ]);
        report.add_series(label, values);
    }
    report.add_table(
        format!("QBS gain across latency models ({} mixes)", mixes.len()),
        t,
    );
    report.add_note(
        "expected shape: positive throughput gain everywhere, growing with the memory \
         penalty; miss reduction roughly constant (it is latency-free)",
    );
    Some(())
}

fn snoop_filter(cfg: &SimConfig, pass: &mut Pass) -> Option<()> {
    let mixes = table2_mixes();
    let specs = [
        PolicySpec::baseline(),
        PolicySpec::qbs(),
        PolicySpec::non_inclusive(),
        PolicySpec::exclusive(),
    ];
    let (results, report) = pass.declare(vec![suite(cfg, &mixes, &specs, None)])?;
    let suites = &results[0];
    let mut t = Table::new(&[
        "configuration",
        "throughput vs inclusive",
        "snoop probes / 1k instr",
    ]);
    for suite in suites {
        let values = suite.normalized_throughput(&suites[0]);
        let probes: u64 = suite.runs.iter().map(|r| r.global.snoop_probes).sum();
        let instr: u64 = suite
            .runs
            .iter()
            .flat_map(|r| r.threads.iter())
            .map(|tr| tr.instructions)
            .sum();
        t.add_row(vec![
            suite.spec.name.clone(),
            fmt_geomean(&values),
            format!("{:.2}", probes as f64 * 1000.0 / instr.max(1) as f64),
        ]);
        report.add_series(suite.spec.name.clone(), values);
    }
    report.add_table(
        format!("coherence cost vs performance ({} mixes)", mixes.len()),
        t,
    );
    report.add_note(
        "expected shape: QBS reaches non-inclusive-class throughput at zero snoop cost; \
         non-inclusive/exclusive broadcast on every LLC miss",
    );
    report.add_note(
        "(probe counts cover whole runs including post-freeze tails, so they are indicative \
         rates, not exact per-quota counts)",
    );
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_table_shapes() {
        let showcase = table2_mixes();
        let mut values = vec![1.0; 12];
        values.extend([1.05; 105]);
        let t = bar_table(&showcase, &[("QBS".into(), values)]);
        assert_eq!(t.len(), 13); // 12 mixes + All row
        let s = t.to_string();
        assert!(s.contains("All(105)"));
        assert!(s.contains("1.050"));
    }

    #[test]
    fn s_curve_sorts_by_reference() {
        let mixes = table2_mixes();
        let reference: Vec<f64> = (0..12).rev().map(f64::from).collect();
        let t = s_curve(&mixes, &reference, &[("ref", &reference)]).to_string();
        let rows: Vec<&str> = t.lines().skip(2).collect();
        assert_eq!(rows.len(), 11);
        assert!(rows[0].starts_with("p0   (MIX_11)"), "{}", rows[0]);
        assert!(rows[10].starts_with("p100 (MIX_00)"), "{}", rows[10]);
    }

    #[test]
    fn gap_bridged_needs_a_gap() {
        assert_eq!(gap_bridged(&[1.05], &[1.10]).map(f64::round), Some(50.0));
        assert_eq!(gap_bridged(&[1.05], &[1.0]), None);
        assert_eq!(fmt_bridged(None), "n/a");
    }
}
