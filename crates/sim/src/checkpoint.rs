//! Warm-state checkpoints: freeze a run at the warm-up boundary, resume
//! it later — bit-exactly — under the same or a different policy.
//!
//! A [`Checkpoint`] is a self-describing TLAS byte stream (see
//! `tla-snapshot`) with three sections:
//!
//! * `meta` — the run configuration the snapshot was taken under: mix,
//!   scale, seed, quotas, prefetch setting, LLC override, plus provenance
//!   (the warming policy's name, the global instruction count at the
//!   freeze, and whether telemetry collectors were attached).
//! * `sim` — the complete simulator state: hierarchy, cores, trace
//!   cursors, warm-up bookkeeping.
//! * `telemetry` — present only for instrumented checkpoints: event
//!   counters, per-set histogram and the windowed time series.
//!
//! Resuming validates `meta` against the receiving [`MixRun`] and refuses
//! anything but the policy spec to differ: the whole point of warm-start
//! fan-out is replaying *one* warm image under several policies, so the
//! policy is deliberately the only free axis.
//!
//! [`MixRun`]: crate::MixRun

use crate::config::SimConfig;
use std::path::Path;
use tla_cpu::{CoreModelConfig, Latencies};
use tla_snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use tla_workloads::SpecApp;

/// A serialized warm simulation state (the `.tlas` file payload).
///
/// Produced by [`MixRun::warm_checkpoint`] /
/// [`MixRun::warm_checkpoint_instrumented`], consumed by
/// [`MixRun::resume`] / [`MixRun::resume_report`].
///
/// [`MixRun::warm_checkpoint`]: crate::MixRun::warm_checkpoint
/// [`MixRun::warm_checkpoint_instrumented`]: crate::MixRun::warm_checkpoint_instrumented
/// [`MixRun::resume`]: crate::MixRun::resume
/// [`MixRun::resume_report`]: crate::MixRun::resume_report
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    bytes: Vec<u8>,
}

impl Checkpoint {
    /// Wraps bytes the simulator just serialized (already validated by
    /// construction).
    pub(crate) fn from_raw(bytes: Vec<u8>) -> Checkpoint {
        Checkpoint { bytes }
    }

    /// Adopts untrusted bytes, validating the header, checksum and meta
    /// section before accepting them.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Checkpoint, SnapshotError> {
        let ck = Checkpoint { bytes };
        ck.info()?;
        Ok(ck)
    }

    /// The raw TLAS byte stream.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Writes the checkpoint to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, &self.bytes)
    }

    /// Reads and validates a checkpoint from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Checkpoint, SnapshotError> {
        Checkpoint::from_bytes(std::fs::read(path)?)
    }

    /// Parses the meta section: what this checkpoint was warmed on.
    ///
    /// # Errors
    ///
    /// Fails if the bytes are not a valid TLAS stream or the meta section
    /// is malformed.
    pub fn info(&self) -> Result<CheckpointInfo, SnapshotError> {
        let mut r = SnapshotReader::new(&self.bytes)?;
        r.begin_section("meta")?;
        let info = read_meta(&mut r)?;
        r.end_section()?;
        Ok(info)
    }
}

/// The run configuration a [`Checkpoint`] was taken under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// The workload mix, one app per core.
    pub apps: Vec<SpecApp>,
    /// Capacity scale divisor of the warming config.
    pub scale: u64,
    /// RNG / trace seed.
    pub seed: u64,
    /// Warm-up quota (instructions per thread before measurement).
    pub warmup: u64,
    /// Measured-phase quota (instructions per thread).
    pub instructions: u64,
    /// Whether the stream prefetcher was enabled.
    pub prefetch: bool,
    /// Full-scale LLC capacity override, if any.
    pub llc_capacity_full_scale: Option<usize>,
    /// Name of the policy spec the warm-up ran under.
    pub warm_spec: String,
    /// Global instruction count (across cores) at the freeze point.
    pub total_instr: u64,
    /// Whether telemetry collectors were attached (and serialized).
    pub instrumented: bool,
    /// Time-series window size of the instrumented run, if any.
    pub window: Option<u64>,
    /// Core-model latency configuration the warm-up ran under. Cycle
    /// counts — and therefore the scheduler interleaving baked into the
    /// warm state — depend on it, so it is pinned like every other
    /// non-policy axis (format v3; v2 images read back the defaults they
    /// were invariably taken under).
    pub latencies: Latencies,
}

impl CheckpointInfo {
    /// The meta section a warm-up of `apps` under `cfg` writes, before
    /// the freeze point is known (`total_instr` is zero). `telemetry` is
    /// `None` for a plain checkpoint and `Some(window)` for an
    /// instrumented one.
    pub(crate) fn new(
        cfg: &SimConfig,
        apps: &[SpecApp],
        llc_capacity_full_scale: Option<usize>,
        warm_spec: &str,
        telemetry: Option<Option<u64>>,
    ) -> CheckpointInfo {
        CheckpointInfo {
            apps: apps.to_vec(),
            scale: cfg.scale(),
            seed: cfg.seed_value(),
            warmup: cfg.warmup_quota(),
            instructions: cfg.instruction_quota(),
            prefetch: cfg.prefetch_enabled(),
            llc_capacity_full_scale,
            warm_spec: warm_spec.to_string(),
            total_instr: 0,
            instrumented: telemetry.is_some(),
            window: telemetry.flatten(),
            latencies: cfg.core_config().latencies,
        }
    }

    /// The [`SimConfig`] the checkpoint was warmed under, so a resume
    /// needs no re-typed configuration. The LLC override is not part of a
    /// `SimConfig`; pass `llc_capacity_full_scale` to
    /// [`MixRun::llc_capacity_full_scale`](crate::MixRun::llc_capacity_full_scale).
    pub fn sim_config(&self) -> SimConfig {
        let cfg = SimConfig::scaled_down()
            .with_scale(self.scale)
            .warmup(self.warmup)
            .instructions(self.instructions)
            .seed(self.seed)
            .prefetch(self.prefetch);
        let core = CoreModelConfig {
            latencies: self.latencies,
            ..*cfg.core_config()
        };
        cfg.core_model(core)
    }

    /// The mix label, e.g. `"lib+sje"`.
    pub fn mix_label(&self) -> String {
        let names: Vec<&str> = self.apps.iter().map(|a| a.short_name()).collect();
        names.join("+")
    }
}

pub(crate) fn write_meta(w: &mut SnapshotWriter, info: &CheckpointInfo) {
    w.write_usize(info.apps.len());
    for app in &info.apps {
        w.write_str(app.short_name());
    }
    w.write_u64(info.scale);
    w.write_u64(info.seed);
    w.write_u64(info.warmup);
    w.write_u64(info.instructions);
    w.write_bool(info.prefetch);
    w.write_bool(info.llc_capacity_full_scale.is_some());
    if let Some(bytes) = info.llc_capacity_full_scale {
        w.write_usize(bytes);
    }
    w.write_str(&info.warm_spec);
    w.write_u64(info.total_instr);
    w.write_bool(info.instrumented);
    w.write_bool(info.window.is_some());
    if let Some(window) = info.window {
        w.write_u64(window);
    }
    w.write_u64(info.latencies.l1);
    w.write_u64(info.latencies.l2);
    w.write_u64(info.latencies.llc);
    w.write_u64(info.latencies.memory);
}

pub(crate) fn read_meta(r: &mut SnapshotReader<'_>) -> Result<CheckpointInfo, SnapshotError> {
    let n_apps = r.read_usize()?;
    let mut apps = Vec::with_capacity(n_apps.min(64));
    for _ in 0..n_apps {
        let name = r.read_str()?;
        let app = SpecApp::from_short_name(&name).ok_or_else(|| {
            SnapshotError::Corrupt(format!("unknown benchmark '{name}' in checkpoint mix"))
        })?;
        apps.push(app);
    }
    let scale = r.read_u64()?;
    let seed = r.read_u64()?;
    let warmup = r.read_u64()?;
    let instructions = r.read_u64()?;
    let prefetch = r.read_bool()?;
    let llc_capacity_full_scale = if r.read_bool()? {
        Some(r.read_usize()?)
    } else {
        None
    };
    let warm_spec = r.read_str()?;
    let total_instr = r.read_u64()?;
    let instrumented = r.read_bool()?;
    let window = if r.read_bool()? {
        Some(r.read_u64()?)
    } else {
        None
    };
    // Format v2 predates latency pinning: every v2 image was taken under
    // the default latencies, so substituting them is exact, not a guess.
    let latencies = if r.version() >= 3 {
        Latencies {
            l1: r.read_u64()?,
            l2: r.read_u64()?,
            llc: r.read_u64()?,
            memory: r.read_u64()?,
        }
    } else {
        Latencies::default()
    };
    Ok(CheckpointInfo {
        apps,
        scale,
        seed,
        warmup,
        instructions,
        prefetch,
        llc_capacity_full_scale,
        warm_spec,
        total_instr,
        instrumented,
        window,
        latencies,
    })
}
