//! Resume determinism: for every bench-matrix policy, a run resumed from
//! a warm checkpoint must be byte-identical (in report JSON) to the same
//! run executed straight through, and corrupt or mismatched checkpoints
//! must fail with descriptive errors — never silently diverge.

use tla::sim::{Checkpoint, MixRun, PolicySpec, SimConfig, SnapshotError};
use tla::workloads::SpecApp;

fn cfg() -> SimConfig {
    SimConfig::scaled_down()
        .warmup(100_000)
        .instructions(50_000)
        .seed(42)
}

const MIX: [SpecApp; 2] = [SpecApp::Libquantum, SpecApp::Sjeng];
const WINDOW: u64 = 25_000;

/// The four bench-matrix policies.
fn matrix_policies() -> [PolicySpec; 4] {
    [
        PolicySpec::baseline(),
        PolicySpec::tlh_l1(),
        PolicySpec::eci(),
        PolicySpec::qbs(),
    ]
}

#[test]
fn resumed_reports_match_straight_runs_for_every_matrix_policy() {
    for spec in matrix_policies() {
        let (_, straight) = MixRun::new(&cfg(), &MIX)
            .spec(&spec)
            .run_report(Some(WINDOW));
        let checkpoint = MixRun::new(&cfg(), &MIX)
            .spec(&spec)
            .warm_checkpoint_instrumented(Some(WINDOW));
        let (_, resumed) = MixRun::new(&cfg(), &MIX)
            .spec(&spec)
            .resume_report(&checkpoint, Some(WINDOW))
            .unwrap();
        assert_eq!(
            resumed.to_json_string(),
            straight.to_json_string(),
            "{}: resumed report differs from straight-through report",
            spec.name
        );
    }
}

/// PR 5 acceptance: a 128-entry fully-associative victim cache — wider
/// than one bitmap word, scanned by the dispatched probe kernel —
/// constructs, runs, and snapshot-resumes byte-identically.
#[test]
fn wide_victim_cache_resumes_byte_identically() {
    let spec = PolicySpec::victim_cache(128);
    let (_, straight) = MixRun::new(&cfg(), &MIX)
        .spec(&spec)
        .run_report(Some(WINDOW));
    let checkpoint = MixRun::new(&cfg(), &MIX)
        .spec(&spec)
        .warm_checkpoint_instrumented(Some(WINDOW));
    // The image itself round-trips bytes through the serializer.
    let reloaded = Checkpoint::from_bytes(checkpoint.as_bytes().to_vec()).unwrap();
    assert_eq!(reloaded.as_bytes(), checkpoint.as_bytes());
    let (_, resumed) = MixRun::new(&cfg(), &MIX)
        .spec(&spec)
        .resume_report(&checkpoint, Some(WINDOW))
        .unwrap();
    assert_eq!(
        resumed.to_json_string(),
        straight.to_json_string(),
        "VC-128: resumed report differs from straight-through report"
    );
}

#[test]
fn checkpoint_survives_disk_round_trip() {
    let dir = std::env::temp_dir().join(format!("tla-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("warm.tlas");

    let checkpoint = MixRun::new(&cfg(), &MIX).warm_checkpoint();
    checkpoint.save(&path).unwrap();
    let loaded = Checkpoint::load(&path).unwrap();
    assert_eq!(loaded.as_bytes(), checkpoint.as_bytes());

    // A second save of the loaded checkpoint is byte-identical on disk.
    let path2 = dir.join("warm2.tlas");
    loaded.save(&path2).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&path2).unwrap()
    );

    let direct = MixRun::new(&cfg(), &MIX)
        .spec(&PolicySpec::eci())
        .resume(&checkpoint)
        .unwrap();
    let via_disk = MixRun::new(&cfg(), &MIX)
        .spec(&PolicySpec::eci())
        .resume(&loaded)
        .unwrap();
    assert_eq!(direct.global, via_disk.global);
    for (a, b) in direct.threads.iter().zip(&via_disk.threads) {
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.cycles, b.cycles);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// 64-bit FNV-1a, for pinning checkpoint bytes as one constant.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The warm image's bytes are a wire format: a change to how any layer
/// (trace generators included) serializes must show up here, not only as
/// a cross-engine mismatch. The constant was recorded before trace
/// generation went inline, whose checkpoints must stay byte-identical.
#[test]
fn checkpoint_bytes_are_pinned() {
    let cfg = SimConfig::scaled_down().warmup(15_000).instructions(10_000);
    let checkpoint = MixRun::new(&cfg, &[SpecApp::Sjeng, SpecApp::Mcf]).warm_checkpoint();
    assert_eq!(
        format!("{:016x}", fnv1a(checkpoint.as_bytes())),
        "59d4056219b9ab9b",
        "checkpoint wire bytes changed"
    );
}

/// The same pin on an LLC-thrashing 4-core mix, under ECI and under QBS,
/// whose warm images carry large victim-tracker sections: after 1 M
/// warm-up instructions per core each tracker holds about 10–40 k seen
/// lines, and ECI leaves about 6.5 k pending kills split between
/// `Replacement` and `Eci` (QBS's approved evictions take nothing from
/// the core caches, so its pending kills are a few dozen `QbsLimit`
/// ones). Both constants were recorded before the tracker moved from
/// hash maps to 64-line pages, whose checkpoints must stay
/// byte-identical.
#[test]
fn thrashing_checkpoint_bytes_are_pinned() {
    let cfg = SimConfig::scaled_down()
        .warmup(1_000_000)
        .instructions(10_000);
    let mix = [
        SpecApp::Mcf,
        SpecApp::Libquantum,
        SpecApp::Mcf,
        SpecApp::Libquantum,
    ];
    for (spec, pin) in [
        (PolicySpec::eci(), "80acadb03a2fbc7d"),
        (PolicySpec::qbs(), "c399086418f4dff4"),
    ] {
        let checkpoint = MixRun::new(&cfg, &mix).spec(&spec).warm_checkpoint();
        assert_eq!(
            format!("{:016x}", fnv1a(checkpoint.as_bytes())),
            pin,
            "{}: checkpoint wire bytes changed",
            spec.name
        );
    }
}

#[test]
fn corrupt_checkpoints_fail_loudly() {
    let bytes = MixRun::new(&cfg(), &MIX)
        .warm_checkpoint()
        .as_bytes()
        .to_vec();

    // Bad magic.
    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'X';
    assert!(matches!(
        Checkpoint::from_bytes(bad_magic).unwrap_err(),
        SnapshotError::BadMagic
    ));

    // Unsupported version byte.
    let mut bad_version = bytes.clone();
    bad_version[4] = 0xFF;
    match Checkpoint::from_bytes(bad_version).unwrap_err() {
        SnapshotError::BadVersion { found, .. } => assert_eq!(found, 0xFF),
        other => panic!("expected BadVersion, got {other}"),
    }

    // Any flipped payload byte trips the checksum.
    for frac in [3, 2] {
        let mut corrupt = bytes.clone();
        let at = corrupt.len() / frac;
        corrupt[at] ^= 0x10;
        assert!(matches!(
            Checkpoint::from_bytes(corrupt).unwrap_err(),
            SnapshotError::BadChecksum
        ));
    }

    // Truncation anywhere fails (short header is Truncated; a longer cut
    // loses the checksum alignment).
    for cut in [2, 8, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            Checkpoint::from_bytes(bytes[..cut].to_vec()).is_err(),
            "cut at {cut} must be rejected"
        );
    }
    assert!(matches!(
        Checkpoint::from_bytes(bytes[..8].to_vec()).unwrap_err(),
        SnapshotError::Truncated
    ));

    // Errors render descriptively.
    let msg = SnapshotError::BadChecksum.to_string();
    assert!(msg.contains("checksum"), "{msg}");
}

#[test]
fn resume_pins_every_axis_but_the_policy() {
    let checkpoint = MixRun::new(&cfg(), &MIX).warm_checkpoint();

    // The policy axis is free: every matrix policy resumes fine.
    for spec in matrix_policies() {
        assert!(MixRun::new(&cfg(), &MIX)
            .spec(&spec)
            .resume(&checkpoint)
            .is_ok());
    }

    // Everything else is pinned with a Mismatch naming the axis.
    let expect = |err: SnapshotError, needle: &str| match err {
        SnapshotError::Mismatch(msg) => {
            assert!(msg.contains(needle), "message {msg:?} lacks {needle:?}")
        }
        other => panic!("expected Mismatch for {needle}, got {other}"),
    };
    let other_mix = [SpecApp::Mcf, SpecApp::Sjeng];
    expect(
        MixRun::new(&cfg(), &other_mix)
            .resume(&checkpoint)
            .unwrap_err(),
        "mix",
    );
    expect(
        MixRun::new(&cfg().seed(7), &MIX)
            .resume(&checkpoint)
            .unwrap_err(),
        "seed",
    );
    expect(
        MixRun::new(&cfg().warmup(1), &MIX)
            .resume(&checkpoint)
            .unwrap_err(),
        "warm-up",
    );
    expect(
        MixRun::new(&cfg().instructions(1), &MIX)
            .resume(&checkpoint)
            .unwrap_err(),
        "instruction quota",
    );
    expect(
        MixRun::new(&cfg().prefetch(false), &MIX)
            .resume(&checkpoint)
            .unwrap_err(),
        "prefetch",
    );
}
