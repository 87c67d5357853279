//! Chaos differential suite: the message-passing engine under seeded
//! deterministic fault injection.
//!
//! The contract (the tentpole property of the fault subsystem):
//!
//! - **Survivable** fault schedules — everything the ack/retry protocol
//!   absorbs (drops, duplicates, corruption, delays, stalls, slowdowns) —
//!   must produce labels **bit-identical** to the fault-free run (and so
//!   to the sequential engine), plus an equal [`ConformanceView`].
//! - **Unsurvivable** schedules (dead links, lost peers) must degrade
//!   gracefully to a sequential host re-run flagged `degraded` — never
//!   panic, never deadlock.
//! - The same `--chaos` seed must replay the exact same schedule: repeated
//!   runs emit identical fault events and, with the logical clock,
//!   byte-identical journals.

use cmmd_sim::{CommScheme, FaultPlan, PROFILE_NAMES};
use rg_core::{segment, validate_journal, Config, EventLog, Recorder};
use rg_imaging::synth;
use rg_msgpass::{
    segment_msgpass, segment_msgpass_chaos, segment_msgpass_chaos_with_telemetry,
    segment_msgpass_with_telemetry, Decomposition,
};

const NODES: usize = 4;

fn test_image() -> rg_imaging::GrayImage {
    synth::random_rects(48, 48, 8, 7)
}

fn test_config() -> Config {
    Config::with_threshold(12)
}

/// Host config with the message-passing square cap applied.
fn capped(config: &Config, nodes: usize, w: usize, h: usize) -> Config {
    let d = Decomposition::for_nodes(nodes, w, h).unwrap();
    Config {
        max_square_log2: Some(
            config
                .max_square_log2
                .map(|c| c.min(d.max_safe_square_log2()))
                .unwrap_or(d.max_safe_square_log2()),
        ),
        ..*config
    }
}

#[test]
fn survivable_profiles_are_bit_identical_to_fault_free() {
    let img = test_image();
    let cfg = test_config();
    let host = segment(&img, &capped(&cfg, NODES, img.width(), img.height()));
    let mut total_faults = 0u64;
    for scheme in [CommScheme::Async, CommScheme::LinearPermutation] {
        let clean = segment_msgpass(&img, &cfg, NODES, scheme);
        assert_eq!(clean.seg, host, "fault-free {scheme:?} must match host");
        for profile in ["none", "drop", "dup", "corrupt", "delay", "slow"] {
            for seed in [1u64, 2, 0xC0FFEE] {
                let plan = FaultPlan::new(seed, profile).expect("known profile");
                let out = segment_msgpass_chaos(&img, &cfg, NODES, scheme, &plan);
                assert!(
                    !out.degraded,
                    "{profile}:{seed:#x} on {scheme:?} should be survivable"
                );
                assert_eq!(
                    out.seg, clean.seg,
                    "{profile}:{seed:#x} on {scheme:?} must be bit-identical"
                );
                total_faults += out.fault_counters.total_faults();
            }
        }
    }
    assert!(
        total_faults > 0,
        "the survivable matrix must actually inject faults"
    );
}

#[test]
fn every_profile_and_seed_completes_without_panicking() {
    // The storm and blackhole profiles may or may not be survivable per
    // seed; either way the run must complete with correct labels — the
    // fault-free segmentation when it survives, the host fallback when the
    // cluster is lost.
    let img = test_image();
    let cfg = test_config();
    let host = segment(&img, &capped(&cfg, NODES, img.width(), img.height()));
    let (mut survived, mut degraded) = (0u32, 0u32);
    for profile in PROFILE_NAMES {
        for seed in 0u64..4 {
            let plan = FaultPlan::new(seed, profile).expect("known profile");
            let out = segment_msgpass_chaos(&img, &cfg, NODES, CommScheme::Async, &plan);
            assert_eq!(out.seg.labels, host.labels, "{profile}:{seed}");
            assert_eq!(out.seg.num_regions, host.num_regions, "{profile}:{seed}");
            if out.degraded {
                degraded += 1;
                assert_eq!(
                    out.fault_events.last().map(|e| e.kind.label()),
                    Some("degraded"),
                    "{profile}:{seed} must end with a degraded marker"
                );
            } else {
                survived += 1;
            }
        }
    }
    assert!(survived > 0, "some schedules must survive");
    assert!(degraded > 0, "blackhole schedules must degrade");
}

#[test]
fn blackhole_degrades_to_host_fallback() {
    let img = test_image();
    let cfg = test_config();
    let host = segment(&img, &capped(&cfg, NODES, img.width(), img.height()));
    let plan = FaultPlan::parse("7:blackhole").expect("valid spec");
    let out = segment_msgpass_chaos(&img, &cfg, NODES, CommScheme::Async, &plan);
    assert!(out.degraded, "blackhole must kill the cluster");
    assert_eq!(out.seg, host, "degraded labels come from the host engine");
    assert!(out.fault_counters.links_dead > 0);
    assert_eq!(out.total_messages, 0, "no comm totals on a degraded run");
}

#[test]
fn chaos_report_matches_fault_free_conformance_view() {
    let img = test_image();
    let cfg = test_config();

    let mut clean_rec = Recorder::new();
    segment_msgpass_with_telemetry(&img, &cfg, NODES, CommScheme::Async, &mut clean_rec);

    let plan = FaultPlan::parse("2:storm").expect("valid spec");
    let mut chaos_rec = Recorder::new();
    let out = segment_msgpass_chaos_with_telemetry(
        &img,
        &cfg,
        NODES,
        CommScheme::Async,
        &plan,
        &mut chaos_rec,
    );
    assert!(!out.degraded, "storm seed 2 is a survivable schedule");
    assert!(out.fault_counters.total_faults() > 0);

    let clean = clean_rec.report();
    let chaos = chaos_rec.report();
    assert_eq!(
        clean.conformance_view(),
        chaos.conformance_view(),
        "surviving a chaos schedule must not change what the run computed"
    );
    // The chaos report carries the injected faults; the clean one is bare.
    assert!(clean.faults.is_empty() && !clean.degraded);
    assert_eq!(chaos.faults.len(), out.fault_events.len());
    assert!(!chaos.degraded);
    assert_eq!(
        chaos.counter("faults.total"),
        Some(out.fault_counters.total_faults() as f64)
    );
}

#[test]
fn degraded_run_reports_degraded_marker() {
    let img = test_image();
    let cfg = test_config();
    let plan = FaultPlan::parse("7:blackhole").expect("valid spec");
    let mut rec = Recorder::new();
    segment_msgpass_chaos_with_telemetry(&img, &cfg, NODES, CommScheme::Async, &plan, &mut rec);
    let r = rec.report();
    assert!(r.degraded, "telemetry report must carry the degraded flag");
    assert!(r.faults.iter().any(|f| f.kind == "degraded"));
    assert!(r.faults.iter().any(|f| f.kind == "link_dead"));
    // The rendered report carries the degraded flag and every fault.
    let json = rg_core::json::Json::parse(&r.to_json_pretty()).expect("well-formed JSON");
    assert_eq!(json.get("degraded"), Some(&true.into()));
    let faults = json
        .get("faults")
        .and_then(|f| f.as_arr())
        .expect("faults[]");
    assert_eq!(faults.len(), r.faults.len());
    for (got, want) in faults.iter().zip(&r.faults) {
        assert_eq!(got.get("kind").and_then(|k| k.as_str()), Some(&*want.kind));
        assert_eq!(
            got.get("src").and_then(|v| v.as_u64()),
            Some(u64::from(want.src))
        );
        assert_eq!(
            got.get("dst").and_then(|v| v.as_u64()),
            Some(u64::from(want.dst))
        );
        assert_eq!(got.get("seq").and_then(|v| v.as_u64()), Some(want.seq));
        assert_eq!(got.get("ts_ns").and_then(|v| v.as_f64()), Some(want.ts_ns));
    }
}

#[test]
fn chaos_journals_validate_and_replay_byte_identically() {
    let img = test_image();
    let cfg = test_config();
    for spec in ["2:storm", "7:blackhole"] {
        let plan = FaultPlan::parse(spec).expect("valid spec");
        let run = || {
            let mut log = EventLog::in_memory().with_logical_clock();
            segment_msgpass_chaos_with_telemetry(
                &img,
                &cfg,
                NODES,
                CommScheme::Async,
                &plan,
                &mut log,
            );
            log.into_events()
        };
        let (a, b) = (run(), run());
        validate_journal(&a).unwrap_or_else(|e| panic!("{spec}: invalid chaos journal: {e:?}"));
        assert!(!a.is_empty());
        // Same seed, same schedule: byte-identical journal lines.
        let lines = |evs: &[rg_core::Event]| -> Vec<String> {
            evs.iter().map(|e| e.to_json().to_compact()).collect()
        };
        assert_eq!(lines(&a), lines(&b), "{spec}: journal must be reproducible");
        // Fault events made it into the journal.
        assert!(
            a.iter()
                .any(|e| matches!(&e.kind, rg_core::EventKind::Fault { .. })),
            "{spec}: journal must record fault events"
        );
    }
}

#[test]
fn same_seed_same_schedule_different_seed_different_schedule() {
    let img = test_image();
    let cfg = test_config();
    let run = |seed: u64| {
        let plan = FaultPlan::new(seed, "storm").expect("known profile");
        segment_msgpass_chaos(&img, &cfg, NODES, CommScheme::Async, &plan)
    };
    let (a, b, c) = (run(2), run(2), run(3));
    assert_eq!(a.fault_events, b.fault_events, "seed 2 must replay exactly");
    assert_eq!(a.fault_counters, b.fault_counters);
    assert_ne!(
        a.fault_events, c.fault_events,
        "different seeds must produce different schedules"
    );
}

#[test]
fn chaos_batch_pipeline_matches_host_per_image() {
    // Each pipeline replays its own fault plan per image, so a chaos batch
    // must give the same results on one worker as on several.
    use rg_core::{run_batch_collect, BatchOptions, NullTelemetry};
    let cfg = test_config();
    let imgs: Vec<_> = (0..6).map(|s| synth::random_rects(32, 32, 6, s)).collect();
    let capped_cfg = capped(&cfg, NODES, 32, 32);
    for spec in ["1:drop", "2:storm", "7:blackhole"] {
        let plan = FaultPlan::parse(spec).expect("valid spec");
        let run = |jobs: usize| {
            let (results, summary) = run_batch_collect(
                &imgs,
                &BatchOptions::new().jobs(jobs),
                || {
                    Box::new(rg_msgpass::MsgPassPipeline::with_chaos(
                        capped_cfg,
                        NODES,
                        CommScheme::Async,
                        plan.clone(),
                    ))
                },
                &mut NullTelemetry,
            );
            assert!(summary.all_ok(), "{spec} jobs={jobs}");
            assert_eq!(summary.jobs, jobs, "{spec}");
            results
        };
        let serial = run(1);
        assert_eq!(run(4), serial, "{spec}: results depend on the worker count");
        for (img, got) in imgs.iter().zip(&serial) {
            assert_eq!(got, &segment(img, &capped_cfg), "{spec}");
        }
    }
}
